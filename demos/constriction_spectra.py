"""Inspect the spectral machinery behind the constriction factors.

Shows the deterministic swarm map, its eigenvalues, and how the
momentum-aware factor rescales the unstable mode to unit modulus.
"""

import numpy as np

from fcpso import (
    activation_event,
    activation_threshold,
    chi_momentum,
    chi_vanilla,
    eigenvalues,
    evolution_matrix,
    lambda_max,
)

print("=== the 3-D deterministic map and its matrix ===")
phi, beta = 4.0, 0.5
print(f"phi = {phi}, beta = {beta}")
u = evolution_matrix(phi, beta)
print(u)
state = np.array([1.0, 1.0, 0.0])  # [v, y, m]
for t in range(4):
    v, y, m = state
    print(f"  t={t}: v={v:+.4f} y={y:+.4f} m={m:+.4f}")
    state = u @ state

print()
print("=== eigenvalues and the constriction factor ===")
pair = eigenvalues(phi, beta)
print(f"lambda+ = {pair.lambda_plus:.5f}, lambda- = {pair.lambda_minus:.5f}")
print(f"lambda_max = {lambda_max(phi, beta):.5f}")
print(f"chi = {chi_momentum(phi, beta):+.5f}  ->  |chi| * lambda_max = "
      f"{abs(chi_momentum(phi, beta)) * lambda_max(phi, beta):.12f}")

print()
print("=== activation regions ===")
print(f"{'beta':>6} {'threshold 4/(1+beta)':>22}")
for b in (0.0, 0.25, 0.5, 0.75, 0.99):
    print(f"{b:>6.2f} {activation_threshold(b):>22.4f}")

print()
print("vanilla never activates below phi = 4; momentum activates earlier:")
for phi in (3.0, 3.5, 4.0, 4.5):
    row = [f"phi={phi:.1f}"]
    row.append(f"chi_v={chi_vanilla(phi):+.4f}")
    for b in (0.2, 0.5, 0.8):
        mark = "*" if activation_event(phi, b) else " "
        row.append(f"chi_m(b={b})={chi_momentum(phi, b):+.4f}{mark}")
    print("  " + "  ".join(row))
print("(* marks an active draw)")

print()
print("=== stability sweep: |chi| * lambda_max <= 1 wherever active ===")
rng = np.random.default_rng(0)
worst = 0.0
for _ in range(100_000):
    phi = rng.uniform(0.01, 6.0)
    beta = rng.uniform(0.0, 0.999999)
    if activation_event(phi, beta):
        worst = max(worst, abs(chi_momentum(phi, beta)) * lambda_max(phi, beta))
print(f"max over 1e5 active draws: {worst:.12f}")

"""Sweep solver unfairness and watch the hypervolume respond.

Uses a reduced budget so the sweep finishes in about a minute; the full
protocol (25,000 evaluations, 20 repetitions) is exposed by the
`fcpso profile` command.
"""

from fcpso.experiments import unfairness_profile

GRID = [-0.4, -0.2, -0.05, 0.1, 0.25, 0.35, 0.42]

print("profiling zdt1 across the unfairness grid (reduced budget)...")
points, notices = unfairness_profile(
    ["zdt1"],
    GRID,
    repetitions=3,
    base_seed=1,
    max_evaluations=10_000,
    swarm_size=100,
    workers=2,
)
for notice in notices:
    print("note:", notice)

print()
print(f"{'mu':>7} {'normalized hv':>14}")
for pt in sorted(points, key=lambda p: p.mu):
    bar = "#" * int(round(40 * min(pt.normalized_hv, 1.2)))
    print(f"{pt.mu:>+7.2f} {pt.normalized_hv:>14.4f}  {bar}")

under = [pt.normalized_hv for pt in points if pt.mu < 0]
collapsed = [pt.mu for pt in points if pt.mu > 0 and pt.normalized_hv < 0.9]
print()
print(f"under-constricted swarms (mu < 0) reach {min(under):.4f} to {max(under):.4f} of the baseline hv;")
if collapsed:
    print(f"the smallest over-constriction (mu > 0) below 0.9 of it is mu = {min(collapsed):+.2f}.")
else:
    print("no over-constricted swarm (mu > 0) falls below 0.9 of it on this grid.")

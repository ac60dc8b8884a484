"""Tour of the quality indicators on toy fronts and a real run."""

import numpy as np

from fcpso import (
    DynamicsConfig,
    RunConfig,
    additive_epsilon,
    get_problem,
    hypervolume,
    igd,
    run,
    spacing,
)

print("=== hand-checkable hypervolume ===")
front = np.array([[0.0, 1.0], [0.25, 0.5], [1.0, 0.0]])
ref = np.array([2.0, 2.0])
print(f"front: {front.tolist()}")
print(f"hv against {ref.tolist()}: {hypervolume(front, ref)}  "
      "(= 0.25*1 + 0.75*1.5 + 1*2 = 3.375)")

print()
print("=== the indicators agree with intuition ===")
reference = np.array([[0.0, 1.0], [0.5, 0.5], [1.0, 0.0]])
shifted = reference + 0.2
print(f"igd(shifted, ref)  = {igd(shifted, reference):.4f}")
print(f"eps(shifted, ref)  = {additive_epsilon(shifted, reference):.4f}  (uniform +0.2 shift)")
print(f"spacing(even grid) = {spacing(np.column_stack([np.linspace(0, 1, 11), np.linspace(1, 0, 11)])):.4f}")

print()
print("=== a real front, measured against the generated reference ===")
problem = get_problem("zdt1")
result = run(problem, RunConfig(dynamics=DynamicsConfig(variant="fcpso")), seed=1)
F = result.front_objectives
print(f"front size : {result.front_size}")
print(f"hv         : {hypervolume(F, problem.hv_reference_point):.4f}   (optimum {problem.reference_hv:.4f})")
print(f"igd        : {igd(F, problem.reference_front):.5f}")
print(f"eps        : {additive_epsilon(F, problem.reference_front):.5f}")
print(f"spacing    : {spacing(F):.5f}")

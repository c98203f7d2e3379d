"""Raking a contingency table: cyclic marginal fitting vs the Newton solve.

Given row and column marginals on a 3x2 table, iterative proportional
fitting cycles through the binary constraints while the Newton solver
treats them as one element; both land on the same minimum-divergence
table.  With single-attribute marginals and a uniform reference the
answer is the independence (product) table.
"""

import numpy as np

from totem import (
    AttributeDomain,
    Distribution,
    EntitySpace,
    Totemplex,
    ipf_project,
    make_element,
    marginal_op,
    max_norm_distance,
    newton_project,
    uniform,
)

space = EntitySpace(
    [
        AttributeDomain("region", ["north", "center", "south"]),
        AttributeDomain("choice", ["yes", "no"]),
    ]
)
ops = [marginal_op(space, d.name, level) for d in space.domains for level in d.levels]
rows = np.array([op.eigenvalues for op in ops])
row_marginals = np.array([0.5, 0.3, 0.2])
col_marginals = np.array([0.65, 0.35])
targets = np.concatenate([row_marginals, col_marginals])

# feasible targets come from an actual distribution with those marginals
table = np.outer(row_marginals, col_marginals).ravel()
f = Distribution.from_admissible_weights(space, table)

reference = uniform(space)
raked = ipf_project(reference, rows, targets)
print(f"IPF: {raked.iterations} cycle(s), residual {raked.residual:.2e}")

element = make_element(ops, mode="auto-reduce")
solved = newton_project(reference, Totemplex(element, f))
print(f"Newton: {solved.iterations} iteration(s), residual {solved.residual:.2e}")
print(f"max difference between the two solutions: "
      f"{max_norm_distance(raked.distribution, solved.distribution):.2e}")

print("\nfitted table (rows: region, columns: choice):")
grid = raked.distribution.weights.reshape(3, 2)
for name, row in zip(["north", "center", "south"], grid):
    print(f"  {name:>7}: " + "  ".join(f"{x:.4f}" for x in row))
print("independence product would be:")
for name, row in zip(["north", "center", "south"], np.outer(row_marginals, col_marginals)):
    print(f"  {name:>7}: " + "  ".join(f"{x:.4f}" for x in row))

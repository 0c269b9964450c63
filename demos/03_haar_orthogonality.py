"""Orthogonality of matrix elements under the invariant measure.

A small product grid (Gauss-Legendre in cos(2 theta), uniform in the two
phases) integrates products of matrix elements exactly, so the orthogonality
relations come out at machine precision rather than merely converging.  A
Monte-Carlo estimate from the uniform sampler cross-checks one of them.
"""
import math

import numpy as np

from wignerkit import (
    HalfInt,
    build_grid,
    character_norm,
    pairwise_sum,
    sample_haar,
    schur_check,
    spins_up_to,
    tmn_sum,
)

grid = build_grid(HalfInt(3))  # exact through spin 3/2: 2 x 7 x 7 nodes
print(
    f"grid: {grid.n_theta} x {grid.n_phi} x {grid.n_psi} nodes "
    f"({grid.node_count} total), weights sum to 1 within "
    f"{abs(grid.weights.sum() - 1):.1e}"
)
print(f"normalization check, integral of 1: {float(pairwise_sum(grid.weights))!r}\n")

print("Schur orthogonality: worst deviation from delta/(2l+1) per spin pair")
spins = spins_up_to(HalfInt(3))
for i, l in enumerate(spins):
    for lp in spins[i:]:
        report = schur_check(grid, l, lp)
        print(f"  l={str(l):>4}  l'={str(lp):>4}: {report.max_deviation:.2e} over {report.checked} integrals")

print("\ncharacter norms (1.0 exactly for an irreducible representation):")
for l in spins:
    print(f"  l={str(l):>4}: {character_norm(grid, l):.15f}")

print("\nMonte-Carlo cross-check of one squared element, exact value 1/3:")
samples = sample_haar(2024, 100_000)
l, m, n = HalfInt(2), HalfInt(2), HalfInt(0)
values = np.array([abs(tmn_sum(l, m, n, g)) ** 2 for g in samples])
mean = values.mean()
sigma = values.std(ddof=1) / math.sqrt(len(values))
print(f"  {len(values)} samples: {mean:.6f}  (1/3 = {1/3:.6f}, sigma = {sigma:.1e})")

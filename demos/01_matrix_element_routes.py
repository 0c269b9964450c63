"""Six ways to the same matrix.

The spin-l representation matrix of a 2x2 element can be computed by a
brute-force polynomial expansion (the oracle), an explicit finite sum, a
terminating 2F1, a Jacobi polynomial, a Rodrigues-type derivative, or a
Krawtchouk polynomial.  This script builds the spin-3/2 matrix of a random
group element each way and prints how far every route lands from the oracle.
"""
import numpy as np

from wignerkit import (
    EulerAngles,
    HalfInt,
    apply_symmetry,
    dmatrix_euler,
    from_euler,
    oracle_matrix,
    sample_haar,
    spin_range,
    tmn_hyp,
    tmn_jacobi,
    tmn_krawtchouk,
    tmn_rodrigues,
    tmn_sum,
)

l = HalfInt(3)  # spin 3/2
(g,) = sample_haar(7, 1)
print(f"random SU(2) element g:\n{np.round(g.as_array(), 4)}\n")

reference = oracle_matrix(l, g)
print(f"spin {l} matrix via the polynomial-expansion oracle:")
print(np.round(reference.entries, 4), "\n")

unitarity = np.max(np.abs(reference.entries @ reference.entries.conj().T - np.eye(l.twice + 1)))
print(f"unitarity defect |T T* - I| = {unitarity:.2e}\n")

print("per-entry routes vs oracle (worst absolute deviation):")
dev_sum = max(
    abs(tmn_sum(l, m, n, g) - reference.entry(m, n))
    for m in spin_range(l)
    for n in spin_range(l)
)
print(f"  finite sum        {dev_sum:.2e}  (every entry)")

dev_hyp = max(
    abs(tmn_hyp(l, m, n, g) - reference.entry(m, n))
    for m in spin_range(l)
    for n in spin_range(l)
)
print(f"  terminating 2F1   {dev_hyp:.2e}  (every entry, folded onto m+n >= 0, m-n >= 0)")

dev_jac = max(
    abs(tmn_jacobi(l, m, n, g) - reference.entry(m, n))
    for m in spin_range(l)
    for n in spin_range(l)
)
print(f"  jacobi form       {dev_jac:.2e}  (every entry, folded onto m+n >= 0, m-n >= 0)")

# zero-phase rotations: two more routes become available
theta = 0.9
k = from_euler(EulerAngles(theta, 0.0, 0.0))
rot = oracle_matrix(l, k)
dev_rod = max(
    abs(tmn_rodrigues(l, m, n, theta) - rot.entry(m, n).real)
    for m in spin_range(l)
    for n in spin_range(l)
)
dev_kra = max(
    abs(tmn_krawtchouk(l, m, n, theta) - rot.entry(m, n).real)
    for m in spin_range(l)
    for n in spin_range(l)
)
print(f"  rodrigues form    {dev_rod:.2e}  (zero phases, theta = {theta})")
print(f"  krawtchouk form   {dev_kra:.2e}  (zero phases, theta = {theta})")

angles = EulerAngles(0.9, 2.1, 5.0)
dev_chart = np.max(
    np.abs(dmatrix_euler(l, angles).entries - oracle_matrix(l, from_euler(angles)).entries)
)
print(f"  angle-chart form  {dev_chart:.2e}  (closed form + index symmetries)\n")

# the index symmetries move any entry into the closed-form quadrant
m, n = HalfInt(-3), HalfInt(1)
m2, n2, g2 = apply_symmetry("flip-signs", l, m, n, g)
print(
    "symmetry example: t[m=-3/2, n=1/2](g) = t[m=3/2, n=-1/2](g') with the "
    "matrix reversed across its anti-diagonal:"
)
print(f"  {tmn_sum(l, m, n, g):.6f}  vs  {tmn_sum(l, m2, n2, g2):.6f}")

"""Classical Legendre identities recovered from the group picture.

For a determinant-one element the central matrix element is a Legendre
value, P_l(2ad - 1).  Composing two real rotations around a diagonal phase
turns that fact into the addition formula, and averaging the phase away
gives the product formula.
"""
import math

from wignerkit import HalfInt, Mat2C, legendre, legendre_checks, oracle_matrix

print("central matrix element of a determinant-one element vs P_l(2ad - 1):")
A = Mat2C(1.2, 0.8, 0.4, 1.1)  # det = 1.32 - 0.32 = 1
for l in range(5):
    got = oracle_matrix(HalfInt(2 * l), A).entry(HalfInt(0), HalfInt(0)).real
    want = legendre(l, 2 * 1.2 * 1.1 - 1)
    print(f"  l={l}:  {got: .12f}  vs  {want: .12f}")

t1, t2, phi = 0.7, 1.3, 2.1
# Both formulas at degrees 0-6 for the one triple, each as an array (triples, degrees).
addition, product = legendre_checks(range(7), [(t1, t2, phi)])
arg = math.cos(t1) * math.cos(t2) + math.sin(t1) * math.sin(t2) * math.cos(phi)
print(f"\naddition formula at theta1={t1}, theta2={t2}, phi={phi}")
print(f"  composite argument: {arg:.6f}")
for l in range(7):
    print(f"  l={l}: max deviation across the two decompositions = {addition[0, l]:.2e}")

print("\nproduct formula: P_l(cos t1) P_l(cos t2) as a phase average")
for l in range(7):
    dev = product[0, l]
    lhs = legendre(l, math.cos(t1)) * legendre(l, math.cos(t2))
    print(f"  l={l}: product = {lhs: .10f}, quadrature deviation = {dev:.2e}")

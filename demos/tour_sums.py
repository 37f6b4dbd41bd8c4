"""Walkthrough: gluing well-suited pairs with the 1-, 2- and 3-sums.

A form Q is well-suited for a simple TU matrix A when Q >= 1 on nonzero
integer vectors with equality exactly at the +- columns of A.  The three
sums are one rule with k = 0, 1, 2 shared coordinates: the left form
[Q1 B1; B1^t C] and the right form [C B2^t; B2 Q2] share a central block
C, and glue to [Q1 B1 M; B1^t C B2^t; M^t B2 Q2] with M = B1 C^-1 B2^t.
C is empty for the 1-sum, [1] for the 2-sum and [[1, -1/2], [-1/2, 1]]
for the 3-sum.  Each output is re-verified by a full enumeration, so a
successful run is itself a proof at this scale.
"""

from fractions import Fraction

from conelab.fixtures import load_int_matrix, load_matrix
from conelab.quadforms import (
    QuadForm,
    WellSuitedPair,
    minimal_vectors,
    sum_coupling,
    well_suited_sum1,
    well_suited_sum2,
    well_suited_sum3,
)
from conelab.tumatrix import TUMatrix


def pair(qname, aname):
    return WellSuitedPair.check(
        QuadForm(load_matrix(qname)), TUMatrix.check(load_int_matrix(aname))
    )


def main():
    print("=== 1-sum (k = 0): the direct sum, no shared block ===")
    k3 = pair("Q0_2.txt", "AK3.txt")
    p = well_suited_sum1(k3, k3)
    print("glued form:")
    print(p.form.matrix)
    print("well-suited for the", p.matrix.inner.shape, "block matrix: verified")

    print()
    print("=== 2-sum (k = 1): glue along a shared unit column, C = [1] ===")
    p2 = well_suited_sum2(
        pair("SUM2_LEFT_Q.txt", "SUM2_LEFT_A.txt"),
        pair("SUM2_RIGHT_Q.txt", "SUM2_RIGHT_A.txt"),
    )
    print("glued form (the coupling entry 1/4 is M = (1/2) * 1 * (1/2)):")
    print(p2.form.matrix)
    print("its minimal vectors are exactly the glued columns:")
    print(minimal_vectors(p2.form).vectors)

    print()
    print("=== 3-sum (k = 2): glue along the triangle pattern ===")
    p3 = well_suited_sum3(
        pair("SUM3_LEFT_Q.txt", "SUM3_LEFT_A.txt"),
        pair("SUM3_RIGHT_Q.txt", "SUM3_RIGHT_A.txt"),
    )
    print("glued form (the coupling entry 1/3 is M = B1 C^-1 B2^t):")
    print(p3.form.matrix)
    print("glued matrix:")
    print(p3.matrix.inner)

    print()
    print("=== a sharpness note ===")
    # the left 3-sum fixture has Q1 = [1] and border B1 = [1/2, -1/2]; its
    # Schur complement Q1(xi) - (B1^t xi)^t C^-1 (B1^t xi) at xi = 1
    u = (Fraction(1, 2), Fraction(-1, 2))
    val = 1 - sum_coupling(u, u, 2)
    print("the triangle-sum completion bound at the unit vector is", val,
          "(= 2/3, the sharp floor; the naive square-grid bound 3/4 is wrong here)")


if __name__ == "__main__":
    main()

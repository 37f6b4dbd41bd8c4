"""Walkthrough: minimal vectors, perfect cones, and a face certificate.

Runs in a couple of seconds and prints everything it computes, so it
doubles as a sanity check that an installation is healthy.
"""

from conelab.cones import (
    evaluate_functional,
    find_supporting_functional,
    membership,
    sigma_of_matrix,
)
from conelab.fixtures import load_int_matrix
from conelab.quadforms import (
    QuadForm,
    minimal_vectors,
    perfect_cone_of,
    q0_principal,
    q5,
)
from conelab.tumatrix import TUMatrix, is_totally_unimodular


def main():
    print("=== the smallest interesting perfect form ===")
    q0 = q0_principal(2)
    print("Q0 =", q0.matrix)
    mv = minimal_vectors(q0)
    print("minimum:", mv.minimum)
    print("minimal vectors (one per +- pair):", mv.vectors)
    cone = perfect_cone_of(q0)
    print("perfect cone span dimension:", cone.span_dimension(), "of 3")

    print()
    print("=== membership is a certificate, not a heuristic ===")
    q = QuadForm.from_rows([[2, -1], [-1, 2]])
    lam = membership(q, cone)
    print("[[2,-1],[-1,2]] =", " + ".join(
        f"{l} * {v}{v}^t" for l, v in zip(lam, cone.generators)))

    print()
    print("=== the rank-5 showpiece ===")
    a10 = load_int_matrix("A10.txt")
    print("columns are 10 of the 20 minimal vectors of")
    print("Q5 =", q5().matrix)
    print("A10 totally unimodular:", is_totally_unimodular(a10))
    mv5 = minimal_vectors(q5())
    print("minimum", mv5.minimum, "attained at", len(mv5.vectors), "vector pairs")

    big = perfect_cone_of(q5())
    small = sigma_of_matrix(TUMatrix(a10, verified=True))
    sub = [i for i, v in enumerate(big.generators) if v in set(small.generators)]
    cert = find_supporting_functional(sub, big)
    print("face certificate found:", cert is not None)
    print("functional:")
    print(cert.functional)
    values = sorted(set(cert.values))
    print("values on generators (0 on the face, negative off it):", values)
    assert all(evaluate_functional(cert.functional, big.generators[i]) == 0
               for i in cert.zero_set)
    print("10-column cone is a face of the 20-generator perfect cone. qed")


if __name__ == "__main__":
    main()

#!/usr/bin/env python3
"""Moments, Hankel positivity, and two routes back to the matrix.

A discrete measure determines a moment sequence; the sequence passes
the Hankel test exactly up to its support size; and the leading Jacobi
block comes back either from the measure (Stieltjes/Lanczos) or from
raw moments (Hankel Cholesky).  The moment route degrades with size --
shown here by the growing round-trip error -- and refuses, rather than
return a wrong block, once a Cholesky pivot falls to 1e-5 of its
diagonal moment.
"""

import numpy as np

from todaflow import (
    DegenerateMeasureError,
    DiscreteMeasure,
    JacobiMatrix,
    MomentSequence,
    check_moment_positivity,
    eigendecompose,
    jacobi_from_measure,
    jacobi_from_moments,
    moments_from_measure,
)


def max_error(got, j):
    return max(np.max(np.abs(got.diag - j.diag)), np.max(np.abs(got.offdiag - j.offdiag)))


rng = np.random.default_rng(7)

print("=== Hankel classification ===")
for values, label in [
    ([1.0, 0.0, 1.0, 0.0, 2.0], "moments of a 3-point measure (first 5)"),
    ([1.0, 3.0, 9.0, 27.0, 81.0], "point mass at 3"),
    ([1.0, 0.0, -1.0], "negative second moment"),
    ([1.0, 0.0, 0.0, 0.0, 1.0], "zero variance but nonzero s_4"),
]:
    c = check_moment_positivity(MomentSequence(values))
    print(f"  {label:42s} -> {c.kind}({c.order})")

print("\n=== measure -> moments -> classification ===")
mu = DiscreteMeasure([-1.0, -0.2, 0.5, 1.0], [0.3, 0.25, 0.25, 0.2])
s = moments_from_measure(mu, 9)
print("  s:", np.array2string(s.values, precision=5))
c = check_moment_positivity(s)
print(f"  classification: {c.kind}({c.order})  (support size {mu.nodes.size})")

print("\n=== round trip: matrix -> measure -> matrix ===")
print(f"{'N':>3} {'measure route':>14}  moment route")
for n in (2, 4, 6, 8, 10):
    j = JacobiMatrix(diag=rng.uniform(-1, 1, n), offdiag=rng.uniform(0.5, 1.5, n - 1))
    mu = eigendecompose(j)
    err_measure = max_error(jacobi_from_measure(mu, n), j)
    try:
        moment_route = f"{max_error(jacobi_from_moments(moments_from_measure(mu, 2 * n), n), j):.3e}"
    except DegenerateMeasureError as exc:
        moment_route = f"DegenerateMeasureError: {exc}"
    print(f"{n:3d} {err_measure:14.3e}  {moment_route}")
print("\nthe measure route stays at roundoff; the raw-moment route loses digits")
print("with N and raises once a Hankel pivot falls to 1e-5 of its diagonal moment")

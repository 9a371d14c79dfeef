#!/usr/bin/env python3
"""The moment <-> response-vector dictionary.

Entries of the boundary-control response vector are integrals of
second-kind Chebyshev polynomials against the spectral measure.  In the
monomial basis that is an integer matrix acting on the moment vector;
the two evaluation routes must agree to roundoff.
"""

import numpy as np

from todaflow import (
    DiscreteMeasure,
    chebyshev_u,
    lambda_matrix,
    moments_from_measure,
    response_from_measure,
    response_from_moments,
)

print("Chebyshev family (T_0 = 0, T_1 = 1, T_{k+1} = lam T_k - T_{k-1}):")
lam = np.linspace(-1, 1, 5)
for k in range(1, 5):
    print(f"  T_{k}({np.array2string(lam, precision=2)}) = "
          f"{np.array2string(chebyshev_u(k, lam), precision=3)}")

print("\ninteger dictionary matrix, K = 6 (row i = monomial coefficients of T_{i+1}):")
print(lambda_matrix(6))

rng = np.random.default_rng(11)
nodes = np.sort(rng.uniform(-2.5, 2.5, 5))
w = rng.uniform(0.1, 1.0, 5)
mu = DiscreteMeasure(nodes, w / w.sum())

k = 12
via_measure = response_from_measure(mu, k)
via_moments = response_from_moments(moments_from_measure(mu, k))
print(f"\nresponse of a random 5-point measure, K = {k}:")
print("  spectral route:", np.array2string(via_measure, precision=5))
print("  moment route:  ", np.array2string(via_moments, precision=5))
print(f"  max deviation:  {np.max(np.abs(via_measure - via_moments)):.3e}")

#!/usr/bin/env python3
"""Semi-infinite lattices by truncation: a run that converges and one that does not.

b_n = -n with a_n = 1 is unbounded below but its spectrum is bounded
above (by 1): growing truncations stabilize the leading entries
geometrically.
b_n = +n has eigenvalues escaping upward.  Its flow exists (accurate
spectral weights give b_1(3) = 20.8878708832), but in double precision
the truncations have not settled by n_max = 32 at t = 3, and N = 128
raises EigenConvergenceError -- the report records the non-convergence
instead of returning a number.
"""

import warnings

import numpy as np

from todaflow import make_initial_data, solve_toda_semi_infinite

times = np.linspace(0.0, 1.0, 6)

print("=== semibounded data: b_n = -n, a_n = 1 ===")
init = make_initial_data("linear_b", {"beta": -1.0, "alpha": 1.0, "upper_bound": 1.0})
traj, report = solve_toda_semi_infinite(init, times, m=2, tol=1e-10, n_max=128)
print(f"truncations: {report.truncation_sizes}")
print(f"successive deviations: {['%.2e' % d for d in report.deviations]}")
print(f"converged: {report.converged} (achieved {report.achieved:.2e})")
print(f"top eigenvalue per truncation: {['%.4f' % x for x in report.spectral_maxima]}")
print("\nleading entries of the solution:")
print(f"{'t':>5} {'b_1':>10} {'b_2':>10} {'a_1':>10}")
for t, state in zip(times, traj.states):
    print(f"{t:5.2f} {state.diag[0]:10.6f} {state.diag[1]:10.6f} {state.offdiag[0]:10.6f}")
print("\nlimit moments s_0..s_3 at the final time:")
print(" ", np.array2string(report.moments[-1], precision=6))

print("\n=== spectrum unbounded above, not converged in double precision: b_n = +n ===")
bad = make_initial_data("linear_b", {"beta": 1.0, "alpha": 1.0, "upper_bound": 2.0})
with warnings.catch_warnings(record=True) as caught:
    warnings.simplefilter("always")
    _, report = solve_toda_semi_infinite(bad, np.linspace(0.0, 3.0, 4), m=1, tol=1e-8, n_max=32)
print(f"truncations: {report.truncation_sizes}")
print(f"successive deviations: {['%.2e' % d for d in report.deviations]}")
print(f"converged: {report.converged}")
print(f"top eigenvalue per truncation: {['%.2f' % x for x in report.spectral_maxima]}")
print(f"warnings raised: {len(caught)} (spectral bound violations)")

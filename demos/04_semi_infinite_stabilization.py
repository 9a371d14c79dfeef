#!/usr/bin/env python3
"""Semi-infinite lattices by truncation: runs that converge and one that does not.

b_n = -n with a_n = 1 is unbounded below but its spectrum is bounded
above (by 1): growing truncations stabilize the leading entries
geometrically.
b_n = +n has eigenvalues escaping upward, and its flow still exists:
the truncations settle from N = 64 on and give b_1(3) = 20.8878708832.
a_n = n, b_n = 0 has the exact flow b_n = (2n-1) tan 2t, which blows up
at t = pi/4.  At t = 0.8 no solution exists: b_1 of the truncation
grows with its size N (about 2N), and the report says converged False
with stop_reason n_max instead of returning a number.
"""

import numpy as np

from todaflow import make_initial_data, solve_toda_semi_infinite

times = np.linspace(0.0, 1.0, 6)

print("=== semibounded data: b_n = -n, a_n = 1 ===")
init = make_initial_data("linear_b", {"beta": -1.0, "alpha": 1.0})
traj, report = solve_toda_semi_infinite(init, times, m=2, tol=1e-10, n_max=128)
print(f"truncations: {report.truncation_sizes}")
print(f"successive deviations: {['%.2e' % d for d in report.deviations]}")
print(f"converged: {report.converged} (last deviation {report.deviations[-1]:.2e})")
print(f"top eigenvalue per truncation: {['%.4f' % x for x in report.spectral_maxima]}")
print("\nleading entries of the solution:")
print(f"{'t':>5} {'b_1':>10} {'b_2':>10} {'a_1':>10}")
for t, state in zip(times, traj.states):
    print(f"{t:5.2f} {state.diag[0]:10.6f} {state.diag[1]:10.6f} {state.offdiag[0]:10.6f}")
print("\nlimit moments s_0..s_3 at the final time:")
print(" ", np.array2string(report.moments[-1], precision=6))

print("\n=== spectrum unbounded above: b_n = +n, a_n = 1, n_max = 512 ===")
traj, report = solve_toda_semi_infinite(make_initial_data("linear_b", {"beta": 1.0, "alpha": 1.0}),
                                        np.linspace(0.0, 3.0, 4), m=1, tol=1e-8, n_max=512)
print(f"truncations: {report.truncation_sizes}")
print(f"successive deviations: {['%.2e' % d for d in report.deviations]}")
print(f"top eigenvalue per truncation: {['%.2f' % x for x in report.spectral_maxima]}")
print(f"converged: {report.converged} ({report.stop_reason}), b_1(3) = {traj.diag[-1, 0]:.10f}")

print("\n=== no solution: a_n = n, b_n = 0 at t = 0.8, past the blow-up at pi/4 ===")
blowup = lambda n: (float(n), 0.0)
_, report = solve_toda_semi_infinite(blowup, [0.0, 0.8], m=1, tol=1e-8, n_max=1024)
print(f"truncations: {report.truncation_sizes}")
print(f"b_1(0.8) per truncation: {['%.1f' % h[-1, 0] for h in report.diag_history]}")
print(f"converged: {report.converged} ({report.stop_reason})")

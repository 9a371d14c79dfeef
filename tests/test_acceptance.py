"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; every tolerance is fixed here, nothing is calibrated at runtime.
"""

import math
import time

import numpy as np

from todaflow import (
    DiscreteMeasure,
    FINITE_SUPPORT,
    INVALID,
    JacobiMatrix,
    MomentSequence,
    check_moment_positivity,
    compare_trajectories,
    eigendecompose,
    evolve_moments,
    jacobi_from_measure,
    make_initial_data,
    moment_recurrence_residual,
    moments_from_measure,
    moser_evolve,
    response_from_measure,
    response_from_moments,
    rk4_toda,
    solve_toda_finite,
    solve_toda_semi_infinite,
    truncation,
    weyl_evolution_residual,
)

GRID_01 = np.linspace(0.0, 1.0, 11)


def verdict(name, ok, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    assert ok, f"{name}: {detail}"


def random_jacobi(rng, n):
    return JacobiMatrix(diag=rng.uniform(-2, 2, n), offdiag=rng.uniform(0.5, 2, n - 1))


def separated_measure(rng, m):
    while True:
        nodes = np.sort(rng.uniform(-1.0, 1.0, m))
        if m == 1 or np.min(np.diff(nodes)) >= 0.3:
            break
    w = rng.uniform(0.2, 1.0, m)
    return DiscreteMeasure(nodes, w / w.sum())


def test_criterion_1_oracle_equivalence():
    rng = np.random.default_rng(1001)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(10):
        j = random_jacobi(rng, int(rng.integers(2, 9)))
        dev = compare_trajectories(solve_toda_finite(j, GRID_01), rk4_toda(j, GRID_01, 1e-4))
        worst = max(worst, dev)
    elapsed = time.perf_counter() - start
    ok = worst < 1e-6 and elapsed < 10.0
    verdict(
        "criterion 1 (oracle equivalence)",
        ok,
        f"max deviation {worst:.3e} (tol 1e-6), runtime {elapsed:.2f}s (limit 10s)",
    )


def test_criterion_2_closed_form_2x2():
    traj = solve_toda_finite(JacobiMatrix([0.0, 0.0], [1.0]), GRID_01)
    err = max(
        max(abs(state.diag[0] - math.tanh(2 * t)), abs(state.offdiag[0] - 1 / math.cosh(2 * t)))
        for t, state in zip(GRID_01, traj.states)
    )
    verdict("criterion 2 (2x2 closed form)", err < 1e-8, f"max error {err:.3e} (tol 1e-8)")


def test_criterion_3_isospectrality():
    rng = np.random.default_rng(1003)
    j = random_jacobi(rng, 6)
    lam0 = eigendecompose(j).nodes
    moment_drift = max(
        float(np.max(np.abs(eigendecompose(state).nodes - lam0)))
        for state in solve_toda_finite(j, GRID_01).states
    )
    rk4_drift = max(
        float(np.max(np.abs(eigendecompose(state).nodes - lam0)))
        for state in rk4_toda(j, GRID_01, 1e-4).states
    )
    ok = moment_drift < 1e-10 and rk4_drift < 1e-7
    verdict(
        "criterion 3 (isospectrality)",
        ok,
        f"moment drift {moment_drift:.3e} (tol 1e-10), rk4 drift {rk4_drift:.3e} (tol 1e-7)",
    )


def test_criterion_4_moment_recurrence():
    rng = np.random.default_rng(0)
    j = JacobiMatrix(diag=rng.uniform(-2, 2, 4), offdiag=rng.uniform(0.5, 2, 3))
    mu0 = eigendecompose(j)
    resid_h = moment_recurrence_residual(mu0, 0.5, 6, 1e-4)
    resid_half = moment_recurrence_residual(mu0, 0.5, 6, 0.5e-4)
    ratios = resid_h / resid_half
    ok = bool(np.all(resid_h < 1e-6) and np.all((ratios > 3.5) & (ratios < 4.5)))
    verdict(
        "criterion 4 (moment recurrence)",
        ok,
        f"max residual {np.max(resid_h):.3e} (tol 1e-6), "
        f"h-halving ratios {np.min(ratios):.2f}..{np.max(ratios):.2f} (window [3.5, 4.5])",
    )


def test_criterion_5_round_trip():
    rng = np.random.default_rng(1005)
    worst = 0.0
    for _ in range(20):
        j = random_jacobi(rng, int(rng.integers(1, 9)))
        back = jacobi_from_measure(eigendecompose(j), j.n)
        worst = max(
            worst,
            float(np.max(np.abs(back.diag - j.diag))),
            float(np.max(np.abs(back.offdiag - j.offdiag))) if j.n > 1 else 0.0,
        )
    verdict("criterion 5 (inverse spectral round trip)", worst < 1e-9, f"max entry error {worst:.3e} (tol 1e-9)")


def test_criterion_6_moment_characterization():
    rng = np.random.default_rng(1006)
    ok = True
    detail = []
    for m in range(1, 7):
        mu = separated_measure(rng, m)
        s = moments_from_measure(mu, 2 * m + 1)
        c = check_moment_positivity(s)
        if (c.kind, c.order) != (FINITE_SUPPORT, m):
            ok = False
            detail.append(f"M={m} classified {c.kind}({c.order})")
            continue
        bumped = s.values.copy()
        bumped[2] -= 2.0 * bumped[0] * float(np.max(mu.weights))
        c2 = check_moment_positivity(MomentSequence(bumped))
        if c2.kind != INVALID:
            ok = False
            detail.append(f"M={m} perturbation classified {c2.kind}")
    verdict(
        "criterion 6 (moment characterization)",
        ok,
        "; ".join(detail) if detail else "FiniteSupport(M) for M=1..6 and s_2 bump flips to Invalid",
    )


def test_criterion_7_response_dictionary():
    rng = np.random.default_rng(1007)
    worst = 0.0
    for _ in range(20):
        mu = separated_measure(rng, int(rng.integers(1, 7)))
        via_measure = response_from_measure(mu, 12)
        via_moments = response_from_moments(moments_from_measure(mu, 12))
        worst = max(worst, float(np.max(np.abs(via_measure - via_moments))))
    verdict("criterion 7 (response dictionary)", worst < 1e-10, f"max route deviation {worst:.3e} (tol 1e-10)")


def test_criterion_8_semi_infinite_unbounded_data():
    start = time.perf_counter()
    init = make_initial_data("linear_b", {"beta": -1.0, "alpha": 1.0})
    # the stated truncations, measured directly
    windows = {}
    spectral_tops = {}
    for n in (16, 32, 64):
        block = truncation(init, n)
        spectral_tops[n] = float(eigendecompose(block).nodes[-1])
        traj = solve_toda_finite(block, GRID_01)
        windows[n] = np.concatenate(
            [traj.diag_array()[:, :2], traj.offdiag_array()[:, :2]], axis=1
        )
    dev_16_32 = float(np.max(np.abs(windows[32] - windows[16])))
    dev_32_64 = float(np.max(np.abs(windows[64] - windows[32])))
    # and the library driver agrees
    _, report = solve_toda_semi_infinite(init, GRID_01, 2, 1e-8, 64)
    elapsed = time.perf_counter() - start
    ok = (
        dev_16_32 < 1e-8
        and dev_32_64 < 1e-8
        and report.converged
        and max(spectral_tops.values()) <= 1.0 + 1e-6
        and max(report.spectral_maxima) <= 1.0 + 1e-6
        and elapsed < 30.0
    )
    verdict(
        "criterion 8 (semi-infinite stabilization)",
        ok,
        f"dev(16->32) {dev_16_32:.3e}, dev(32->64) {dev_32_64:.3e} (tol 1e-8), "
        f"max eigenvalue {max(spectral_tops.values()):.6f} (bound 1+1e-6), runtime {elapsed:.2f}s (limit 30s)",
    )


def test_criterion_9_normalization_under_overflow_shift():
    rng = np.random.default_rng(1009)
    w = rng.uniform(0.1, 1.0, 5)
    mu = DiscreteMeasure([-3.0, -1.2, 0.4, 1.9, 3.0], w / w.sum())  # spectral radius 3
    worst_mass = 0.0
    worst_s0 = 0.0
    for t in (0.0, 0.5, 1.0, 5.0, 20.0, 50.0):
        evolved = moser_evolve(mu, t)
        worst_mass = max(worst_mass, abs(moments_from_measure(evolved, 1).values[0] - 1.0))
        worst_s0 = max(worst_s0, abs(evolve_moments(mu, t, 4).values[0] - 1.0))
    ok = worst_mass < 1e-12 and worst_s0 < 1e-12
    verdict(
        "criterion 9 (normalization incl. t=50, radius 3)",
        ok,
        f"max |mass - 1| {worst_mass:.3e}, max |s_0 - 1| {worst_s0:.3e} (tol 1e-12)",
    )


def test_criterion_10_weyl_evolution():
    j = JacobiMatrix([0.0, 0.0], [1.0])
    resid = weyl_evolution_residual(j, 3.0, 0.5, 1e-4)
    r_coarse = weyl_evolution_residual(j, 3.0, 0.5, 1e-2)
    r_fine = weyl_evolution_residual(j, 3.0, 0.5, 5e-3)
    ratio = r_coarse / r_fine
    ok = resid < 1e-6 and 3.5 < ratio < 4.5
    verdict(
        "criterion 10 (Weyl evolution law)",
        ok,
        f"residual {resid:.3e} (tol 1e-6), h-halving ratio {ratio:.2f} (window [3.5, 4.5])",
    )

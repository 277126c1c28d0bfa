"""Acceptance suite: one test per criterion, pinned scales and tolerances.

Each test prints one PASS/FAIL line with the measured quantities.
"""

import time

import numpy as np

import stacklq as sq
from stacklq.model import solver_times, with_steps
from stacklq.montecarlo import (default_directions, mean_stderr,
                                simulate_blocks, variational_sweep)
from stacklq.oracle import crosscheck_p
from stacklq.riccati import solve_game
from stacklq.rng import NoisePlan, component_seeds
from stacklq.verify import (_failure, _z, check_ansatz_residual, check_dp,
                            check_measurability, check_residual_order,
                            check_variational)


def _report(num, ok, detail, t0):
    line = (f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {detail} "
            f"({time.perf_counter() - t0:.2f}s)")
    print(line)
    return ok


def test_criterion_1_riccati_closed_form():
    t0 = time.perf_counter()
    spec = sq.make_spec(n=1, T=1.0, steps=1000, B1=1.0, R1=1.0, G1=1.0)
    p = solve_game(spec)[0].p
    gap = abs(p[0][0, 0] - 0.5)
    dt = time.perf_counter() - t0
    ok = gap <= 1e-8 and dt < 1.0
    assert _report(1, ok, f"|p(0)-0.5| = {gap:.2e} <= 1e-8, runtime {dt:.2f}s < 1s", t0)


def test_criterion_2_trivial_zero_suite():
    t0 = time.perf_counter()
    spec = sq.make_spec(n=1, T=1.0, steps=100, x0=1.0, A=0.3,
                        B1=1.0, B2=1.0, B3=1.0, C1=0.1, C2=0.1, C3=0.1,
                        b=0.2, sigma1=0.3, sigma2=0.3, sigma3=0.3)
    bundle, Omega = solve_game(spec)
    law = sq.build_feedback(bundle, Omega)
    worst = 0.0
    for traj in (bundle.p, bundle.P1, bundle.P2, bundle.Pf1, bundle.Pf2,
                 bundle.Pf3, Omega):
        worst = max(worst, np.abs(traj).max())
    for gain in law.gains.values():
        worst = max(worst, np.abs(gain).max())
    plan = NoisePlan(component_seeds(1), np.diff(solver_times(spec)))
    for _, _, J in simulate_blocks(spec, law, plan, 64, thin=1):
        for player in (1, 2, 3):
            worst = max(worst, abs(mean_stderr(J[player - 1])[0]))
    dt = time.perf_counter() - t0
    ok = worst <= 1e-12 and dt < 1.0
    assert _report(2, ok, f"max |Riccati/offset/gain/cost| = {worst:.2e} <= 1e-12", t0)


def test_criterion_3_convergence_order(n2_spec):
    t0 = time.perf_counter()
    ref = solve_game(with_steps(n2_spec, 1600))[0].p
    errs = []
    for steps in (100, 200, 400, 800):
        p = solve_game(with_steps(n2_spec, steps))[0].p
        stride = 1600 // steps
        errs.append(np.abs(p - ref[::stride]).max())
    factors = [errs[i] / errs[i + 1] for i in range(3)]
    dt = time.perf_counter() - t0
    ok = all(8.0 <= f <= 32.0 for f in factors) and dt < 10.0
    assert _report(3, ok, "halving factors " + ", ".join(f"{f:.1f}" for f in factors)
                   + " all in [8, 32]", t0)


def test_criterion_4_residuals(n2_spec):
    t0 = time.perf_counter()
    spec, fine_spec = (with_steps(n2_spec, s) for s in (100, 200))
    _, ok, detail = check_residual_order((spec, *solve_game(spec)),
                                         (fine_spec, *solve_game(fine_spec)))
    dt = time.perf_counter() - t0
    ok = ok and dt < 10.0
    assert _report(4, ok, detail, t0)


def test_criterion_5_measurability(scalar_generic, generic_solution):
    t0 = time.perf_counter()
    _, _, law = generic_solution
    (_, ok, detail), _ = check_measurability(scalar_generic, law, 42,
                                             n_paths=64)
    dt = time.perf_counter() - t0
    ok = ok and dt < 5.0
    assert _report(5, ok, detail + " over 64 paths", t0)


def test_criterion_6_exact_nesting(scalar_generic):
    t0 = time.perf_counter()
    spec = with_steps(scalar_generic, 200)
    bundle, Omega = solve_game(spec)
    law = sq.build_feedback(bundle, Omega)
    _, (_, ok, detail) = check_measurability(spec, law, 2024, n_paths=20)
    dt = time.perf_counter() - t0
    ok = ok and dt < 10.0
    assert _report(6, ok, detail + " over 20 paths", t0)


def test_criterion_7_ansatz_residual(scalar_generic):
    t0 = time.perf_counter()
    spec, fine_spec = (with_steps(scalar_generic, s) for s in (150, 300))
    bundle, Omega = solve_game(spec)
    law = sq.build_feedback(bundle, Omega)
    fine = (fine_spec, *solve_game(fine_spec))
    _, ok, detail = check_ansatz_residual((spec, bundle, Omega), law, fine,
                                          sq.build_feedback(*fine[1:]),
                                          5, n_paths=100)
    dt = time.perf_counter() - t0
    ok = ok and dt < 30.0
    assert _report(7, ok, detail, t0)


def test_criterion_8_variational_optimality(scalar_additive, additive_solution):
    t0 = time.perf_counter()
    bundle, Omega, law = additive_solution
    eps, dirs = (0.05, 0.1, 0.2), default_directions(scalar_additive)
    # the 15 equilibrium cases, judged by verify's own check
    checks, reps = check_variational(scalar_additive, law, bundle, 2026, 10000,
                                     eps)
    ok = all(passed for _, passed, _ in checks)
    details = []
    for player in (1, 2, 3):
        zmax = max(abs(_z(rep)) for rep in reps if rep.player == player)
        details.append(f"P{player} max|z|={zmax:.2f}")
    # negative control: player 1 on the law whose follower gain is scaled by
    # 1.5; verify's judge must fail the scaled gain
    neg = variational_sweep(scalar_additive, (1,), dirs, eps, 10000, 2026,
                            sq.build_feedback(bundle, Omega, 1.5), bundle)
    fails = sum(_failure(rep) is not None for rep in neg)
    ok = ok and fails >= 1
    details.append(f"negative control fails {fails}/5 directions")
    dt = time.perf_counter() - t0
    ok = ok and dt < 300.0
    assert _report(8, ok, "; ".join(details), t0)


def test_criterion_9_dp_crosscheck(reducible_spec):
    t0 = time.perf_counter()
    solved = sq.solve_game(reducible_spec)
    [(_, ok, detail)] = check_dp(reducible_spec, *solved)
    gaps = [crosscheck_p(reducible_spec, *solved, steps=s).gap_S0
            for s in (250, 500, 1000)]
    linear = all(1.5 <= gaps[i] / gaps[i + 1] <= 2.5 for i in range(2))
    dt = time.perf_counter() - t0
    ok = ok and linear and dt < 30.0
    assert _report(9, ok, f"{detail} at h=1e-3; gaps "
                          f"{', '.join(f'{g:.2e}' for g in gaps)} shrink "
                          "linearly", t0)


def test_criterion_10_determinism(tmp_path):
    t0 = time.perf_counter()
    from stacklq.cli import main
    spec = sq.make_spec(n=1, T=1.0, steps=120, x0=1.0, A=0.3, B1=1.0, B2=0.8,
                        B3=0.6, b=0.05, sigma1=0.25, sigma2=0.3, sigma3=0.35,
                        Q1=1.0, R1=1.0, G1=0.5, Q2=0.8, R2=1.2, G2=0.4,
                        Q3=0.6, R3=1.5, G3=0.3)
    sf = tmp_path / "game.json"
    sq.save_spec(spec, sf)
    outs = []
    for name, threads in (("a", "1"), ("b", "3")):
        out = tmp_path / name
        rc = main(["simulate", "--spec", str(sf), "--out", str(out),
                   "--paths", "64", "--seed", "11", "--threads", threads])
        assert rc == 0
        outs.append(out)
    same = all((outs[0] / f).read_bytes() == (outs[1] / f).read_bytes()
               for f in ("paths.csv", "costs.csv"))
    dt = time.perf_counter() - t0
    ok = same and dt < 10.0
    assert _report(10, ok, "bit-identical simulate outputs across --threads", t0)

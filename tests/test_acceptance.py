"""Acceptance suite: one test per criterion, pinned scales and tolerances.

Each test prints one PASS/FAIL line with the measured quantities.
"""

import time

import numpy as np

import stacklq as sq
from stacklq.closedloop import ansatz_residual, simulate_equilibrium
from stacklq.model import solver_times, with_steps
from stacklq.montecarlo import (default_directions, mean_stderr,
                                simulate_blocks, variational_sweep)
from stacklq.oracle import crosscheck_p
from stacklq.riccati import riccati_residuals, solve_game, solve_p
from stacklq.rng import NoisePlan
from stacklq.verify import check_exact_nesting


def _report(num, ok, detail, t0):
    line = (f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {detail} "
            f"({time.perf_counter() - t0:.2f}s)")
    print(line)
    return ok


def test_criterion_1_riccati_closed_form():
    t0 = time.perf_counter()
    spec = sq.make_spec(n=1, T=1.0, steps=1000, B1=1.0, R1=1.0, G1=1.0)
    p = solve_p(spec)
    gap = abs(p.values[0][0, 0] - 0.5)
    dt = time.perf_counter() - t0
    ok = gap <= 1e-8 and dt < 1.0
    assert _report(1, ok, f"|p(0)-0.5| = {gap:.2e} <= 1e-8, runtime {dt:.2f}s < 1s", t0)


def test_criterion_2_trivial_zero_suite():
    t0 = time.perf_counter()
    spec = sq.make_spec(n=1, T=1.0, steps=100, x0=1.0, A=0.3,
                        B1=1.0, B2=1.0, B3=1.0, C1=0.1, C2=0.1, C3=0.1,
                        b=0.2, sigma1=0.3, sigma2=0.3, sigma3=0.3)
    bundle, offsets = solve_game(spec)
    law = sq.build_feedback(bundle, offsets, spec)
    worst = 0.0
    for traj in (bundle.p, bundle.P1, bundle.P2, bundle.Pf1, bundle.Pf2,
                 bundle.Pf3, offsets.Omega):
        worst = max(worst, np.abs(traj.values).max())
    for name in ("K1", "k1", "K2hat", "K2check", "k2", "K3", "K3hat",
                 "K3check", "k3"):
        worst = max(worst, np.abs(getattr(law, name)).max())
    plan = NoisePlan.from_seed(1, np.diff(solver_times(spec)))
    for _, _, J in simulate_blocks(spec, law, plan, 64, thin=1):
        for player in (1, 2, 3):
            worst = max(worst, abs(mean_stderr(J[player - 1])[0]))
    dt = time.perf_counter() - t0
    ok = worst <= 1e-12 and dt < 1.0
    assert _report(2, ok, f"max |Riccati/offset/gain/cost| = {worst:.2e} <= 1e-12", t0)


def test_criterion_3_convergence_order(n2_spec):
    t0 = time.perf_counter()
    ref = solve_p(with_steps(n2_spec, 1600)).values
    errs = []
    for steps in (100, 200, 400, 800):
        p = solve_p(with_steps(n2_spec, steps)).values
        stride = 1600 // steps
        errs.append(np.abs(p - ref[::stride]).max())
    factors = [errs[i] / errs[i + 1] for i in range(3)]
    dt = time.perf_counter() - t0
    ok = all(8.0 <= f <= 32.0 for f in factors) and dt < 10.0
    assert _report(3, ok, "halving factors " + ", ".join(f"{f:.1f}" for f in factors)
                   + " all in [8, 32]", t0)


def test_criterion_4_residuals(n2_spec):
    t0 = time.perf_counter()
    consts = {}
    for steps in (100, 200):
        sp = with_steps(n2_spec, steps)
        b, o = solve_game(sp)
        res = riccati_residuals(sp, b, o)
        h = sp.horizon / steps
        consts[steps] = {k: v / h**2 for k, v in res.items()
                         if k in ("p", "P1", "P2", "Pf1", "Pf2", "Pf3")}
    ratios = {k: consts[200][k] / consts[100][k] for k in consts[100]}
    dt = time.perf_counter() - t0
    ok = all(0.25 <= r <= 4.0 for r in ratios.values()) and dt < 10.0
    detail = ", ".join(f"{k}: C={consts[100][k]:.2e} ratio={ratios[k]:.2f}"
                       for k in sorted(ratios))
    assert _report(4, ok, detail, t0)


def test_criterion_5_measurability(scalar_generic, generic_solution):
    t0 = time.perf_counter()
    _, _, law = generic_solution
    plan = NoisePlan.from_seed(42, np.diff(solver_times(scalar_generic)))
    run = lambda p: simulate_equilibrium(scalar_generic, law,
                                         p.increments(np.arange(64)))
    base = run(plan)
    w1 = run(plan.with_component_seed(0, 4242))
    w2 = run(plan.with_component_seed(1, 4242))
    ok = (np.array_equal(base.X3hat, w1.X3hat)
          and np.array_equal(base.X3check, w1.X3check)
          and np.array_equal(base.X3check, w2.X3check)
          and not np.array_equal(base.X3, w1.X3)
          and not np.array_equal(base.X3hat, w2.X3hat))
    dt = time.perf_counter() - t0
    ok = ok and dt < 5.0
    assert _report(5, ok, "hat/check filters bit-identical under W1/W2 reseeding", t0)


def test_criterion_6_exact_nesting(scalar_generic):
    t0 = time.perf_counter()
    spec = with_steps(scalar_generic, 200)
    bundle, offsets = solve_game(spec)
    law = sq.build_feedback(bundle, offsets, spec)
    (_, ok, detail), _ = check_exact_nesting(spec, law, 2024, n_paths=20)
    dt = time.perf_counter() - t0
    ok = ok and dt < 10.0
    assert _report(6, ok, detail + " over 20 paths", t0)


def test_criterion_7_ansatz_residual(scalar_generic):
    t0 = time.perf_counter()
    worsts = []
    for steps in (150, 300):
        sp = with_steps(scalar_generic, steps)
        bundle, offsets = solve_game(sp)
        law = sq.build_feedback(bundle, offsets, sp)
        plan = NoisePlan.from_seed(5, np.diff(solver_times(sp)))
        dW = plan.increments(np.arange(100))
        paths = simulate_equilibrium(sp, law, dW)
        worsts.append(ansatz_residual(sp, bundle, offsets, paths, dW))
    ratio = worsts[1] / worsts[0]
    dt = time.perf_counter() - t0
    ok = 0.25 <= ratio <= 0.75 and dt < 30.0
    assert _report(7, ok, f"mismatch {worsts[0]:.2e} -> {worsts[1]:.2e}, "
                          f"ratio {ratio:.2f} in [0.25, 0.75]", t0)


def test_criterion_8_variational_optimality(scalar_additive, additive_solution):
    t0 = time.perf_counter()
    bundle, offsets, law = additive_solution
    eps = (0.05, 0.1, 0.2)
    # 15 equilibrium cases, then the scaled-follower-gain negative control
    cases = [(player, d, 1.0) for player in (1, 2, 3)
             for d in default_directions(scalar_additive)]
    cases += [(1, d, 1.5) for d in default_directions(scalar_additive)]
    reps = variational_sweep(scalar_additive, cases, eps, 10000, 2026, law,
                             bundle)
    ok = True
    details = []
    for player in (1, 2, 3):
        zmax = 0.0
        for rep in reps[5 * (player - 1):5 * player]:
            z = abs(rep.slope0) / rep.slope_stderr
            zmax = max(zmax, z)
            ok = ok and abs(rep.slope0) <= 2.0 * rep.slope_stderr
            ok = ok and rep.curvature_ok
        details.append(f"P{player} max|z|={zmax:.2f}")
    # negative control: scaled follower gain must be detected
    fails = sum(abs(rep.slope0) > 2.0 * rep.slope_stderr for rep in reps[15:])
    ok = ok and fails >= 1
    details.append(f"negative control fails {fails}/5 directions")
    dt = time.perf_counter() - t0
    ok = ok and dt < 300.0
    assert _report(8, ok, "; ".join(details), t0)


def test_criterion_9_dp_crosscheck(reducible_spec):
    t0 = time.perf_counter()
    solved = sq.solve_game(reducible_spec)
    rep = crosscheck_p(reducible_spec, *solved, steps=1000)
    gaps = [crosscheck_p(reducible_spec, *solved, steps=s).gap_S0
            for s in (250, 500, 1000)]
    linear = all(1.5 <= gaps[i] / gaps[i + 1] <= 2.5 for i in range(2))
    dt = time.perf_counter() - t0
    ok = rep.gap_S0 <= 0.01 and linear and dt < 30.0
    assert _report(9, ok, f"|S0 - p(0)| = {rep.gap_S0:.2e} <= 0.01 at h=1e-3; "
                          f"gaps {', '.join(f'{g:.2e}' for g in gaps)} shrink "
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

"""End-to-end verification checks behind the `verify` CLI command.

A check is a triple (check_id, passed, detail).  Most check_* functions
return one check; check_variational returns a list of them with its reports,
and check_exact_nesting returns a pair (check, W3-only paths).
check_dp(spec, bundle, offsets) cross-checks the solved ladder and returns
None when the spec does not reduce to a single controller.  Only checks go
into the list run_verification returns.

The scales here are CLI defaults; the package's acceptance test suite runs
the same content at its pinned scales and tolerances.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from .closedloop import ansatz_residual, build_feedback, simulate_equilibrium
from .errors import DomainError, ReductionError
from .lift import bdiag
from .model import GameSpec, solver_times, validate_spec, with_steps
from .montecarlo import default_directions, variational_sweep
from .oracle import crosscheck_p
from .riccati import riccati_residuals, solve_game
from .rng import NoisePlan


@dataclasses.dataclass
class VerifyConfig:
    seed: int = 42
    n_paths: int = 4000
    epsilons: tuple = (0.05, 0.1, 0.2)
    gain_scale: float = 1.0


def check_terminals(spec, bundle, offsets):
    n = spec.n
    G1 = spec.costs.players[0].G
    calG2 = bdiag(spec.costs.players[1].G, np.zeros((n, n)))
    frakG3 = bdiag(bdiag(spec.costs.players[2].G, np.zeros((n, n))),
                   np.zeros((2 * n, 2 * n)))
    gaps = {
        "p": np.abs(bundle.p.terminal - G1).max(),
        "P1": np.abs(bundle.P1.terminal - calG2).max(),
        "P2": np.abs(bundle.P2.terminal).max(),
        "Pf1": np.abs(bundle.Pf1.terminal - frakG3).max(),
        "Pf2": np.abs(bundle.Pf2.terminal).max(),
        "Pf3": np.abs(bundle.Pf3.terminal).max(),
        "Omega": np.abs(offsets.Omega.terminal).max(),
    }
    worst = max(gaps.values())
    return ("terminal_conditions", worst == 0.0,
            f"max terminal gap {worst:.3e} (exact required)")


def check_residual_order(solved, fine):
    """Centred-difference residuals must scale like C h^2 with stable C.

    solved and fine are (spec, bundle, offsets) on the spec's grid and on the
    grid with twice as many steps.
    """
    steps = solved[0].grid.steps
    rows = {}
    for sp, b, o in (solved, fine):
        res = riccati_residuals(sp, b, o)
        h = sp.horizon / sp.grid.steps
        rows[sp.grid.steps] = {k: v / h**2 for k, v in res.items()}
    ratios = {k: (rows[2 * steps][k] / rows[steps][k]) if rows[steps][k] > 0 else 1.0
              for k in rows[steps]}
    ok = all(0.25 <= r <= 4.0 for r in ratios.values())
    detail = ", ".join(f"{k}:C={rows[steps][k]:.2e},ratio={ratios[k]:.2f}"
                       for k in sorted(ratios))
    return ("residual_order", ok, detail)


def check_p_psd(spec, bundle):
    worst = min(float(np.linalg.eigvalsh(M).min()) for M in bundle.p.values)
    return ("p_psd", worst >= -1e-8, f"min eigenvalue {worst:.3e}")


def check_measurability(spec, law, seed, n_paths=32):
    plan = NoisePlan.from_seed(seed, np.diff(solver_times(spec)))
    base, w1, w2 = (simulate_equilibrium(spec, law, p.increments(np.arange(n_paths)))
                    for p in (plan, plan.with_component_seed(0, seed + 99),
                              plan.with_component_seed(1, seed + 99)))
    ok = (np.array_equal(base.X3hat, w1.X3hat)
          and np.array_equal(base.X3check, w1.X3check)
          and np.array_equal(base.X3check, w2.X3check))
    # the reseeded component must actually move the state when it is wired in
    c = spec.coeffs
    if np.abs(c.C[0].values).max() + np.abs(c.sigma[0].values).max() > 0:
        ok = ok and not np.array_equal(base.X3, w1.X3)
    if np.abs(c.C[1].values).max() + np.abs(c.sigma[1].values).max() > 0:
        ok = ok and not np.array_equal(base.X3hat, w2.X3hat)
    return ("filter_measurability", ok,
            "hat/check filters bit-identical under W1- and W2-only reseeding")


def check_exact_nesting(spec, law, seed, n_paths=4):
    """The nesting of the information, exact in the Euler scheme.

    Z's step is linear and a step's W1 and W2 increments are independent of
    Z_k and of W3, so E[X | W2, W3] is the X of the run with W1's increments
    zeroed and E[X | W3], E[Xh | W3] are the X and Xh of the W3-only run.
    The filters must equal them: Xh = X with W1 zeroed, and Xc = Xh = X
    with W1 and W2 zeroed.  Returns the check and the W3-only run.
    """
    plan = NoisePlan.from_seed(seed, np.diff(solver_times(spec)))
    dW = plan.increments(np.arange(n_paths))
    dW[:, :, 0] = 0.0
    w23 = simulate_equilibrium(spec, law, dW)
    dW[:, :, 1] = 0.0
    w3 = simulate_equilibrium(spec, law, dW)
    gap23 = np.abs(w23.X3 - w23.X3hat).max()
    gap3 = max(np.abs(w3.X3 - w3.X3hat).max(),
               np.abs(w3.X3 - w3.X3check).max())
    return ("exact_nesting", max(gap23, gap3) <= 1e-12,
            f"max level gap {gap23:.3e} without W1, {gap3:.3e} with W3 only "
            "(<= 1e-12)"), w3


def check_ansatz_residual(solved, law, fine, seed, n_paths=100):
    """The ansatz drift mismatch must halve with the step; arguments as in
    check_residual_order, plus the feedback law on the spec's grid."""
    fine_spec, fine_bundle, fine_offsets = fine
    fine_law = build_feedback(fine_bundle, fine_offsets, fine_spec)
    worsts = []
    for (sp, b, o), lw in ((solved, law), (fine, fine_law)):
        plan = NoisePlan.from_seed(seed, np.diff(solver_times(sp)))
        dW = plan.increments(np.arange(n_paths))
        paths = simulate_equilibrium(sp, lw, dW)
        worsts.append(ansatz_residual(sp, b, o, paths, dW))
    ratio = worsts[1] / worsts[0] if worsts[0] > 0 else 0.5
    ok = 0.25 <= ratio <= 0.75
    return ("ansatz_residual", ok,
            f"mismatch {worsts[0]:.3e} -> {worsts[1]:.3e} on halved step "
            f"(ratio {ratio:.2f}, want 0.5 +/- 50%)")


def _z(rep):
    """Slope over stderr, +-inf for a slope whose paths do not spread."""
    with np.errstate(divide="ignore", invalid="ignore"):
        return float(np.divide(rep.slope0, rep.slope_stderr))


def check_variational(spec, law, bundle, cfg: VerifyConfig):
    """One CRN sweep over every player and stock direction."""
    directions = default_directions(spec)
    cases = [(player, d, cfg.gain_scale if player == 1 else 1.0)
             for player in (1, 2, 3) for d in directions]
    reports = variational_sweep(spec, cases, cfg.epsilons, cfg.n_paths,
                                cfg.seed, law, bundle)
    results = []
    for player in (1, 2, 3):
        fails = [f"{rep.direction_id}(z={_z(rep):+.1f})"
                 for rep in reports if rep.player == player
                 and (abs(rep.slope0) > 2.0 * rep.slope_stderr
                      or not rep.curvature_ok)]
        results.append((f"variational_p{player}", not fails,
                        "all slopes within 2 stderr" if not fails
                        else "failed: " + ", ".join(fails)))
    return results, reports


def check_dp(spec, bundle, offsets):
    try:
        rep = crosscheck_p(spec, bundle, offsets, steps=1000)
    except ReductionError:
        return None
    ok = rep.gap_S0 <= 0.01
    return ("dp_crosscheck", ok,
            f"|S0 - p(0)|/(1+|p0|) = {rep.gap_S0:.3e}, "
            f"value gap {rep.gap_value:.3e}")


def run_verification(spec: GameSpec, cfg: VerifyConfig):
    """All checks; returns (list of (id, ok, detail), artifacts dict)."""
    report = validate_spec(spec)
    if not report.valid:
        raise DomainError(str(report))
    bundle, offsets = solve_game(spec)
    law = build_feedback(bundle, offsets, spec)
    solved = (spec, bundle, offsets)
    fine_spec = with_steps(spec, 2 * spec.grid.steps)
    fine = (fine_spec, *solve_game(fine_spec))
    nesting_check, w3_paths = check_exact_nesting(spec, law, cfg.seed)
    checks = [
        check_terminals(spec, bundle, offsets),
        check_residual_order(solved, fine),
        check_p_psd(spec, bundle),
        check_measurability(spec, law, cfg.seed),
        nesting_check,
        check_ansatz_residual(solved, law, fine, cfg.seed),
    ]
    var_checks, var_reports = check_variational(spec, law, bundle, cfg)
    checks.extend(var_checks)
    dp_check = check_dp(spec, bundle, offsets)
    if dp_check is not None:
        checks.append(dp_check)
    return checks, {"bundle": bundle, "offsets": offsets, "law": law,
                    "w3_paths": w3_paths, "perturbations": var_reports}

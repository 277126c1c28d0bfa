"""End-to-end verification checks behind the `verify` CLI command.

A check is a triple (check_id, passed, detail).  Each check_* function
returns one check or a list of them: check_measurability returns the
filter_measurability and exact_nesting checks, check_variational the three
players' checks with the sweep's reports, which `verify` writes out, and
check_dp(spec, bundle, Omega) the ladder's cross-check, an empty list when
the spec does not reduce to a single controller.  `_failure` judges each report.
run_verification takes the seed, the sweep's path count and epsilons and
the gain_scale as keywords without defaults: `stacklq verify`'s options are
their one source.  It builds both grids' laws with gain_scale, so under
`--sabotage-gains` every check that simulates runs the sabotaged law.
The measurability, nesting and ansatz checks keep whole paths of X, Xh and
Xc from one batch of closedloop's `batches`, which `simulate_blocks`
iterates too: the runs `stacklq simulate` writes, bit for bit.

The path checks' own path counts are fixed here; the package's acceptance
test suite calls the same checks at its pinned scales and seeds.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from .closedloop import ansatz_residual, batches, build_feedback
from .errors import DomainError, ReductionError
from .model import GameSpec, validate_spec, with_steps
from .montecarlo import default_directions, variational_sweep
from .oracle import crosscheck_p
from .riccati import LEVELS, riccati_residuals, solve_game, terminal_state
from .rng import NoisePlan


def check_terminals(spec, bundle, Omega):
    solved = [getattr(bundle, f) for f in LEVELS] + [Omega]
    worst = max(np.abs(a[-1] - want).max()
                for a, want in zip(solved, terminal_state(spec)))
    return ("terminal_conditions", worst == 0.0,
            f"max terminal gap {worst:.3e} (exact required)")


def check_residual_order(solved, fine):
    """The ladder's residuals (riccati_residuals) must scale like C h^2
    with stable C.

    solved and fine are (spec, bundle, Omega) on the spec's grid and on the
    grid with twice as many steps.
    """
    steps = solved[0].steps
    rows = {}
    for sp, b, Omega in (solved, fine):
        res = riccati_residuals(b, Omega)
        h = sp.T / sp.steps
        rows[sp.steps] = {k: v / h**2 for k, v in res.items()}
    ratios = {k: (rows[2 * steps][k] / rows[steps][k]) if rows[steps][k] > 0 else 1.0
              for k in rows[steps]}
    ok = all(0.25 <= r <= 4.0 for r in ratios.values())
    detail = ", ".join(f"{k}:C={rows[steps][k]:.2e},ratio={ratios[k]:.2f}"
                       for k in sorted(ratios))
    return ("residual_order", ok, detail)


def check_p_psd(bundle):
    worst = float(np.linalg.eigvalsh(bundle.p).min())
    return ("p_psd", worst >= -1e-8, f"min eigenvalue {worst:.3e}")


def _filtered_paths(spec, law, plan, n_paths):
    """X, Xh, Xc (paths, K+1, 4n) and dW (K, 3, paths) of paths 0..n_paths-1
    drawn by plan: the node loop's Z, as `simulate_blocks` records it."""
    (_, N, dW, nodes), = batches(spec, law, plan, n_paths, n_paths)
    Z = np.stack([Z[:, :N] for _, Z, _ in nodes])
    return (*np.split(Z.transpose(2, 0, 1), 3, axis=-1), dW[..., :N])


def check_measurability(spec, law, seed, n_paths=32):
    """Filter measurability and the exact nesting of the information, from
    one seed's increments: the base run, then W1 dead, then W1 and W2.

    Measurability is bit-level: Xh must not move when W1 does, nor Xc when
    W1 or W2 does, while X moves with W1 and Xh with W2 where it loads the
    state: C_i x + sigma_i, from the spec's law.cv, nonzero on its run.  Z's
    step is linear and a step's W1 and W2 increments are independent of Z_k
    and of W3, so E[X | W2, W3] is the X of the run without W1, and
    E[X | W3], E[Xh | W3] are the X and Xh of the W3-only run.  The filters
    must equal them: Xh = X without W1, and Xc = Xh = X with W3 only.  A
    plan draws a dead component as zeros and the live ones' rows unchanged;
    a component the spec leaves dead reuses the run before.
    """
    plan = NoisePlan.for_spec(spec, seed)
    run = _filtered_paths(spec, law, plan, n_paths)
    runs = [run]
    for comp in (0, 1):
        if plan.live[comp]:
            plan = replace(plan, live=(False,) * (comp + 1) + plan.live[comp + 1:])
            run = _filtered_paths(spec, law, plan, n_paths)
        runs.append(run)
    (X, Xh, Xc, _), (X23, Xh23, Xc23, _), (X3, Xh3, Xc3, _) = runs
    same, cv = np.array_equal, law.cv
    loads = lambda i, x: np.any(np.einsum("kij,pkj->pki", cv.C[i, :-1],
                                          x[:, :-1, :spec.n]) + cv.sigma[i, :-1])
    broken = [what for what, bad in (
        ("Xh moved with W1", not same(Xh, Xh23)),
        ("Xc moved with W1 or W2", not (same(Xc, Xc23) and same(Xc, Xc3))),
        ("X did not move with W1", loads(0, X) and same(X, X23)),
        ("Xh did not move with W2", loads(1, X23) and same(Xh23, Xh3))) if bad]
    gap23 = np.abs(X23 - Xh23).max()
    gap3 = max(np.abs(X3 - Xh3).max(), np.abs(X3 - Xc3).max())
    return [("filter_measurability", not broken,
             "failed: " + ", ".join(broken) if broken else
             "hat/check filters bit-identical with W1, then W1 and W2, dead"),
            ("exact_nesting", max(gap23, gap3) <= 1e-12,
             f"max level gap {gap23:.3e} without W1, {gap3:.3e} with W3 only "
             "(<= 1e-12)")]


def check_ansatz_residual(solved, law, fine, fine_law, seed, n_paths=100):
    """The ansatz drift mismatch must halve with the step; arguments as in
    check_residual_order, each followed by its grid's feedback law."""
    worsts = []
    for (sp, b, Omega), lw in ((solved, law), (fine, fine_law)):
        *_, Xc, dW = _filtered_paths(sp, lw, NoisePlan.for_spec(sp, seed), n_paths)
        worsts.append(ansatz_residual(b, Omega, Xc, dW))
    ratio = worsts[1] / worsts[0] if worsts[0] > 0 else 0.5
    ok = 0.25 <= ratio <= 0.75
    return ("ansatz_residual", ok,
            f"mismatch {worsts[0]:.3e} -> {worsts[1]:.3e} on halved step "
            f"(ratio {ratio:.2f}, want 0.5 +/- 50%)")


def _z(rep):
    """Slope over stderr, +-inf for a slope whose paths do not spread."""
    with np.errstate(divide="ignore", invalid="ignore"):
        return float(np.divide(rep.slope0, rep.slope_stderr))


def _failure(rep):
    """rep's entry in its player's list of failures, None if it passes: a
    cost that is not finite names its epsilon; a slope over 2 stderr from 0
    names its z; else a mean over 3 of its stderrs below the eps = 0 mean
    names the curvature rule, the first such epsilon and how far below."""
    for eps, mean, se in zip(rep.epsilons, rep.means, rep.stderrs):
        if not np.isfinite((mean, se)).all():
            return f"{rep.direction_id}(eps={eps:g}: mean {mean:g}, stderr {se:g})"
    if abs(rep.slope0) > 2.0 * rep.slope_stderr:
        return f"{rep.direction_id}(z={_z(rep):+.1f})"
    j0 = rep.means[rep.epsilons.index(0.0)]
    for eps, mean, se in zip(rep.epsilons, rep.means, rep.stderrs):
        if mean < j0 - 3.0 * max(se, 1e-300):
            return (f"{rep.direction_id}(curvature, eps={eps:g}: mean "
                    f"{(j0 - mean) / max(se, 1e-300):.1f} stderr below eps=0)")
    return None


def check_variational(spec, law, bundle, seed, n_paths, epsilons):
    """One CRN sweep over every player and stock direction."""
    reports = variational_sweep(spec, (1, 2, 3), default_directions(spec),
                                epsilons, n_paths, seed, law, bundle)
    results = []
    for player in (1, 2, 3):
        fails = [fail for rep in reports if rep.player == player
                 and (fail := _failure(rep)) is not None]
        results.append((f"variational_p{player}", not fails,
                        "all slopes within 2 stderr" if not fails
                        else "failed: " + ", ".join(fails)))
    return results, reports


def check_dp(spec, bundle, Omega):
    try:
        rep = crosscheck_p(spec, bundle, Omega, steps=1000)
    except ReductionError:
        return []
    return [("dp_crosscheck", rep.gap_S0 <= 0.01,
             f"|S0 - p(0)|/(1+|p0|) = {rep.gap_S0:.3e}, "
             f"value gap {rep.gap_value:.3e}")]


def run_verification(spec: GameSpec, *, seed, n_paths, epsilons, gain_scale):
    """All checks; returns (list of (id, ok, detail), variational reports)."""
    report = validate_spec(spec)
    if not report.valid:
        raise DomainError(str(report))
    bundle, Omega = solve_game(spec)
    law = build_feedback(bundle, Omega, gain_scale)
    solved = (spec, bundle, Omega)
    fine_spec = with_steps(spec, 2 * spec.steps)
    fine = (fine_spec, *solve_game(fine_spec))
    checks = [
        check_terminals(*solved),
        check_residual_order(solved, fine),
        check_p_psd(bundle),
        *check_measurability(spec, law, seed),
        check_ansatz_residual(solved, law, fine,
                              build_feedback(*fine[1:], gain_scale), seed),
    ]
    del fine        # the 2K-step solve serves the two order checks only
    var_checks, reports = check_variational(spec, law, bundle, seed, n_paths, epsilons)
    return checks + var_checks + check_dp(*solved), reports

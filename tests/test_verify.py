import numpy as np
import pytest

import stacklq as sq
import stacklq.montecarlo as montecarlo
import stacklq.riccati as riccati
import stacklq.verify as verify
from stacklq.errors import DomainError
from stacklq.model import with_steps
from stacklq.montecarlo import PerturbationReport
from stacklq.riccati import riccati_residuals, solve_game
from stacklq.rng import NoisePlan
from stacklq.verify import check_residual_order, run_verification


def test_verification_solves_the_ladder_twice(reducible_spec, monkeypatch):
    # once on the spec's grid and once on the halved step; the DP
    # cross-check reads the first solve instead of solving p again
    calls = []
    solve_levels = riccati._solve_levels

    def counting(spec, cv):
        calls.append(spec.steps)
        return solve_levels(spec, cv)

    monkeypatch.setattr(riccati, "_solve_levels", counting)
    checks, _ = run_verification(reducible_spec, seed=3, n_paths=16,
                                 epsilons=(0.05, 0.1, 0.2), gain_scale=1.0)
    assert "dp_crosscheck" in {check_id for check_id, _, _ in checks}
    assert calls == [100, 200]


def test_verification_rejects_an_invalid_spec():
    spec = sq.make_spec(n=1, T=1.0, steps=50, B1=1.0, G1=-1.0)
    with pytest.raises(DomainError, match="G1"):
        run_verification(spec, seed=42, n_paths=16, epsilons=(0.05, 0.1, 0.2),
                         gain_scale=1.0)


def test_residual_order_holds_across_offgrid_breakpoints(offgrid_spec):
    # breaks between grid nodes give unequal steps beside them and a kink in
    # every solution at them: the three-point differences and the nodes left
    # out beside each jump keep the residuals at C h^2 with a steady C
    solved = [(sp, *solve_game(sp))
              for sp in (with_steps(offgrid_spec, s) for s in (200, 400))]
    _, ok, detail = check_residual_order(*solved)
    assert ok, detail
    C = [{name: r / (sp.T / sp.steps) ** 2
          for name, r in riccati_residuals(b, Omega).items()}
         for sp, b, Omega in solved]
    for name, c in C[0].items():
        assert 0.5 <= C[1][name] / c <= 2.0, (name, detail)


@pytest.mark.parametrize("block", [8, 20])
@pytest.mark.parametrize("name", ["n2_spec", "offgrid_spec"])
def test_verify_runs_are_simulate_records_bit_identical(name, block, request,
                                                        monkeypatch):
    # the measurability, nesting and ansatz checks keep whole paths of X, Xh
    # and Xc; `stacklq simulate` streams the same node loop in blocks of
    # BLOCK_PATHS paths. 45 paths cross block boundaries, and every row of
    # the checks' runs must be the row simulate writes.
    spec = request.getfixturevalue(name)
    law = sq.build_feedback(*solve_game(spec))
    monkeypatch.setattr(montecarlo, "BLOCK_PATHS", block)
    N = 45
    runs = np.concatenate(verify._filtered_paths(
        spec, law, NoisePlan.for_spec(spec, 3), N)[:3], axis=-1)
    blocks = sq.simulate_blocks(spec, law, NoisePlan.for_spec(spec, 3), N,
                                thin=1)
    records = np.concatenate([r for _, r, _ in blocks])
    assert np.array_equal(runs, records[..., :12 * spec.n])


def _judged(means, stderrs, slope0=0.0, slope_stderr=1.0):
    """verify's verdict on a hand-built report at epsilons -0.1, 0, 0.1."""
    return verify._failure(PerturbationReport(
        player=1, direction_id="const", epsilons=(-0.1, 0.0, 0.1),
        means=means, stderrs=stderrs, slope0=slope0, slope_stderr=slope_stderr))


def test_judge_names_a_cost_that_is_not_finite_by_its_epsilon():
    assert (_judged((1.0, 1.0, np.inf), (0.1, 0.1, 0.1))
            == "const(eps=0.1: mean inf, stderr 0.1)")
    assert (_judged((1.0, 1.0, 1.0), (np.nan, 0.1, 0.1))
            == "const(eps=-0.1: mean 1, stderr nan)")


def test_judge_fails_a_slope_over_two_stderr():
    assert _judged((1.1, 1.0, 1.1), (0.1,) * 3, slope0=-1.9) is None
    assert _judged((1.1, 1.0, 1.1), (0.1,) * 3, slope0=2.5) == "const(z=+2.5)"


def test_judge_passes_a_zero_slope_whose_paths_do_not_spread():
    assert _judged((0.5, 0.0, 0.5), (0.0,) * 3, 0.0, 0.0) is None
    # a nonzero slope without spread is infinitely many stderr from 0
    assert _judged((0.5, 0.0, 0.5), (0.0,) * 3, 1e-3, 0.0) == "const(z=+inf)"


def test_judge_fails_a_cost_that_curves_down():
    # the slope is 0, but the eps = 0.1 mean lies 4 of its stderrs below
    # the eps = 0 mean; 2.9 of them pass
    assert (_judged((1.0, 1.0, 0.6), (0.1,) * 3)
            == "const(curvature, eps=0.1: mean 4.0 stderr below eps=0)")
    assert _judged((1.0, 1.0, 0.71), (0.1,) * 3) is None


def test_dp_crosscheck_is_no_check_on_a_spec_that_does_not_reduce(
        scalar_generic, generic_solution):
    assert verify.check_dp(scalar_generic, *generic_solution[:2]) == []

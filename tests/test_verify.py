import pytest

import stacklq as sq
import stacklq.riccati as riccati
from stacklq.errors import DomainError
from stacklq.verify import VerifyConfig, run_verification


def test_verification_solves_the_ladder_twice(reducible_spec, monkeypatch):
    # once on the spec's grid and once on the halved step; the DP
    # cross-check reads the first solve instead of solving p again
    calls = []
    solve_levels = riccati._solve_levels

    def counting(spec, depth):
        calls.append((spec.grid.steps, depth))
        return solve_levels(spec, depth)

    monkeypatch.setattr(riccati, "_solve_levels", counting)
    checks, _ = run_verification(reducible_spec, VerifyConfig(seed=3, n_paths=16))
    assert "dp_crosscheck" in {check_id for check_id, _, _ in checks}
    assert calls == [(100, 3), (200, 3)]


def test_verification_rejects_an_invalid_spec():
    spec = sq.make_spec(n=1, T=1.0, steps=50, B1=1.0, G1=-1.0)
    with pytest.raises(DomainError, match="G1"):
        run_verification(spec, VerifyConfig(n_paths=16))

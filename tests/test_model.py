import json

import numpy as np
import pytest

import stacklq as sq
from stacklq.errors import SpecFormatError
from stacklq.lift import CoeffValues
from stacklq.model import Coefficient, solver_times


def test_zero_spec_is_valid(zero_spec):
    assert sq.validate_spec(zero_spec).valid


def test_negative_R_is_flagged():
    spec = sq.make_spec(n=1, R2=-1.0)
    report = sq.validate_spec(spec)
    assert not report.valid
    bad = [v for v in report.violations if v.field == "R2"]
    assert len(bad) == 1


def test_indefinite_R_piece_reported_once_at_its_start():
    R2 = Coefficient.piecewise([0.437], [[[1.0]], [[-0.5]]])
    report = sq.validate_spec(sq.make_spec(n=1, steps=100, R2=R2))
    bad = [v for v in report.violations if v.field == "R2"]
    assert len(bad) == 1
    assert bad[0].t == 0.437


def test_full_adjacency_rejected():
    spec = sq.make_spec(n=1, adjacency=np.ones((3, 3), dtype=int))
    report = sq.validate_spec(spec)
    fields = [v.field for v in report.violations]
    assert fields == ["adjacency"]


def test_validate_is_pure(scalar_generic):
    r1 = sq.validate_spec(scalar_generic)
    r2 = sq.validate_spec(scalar_generic)
    assert r1 == r2


def test_psd_threshold_accepts_semidefinite():
    # analytically PSD matrix with a zero eigenvalue
    Q = np.array([[1.0, 1.0], [1.0, 1.0]])
    spec = sq.make_spec(n=2, Q1=Q, x0=np.zeros(2))
    assert sq.validate_spec(spec).valid


def test_eval_coeff_constant(scalar_generic):
    # the pipeline's lookup: CoeffValues at one time, as the solvers read it
    A = CoeffValues(scalar_generic, 0.37).A
    assert np.array_equal(A, np.array([[0.3]]))


def test_eval_coeff_right_continuous():
    M0, M1 = np.array([[1.0]]), np.array([[2.0]])
    pw = Coefficient.piecewise([0.5], [M0, M1])
    spec = sq.make_spec(n=1, A=pw)
    assert CoeffValues(spec, 0.5).A[0, 0] == 2.0
    assert CoeffValues(spec, 0.499999).A[0, 0] == 1.0
    assert CoeffValues(spec, 1.0).A[0, 0] == 2.0
    assert CoeffValues(spec, np.array([0.499999, 0.5, 1.0])).A[:, 0, 0].tolist() == [
        1.0, 2.0, 2.0]


def test_eval_coeff_jumps_only_at_breaks():
    # on the solver grid, which lands on both breakpoints, the node table
    # jumps there only
    pw = Coefficient.piecewise([0.25, 0.75], [[[0.0]], [[1.0]], [[3.0]]])
    spec = sq.make_spec(n=1, A=pw, steps=300)
    ts = solver_times(spec)
    vals = CoeffValues(spec, ts).A[:, 0, 0]
    jumps = ts[1:][vals[1:] != vals[:-1]]
    assert set(np.round(jumps, 9)) == {0.25, 0.75}
    assert sorted(set(vals)) == [0.0, 1.0, 3.0]


def test_json_roundtrip_bit_exact(tmp_path, scalar_generic, n2_spec):
    for spec in (scalar_generic, n2_spec):
        path = tmp_path / "spec.json"
        sq.save_spec(spec, path)
        again = sq.load_spec(path)
        d1, d2 = sq.spec_to_dict(spec), sq.spec_to_dict(again)
        assert json.dumps(d1) == json.dumps(d2)


def test_piecewise_roundtrip(tmp_path):
    pw = Coefficient.piecewise([0.3, 0.6], [[[0.1]], [[0.2]], [[0.3]]])
    spec = sq.make_spec(n=1, A=pw, sigma3=0.25)
    path = tmp_path / "pw.json"
    sq.save_spec(spec, path)
    again = sq.load_spec(path)
    assert json.dumps(sq.spec_to_dict(spec)) == json.dumps(sq.spec_to_dict(again))


def test_malformed_document_raises(tmp_path, malformed_documents):
    bad = tmp_path / "bad.json"
    bad.write_text("{ not json")
    with pytest.raises(SpecFormatError):
        sq.load_spec(bad)
    bad.write_text(json.dumps({"n": 1}))
    with pytest.raises(SpecFormatError):
        sq.load_spec(bad)
    for doc in malformed_documents:
        bad.write_text(json.dumps(doc))
        with pytest.raises(SpecFormatError):
            sq.load_spec(bad)


def test_breakpoints_must_increase():
    pw = Coefficient.piecewise([0.6, 0.3], [[[1.0]], [[2.0]], [[3.0]]])
    spec = sq.make_spec(n=1, A=pw)
    report = sq.validate_spec(spec)
    assert any("increasing" in v.message for v in report.violations)


def test_solver_times_include_breakpoints():
    pw = Coefficient.piecewise([0.333], [[[1.0]], [[2.0]]])
    spec = sq.make_spec(n=1, A=pw, steps=10)
    times = sq.solver_times(spec)
    assert np.any(np.isclose(times, 0.333))
    assert times[0] == 0.0 and times[-1] == 1.0
    assert np.all(np.diff(times) > 0)

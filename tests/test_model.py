import dataclasses
import json

import numpy as np
import pytest

import stacklq as sq
from stacklq.errors import SpecFormatError
from stacklq.lift import CoeffValues
from stacklq.model import Coefficient, solver_times, with_steps


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


def test_spec_is_immutable(reducible_spec):
    A, x = reducible_spec.coeffs["A"], Coefficient.constant([[0.9]])
    with pytest.raises(TypeError):
        reducible_spec.coeffs["A"] = x
    with pytest.raises(dataclasses.FrozenInstanceError):
        reducible_spec.steps = 7
    other = dataclasses.replace(reducible_spec, coeffs={**reducible_spec.coeffs, "A": x})
    assert other.coeffs["A"] is x and reducible_spec.coeffs["A"] is A
    assert list(other.coeffs) == list(reducible_spec.coeffs)
    with pytest.raises(TypeError):
        other.coeffs["A"] = A
    fine = with_steps(reducible_spec, 200)
    assert (fine.steps, reducible_spec.steps) == (200, 100)
    assert all(a is b for a, b in zip(fine.coeffs.values(),
                                      reducible_spec.coeffs.values()))


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


@pytest.mark.parametrize("T", [1.0, 3.7])
def test_solver_times_end_at_T(T):
    # a break within the merge tolerance of T merges into T, not T into the
    # break: the grid's last node, where the terminal conditions are set,
    # is T exactly
    spec = sq.make_spec(n=1, T=T, steps=10,
                        A=_pw(T * (1 - 1e-13), [[0.1]], [[0.2]]))
    assert sq.validate_spec(spec).valid
    times = sq.solver_times(spec)
    assert times[-1] == T and times.shape == (11,)
    assert sq.solve_game(spec)[0].times[-1] == T


@pytest.mark.parametrize("T", [1e-11, 1e-13])
def test_solver_times_tiny_horizon_keeps_every_node(T):
    # the merge tolerance is relative to T: below T = 1 an absolute 1e-12
    # merged nodes that are whole steps apart (T = 1e-13 left one node, T)
    spec = sq.make_spec(n=1, T=T, steps=10, A=0.3, B1=1.0, Q1=1.0, G1=0.5)
    assert sq.validate_spec(spec).valid
    times = solver_times(spec)
    assert times.shape == (11,) and times[0] == 0.0 and times[-1] == T
    assert np.all(np.diff(times) > 0.0)
    assert np.array_equal(sq.solve_game(spec)[0].times, times)


# break sets in decimal, each on a coefficient of its own: j T / d rounded to
# 12 significant digits, as a spec file writes them, lands on or within
# rounding of a uniform grid node whenever steps is a multiple of d
_DECIMAL_BREAKS = {"A": 10, "R1": 20, "sigma3": 25, "n2": 8}


@pytest.mark.parametrize("T", [1.0, 3.7, 0.25])
def test_grid_table_rows_are_each_steps_coefficients(T):
    # no step straddles a piece: row k < K of the grid's table is, field by
    # field, the coefficients at step k's midpoint, which the ladder's RK4
    # stages of step k, the Euler step from node k and the cost of step k
    # all read
    for steps in (2, 7, 10, 16, 20, 25, 40, 50, 70, 80, 99, 100, 120, 200,
                  333, 400, 500, 1000):
        coeffs = {}
        for name, d in _DECIMAL_BREAKS.items():
            breaks = [float(f"{j * T / d:.12g}") for j in range(1, d)]
            pieces = 1.0 + 0.1 * np.arange(d)
            shape = (d, 1) if name in ("sigma3", "n2") else (d, 1, 1)
            coeffs[name] = Coefficient.piecewise(breaks, pieces.reshape(shape))
        spec = sq.make_spec(n=1, T=T, steps=steps, **coeffs)
        times = solver_times(spec)
        assert times[0] == 0.0 and times[-1] == T and np.all(np.diff(times) > 0)
        rows = CoeffValues(spec, times)[:-1]
        mid = CoeffValues(spec, 0.5 * (times[1:] + times[:-1]))
        for field in CoeffValues.__slots__[1:]:
            assert np.array_equal(getattr(rows, field), getattr(mid, field)), \
                (steps, field)


def test_decimal_break_on_a_node_starts_its_step():
    # at 70 steps the uniform node 7 is 0.09999999999999999 and the break
    # 0.1: the grid keeps the later of the two, so step 7 starts at the
    # break and the table, the ladder and the law's step all read A = 2.0 on
    # it (no control: the law's drift is A on every block)
    spec = sq.make_spec(n=1, T=1.0, steps=70, x0=1.0,
                        A=_pw(0.1, [[0.3]], [[2.0]]), sigma3=0.2)
    bundle, Omega = sq.solve_game(spec)
    law = sq.build_feedback(bundle, Omega)
    times = bundle.times
    assert times.shape == (71,) and times[7] == 0.1
    assert bundle.cv.A[6, 0, 0] == 0.3 and bundle.cv.A[7, 0, 0] == 2.0
    h = times[8] - times[7]
    assert np.array_equal(law.step.F[7], np.eye(12) * (1.0 + h * 2.0))


@pytest.mark.parametrize("T, brk, valid", [(1.0, 1e-15, False), (1.0, 5e-13, False),
                                         (3.7, 3e-12, False), (1.0, 2e-12, True)])
def test_break_within_merge_tolerance_of_0(T, brk, valid):
    # the grid keeps the later of two nodes closer than 1e-12*T and then
    # puts its first node at 0: a break that close to 0 would leave row 0 of
    # the table, read for the whole first step, on the sliver piece [0, brk)
    spec = sq.make_spec(n=1, T=T, steps=10, A=_pw(brk, [[0.3]], [[2.0]]))
    report = sq.validate_spec(spec)
    if not valid:
        assert str(report) == "A: piecewise breakpoint within 1e-12*T of 0"
        return
    assert report.valid
    times = solver_times(spec)
    assert times[1] == brk and CoeffValues(spec, times).A[0, 0, 0] == 0.3


def _edited(edit):
    """The document of make_spec(), changed in place by `edit`."""
    doc = sq.spec_to_dict(sq.make_spec())
    edit(doc)
    return doc


_pw = lambda brk, a, b: Coefficient.piecewise([brk], [a, b])
_ASYM = [[1.0, 0.5], [0.0, 1.0]]

# Every validation and parse message, word for word.  A case builds a spec
# (its report is checked), a document (parsed from a file) or JSON text
# (loaded from a file whose path stands for {path}).
MESSAGE_CASES = [
    pytest.param(lambda: sq.make_spec(A=np.eye(2)),
                 "A: expected shape (1, 1), got (2, 2)", id="coeff_shape"),
    pytest.param(lambda: dataclasses.replace(sq.make_spec(), n=0),
                 "n: state dimension must be >= 1", id="n_below_1"),
    pytest.param(lambda: sq.make_spec(T=0.0),
                 "T: horizon must be a positive finite real", id="T_zero"),
    pytest.param(lambda: sq.make_spec(T=np.inf),
                 "T: horizon must be a positive finite real", id="T_inf"),
    pytest.param(lambda: sq.make_spec(steps=1),
                 "steps: need at least 2 grid steps", id="steps_below_2"),
    pytest.param(lambda: sq.make_spec(n=2, x0=np.zeros(3)),
                 "x0: expected shape (2,), got (3,)", id="x0_shape"),
    pytest.param(lambda: sq.make_spec(x0=np.nan),
                 "x0: non-finite or unbounded entries", id="x0_nan"),
    pytest.param(lambda: sq.make_spec(x0=1e300, B1=1.0, G1=1.0),
                 "x0: non-finite or unbounded entries", id="x0_unbounded"),
    # bounded, but past the guard that stops every simulation at t_1
    pytest.param(lambda: sq.make_spec(x0=-1e13),
                 "x0: entries beyond the blow-up limit 1e+12",
                 id="x0_beyond_blowup_limit"),
    pytest.param(lambda: sq.make_spec(B2=np.inf),
                 "B2: non-finite or unbounded entries", id="coeff_inf"),
    pytest.param(lambda: sq.make_spec(b=1e19),
                 "b: non-finite or unbounded entries", id="coeff_unbounded"),
    pytest.param(lambda: sq.make_spec(A=_pw(1.5, [[0.1]], [[0.2]])),
                 "A: piecewise breakpoints outside (0, T)", id="breaks_outside"),
    pytest.param(lambda: sq.make_spec(A=_pw(1e-15, [[0.3]], [[2.0]])),
                 "A: piecewise breakpoint within 1e-12*T of 0", id="break_at_0"),
    pytest.param(lambda: sq.make_spec(C1=Coefficient.piecewise(
        [0.6, 0.3], [[[1.0]], [[2.0]], [[3.0]]])),
                 "C1: piecewise breakpoints not strictly increasing",
                 id="breaks_not_increasing"),
    pytest.param(lambda: sq.make_spec(G1=np.eye(2)),
                 "G1: expected shape (1, 1), got (2, 2)", id="G_shape"),
    pytest.param(lambda: sq.make_spec(n=2, x0=np.zeros(2), G2=_ASYM),
                 "G2: not symmetric", id="G_asymmetric"),
    pytest.param(lambda: sq.make_spec(G3=-1.0),
                 "G3: not positive semidefinite", id="G_indefinite"),
    pytest.param(lambda: sq.make_spec(n=2, x0=np.zeros(2),
                                      Q1=_pw(0.5, np.eye(2), _ASYM)),
                 "Q1 at t=0.5: not symmetric", id="Q_asymmetric_piece"),
    pytest.param(lambda: sq.make_spec(n=2, x0=np.zeros(2), R3=_ASYM),
                 "R3 at t=0: not symmetric", id="R_asymmetric"),
    pytest.param(lambda: sq.make_spec(R2=_pw(0.437, [[1.0]], [[-0.5]])),
                 "R2 at t=0.437: min eigenvalue below rho_min=1e-08",
                 id="R_below_rho_min"),
    pytest.param(lambda: dataclasses.replace(sq.make_spec(), rho_min=np.nan),
                 "rho_min: must be a positive finite real", id="rho_min_nan"),
    pytest.param(lambda: sq.make_spec(adjacency=np.ones((3, 3), dtype=int)),
                 "adjacency: information pattern must be the nested "
                 "lower-triangular {001,011,111}", id="adjacency"),
    pytest.param(lambda: sq.make_spec(steps=1, B3=np.nan, G2=-1.0, R1=-1.0,
                                      n1=[1.0, 2.0], adjacency=np.eye(3)),
                 "steps: need at least 2 grid steps\n"
                 "B3: non-finite or unbounded entries\n"
                 "n1: expected shape (1,), got (2,)\n"
                 "R1 at t=0: min eigenvalue below rho_min=1e-08\n"
                 "G2: not positive semidefinite\n"
                 "adjacency: information pattern must be the nested "
                 "lower-triangular {001,011,111}", id="report_order"),
    pytest.param(lambda: sq.make_spec(G1=np.nan),
                 "G1: non-finite or unbounded entries", id="G_nan"),
    pytest.param(lambda: sq.make_spec(G2=np.inf),
                 "G2: non-finite or unbounded entries", id="G_inf"),
    pytest.param(lambda: sq.make_spec(G3=1e300),
                 "G3: non-finite or unbounded entries", id="G_unbounded"),
    # an unbounded weight is reported once, without its symmetry and sign
    # tests, whose inf - inf would warn
    pytest.param(lambda: sq.make_spec(Q1=np.inf, Q3=-np.inf),
                 "Q1: non-finite or unbounded entries\n"
                 "Q3: non-finite or unbounded entries", id="Q_inf"),
    pytest.param(lambda: sq.make_spec(R2=np.inf),
                 "R2: non-finite or unbounded entries", id="R_inf"),
    pytest.param(lambda: "{ not json",
                 "{path}: line 1, column 3: Expecting property name enclosed "
                 "in double quotes", id="not_json"),
    pytest.param(lambda: "[1]", "{path}: top-level JSON value must be an object",
                 id="top_level_not_object"),
    pytest.param(lambda: {"n": 1}, "malformed game spec: 'steps'", id="missing_key"),
    pytest.param(lambda: _edited(lambda d: d.update(steps=2.7)),
                 "n and steps must be whole numbers", id="steps_fraction"),
    pytest.param(lambda: _edited(lambda d: d.update(
        adjacency=[[0, 0, 1.9], [0, 1.5, 1], [1, 1, 1]])),
                 "adjacency entries must be whole numbers", id="adjacency_fraction"),
    # JSON true/false, which Python reads as 1/0: the format has no boolean
    pytest.param(lambda: _edited(lambda d: d.update(n=True)),
                 "n: expected a number, got true", id="bool_n"),
    pytest.param(lambda: _edited(lambda d: d.update(T=True)),
                 "T: expected a number, got true", id="bool_T"),
    pytest.param(lambda: _edited(lambda d: d.update(x0=[True])),
                 "x0/0: expected a number, got true", id="bool_x0"),
    pytest.param(lambda: _edited(lambda d: d.update(adjacency=[
        [False, False, True], [False, True, True], [True, True, True]])),
                 "adjacency/0/0: expected a number, got false", id="bool_adjacency"),
    pytest.param(lambda: _edited(lambda d: d["coeffs"]["B1"].update(value=[[True]])),
                 "coeffs/B1/value/0/0: expected a number, got true",
                 id="bool_coeff_value"),
    pytest.param(lambda: _edited(lambda d: d["costs"]["player1"].update(G=[[True]])),
                 "costs/player1/G/0/0: expected a number, got true", id="bool_G"),
    # JSON strings, which float() reads as numbers: the format's one string
    # is a coefficient's kind
    pytest.param(lambda: _edited(lambda d: d.update(T="1.0")),
                 'T: expected a number, got "1.0"', id="string_T"),
    pytest.param(lambda: _edited(lambda d: d.update(steps="100")),
                 'steps: expected a number, got "100"', id="string_steps"),
    pytest.param(lambda: _edited(lambda d: d.update(x0=["1.0"])),
                 'x0/0: expected a number, got "1.0"', id="string_x0"),
    pytest.param(lambda: _edited(lambda d: d["coeffs"]["B1"].update(value=[["0.5"]])),
                 'coeffs/B1/value/0/0: expected a number, got "0.5"',
                 id="string_coeff_value"),
    pytest.param(lambda: _edited(lambda d: d["coeffs"].update(A={
        "kind": "piecewise", "breaks": ["0.5"], "values": [[[0.1]], [[0.2]]]})),
                 'coeffs/A/breaks/0: expected a number, got "0.5"',
                 id="string_breaks"),
    pytest.param(lambda: _edited(lambda d: d["costs"]["player2"].update(G=[["0.4"]])),
                 'costs/player2/G/0/0: expected a number, got "0.4"',
                 id="string_G"),
    pytest.param(lambda: _edited(lambda d: d["costs"]["player3"].update(G="0.3")),
                 'costs/player3/G: expected a number, got "0.3"',
                 id="string_G_scalar"),
    pytest.param(lambda: _edited(lambda d: d["coeffs"].update(
        B1={"kind": "constant"})),
                 "bad coefficient entry: 'value'", id="entry_without_value"),
    pytest.param(lambda: _edited(lambda d: d["costs"]["player2"]["R"].update(
        kind="spline")),
                 "unknown coefficient kind 'spline'", id="unknown_kind"),
    pytest.param(lambda: _edited(lambda d: d["coeffs"].update(A={
        "kind": "piecewise", "breaks": 0.5, "values": [[[0.1]], [[0.2]]]})),
                 "piecewise breaks must be a list of finite numbers",
                 id="breaks_not_a_list"),
    pytest.param(lambda: _edited(lambda d: d["costs"]["player3"].update(m={
        "kind": "piecewise", "breaks": [0.5], "values": [[0.1]]})),
                 "piecewise coefficient needs len(values) == len(breaks)+1",
                 id="values_count"),
]


@pytest.mark.parametrize("make, message", MESSAGE_CASES)
def test_each_message_verbatim(tmp_path, make, message):
    given = make()
    if isinstance(given, sq.GameSpec):
        assert str(sq.validate_spec(given)) == message
        return
    path = tmp_path / "spec.json"
    path.write_text(given if isinstance(given, str) else json.dumps(given))
    with pytest.raises(SpecFormatError) as err:
        sq.load_spec(path)
    assert str(err.value) == message.replace("{path}", str(path))

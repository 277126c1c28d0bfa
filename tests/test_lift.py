import numpy as np
import pytest

import stacklq as sq
from stacklq.lift import (CoeffValues, bdiag, level1_at, level2_at,
                          level2_closedloop_at, level3_at, selectors)
from stacklq.model import Coefficient, solver_times
from stacklq.riccati import solve_game, terminal_state


@pytest.fixture(scope="module")
def piecewise_spec():
    """Scalar spec whose pieces start on grid nodes (0.25, 0.5, 0.75)."""
    pw = lambda brk, a, b: Coefficient.piecewise([brk], [[[a]], [[b]]])
    return sq.make_spec(
        n=1, T=1.0, steps=100, x0=1.0, A=pw(0.25, 0.3, -0.2), B1=1.0,
        B2=pw(0.5, 0.8, 0.4), B3=0.6, C1=0.1, C2=0.12, C3=pw(0.75, 0.1, 0.2),
        b=0.05, sigma1=0.2, sigma2=0.25,
        sigma3=Coefficient.piecewise([0.5], [[0.3], [0.1]]),
        Q1=1.0, R1=pw(0.25, 1.0, 1.4), G1=0.5, m1=0.02, n1=0.01,
        Q2=pw(0.75, 0.8, 0.3), R2=1.2, G2=0.4, n2=0.02,
        Q3=0.6, R3=pw(0.5, 1.5, 0.9), G3=0.3, m3=0.01)


SPECS = ("n2_spec", "piecewise_spec")
FIELDS = ("A", "B", "C", "b", "sigma", "Q", "R", "Rinv", "m", "nl", "G")
CHANNEL_FIRST = ("calC", "barsigma", "frakC", "Sigma")     # (3, K+1, ...)


@pytest.mark.parametrize("name", SPECS)
def test_coeff_table_rows_match_single_node(name, request):
    spec = request.getfixturevalue(name)
    times = solver_times(spec)
    table = CoeffValues(spec, times)
    for k, t in enumerate(times):
        row, node = table[k], CoeffValues(spec, t)
        assert row.t == t
        for field in FIELDS:
            assert np.array_equal(np.asarray(getattr(row, field)),
                                  np.asarray(getattr(node, field))), (k, field)


@pytest.mark.parametrize("name", SPECS)
def test_builders_match_per_node_formulas(name, request):
    spec = request.getfixturevalue(name)
    bundle, _ = solve_game(spec)
    families = (bundle.l1, bundle.l2, bundle.l2cl, bundle.l3)
    for k, t in enumerate(bundle.times):
        cv = CoeffValues(spec, t)
        l1 = level1_at(cv, bundle.p[k])
        l2 = level2_at(cv, l1)
        cl = level2_closedloop_at(cv, l2, bundle.P1[k], bundle.P2[k])
        l3 = level3_at(cv, l2, cl)
        for table, node in zip(families, (l1, l2, cl, l3)):
            assert table.keys() == node.keys()
            for field, value in node.items():
                row = (table[field][:, k] if field in CHANNEL_FIRST
                       else table[field][k])
                assert np.array_equal(row, value), (k, field)


def naive_matmul(A, B):
    out = np.zeros((A.shape[0], B.shape[1]))
    for i in range(A.shape[0]):
        for j in range(B.shape[1]):
            for k in range(A.shape[1]):
                out[i, j] += A[i, k] * B[k, j]
    return out


def blocks_2x2(n, M11, M12, M21, M22):
    out = np.zeros((2 * n, 2 * n))
    out[:n, :n], out[:n, n:] = M11, M12
    out[n:, :n], out[n:, n:] = M21, M22
    return out


def test_zero_spec_all_levels_zero(zero_spec):
    bundle, Omega = solve_game(zero_spec)
    for name in ("Abar", "F1bar", "F2bar", "F3bar", "bbar", "f1bar"):
        assert np.all(getattr(bundle.l1, name) == 0.0)
    for name in ("calA1", "calA2", "calF1", "calQ2", "calF2", "calF3",
                 "barb2", "f2bar"):
        assert np.all(getattr(bundle.l2, name) == 0.0)
    for name in ("frakA1", "frakA2", "frakA3", "frakQ3", "frakQ3dd",
                 "Fa", "Fb", "ddb3", "ddf3"):
        assert np.all(getattr(bundle.l3, name) == 0.0)


def test_level1_direct_substitution():
    # B1 = I, R1 = I, p = I, A = 0 (scalar): Abar = -1, F1bar = -1
    spec = sq.make_spec(n=1, B1=1.0, R1=1.0)
    cv = CoeffValues(spec, 0.0)
    l1 = level1_at(cv, np.eye(1))
    assert l1["Abar"][0, 0] == -1.0
    assert l1["F1bar"][0, 0] == -1.0


def test_level1_f2bar_matches_naive_product(n2_spec):
    bundle, _ = solve_game(n2_spec)
    k = 7
    t = bundle.times[k]
    B2 = CoeffValues(n2_spec, t).B[1]
    expected = naive_matmul(B2.T, bundle.p[k])
    assert np.allclose(bundle.l1.F2bar[k], expected, atol=1e-14)


def test_level2_block_placement():
    spec = sq.make_spec(n=1, A=2.0)
    cv = CoeffValues(spec, 0.0)
    l1 = {"Abar": np.array([[3.0]]), "F1bar": np.zeros((1, 1)),
          "F2bar": np.zeros((1, 1)), "F3bar": np.zeros((1, 1)),
          "bbar": np.zeros(1), "f1bar": np.zeros(1)}
    l2 = level2_at(cv, l1)
    assert np.array_equal(l2["calA1"], np.diag([2.0, 3.0]))


def test_level2_calC3_independent_assembly(n2_spec):
    bundle, _ = solve_game(n2_spec)
    k = 11
    C3 = CoeffValues(n2_spec, bundle.times[k]).C[2]
    n = n2_spec.n
    expected = blocks_2x2(n, C3, np.zeros((n, n)), np.zeros((n, n)), C3)
    assert np.array_equal(bundle.l2.calC[2, k], expected)


def test_closedloop_zero_riccati(scalar_generic):
    cv = CoeffValues(scalar_generic, 0.0)
    l1 = level1_at(cv, np.zeros((1, 1)))
    l2 = level2_at(cv, l1)
    z = np.zeros((2, 2))
    cl = level2_closedloop_at(cv, l2, z, z)
    assert np.array_equal(cl["ddA1"], l2["calA1"])
    assert np.all(cl["ddA2"] == 0.0)
    assert np.all(cl["H"] == 0.0)


def test_closedloop_ddF1_scalar_arithmetic():
    spec = sq.make_spec(n=1, B1=0.7, R1=2.0, B2=0.5, R2=4.0)
    cv = CoeffValues(spec, 0.0)
    p = np.array([[1.3]])
    l1 = level1_at(cv, p)
    l2 = level2_at(cv, l1)
    P1 = np.array([[0.2, 0.1], [0.1, 0.4]])
    cl = level2_closedloop_at(cv, l2, P1, np.zeros((2, 2)))
    f1 = -0.7 * 0.7 / 2.0
    expected = np.array([[0.0 - 0.5 * 0.5 / 4.0, f1], [f1, 0.0]])
    assert np.allclose(cl["ddF1"], expected, atol=1e-15)


def test_H_recomputable_identity(generic_solution, scalar_generic):
    bundle, _, _ = generic_solution
    for k in (0, 50, 199):
        cv = CoeffValues(scalar_generic, bundle.times[k])
        cB2 = bundle.l2.calB2[k]
        P1 = bundle.P1[k]
        H = P1 @ cB2 @ cv.Rinv[1] @ cB2.T @ P1
        assert np.allclose(bundle.l2cl.H[k], H, atol=1e-13)


def test_level3_frakQ3_independent_assembly(n2_spec):
    bundle, _ = solve_game(n2_spec)
    n = n2_spec.n
    k = 23
    Q3 = CoeffValues(n2_spec, bundle.times[k]).Q[2]
    calQ3 = bdiag(Q3, np.zeros((n, n)))
    H = bundle.l2cl.H[k]
    expected = blocks_2x2(2 * n, calQ3, H, H, np.zeros((2 * n, 2 * n)))
    assert np.array_equal(bundle.l3.frakQ3[k], expected)
    expected_dd = blocks_2x2(2 * n, np.zeros((2 * n, 2 * n)), -H, -H,
                             np.zeros((2 * n, 2 * n)))
    assert np.array_equal(bundle.l3.frakQ3dd[k], expected_dd)


def test_level3_frakG3_upper_left(n2_spec):
    frakG3 = terminal_state(n2_spec)[3]
    n = n2_spec.n
    G3 = n2_spec.G[2]
    assert np.array_equal(frakG3[:2 * n, :2 * n], bdiag(G3, np.zeros((n, n))))
    assert np.all(frakG3[2 * n:, :] == 0.0)


def test_zero_blocks_exact(n2_spec):
    bundle, _ = solve_game(n2_spec)
    n = n2_spec.n
    l2, l3 = bundle.l2, bundle.l3
    assert np.all(l2.calA1[:, :n, n:] == 0.0)
    assert np.all(l2.calA1[:, n:, :n] == 0.0)
    assert np.all(l2.calB2[:, n:, :] == 0.0)
    assert np.all(l2.calQ2[:, n:, :] == 0.0)
    assert np.all(l2.calF2[:, :, :n] == 0.0)
    assert np.all(l3.frakA1[:, :2 * n, 2 * n:] == 0.0)
    assert np.all(l3.frakB3[:, 2 * n:, :] == 0.0)
    assert np.all(l3.Fa[:, :, :2 * n] == 0.0)
    assert np.all(l3.Sigma[0, :, 2 * n:] == 0.0)


def test_dimensional_ladder_slicing(n2_spec):
    bundle, _ = solve_game(n2_spec)
    n = n2_spec.n
    k = 31
    # level-3 upper-left block of frakA1 is the level-2 closed-loop ddA1
    assert np.array_equal(bundle.l3.frakA1[k, :2 * n, :2 * n],
                          bundle.l2cl.ddA1[k])
    assert np.array_equal(bundle.l3.frakA1[k, 2 * n:, 2 * n:],
                          bundle.l2cl.ddA1[k])
    # level-2 upper-left of calA1 is the raw A
    A = CoeffValues(n2_spec, bundle.times[k]).A
    assert np.array_equal(bundle.l2.calA1[k, :n, :n], A)


def test_selectors_shapes():
    e1, U, L, s2 = selectors(3)
    assert e1.shape == (3, 12) and U.shape == (6, 12)
    v = np.arange(12.0)
    assert np.array_equal(e1 @ v, v[:3])
    assert np.array_equal(L @ v, v[6:])
    assert np.array_equal(s2 @ (U @ v), v[3:6])

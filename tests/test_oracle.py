import dataclasses

import numpy as np
import pytest

import stacklq as sq
from stacklq.errors import BlowUpError, ReductionError, StackLQError
from stacklq.lift import CoeffValues, level1_at
from stacklq.model import Coefficient, solver_times, with_steps
from stacklq.oracle import (DiscreteLQ, DPSolution, _continuous_value,
                            crosscheck_p, reduce_to_single_player, solve_dp)
from stacklq.riccati import backward_rk4
from stacklq.rng import NoisePlan, component_seeds

from reference import solve_p


def _with_coeffs(spec, **coeffs):
    return dataclasses.replace(spec, coeffs={**spec.coeffs, **coeffs})


def _with_leader_costs(spec):
    spec = _with_coeffs(spec, Q2=Coefficient.constant([[0.5]]),
                        Q3=Coefficient.constant([[0.4]]))
    return dataclasses.replace(spec, G=(spec.G[0], np.array([[0.3]]), spec.G[2]))


# reducible_spec's A with a breakpoint between grid nodes
OFFGRID_A = Coefficient.piecewise([0.337], [[[0.4]], [[-0.3]]])


def _reducible(which, request):
    """A fixture spec, or reducible_spec with leader costs or with OFFGRID_A."""
    if which == "leader_costs":
        return _with_leader_costs(request.getfixturevalue("reducible_spec"))
    if which == "offgrid_A":
        return _with_coeffs(request.getfixturevalue("reducible_spec"), A=OFFGRID_A)
    return request.getfixturevalue(which)


def test_reduce_zero_spec(zero_spec):
    d = reduce_to_single_player(zero_spec)
    assert np.allclose(d.A, np.eye(1))  # I + h*0
    assert np.all(d.B == 0.0)
    assert np.all(d.Q == 0.0)


def test_reduce_euler_map():
    spec = sq.make_spec(n=1, T=1.0, steps=100, A=1.0, B1=1.0, R1=1.0)
    d = reduce_to_single_player(spec)
    assert np.allclose(d.A[0], 1.01)
    assert np.allclose(d.B[0], 0.01)


def test_reduce_stage_cost_definition(reducible_spec):
    d = reduce_to_single_player(reducible_spec)
    h = reducible_spec.T / d.steps
    k = 17
    t = k * h
    c = CoeffValues(reducible_spec, t)
    assert np.allclose(d.Q[k], h * c.Q[0])
    assert np.allclose(d.R[k], h * c.R[0])
    assert np.allclose(d.q[k], h * c.m[0])
    assert np.allclose(d.r[k], h * c.nl[0])


def test_reduce_rejects_nonreducible(scalar_generic):
    with pytest.raises(ReductionError):
        reduce_to_single_player(scalar_generic)


def _plain_lq(K, n, A, B, Q, R, G):
    zeros_m = np.zeros((K, n, n))
    zeros_v = np.zeros((K, n))
    rep = lambda M: np.tile(np.asarray(M, float)[None], (K, 1, 1))
    return DiscreteLQ(A=rep(A), B=rep(B), c=zeros_v, Cn=zeros_m, sn=zeros_v,
                      var=np.zeros(K), Q=rep(Q), R=rep(R), q=zeros_v,
                      r=zeros_v, G=np.asarray(G, float), g=np.zeros(n))


def _joseph_dp(d: DiscreteLQ) -> DPSolution:
    """The recursion on x itself, S updated in Joseph form through the
    closed-loop map A + B K: the reference for solve_dp's augmented one."""
    K = d.steps
    n = d.G.shape[0]
    S = np.empty((K + 1, n, n))
    s = np.empty((K + 1, n))
    const = np.empty(K + 1)
    gains = np.empty((K, n, n))
    offs = np.empty((K, n))
    S[K], s[K], const[K] = d.G, d.g, 0.0
    for k in range(K - 1, -1, -1):
        A, B, c, Cn, sn, var = d.A[k], d.B[k], d.c[k], d.Cn[k], d.sn[k], d.var[k]
        Sp, sp, cp = S[k + 1], s[k + 1], const[k + 1]
        M = d.R[k] + B.T @ Sp @ B
        Kk = -np.linalg.solve(M, B.T @ Sp @ A)
        kk = -np.linalg.solve(M, B.T @ (Sp @ c) + B.T @ sp + d.r[k])
        Acl = A + B @ Kk
        S[k] = (d.Q[k] + Kk.T @ d.R[k] @ Kk + Acl.T @ Sp @ Acl
                + var * Cn.T @ Sp @ Cn)
        S[k] = 0.5 * (S[k] + S[k].T)
        u = c + B @ kk
        s[k] = (d.q[k] + Kk.T @ (d.r[k] + d.R[k] @ kk) + Acl.T @ (Sp @ u + sp)
                + var * Cn.T @ (Sp @ sn))
        const[k] = (cp + 0.5 * u @ Sp @ u + sp @ u + 0.5 * var * sn @ Sp @ sn
                    + 0.5 * kk @ d.R[k] @ kk + d.r[k] @ kk)
        gains[k], offs[k] = Kk, kk
    return DPSolution(S=S, s=s, const=const, gains=gains, offs=offs)


def _random_lq(K, n, seed):
    """Every term non-zero: drift, intercept, multiplicative and additive
    noise, cross costs and a terminal gradient."""
    rng = np.random.default_rng(seed)
    h = 1.0 / K
    mat = lambda s: rng.standard_normal((K, n, n)) * s
    vec = lambda s: rng.standard_normal((K, n)) * s
    V = rng.standard_normal((K, n, n))
    W = rng.standard_normal((n, n))
    return DiscreteLQ(A=np.eye(n) + h * mat(0.5), B=h * (np.eye(n) + mat(0.3)),
                      c=h * vec(0.2), Cn=mat(0.3), sn=vec(0.3),
                      var=np.full(K, h), Q=h * (V @ V.mT / n),
                      R=h * (np.eye(n) + 0.1 * (V.mT @ V) / n), q=h * vec(0.1),
                      r=h * vec(0.1), G=W @ W.T / n, g=rng.standard_normal(n))


def _dp_gap(a: DPSolution, b: DPSolution, name: str) -> float:
    x, y = getattr(a, name), getattr(b, name)
    return float(np.abs(x - y).max() / np.abs(x).max())


@pytest.mark.parametrize("which", ["reducible_spec", "random_n2"])
def test_dp_matches_joseph_form(which, request):
    d = (reduce_to_single_player(request.getfixturevalue(which), steps=1000)
         if which == "reducible_spec" else _random_lq(1000, 2, 7))
    ref, sol = _joseph_dp(d), solve_dp(d)
    for name in ("S", "s", "const", "gains", "offs"):
        assert np.any(getattr(ref, name)), name
        assert _dp_gap(ref, sol, name) <= 1e-12, name


def test_dp_rejects_indefinite_stage():
    # R = -3 at stage 2 only: M = R + B'SB is -2 there, positive elsewhere
    d = _plain_lq(4, 1, [[1.0]], [[1.0]], [[0.0]], [[1.0]], [[1.0]])
    R = d.R.copy()
    R[2] = -3.0
    with pytest.raises(StackLQError, match="DP stage 2:"):
        solve_dp(dataclasses.replace(d, R=R))


def test_dp_one_step_hand_recursion():
    # A = B = R = G = 1, Q = 0, one step: S0 = 1 - 1/2 = 1/2, gain = -1/2
    d = _plain_lq(1, 1, [[1.0]], [[1.0]], [[0.0]], [[1.0]], [[1.0]])
    sol = solve_dp(d)
    assert abs(sol.S[0][0, 0] - 0.5) < 1e-15
    assert abs(sol.gains[0][0, 0] + 0.5) < 1e-15


def test_dp_zero_cost():
    d = _plain_lq(5, 1, [[1.1]], [[0.7]], [[0.0]], [[1.0]], [[0.0]])
    sol = solve_dp(d)
    assert np.all(sol.S == 0.0)
    assert np.all(sol.gains == 0.0)


def test_dp_homogeneous_quadratic():
    d = _plain_lq(4, 2, np.eye(2) * 1.05, np.eye(2), np.eye(2) * 0.3,
                  np.eye(2), np.eye(2) * 0.5)
    sol = solve_dp(d)
    x0 = np.array([1.3, -0.4])
    assert abs(sol.value(2.0 * x0) - 4.0 * sol.value(x0)) < 1e-12


def test_dp_uncontrolled_matches_simulation(reducible_spec):
    spec = _with_coeffs(reducible_spec, **dict.fromkeys(
        ("B1", "B2", "B3"), Coefficient.constant(np.zeros((1, 1)))))
    d = reduce_to_single_player(spec, steps=200)
    sol = solve_dp(d)
    # simulate the uncontrolled cost and compare with the DP value
    plan = NoisePlan(component_seeds(3), np.full(200, spec.T / 200))
    dW = plan.increments(np.arange(20000))[:, 2]
    x = np.full(20000, spec.x0[0])
    J = np.zeros(20000)
    h = spec.T / 200
    for k in range(200):
        J += (0.5 * d.Q[k][0, 0] * x * x + d.q[k][0] * x)
        x = d.A[k][0, 0] * x + d.c[k][0] + (d.Cn[k][0, 0] * x + d.sn[k][0]) * dW[k]
    J += 0.5 * d.G[0, 0] * x * x
    se = J.std(ddof=1) / np.sqrt(J.shape[0])
    assert abs(J.mean() - sol.value(spec.x0)) <= 3.0 * se


def _oracle_grid_value(spec, steps):
    """V(0, x0) on a uniform grid of `steps` steps, independent of the solved
    ladder: p by reference.solve_p (solve_game's p, without the levels
    above it) on that grid, taken at the node nearest each RK4 stage, the
    offset phi by its own RK4 and the constant chi by the Simpson sum.  The
    reference for the continuous value the cross-check reads off the
    ladder."""
    T, n = spec.T, spec.n
    times = np.linspace(0.0, T, steps + 1)
    pspec = with_steps(spec, steps)
    ptimes = solver_times(pspec)
    # the solver grid adds every breakpoint; keep the node nearest each t_k
    j = np.clip(np.searchsorted(ptimes, times), 1, ptimes.shape[0] - 1)
    j -= times - ptimes[j - 1] < ptimes[j] - times
    pv = solve_p(pspec)[j]
    # coefficients at the RK4 stage times: nodes and step midpoints
    stage_t = np.empty(2 * steps + 1)
    stage_t[0::2] = times
    stage_t[1::2] = times[1:] - 0.5 * np.diff(times)
    stages = CoeffValues(spec, stage_t)
    near = np.clip(np.rint(stage_t / T * steps).astype(int), 0, steps)
    l1 = level1_at(stages, pv[near])
    Abar, f1bar = l1["Abar"], l1["f1bar"]

    # stage j of the step down from t_k is entry 2k - (0, 1, 1, 2)[j] of the table
    def rhs_phi(k, j, y):
        i = 2 * k - (j + 1) // 2
        return (-(Abar[i].T @ y[0] + f1bar[i]),)

    (phis,) = backward_rk4(rhs_phi, (np.zeros(n),), times, "oracle offset phi")
    phi, p, s3 = phis[near], pv[near], stages.sigma[2]
    w = np.einsum("sij,si->sj", stages.B[0], phi) + stages.nl[0]
    f = -(np.einsum("si,si->s", phi, stages.b)
          + 0.5 * np.einsum("si,si->s", s3, np.einsum("sij,sj->si", p, s3))
          - 0.5 * np.einsum("si,si->s", w, np.einsum("sij,sj->si", stages.Rinv[0], w)))
    chi0 = -np.diff(times) / 6.0 @ (f[2::2] + 4.0 * f[1::2] + f[:-1:2])
    x0 = spec.x0
    return float(0.5 * x0 @ pv[0] @ x0 + phis[0] @ x0 + chi0)


@pytest.mark.parametrize("which", ["leader_costs", "offgrid_A", "closed_form_spec"])
def test_continuous_value_matches_oracle_grid(which, request):
    spec = _reducible(which, request)
    value = _continuous_value(spec, *sq.solve_game(spec))
    assert abs(value - _oracle_grid_value(spec, 20000)) <= 1e-6


@pytest.mark.parametrize("which", ["reducible_spec", "leader_costs", "offgrid_A",
                                   "closed_form_spec"])
def test_follower_gain_reads_only_p(which, request):
    # v1 = K1 Xc + k1 with K1 = -R1^-1 B1' p on Xc's x block: Omega's last
    # quarter, k1's offset, is then the follower's phi
    spec = _reducible(which, request)
    bundle, Omega = sq.solve_game(spec)
    law = sq.build_feedback(bundle, Omega)
    cv = CoeffValues(spec, bundle.times)
    n = spec.n
    assert np.array_equal(law.gains["K1"][:, :, :n],
                          -cv.Rinv[0] @ cv.B[0].mT @ bundle.p)
    assert not np.any(law.gains["K1"][:, :, n:])


def test_crosscheck_closed_form(closed_form_spec):
    rep = crosscheck_p(closed_form_spec, *sq.solve_game(closed_form_spec),
                       steps=1000)
    # p(0) = 0.5; first-order discretization gap
    assert rep.gap_S0 <= 0.01


def test_crosscheck_linear_trend(reducible_spec):
    solved = sq.solve_game(reducible_spec)
    gaps = [crosscheck_p(reducible_spec, *solved, steps=s).gap_S0
            for s in (100, 200, 400)]
    assert gaps[0] > gaps[1] > gaps[2]
    for a, b in zip(gaps, gaps[1:]):
        assert 1.5 <= a / b <= 2.5  # halving h halves the gap


def test_crosscheck_breakpoint_off_the_grid(reducible_spec):
    # the solver grid holds the breakpoint; the uniform DP grid at 100 and
    # 400 steps does not
    spec = _with_coeffs(reducible_spec, A=OFFGRID_A)
    solved = sq.solve_game(spec)
    coarse, fine = (crosscheck_p(spec, *solved, steps=s) for s in (100, 400))
    assert fine.gap_S0 < coarse.gap_S0 <= 0.01
    assert fine.gap_value < coarse.gap_value
    # the continuous value is read off the ladder, not the DP grid
    assert coarse.continuous_value == fine.continuous_value


def test_crosscheck_chi_blowup_at_latest_node():
    # uncontrolled, p = G1 = 1 and phi = 0: chi(t) = 0.5 sigma3^2 (T - t),
    # 3e13 (1 - t), first above BLOWUP_LIMIT = 1e12 going back from T at t_96
    spec = sq.make_spec(n=1, T=1.0, steps=100, x0=1.0, G1=1.0,
                        sigma3=np.sqrt(6e13))
    with pytest.raises(BlowUpError) as err:
        crosscheck_p(spec, *sq.solve_game(spec))
    assert err.value.what == "oracle constant chi"
    assert err.value.t == np.linspace(0.0, 1.0, 101)[96]


def test_dp_value_matches_optimal_simulation(reducible_spec):
    # simulate the DP policy and a perturbed policy; DP may not cost more
    d = reduce_to_single_player(reducible_spec, steps=150)
    sol = solve_dp(d)
    plan = NoisePlan(component_seeds(9), np.full(150, reducible_spec.T / 150))
    dW = plan.increments(np.arange(20000))[:, 2]

    def run(gain_scale):
        x = np.full(20000, reducible_spec.x0[0])
        J = np.zeros(20000)
        for k in range(150):
            v = gain_scale * sol.gains[k][0, 0] * x + sol.offs[k][0]
            J += (0.5 * d.Q[k][0, 0] * x * x + 0.5 * d.R[k][0, 0] * v * v
                  + d.q[k][0] * x + d.r[k][0] * v)
            x = (d.A[k][0, 0] * x + d.B[k][0, 0] * v + d.c[k][0]
                 + (d.Cn[k][0, 0] * x + d.sn[k][0]) * dW[k])
        J += 0.5 * d.G[0, 0] * x * x
        return J

    J_opt = run(1.0)
    J_bad = run(1.3)
    diff = J_bad - J_opt  # CRN-coupled comparison
    assert diff.mean() > -3.0 * diff.std(ddof=1) / np.sqrt(diff.shape[0])
    se = J_opt.std(ddof=1) / np.sqrt(J_opt.shape[0])
    assert abs(J_opt.mean() - sol.value(reducible_spec.x0)) <= 4.0 * se

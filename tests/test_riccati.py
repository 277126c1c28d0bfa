import numpy as np
import pytest

import stacklq as sq
from stacklq.errors import BlowUpError
from stacklq.lift import (CoeffValues, bdiag, level1_at, level2_at,
                          level2_closedloop_at, level3_at, mv)
from stacklq.model import Coefficient, solver_times
from stacklq.riccati import (LEVELS, _ladder_rhs, backward_rk4,
                             riccati_residuals, solve_game, terminal_state)


def integrate_backward(rhs, terminal, times):
    """RK4 for dM/dt = rhs(t, M) run backward from M(times[-1]) = terminal."""
    (values,) = backward_rk4(
        lambda k, j, y: (rhs(times[k] - (0.0, 0.5, 0.5, 1.0)[j]
                             * (times[k] - times[k - 1]), y[0]),),
        (np.asarray(terminal, dtype=float),), times, "backward integration")
    return values


def test_integrate_backward_constant():
    K = np.array([[2.0, 1.0], [1.0, 3.0]])
    traj = integrate_backward(lambda t, M: np.zeros_like(M), K,
                              np.linspace(0, 1, 11))
    assert np.array_equal(traj[0], K)
    assert np.array_equal(traj[-1], K)


def test_integrate_backward_quadratic_closed_form():
    # dp/dt = p^2 with p(1) = 1 has p(t) = 1/(2 - t), so p(0) = 1/2
    traj = integrate_backward(lambda t, M: M @ M, np.eye(1),
                              np.linspace(0, 1, 1001))
    assert abs(traj[0][0, 0] - 0.5) < 1e-10


def test_integrate_backward_linear_closed_form():
    k, g, T = 1.7, 2.0, 1.0
    traj = integrate_backward(lambda t, M: -k * M, np.array([[g]]),
                              np.linspace(0, T, 201))
    assert abs(traj[0][0, 0] - g * np.exp(k * T)) < 1e-9


def test_integrate_backward_blowup():
    # dp/dt = -50 p^2 from p(1) = 1 blows up at t = 0.98
    with pytest.raises(BlowUpError):
        integrate_backward(lambda t, M: -50.0 * M @ M, np.eye(1),
                           np.linspace(0, 1, 2001))


def test_solve_p_zero_sources(zero_spec):
    p = solve_game(zero_spec)[0].p
    assert np.all(p == 0.0)


def test_solve_p_closed_form(closed_form_spec):
    p = solve_game(closed_form_spec)[0].p
    # p(t) = 1/(1 + T - t)
    assert abs(p[0][0, 0] - 0.5) <= 1e-8
    mid = p[len(p) // 2][0, 0]
    tm = solver_times(closed_form_spec)[len(p) // 2]
    assert abs(mid - 1.0 / (2.0 - tm)) <= 1e-8


def test_solve_p_linear_variation_of_constants():
    # B1 = 0: dp/dt = -(2A + C^2) p - Q, scalar closed form
    a, c, q, g, T = 0.4, 0.3, 0.7, 0.6, 1.0
    spec = sq.make_spec(n=1, T=T, steps=400, A=a, C3=c, Q1=q, G1=g)
    p = solve_game(spec)[0].p
    lam = 2 * a + c * c
    expect = np.exp(lam * T) * g + q * (np.exp(lam * T) - 1.0) / lam
    assert abs(p[0][0, 0] - expect) < 1e-9


def test_solve_p_symmetric_psd(n2_spec):
    p = solve_game(n2_spec)[0].p
    assert np.abs(p - p.transpose(0, 2, 1)).max() <= 1e-9
    assert min(np.linalg.eigvalsh(M).min() for M in p) >= -1e-8


def test_P12_zero_when_uncontrolled():
    spec = sq.make_spec(n=1, A=0.3, B1=1.0, C3=0.2, Q1=0.5, G1=0.4, R1=1.0)
    bundle, _ = solve_game(spec)  # Q2 = G2 = 0 and B2 = 0
    assert np.all(bundle.P1 == 0.0)
    assert np.all(bundle.P2 == 0.0)


def test_P1_terminal_exact(n2_spec):
    bundle, _ = solve_game(n2_spec)
    n = n2_spec.n
    calG2 = bdiag(n2_spec.G[1], np.zeros((n, n)))
    assert np.array_equal(bundle.P1[-1], calG2)
    assert np.all(bundle.P2[-1] == 0.0)


def test_P123_zero_sources():
    # B2 = B3 = 0 makes H vanish (P1-level sources die), Q3 = G3 = 0
    spec0 = sq.make_spec(n=1, A=0.2, B1=1.0, Q1=0.4, G1=0.3)
    b0, _ = solve_game(spec0)
    assert np.all(b0.l2cl.H == 0.0)
    assert np.all(b0.Pf1 == 0.0)
    assert np.all(b0.Pf2 == 0.0)
    assert np.all(b0.Pf3 == 0.0)


def test_Pf1_terminal_exact(n2_spec):
    bundle, _ = solve_game(n2_spec)
    assert np.array_equal(bundle.Pf1[-1], terminal_state(n2_spec)[3])
    assert np.all(bundle.Pf2[-1] == 0.0)
    assert np.all(bundle.Pf3[-1] == 0.0)


def test_residuals_scale_h2(scalar_generic):
    import dataclasses
    vals = {}
    for steps in (200, 400):
        sp = dataclasses.replace(scalar_generic, steps=steps)
        b, o = solve_game(sp)
        res = riccati_residuals(b, o)
        h = sp.T / steps
        vals[steps] = {k: v / h**2 for k, v in res.items()}
    for name in vals[200]:
        c1, c2 = vals[200][name], vals[400][name]
        if c1 < 1e-12:
            continue
        assert 0.25 <= c2 / c1 <= 4.0, name


def test_offsets_zero_sources(zero_spec):
    bundle, Omega = solve_game(zero_spec)
    assert np.all(Omega == 0.0)


def test_offsets_constant_source_integral():
    # all dynamics zero, m3 = const: Omega' = -(m3; 0; 0; 0), Omega(T) = 0
    m3 = 0.37
    spec = sq.make_spec(n=1, T=1.0, steps=100, m3=m3)
    bundle, Omega = solve_game(spec)
    expect = np.array([m3 * 1.0, 0.0, 0.0, 0.0])
    assert np.allclose(Omega[0], expect, atol=1e-12)
    assert np.all(Omega[-1] == 0.0)


def test_determinism(scalar_generic):
    b1, o1 = solve_game(scalar_generic)
    b2, o2 = solve_game(scalar_generic)
    for name in ("p", "P1", "P2", "Pf1", "Pf2", "Pf3"):
        assert np.array_equal(getattr(b1, name),
                              getattr(b2, name))
    assert np.array_equal(o1, o2)


def test_solve_game_returns_read_only_arrays(n2_spec):
    # every consumer of a solve shares its arrays: the grid, the six levels,
    # the four lifted families, the coefficient table's fields and Omega
    bundle, Omega = solve_game(n2_spec)
    arrays = {"times": bundle.times, "Omega": Omega,
              **{name: getattr(bundle, name) for name in LEVELS},
              **{f"cv.{name}": getattr(bundle.cv, name)
                 for name in bundle.cv.__slots__},
              **{f"{family}.{name}": value
                 for family in ("l1", "l2", "l2cl", "l3")
                 for name, value in getattr(bundle, family).items()}}
    for name, arr in arrays.items():
        assert not arr.flags.writeable, name


def test_middle_and_top_solutions_symmetric(n2_spec):
    # the re-derived equations preserve symmetry; no symmetrization applied
    bundle, _ = solve_game(n2_spec)
    for name in ("P1", "P2", "Pf1", "Pf2", "Pf3"):
        v = getattr(bundle, name)
        assert np.abs(v - v.transpose(0, 2, 1)).max() < 1e-10, name


def test_piecewise_coefficients_integrate():
    from stacklq.model import Coefficient
    pw = Coefficient.piecewise([0.4], [[[0.5]], [[-0.2]]])
    spec = sq.make_spec(n=1, T=1.0, steps=100, A=pw, B1=1.0, Q1=0.5, G1=0.5)
    bundle, Omega = solve_game(spec)
    # grid contains the breakpoint and the residuals stay small off it
    assert np.any(np.isclose(bundle.times, 0.4))
    assert np.all(np.isfinite(bundle.p))


# ---------------------------------------------------------------------------
# the ladder's equations block by block, as the paper writes them out: the
# reference for the level functions (`_ladder_rhs` runs the three), which
# solve one Riccati instance per cumulative sum (P1, P1+P2; Pf1, Pf1+Pf2,
# Pf1+Pf2+Pf3) and difference them
# ---------------------------------------------------------------------------

def _block_rhs(cv, state):
    p, P1, P2, Pf1, Pf2, Pf3, Om = state
    l1 = level1_at(cv, p)
    l2 = level2_at(cv, l1)
    cl = level2_closedloop_at(cv, l2, P1, P2)
    l3 = level3_at(cv, l2, cl)
    quad = lambda Cs, P: sum(C.mT @ P @ C for C in Cs)
    B1, (R1, R2, R3) = cv.B[0], cv.Rinv
    dp = (p @ cv.A + cv.A.mT @ p - p @ B1 @ R1 @ B1.mT @ p + cv.Q[0]
          + quad(cv.C, p))

    cA1, cA2, cB2, cF2 = l2.calA1, l2.calA2, l2.calB2, l2.calF2
    cC = tuple(l2.calC)
    K = cB2 @ R2
    S = l2.calF1 - K @ cB2.mT
    A12, P12 = cA1 + cA2, P1 + P2
    FRB = cF2.mT @ R2 @ cB2.mT
    dP1 = P1 @ cA1 + cA1.mT @ P1 + P1 @ S @ P1 + l2.calQ2 + quad(cC, P1)
    dP2 = (P2 @ A12 + A12.mT @ P2 + cA2.mT @ P1 + P1 @ cA2
           + P1 @ S @ P2 + P2 @ S @ P1 + P2 @ S @ P2 + quad(cC[2:], P2)
           - P12 @ K @ cF2 - FRB @ P12 - cF2.mT @ R2 @ cF2)

    A1, A2, A3 = l3.frakA1, l3.frakA2, l3.frakA3
    B, Fa, Fb = l3.frakB3, l3.Fa, l3.Fb
    fC, Sig = tuple(l3.frakC), l3.Sigma
    BRB = B @ R3 @ B.mT
    Ma = A1 - B @ R3 @ Fa
    Mb = A1 + A2 - B @ R3 @ Fa
    Mc = A1 + A2 + A3 - B @ R3 @ (Fa + Fb)
    Md = A3 - B @ R3 @ Fb
    Sbar, S = l3.frakF1bar - BRB, l3.frakF1dd - BRB
    P12, Psum = Pf1 + Pf2, Pf1 + Pf2 + Pf3
    dPf1 = (Pf1 @ Ma + Ma.mT @ Pf1 + Pf1 @ Sbar @ Pf1 + l3.frakQ3
            - Fa.mT @ R3 @ Fa + quad(fC, Pf1))
    dPf2 = (Pf2 @ Mb + Mb.mT @ Pf2 + Pf1 @ S @ Pf2 + Pf2 @ S @ Pf1
            + Pf2 @ S @ Pf2 + l3.frakQ3dd + Pf1 @ A2 + A2.mT @ Pf1
            + Pf1 @ (l3.frakF1dd - l3.frakF1bar) @ Pf1 + quad(fC[1:], Pf2))
    dPf3 = (Pf3 @ Mc + Mc.mT @ Pf3 + P12 @ Md + Md.mT @ P12
            + P12 @ S @ Pf3 + Pf3 @ S @ P12 + Pf3 @ S @ Pf3 + quad(fC[2:], Pf3)
            - Fa.mT @ R3 @ Fb - Fb.mT @ R3 @ Fa - Fb.mT @ R3 @ Fb)

    Rn3 = mv(R3, cv.nl[2])
    W = (A1 + A2 + A3).mT - (Fa + Fb).mT @ R3 @ B.mT + Psum @ S
    src = (mv(fC[0].mT, mv(Pf1, Sig[0])) + mv(fC[1].mT, mv(P12, Sig[1]))
           + mv(fC[2].mT, mv(Psum, Sig[2]))
           + mv(Psum, l3.ddb3 - mv(B, Rn3)) + l3.ddf3 - mv((Fa + Fb).mT, Rn3))
    dOm = mv(W, Om) + src
    return tuple(-d for d in (dp, dP1, dP2, dPf1, dPf2, dPf3, dOm))


@pytest.fixture(scope="module")
def offgrid_spec():
    """n = 2 spec whose A, B2, C3, sigma3 and R3 switch between grid nodes."""
    rng = np.random.default_rng(11)
    n = 2
    mk = lambda s: rng.standard_normal((n, n)) * s
    vec = lambda s: rng.standard_normal(n) * s
    spd = lambda s: s * np.cov(rng.standard_normal((n, 4))) + np.eye(n)
    pw = lambda draw, s: Coefficient.piecewise([0.313, 0.671],
                                               [draw(s) for _ in range(3)])
    return sq.make_spec(
        n=n, T=1.0, steps=40, x0=np.array([0.5, 1.0]), A=pw(mk, 0.3),
        B1=mk(0.4) + np.eye(n), B2=pw(mk, 0.4), B3=mk(0.4),
        C1=mk(0.1), C2=mk(0.1), C3=pw(mk, 0.1), b=vec(0.05),
        sigma1=vec(0.2), sigma2=vec(0.2), sigma3=pw(vec, 0.2),
        Q1=spd(0.5), R1=spd(0.3), G1=spd(0.3), m1=vec(0.02), n1=vec(0.02),
        Q2=spd(0.4), R2=spd(0.3), G2=spd(0.2), m2=vec(0.02), n2=vec(0.02),
        Q3=spd(0.4), R3=pw(spd, 0.3), G3=spd(0.2), m3=vec(0.02), n3=vec(0.02))


def _random_states(rng, m, n):
    def sym(d):
        V = rng.standard_normal((m, d, d))
        return 0.5 * (V + V.mT)
    return (sym(n), sym(2 * n), sym(2 * n), sym(4 * n), sym(4 * n), sym(4 * n),
            rng.standard_normal((m, 4 * n)))


@pytest.mark.parametrize("name", ("n2_spec", "offgrid_spec"))
def test_stack_rhs_matches_block_equations(name, request):
    spec = request.getfixturevalue(name)
    rng = np.random.default_rng(5)
    ts = rng.uniform(0.0, spec.T, 12)
    bundle, Omega = solve_game(spec)
    solved = tuple(getattr(bundle, f)
                   for f in ("p", "P1", "P2", "Pf1", "Pf2", "Pf3"))
    cases = [(CoeffValues(spec, ts), _random_states(rng, ts.shape[0], spec.n)),
             (CoeffValues(spec, bundle.times), solved + (Omega,))]
    for cv, state in cases:
        for got, ref in zip(_ladder_rhs(cv, state), _block_rhs(cv, state)):
            assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max()


def _joint_ladder(spec):
    """The ladder as one RK4 state, each stage's right-hand side evaluated on
    that stage's values at the step's midpoint coefficients, one node at a
    time: the one-pass shape the level-by-level solve must reproduce."""
    times = solver_times(spec)
    mid = CoeffValues(spec, 0.5 * (times[1:] + times[:-1]))

    def symmetric_p(y):
        return (0.5 * (y[0] + y[0].T),) + y[1:]

    return backward_rk4(lambda k, j, y: tuple(_ladder_rhs(mid[k - 1], y)),
                        terminal_state(spec), times, "joint ladder", symmetric_p)


@pytest.mark.parametrize("name", ("scalar_generic", "n2_spec", "offgrid_spec"))
def test_ladder_levels_match_joint_rk4(name, request):
    spec = request.getfixturevalue(name)
    bundle, Omega = solve_game(spec)
    got = [getattr(bundle, f) for f in ("p", "P1", "P2", "Pf1", "Pf2", "Pf3")]
    got.append(Omega)
    for g, ref in zip(got, _joint_ladder(spec)):
        assert g.shape == ref.shape
        assert np.abs(g - ref).max() <= 1e-14 * np.abs(ref).max()


def test_ladder_blowup_time_pinned():
    # recorded when the ladder was one joint RK4 pass: the error names the
    # first step, backward, at which any level exceeds the blow-up limit
    readme = dict(n=1, T=1.0, steps=500, x0=1.0, A=0.3, B1=1.0, B2=0.8,
                  B3=0.6, sigma1=0.25, sigma2=0.3, sigma3=0.35, Q1=1.0, R1=1.0,
                  G1=0.5, Q2=0.8, R2=1.2, G2=0.4, Q3=0.6, R3=1.5, G3=0.3)
    # A = 1e7: p blows up on the first step, so no level above it takes one
    for kw, t in ((dict(A=16.0), 0.118), (dict(A=20.0), 0.294),
                  (dict(A=1e7), 0.998)):
        with pytest.raises(BlowUpError) as err:
            solve_game(sq.make_spec(**{**readme, **kw}))
        assert err.value.t == pytest.approx(t, abs=1e-9), kw
    # B1 = B2 = B3 = 0: p blows up alone at t = 0.116; the levels above it
    # would blow up by t = 0.028 on their own, so they must stop at p's step
    kw = dict(A=16.0, B1=0.0, B2=0.0, B3=0.0, G2=1e-3, G3=1e-3)
    with pytest.raises(BlowUpError) as err:
        solve_game(sq.make_spec(**{**readme, **kw}))
    assert err.value.t == pytest.approx(0.116, abs=1e-9)
    with pytest.raises(BlowUpError) as err:
        solve_game(sq.make_spec(**{**readme, **kw, "G1": 1e-6}))
    assert err.value.t == pytest.approx(0.028, abs=1e-9)


@pytest.mark.parametrize("T", [1e40, 1e300])
def test_ladder_overflow_is_a_blow_up(T):
    # a step of T/20 overflows inside the first RK4 step: its inf and NaN
    # are the blow-up reported at the step's end, not a RuntimeWarning
    spec = sq.make_spec(n=1, T=T, steps=20, A=0.3, B1=1.0, Q1=1.0, G1=0.5)
    with pytest.raises(BlowUpError) as err:
        solve_game(spec)
    assert err.value.t == solver_times(spec)[19]


def test_ladder_numbers_pinned(n2_spec):
    # recorded from the per-block equations (`_block_rhs`) before the ladder
    # became one Riccati instance per cumulative sum
    bundle, Omega = solve_game(n2_spec)
    law = sq.build_feedback(bundle, Omega)
    arrays = {"P2": bundle.P2, "Pf2": bundle.Pf2,
              "Pf3": bundle.Pf3, "Omega": Omega,
              "K2check": law.gains["K2check"], "K3check": law.gains["K3check"]}
    for (name, k), want in LADDER_PINNED.items():
        got = arrays[name][k]
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max(), (name, k)


LADDER_PINNED = {
    ('P2', 0): np.array([
        -0.032018257438277749, -0.16694289954227726, -0.27455276155887648, -0.037270654820957247,
        -0.16694289954227726, -0.26760001184987392, -0.13564472609587519, -0.022550864689222516,
        -0.27455276155887648, -0.13564472609587519, -0.22608091609740774, -0.010670996975034961,
        -0.037270654820957254, -0.022550864689222516, -0.010670996975034961, -0.019463771378277935,
    ]).reshape(4, 4),
    ('P2', 80): np.array([
        0.040304260417133517, -0.042259272669201819, -0.056653861780911433, 0.011699995528492095,
        -0.042259272669201819, -0.1124784968568202, -0.032288063230381532, 0.0051519317928896049,
        -0.056653861780911433, -0.032288063230381532, -0.060823003962346349, 0.025250805994725123,
        0.011699995528492092, 0.0051519317928896049, 0.025250805994725123, -0.019444172204229806,
    ]).reshape(4, 4),
    ('Pf2', 0): np.array([
        -0.13908827939286394, -0.039074598036964926, 0, 0,
        -0.33329125396952552, -0.22996047358184657, 0, 0,
        -0.039074598036964926, 0.0091244532826743122, 0, 0,
        -0.27372396092261153, -0.19471189787264898, 0, 0,
        0, 0, 0, 0,
        0, 0, 0, 0,
        0, 0, 0, 0,
        0, 0, 0, 0,
        -0.33329125396952552, -0.27372396092261153, 0, 0,
        0.29843102058720977, 0.21081769151003371, 0, 0,
        -0.22996047358184657, -0.19471189787264898, 0, 0,
        0.21081769151003371, 0.15030976582890565, 0, 0,
        0, 0, 0, 0,
        0, 0, 0, 0,
        0, 0, 0, 0,
        0, 0, 0, 0,
    ]).reshape(8, 8),
    ('Pf2', 80): np.array([
        -0.03904120237621219, -0.008604882468051956, 0, 0,
        -0.053939329335477799, -0.040592333634309918, 0, 0,
        -0.008604882468051956, 0.0078697963913862534, 0, 0,
        -0.04548946559124227, -0.035146383557911103, 0, 0,
        0, 0, 0, 0,
        0, 0, 0, 0,
        0, 0, 0, 0,
        0, 0, 0, 0,
        -0.053939329335477799, -0.045489465591242277, 0, 0,
        0.014339320194300429, 0.011045895869597169, 0, 0,
        -0.040592333634309925, -0.035146383557911103, 0, 0,
        0.011045895869597169, 0.0085493710926398681, 0, 0,
        0, 0, 0, 0,
        0, 0, 0, 0,
        0, 0, 0, 0,
        0, 0, 0, 0,
    ]).reshape(8, 8),
    ('Pf3', 0): np.array([
        -0.012539772483354937, 0.02302079735495877, -0.048448273710292936, -0.00055525274417092541,
        0.0036323217596222236, 0.0089647938704669177, -0.022652138740068717, -0.005048714879475699,
        0.02302079735495877, -0.048496312150847841, 0.012299651348198578, -0.001269844720312655,
        -0.0020889984362487042, -0.0021795415380919413, 0.0036935730162611859, 0.00046683039229108319,
        -0.048448273710292936, 0.012299651348198578, 0.017648295528662254, 0.0002849254095061749,
        0.012449419117660402, 0.0064645572757285521, 0.008396107458647082, 0.0018883372256622592,
        -0.00055525274417092541, -0.001269844720312655, 0.0002849254095061749, 5.2696776637309915e-05,
        0.00029727014781329712, 0.00015800226879803428, 0.00019030737987729536, 5.4121178880335578e-05,
        0.0036323217596222232, -0.0020889984362487029, 0.012449419117660402, 0.00029727014781329728,
        0.040364271483103495, 0.077918374946268507, -0.16383440118505982, -0.048047960755852902,
        0.0089647938704669194, -0.0021795415380919405, 0.0064645572757285512, 0.00015800226879803426,
        0.077918374946268507, 0.082695575456704279, -0.086515737589958688, -0.026401452798651522,
        -0.022652138740068717, 0.0036935730162611859, 0.0083961074586470837, 0.00019030737987729552,
        -0.16383440118505982, -0.086515737589958688, -0.11016749653135262, -0.028394987252446189,
        -0.0050487148794756982, 0.00046683039229108303, 0.0018883372256622592, 5.4121178880335578e-05,
        -0.048047960755852909, -0.026401452798651526, -0.028394987252446189, -0.012406163739619863,
    ]).reshape(8, 8),
    ('Pf3', 80): np.array([
        -0.016965415108329069, 0.018502143393927178, -0.020667358877525726, 0.0083534303262269762,
        0.00022062490868974334, 0.0026026506331381389, -0.010854930965996865, 0.0010123543016026875,
        0.018502143393927178, -0.022830201958380404, 0.0069464227523461227, -0.0033780708873528405,
        -0.00078989491153032374, -0.0011959946743212164, 0.0029273442122369855, -0.00044111909933215591,
        -0.020667358877525726, 0.0069464227523461227, 0.0026195863189263165, -0.0010511714356639073,
        0.0019423774494263389, 0.0011904267309864654, 0.0013880967914590104, -0.00012732983765460283,
        0.0083534303262269762, -0.0033780708873528405, -0.0010511714356639073, 0.00043276731094316084,
        -0.00076180864296851046, -0.00046635941057919625, -0.00054702880430406494, 5.2871468586016684e-05,
        0.00022062490868974318, -0.00078989491153032352, 0.0019423774494263389, -0.00076180864296851035,
        -0.0052486991660507989, 0.0059551510165562942, -0.041070787275006349, -0.00019778837227038535,
        0.0026026506331381393, -0.0011959946743212162, 0.0011904267309864659, -0.00046635941057919625,
        0.0059551510165562942, 0.010989359595935819, -0.025232330347786967, -0.00049193557338306584,
        -0.010854930965996865, 0.0029273442122369855, 0.0013880967914590104, -0.00054702880430406494,
        -0.041070787275006349, -0.025232330347786967, -0.02976141387028761, 0.0025549699260706596,
        0.0010123543016026877, -0.00044111909933215591, -0.00012732983765460283, 5.2871468586016691e-05,
        -0.00019778837227038521, -0.00049193557338306595, 0.0025549699260706605, -0.0032445610740129451,
    ]).reshape(8, 8),
    ('Omega', 0): np.array([
        -0.007610347063036471, 0.015391869487644263, 0.0013021098437434151, -0.00043151771788174929,
        -0.022673322308115924, -0.0064829543210916879, -0.048641326506840353, 0.014812855615102129,
    ]).reshape(8,),
    ('Omega', 80): np.array([
        -0.0041638081462530268, 0.0095790760204216615, 0.00030426426984950553, -0.00029385276227379871,
        -0.0094646569626053983, 0.0013052672393205767, -0.025510061266488689, 0.017257710646970154,
    ]).reshape(8,),
    ('K2check', 0): np.array([
        0.050322969380438599, 0.16544072092552869, -0.5347741778928794, -0.15154564687611874,
        -0.04220653863579326, -0.067928087723562708, 0.12535151544720682, 0.036967847228026596,
        -0.03008734034821426, -0.010394795176523849, -0.28750964974561605, 0.12173206955015158,
        0.0058769822425266353, -0.0056885103308428053, 0.033936177008242564, 0.009693717298695859,
    ]).reshape(2, 8),
    ('K2check', 80): np.array([
        -0.018791788887754002, 0.051130100199272013, -0.33622502156075507, -0.0023205225875089575,
        0.0022700525551054948, -0.0061256571099627373, 0.032132716012613284, 0.00022884672832054184,
        -0.023752286779110857, -0.013958255285290514, -0.24770497081584189, 0.1989571328278297,
        0.0032823339182064979, 0.0007396967136425658, 0.0076157904371295911, -5.6499395944016915e-05,
    ]).reshape(2, 8),
    ('K3check', 0): np.array([
        -0.0034558798213504219, 0.0061852097229060559, -0.015308879549275938, -0.00021147184987015805,
        -0.013469232670654455, -0.057830583798635496, 0.25251226967011547, 0.031652319417764745,
        0.00065668169630090354, 0.00059186610298750549, 0.024634400463302186, 0.00068908535736340686,
        0.065245487396302176, 0.1696715373731538, -0.44673150314626869, -0.19368385564743024,
    ]).reshape(2, 8),
    ('K3check', 80): np.array([
        -0.0049983692325286117, 0.005383407312265354, -0.0064871614431238223, 0.002607447080533563,
        0.011968757846050507, -0.015690254443129471, 0.17548268732408964, -0.039087037902193374,
        0.0045337106614129624, -0.0041797245580296859, 0.01001868270570145, -0.0038849338811947761,
        -0.011160110150320623, 0.055840858371420304, -0.26615202109855207, -0.066218896685161899,
    ]).reshape(2, 8),
}

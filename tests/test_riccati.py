import numpy as np
import pytest

import stacklq as sq
from stacklq.errors import BlowUpError
from stacklq.lift import bdiag
from stacklq.riccati import (integrate_backward, riccati_residuals, solve_game,
                             solve_p)


def test_integrate_backward_constant():
    K = np.array([[2.0, 1.0], [1.0, 3.0]])
    traj = integrate_backward(lambda t, M: np.zeros_like(M), K,
                              np.linspace(0, 1, 11))
    assert np.array_equal(traj.values[0], K)
    assert np.array_equal(traj.terminal, K)


def test_integrate_backward_quadratic_closed_form():
    # dp/dt = p^2 with p(1) = 1 has p(t) = 1/(2 - t), so p(0) = 1/2
    traj = integrate_backward(lambda t, M: M @ M, np.eye(1),
                              np.linspace(0, 1, 1001))
    assert abs(traj.values[0][0, 0] - 0.5) < 1e-10


def test_integrate_backward_linear_closed_form():
    k, g, T = 1.7, 2.0, 1.0
    traj = integrate_backward(lambda t, M: -k * M, np.array([[g]]),
                              np.linspace(0, T, 201))
    assert abs(traj.values[0][0, 0] - g * np.exp(k * T)) < 1e-9


def test_integrate_backward_blowup():
    # dp/dt = -50 p^2 from p(1) = 1 blows up at t = 0.98
    with pytest.raises(BlowUpError):
        integrate_backward(lambda t, M: -50.0 * M @ M, np.eye(1),
                           np.linspace(0, 1, 2001))


def test_solve_p_zero_sources(zero_spec):
    p = solve_p(zero_spec)
    assert np.all(p.values == 0.0)


def test_solve_p_closed_form(closed_form_spec):
    p = solve_p(closed_form_spec)
    # p(t) = 1/(1 + T - t)
    assert abs(p.values[0][0, 0] - 0.5) <= 1e-8
    mid = p.values[len(p.times) // 2][0, 0]
    tm = p.times[len(p.times) // 2]
    assert abs(mid - 1.0 / (2.0 - tm)) <= 1e-8


def test_solve_p_linear_variation_of_constants():
    # B1 = 0: dp/dt = -(2A + C^2) p - Q, scalar closed form
    a, c, q, g, T = 0.4, 0.3, 0.7, 0.6, 1.0
    spec = sq.make_spec(n=1, T=T, steps=400, A=a, C3=c, Q1=q, G1=g)
    p = solve_p(spec)
    lam = 2 * a + c * c
    expect = np.exp(lam * T) * g + q * (np.exp(lam * T) - 1.0) / lam
    assert abs(p.values[0][0, 0] - expect) < 1e-9


def test_solve_p_symmetric_psd(n2_spec):
    p = solve_p(n2_spec)
    assert np.abs(p.values - p.values.transpose(0, 2, 1)).max() <= 1e-9
    assert min(np.linalg.eigvalsh(M).min() for M in p.values) >= -1e-8


def test_P12_zero_when_uncontrolled():
    spec = sq.make_spec(n=1, A=0.3, B1=1.0, C3=0.2, Q1=0.5, G1=0.4, R1=1.0)
    bundle, _ = solve_game(spec)  # Q2 = G2 = 0 and B2 = 0
    assert np.all(bundle.P1.values == 0.0)
    assert np.all(bundle.P2.values == 0.0)


def test_P1_terminal_exact(n2_spec):
    bundle, _ = solve_game(n2_spec)
    n = n2_spec.n
    calG2 = bdiag(n2_spec.costs.players[1].G, np.zeros((n, n)))
    assert np.array_equal(bundle.P1.terminal, calG2)
    assert np.all(bundle.P2.terminal == 0.0)


def test_P123_zero_sources():
    # B2 = B3 = 0 makes H vanish (P1-level sources die), Q3 = G3 = 0
    spec0 = sq.make_spec(n=1, A=0.2, B1=1.0, Q1=0.4, G1=0.3)
    b0, _ = solve_game(spec0)
    assert np.all(b0.l2cl.H == 0.0)
    assert np.all(b0.Pf1.values == 0.0)
    assert np.all(b0.Pf2.values == 0.0)
    assert np.all(b0.Pf3.values == 0.0)


def test_Pf1_terminal_exact(n2_spec):
    bundle, _ = solve_game(n2_spec)
    assert np.array_equal(bundle.Pf1.terminal, bundle.l3.frakG3)
    assert np.all(bundle.Pf2.terminal == 0.0)
    assert np.all(bundle.Pf3.terminal == 0.0)


def test_residuals_scale_h2(scalar_generic):
    import dataclasses
    vals = {}
    for steps in (200, 400):
        sp = dataclasses.replace(scalar_generic,
                                 grid=dataclasses.replace(scalar_generic.grid,
                                                          steps=steps))
        b, o = solve_game(sp)
        res = riccati_residuals(sp, b, o)
        h = sp.horizon / steps
        vals[steps] = {k: v / h**2 for k, v in res.items()}
    for name in vals[200]:
        c1, c2 = vals[200][name], vals[400][name]
        if c1 < 1e-12:
            continue
        assert 0.25 <= c2 / c1 <= 4.0, name


def test_offsets_zero_sources(zero_spec):
    bundle, offsets = solve_game(zero_spec)
    assert np.all(offsets.Omega.values == 0.0)
    assert np.all(offsets.Phi.values == 0.0)
    assert np.all(offsets.phi_check.values == 0.0)


def test_offsets_constant_source_integral():
    # all dynamics zero, m3 = const: Omega' = -(m3; 0; 0; 0), Omega(T) = 0
    m3 = 0.37
    spec = sq.make_spec(n=1, T=1.0, steps=100, m3=m3)
    bundle, offsets = solve_game(spec)
    expect = np.array([m3 * 1.0, 0.0, 0.0, 0.0])
    assert np.allclose(offsets.Omega.values[0], expect, atol=1e-12)
    # blocks: Phi is the lower half, phi_check the lower quarter
    assert np.array_equal(offsets.Phi.values, offsets.Omega.values[:, 2:])
    assert np.array_equal(offsets.phi_check.values, offsets.Omega.values[:, 3:])
    assert np.all(offsets.Omega.terminal == 0.0)


def test_sequential_ops_match_joint(scalar_generic):
    bundle, _ = solve_game(scalar_generic)
    p = solve_p(scalar_generic)
    assert np.array_equal(p.values, bundle.p.values)


def test_determinism(scalar_generic):
    b1, o1 = solve_game(scalar_generic)
    b2, o2 = solve_game(scalar_generic)
    for name in ("p", "P1", "P2", "Pf1", "Pf2", "Pf3"):
        assert np.array_equal(getattr(b1, name).values,
                              getattr(b2, name).values)
    assert np.array_equal(o1.Omega.values, o2.Omega.values)


def test_middle_and_top_solutions_symmetric(n2_spec):
    # the re-derived equations preserve symmetry; no symmetrization applied
    bundle, _ = solve_game(n2_spec)
    for name in ("P1", "P2", "Pf1", "Pf2", "Pf3"):
        v = getattr(bundle, name).values
        assert np.abs(v - v.transpose(0, 2, 1)).max() < 1e-10, name


def test_piecewise_coefficients_integrate():
    from stacklq.model import Coefficient
    pw = Coefficient.piecewise([0.4], [[[0.5]], [[-0.2]]])
    spec = sq.make_spec(n=1, T=1.0, steps=100, A=pw, B1=1.0, Q1=0.5, G1=0.5)
    bundle, offsets = solve_game(spec)
    # grid contains the breakpoint and the residuals stay small off it
    assert np.any(np.isclose(bundle.times, 0.4))
    assert np.all(np.isfinite(bundle.p.values))

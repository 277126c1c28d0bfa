import dataclasses

import numpy as np
import pytest

import stacklq as sq
from stacklq.closedloop import (BLOCK_PATHS, _follower_offset, _middle_offset,
                                _node_loop, _phicheck_gain, _rows_at,
                                _state_step, ansatz_residual, respond_player1,
                                respond_player12, simulate_equilibrium)
from stacklq.errors import BlowUpError, UnsupportedPerturbationError
from stacklq.lift import CoeffValues, mv, selectors
from stacklq.model import Coefficient, solver_times
from stacklq.montecarlo import (_sweep_quadratics, _sweep_setup,
                                default_directions, simulate_blocks,
                                variational_sweep)
from stacklq.riccati import solve_game
from stacklq.rng import NoisePlan


def _paths(spec, law, seed, n):
    plan = NoisePlan.from_seed(seed, np.diff(solver_times(spec)))
    dW = plan.increments(np.arange(n))
    return simulate_equilibrium(spec, law, dW), dW


def test_zero_spec_zero_gains_and_paths(zero_spec):
    bundle, offsets = solve_game(zero_spec)
    law = sq.build_feedback(bundle, offsets, zero_spec)
    for name in ("K1", "k1", "K2hat", "K2check", "k2", "K3", "K3hat",
                 "K3check", "k3"):
        assert np.all(getattr(law, name) == 0.0)
    spec0 = dataclasses.replace(zero_spec, x0=np.zeros(1))
    b0, o0 = solve_game(spec0)
    law0 = sq.build_feedback(b0, o0, spec0)
    paths, _ = _paths(spec0, law0, 5, 8)
    assert np.all(paths.X3 == 0.0)
    assert np.all(paths.v1 == 0.0)


def test_k3_formula_zero_state():
    # zero dynamics, nonzero n3: k3(t) = -R3^{-1} n3 and Omega = 0
    spec = sq.make_spec(n=1, n3=0.4, R3=2.0)
    bundle, offsets = solve_game(spec)
    law = sq.build_feedback(bundle, offsets, spec)
    assert np.allclose(law.k3, -0.4 / 2.0, atol=1e-14)
    assert np.all(offsets.Omega.values == 0.0)


def test_no_noise_levels_coincide(scalar_generic):
    zc = sq.model.Coefficient.constant(np.zeros((1, 1)))
    zv = sq.model.Coefficient.constant(np.zeros(1))
    spec = dataclasses.replace(
        scalar_generic,
        coeffs=dataclasses.replace(scalar_generic.coeffs, C=(zc, zc, zc),
                                   sigma=(zv, zv, zv)))
    bundle, offsets = solve_game(spec)
    law = sq.build_feedback(bundle, offsets, spec)
    paths, _ = _paths(spec, law, 9, 4)
    assert np.abs(paths.X3 - paths.X3hat).max() <= 1e-12
    assert np.abs(paths.X3 - paths.X3check).max() <= 1e-12


def test_measurability_bit_identical(generic_solution, scalar_generic,
                                     n2_spec):
    bundle2, offsets2 = solve_game(n2_spec)
    law2 = sq.build_feedback(bundle2, offsets2, n2_spec)
    for spec, law in ((scalar_generic, generic_solution[2]), (n2_spec, law2)):
        # the systems are coupled (M2, M3 != 0): the zero blocks of the drift
        # and the masked loadings are what keep W1/W2 out of the filters
        assert np.abs(law.M2).max() > 0 and np.abs(law.M3).max() > 0
        plan = NoisePlan.from_seed(21, np.diff(solver_times(spec)))
        run = lambda p: simulate_equilibrium(spec, law,
                                             p.increments(np.arange(16)))
        base = run(plan)
        w1 = run(plan.with_component_seed(0, 999))
        assert np.array_equal(base.X3hat, w1.X3hat)
        assert np.array_equal(base.X3check, w1.X3check)
        assert not np.array_equal(base.X3, w1.X3)
        w2 = run(plan.with_component_seed(1, 999))
        assert np.array_equal(base.X3check, w2.X3check)
        assert not np.array_equal(base.X3hat, w2.X3hat)


def _reference_controls(law, k, X, Xh, Xc):
    """Controls at node k, one gain product per filtered system."""
    v1 = Xc @ law.K1[k].T + law.k1[k]
    v2 = Xh @ law.K2hat[k].T + Xc @ law.K2check[k].T + law.k2[k]
    v3 = (X @ law.K3[k].T + Xh @ law.K3hat[k].T + Xc @ law.K3check[k].T
          + law.k3[k])
    return v1, v2, v3


def _reference_step(law, l3, k, dWk, X, Xh, Xc):
    """Euler step k -> k+1 of the state and its two filters, each system on
    its own: X sees W1-W3, Xh sees W2-W3, Xc sees W3."""
    h = law.times[k + 1] - law.times[k]
    C, S = (l3.frakC1, l3.frakC2, l3.frakC3), (l3.Sigma1, l3.Sigma2, l3.Sigma3)
    drift = X @ law.M0[k].T + Xh @ law.M2[k].T + Xc @ law.M3[k].T + law.coff[k]
    drift_h = Xh @ (law.M0[k] + law.M2[k]).T + Xc @ law.M3[k].T + law.coff[k]
    drift_c = Xc @ (law.M0[k] + law.M2[k] + law.M3[k]).T + law.coff[k]
    load = lambda Y, i: dWk[:, i:i + 1] * (Y @ C[i][k].T + S[i][k])
    return (X + h * drift + load(X, 0) + load(X, 1) + load(X, 2),
            Xh + h * drift_h + load(Xh, 1) + load(Xh, 2),
            Xc + h * drift_c + load(Xc, 2))


@pytest.fixture(scope="module")
def offgrid_spec():
    """Scalar spec whose pieces break between grid nodes: uneven steps."""
    pw = lambda brk, a, b: Coefficient.piecewise([brk], [[[a]], [[b]]])
    return sq.make_spec(
        n=1, T=1.0, steps=100, x0=1.0, A=pw(0.437, 0.3, -0.2), B1=1.0,
        B2=0.8, B3=pw(0.613, 0.6, 0.3), C1=0.1, C2=pw(0.291, 0.12, 0.05),
        C3=0.1, b=0.05, sigma1=0.2, sigma2=0.25,
        sigma3=Coefficient.piecewise([0.5], [[0.3], [0.1]]),
        Q1=1.0, G1=0.5, m1=0.02, n1=0.01, Q2=0.8, G2=0.4, n2=0.02,
        Q3=0.6, R3=pw(0.777, 1.5, 0.9), G3=0.3, m3=0.01)


@pytest.mark.parametrize("name", ["n2_spec", "reducible_spec", "offgrid_spec"])
def test_block_kernel_matches_per_system_formulas(name, request):
    # the block state against the three systems stepped on their own; the
    # summation order differs, so agreement is to rounding: rtol 1e-12, and
    # the same bound relative to the largest entry for entries near zero
    spec = request.getfixturevalue(name)
    bundle, offsets = solve_game(spec)
    law = sq.build_feedback(bundle, offsets, spec)
    times = solver_times(spec)
    if name == "offgrid_spec":
        assert np.ptp(np.diff(times)) > 0
    dW = NoisePlan.from_seed(3, np.diff(times)).increments(np.arange(16))
    X = np.tile(np.concatenate([spec.x0, np.zeros(3 * spec.n)]), (16, 1))
    Xh, Xc = X.copy(), X.copy()
    for k, Z, V in _node_loop(spec, law, dW):
        got = np.split(Z, 3, axis=1) + np.split(V, 3, axis=1)
        want = (X, Xh, Xc) + _reference_controls(law, k, X, Xh, Xc)
        for g, w in zip(got, want):
            np.testing.assert_allclose(g, w, rtol=1e-12,
                                       atol=1e-12 * np.abs(w).max())
        if k < times.shape[0] - 1:
            X, Xh, Xc = _reference_step(law, bundle.l3, k, dW[:, k], X, Xh, Xc)


def simulate_state(spec, v1, v2, v3, dW):
    """Euler integration of the physical state under given control paths."""
    N, K, _ = dW.shape
    times = solver_times(spec)
    cv = CoeffValues(spec, times)
    x = np.tile(spec.x0, (N, 1))
    xs = np.empty((N, K + 1, spec.n))
    for k in range(K):
        xs[:, k] = x
        v = [_rows_at(vi, k, N) for vi in (v1, v2, v3)]
        x = _state_step(cv[k], times, k, dW[:, k], x, v, True)
    xs[:, K] = x
    return xs


def test_simulate_state_constant():
    spec = sq.make_spec(n=1, x0=3.0, steps=50)
    dW = np.zeros((2, 50, 3))
    xs = simulate_state(spec, np.zeros((51, 1)), np.zeros((51, 1)),
                        np.zeros((51, 1)), dW)
    assert np.all(xs == 3.0)


def test_simulate_state_linear_drift():
    spec = sq.make_spec(n=1, x0=0.5, b=1.0, steps=80)
    dW = np.zeros((1, 80, 3))
    z = np.zeros((81, 1))
    xs = simulate_state(spec, z, z, z, dW)
    assert np.allclose(xs[0, :, 0], 0.5 + solver_times(spec), atol=1e-12)


def test_simulate_state_exponential_growth():
    a, T, steps = 0.8, 1.0, 4000
    spec = sq.make_spec(n=1, x0=1.0, A=a, T=T, steps=steps)
    dW = np.zeros((1, steps, 3))
    z = np.zeros((steps + 1, 1))
    xs = simulate_state(spec, z, z, z, dW)
    assert abs(xs[0, -1, 0] - np.exp(a * T)) < 2e-4 * np.exp(a * T)


def test_blowup_reported_at_its_step():
    # one huge W3 increment on step 10 of path 1 must be caught at t_11
    spec = sq.make_spec(n=1, T=1.0, steps=100, x0=1.0, A=0.3, B1=1.0, B2=0.8,
                        B3=0.6, sigma1=0.3, sigma2=0.3, sigma3=0.3,
                        Q1=1.0, G1=0.5, Q2=0.8, Q3=0.6)
    bundle, offsets = solve_game(spec)
    law = sq.build_feedback(bundle, offsets, spec)
    times = solver_times(spec)
    dW = np.zeros((2, 100, 3))
    dW[1, 10, 2] = 1e13
    z = np.zeros((101, 1))
    cases = [(1, default_directions(spec)[0], 1.0)]
    runs = (lambda: simulate_equilibrium(spec, law, dW),
            lambda: simulate_state(spec, z, z, z, dW),
            lambda: _sweep_quadratics(spec, law, bundle, cases, dW,
                                      _sweep_setup(spec, law, bundle, cases)))
    for run in runs:
        with pytest.raises(BlowUpError) as err:
            run()
        assert err.value.t == times[11]
        assert err.value.path == 1


def test_blowup_in_later_block_names_global_path(monkeypatch):
    # a huge W3 increment on step 10 of path BLOCK_PATHS + 5, in the second
    # block (or sweep chunk), is reported with that path index at t_11
    spec = sq.make_spec(n=1, T=1.0, steps=100, x0=1.0, A=0.3, B1=1.0, B2=0.8,
                        B3=0.6, sigma1=0.3, sigma2=0.3, sigma3=0.3,
                        Q1=1.0, G1=0.5, Q2=0.8, Q3=0.6)
    bundle, offsets = solve_game(spec)
    law = sq.build_feedback(bundle, offsets, spec)
    times = solver_times(spec)
    bad = BLOCK_PATHS + 5

    def increments(plan, idx):
        dW = np.zeros((len(idx), 100, 3))
        dW[np.asarray(idx) == bad, 10, 2] = 1e13
        return dW

    monkeypatch.setattr(NoisePlan, "increments", increments)
    plan = NoisePlan.from_seed(0, np.diff(times))
    starts = []
    with pytest.raises(BlowUpError) as err:
        for start, _, _ in simulate_blocks(spec, law, plan, bad + 10, thin=1):
            starts.append(start)
    assert starts == [0]
    assert err.value.path == bad
    assert err.value.t == times[11]
    const = default_directions(spec)[0]
    with pytest.raises(BlowUpError) as err:
        variational_sweep(spec, [(1, const, 1.0)], (0.1,), bad + 10, 0, law,
                          bundle)
    assert err.value.path == bad
    assert err.value.t == times[11]


def test_offset_blowup_reported_at_its_node():
    # a huge deterministic control on nodes 0..40 drives each response offset
    # past the blow-up limit on the step down to t_40
    spec = sq.make_spec(n=1, T=1.0, steps=100, x0=1.0, A=0.3, B1=1.0, B2=0.8,
                        B3=0.6, Q1=1.0, G1=0.5, Q2=0.8, G2=0.4, Q3=0.6)
    bundle, _ = solve_game(spec)
    times = solver_times(spec)
    big, zero = np.zeros((101, 1)), np.zeros((101, 1))
    big[:41] = 1e17
    B = CoeffValues(spec, times).B
    runs = (lambda: _follower_offset(bundle, B, big, zero, False),
            lambda: _middle_offset(bundle, big, False))
    for run in runs:
        with pytest.raises(BlowUpError) as err:
            run()
        assert err.value.t == times[40]


def test_hat_filter_is_unbiased(generic_solution, scalar_generic):
    _, _, law = generic_solution
    paths, _ = _paths(scalar_generic, law, 17, 10000)
    K = paths.times.shape[0] - 1
    for k in (K // 4, K // 2, K):
        diff = paths.X3[:, k] - paths.X3hat[:, k]
        mean = diff.mean(axis=0)
        se = diff.std(axis=0, ddof=1) / np.sqrt(diff.shape[0])
        assert np.all(np.abs(mean) <= 3.0 * se + 1e-12)


def reconstruct_phicheck(bundle, offsets, X3check):
    """Follower offset filter along paths: affine in the check-filtered state."""
    G, g = _phicheck_gain(bundle, offsets)
    return mv(G, X3check) + g


def reconstruct_Phi(bundle, offsets, X3hat, X3check):
    """Middle-level offset filters (hat and check versions) along paths."""
    L = selectors(bundle.p.values.shape[-1])[2]
    Pf12, Pf3 = bundle.Pf1.values + bundle.Pf2.values, bundle.Pf3.values
    off = mv(L, offsets.Omega.values)
    Phih = mv(L @ Pf12, X3hat) + mv(L @ Pf3, X3check) + off
    Phic = mv(L @ (Pf12 + Pf3), X3check) + off
    return Phih, Phic


def filtered_controls(law, paths):
    """(vcheck2, vhat3, vcheck3): the leaders' equilibrium controls as the
    lower levels' filters see them, from the law's Kv tables."""
    Xh, Xc = paths.X3hat, paths.X3check
    return (mv(law.Kv2check, Xc) + law.k2,
            mv(law.Kv3hat, Xh) + mv(law.K3check, Xc) + law.k3,
            mv(law.Kv3check, Xc) + law.k3)


def test_offset_reconstruction_matches_per_node_formulas(n2_spec):
    # node-axis reconstruction against the per-node formulas; the summation
    # order may differ, so agreement is to rounding, not to the bit
    bundle, offsets = solve_game(n2_spec)
    law = sq.build_feedback(bundle, offsets, n2_spec)
    paths, _ = _paths(n2_spec, law, 5, 8)
    phic = reconstruct_phicheck(bundle, offsets, paths.X3check)
    Phih, Phic = reconstruct_Phi(bundle, offsets, paths.X3hat, paths.X3check)
    _, U, L, s2 = selectors(n2_spec.n)
    P1, P2 = bundle.P1.values, bundle.P2.values
    Pf1, Pf2, Pf3 = bundle.Pf1.values, bundle.Pf2.values, bundle.Pf3.values
    Om = offsets.Omega.values
    for k in range(bundle.times.shape[0]):
        G = s2 @ (P1[k] + P2[k]) @ U + s2 @ L @ (Pf1[k] + Pf2[k] + Pf3[k])
        want = paths.X3check[:, k] @ G.T + s2 @ (L @ Om[k])
        np.testing.assert_allclose(phic[:, k], want, rtol=1e-12, atol=1e-14)
        want_h = (paths.X3hat[:, k] @ (L @ (Pf1[k] + Pf2[k])).T
                  + paths.X3check[:, k] @ (L @ Pf3[k]).T + L @ Om[k])
        want_c = (paths.X3check[:, k] @ (L @ (Pf1[k] + Pf2[k] + Pf3[k])).T
                  + L @ Om[k])
        np.testing.assert_allclose(Phih[:, k], want_h, rtol=1e-12, atol=1e-14)
        np.testing.assert_allclose(Phic[:, k], want_c, rtol=1e-12, atol=1e-14)


def test_respond_player1_zero_spec():
    spec = sq.make_spec(n=1, x0=2.0, n1=0.3, R1=1.5, steps=60)
    bundle, _ = solve_game(spec)
    K = solver_times(spec).shape[0]
    dW = np.zeros((3, K - 1, 3))
    z = np.zeros((K, 1))
    r = respond_player1(spec, bundle, z, z, dW)
    assert np.allclose(r.x, 2.0, atol=1e-12)
    assert np.allclose(r.v1, -0.3 / 1.5, atol=1e-12)


def test_respond_player1_deterministic_bump():
    # zero dynamics, B2 = 1: the filtered state integrates the bump exactly
    spec = sq.make_spec(n=1, x0=1.0, B2=1.0, steps=100)
    bundle, _ = solve_game(spec)
    times = solver_times(spec)
    K = times.shape[0]
    v2 = (times < 0.5).astype(float)[:, None]
    dW = np.zeros((2, K - 1, 3))
    r = respond_player1(spec, bundle, v2, np.zeros((K, 1)), dW)
    expect = 1.0 + np.minimum(times, 0.5)
    assert np.allclose(r.xcheck[0, :, 0], expect, atol=1e-12)


def test_respond_player1_rejects_paths_without_filters(generic_solution,
                                                       scalar_generic):
    bundle, _, law = generic_solution
    paths, dW = _paths(scalar_generic, law, 31, 4)
    with pytest.raises(UnsupportedPerturbationError):
        respond_player1(scalar_generic, bundle, paths.v2, paths.v3, dW)


def test_respond_player1_equilibrium_fixed_point(generic_solution,
                                                 scalar_generic):
    bundle, offsets, law = generic_solution
    paths, dW = _paths(scalar_generic, law, 31, 32)
    phic = reconstruct_phicheck(bundle, offsets, paths.X3check)
    vcheck2, _, vcheck3 = filtered_controls(law, paths)
    r = respond_player1(scalar_generic, bundle, paths.v2, paths.v3, dW,
                        vcheck2=vcheck2, vcheck3=vcheck3, phicheck=phic)
    h = 1.0 / scalar_generic.grid.steps
    assert np.abs(r.v1 - paths.v1).max() <= 10 * h
    assert np.abs(r.xcheck - paths.X3check[:, :, :1]).max() <= 10 * h


def test_respond_player12_zero_spec():
    spec = sq.make_spec(n=1, x0=1.0, n2=0.25, R2=1.25, steps=60)
    bundle, _ = solve_game(spec)
    K = solver_times(spec).shape[0]
    dW = np.zeros((2, K - 1, 3))
    r = respond_player12(spec, bundle, np.zeros((K, 1)), dW)
    assert np.allclose(r.v2, -0.25 / 1.25, atol=1e-12)


def test_respond_player12_pulse_integral():
    # zero dynamics, B3 = 1: the 2n filter integrates the pulse in its
    # physical block and keeps the adjoint block at zero
    spec = sq.make_spec(n=1, x0=0.0, B3=1.0, steps=100)
    bundle, _ = solve_game(spec)
    times = solver_times(spec)
    K = times.shape[0]
    v3 = ((times >= 0.2) & (times < 0.6)).astype(float)[:, None]
    dW = np.zeros((1, K - 1, 3))
    r = respond_player12(spec, bundle, v3, dW)
    expect = np.clip(times, 0.2, 0.6) - 0.2
    assert np.allclose(r.X2check[0, :, 0], expect, atol=1e-12)
    assert np.all(r.X2check[0, :, 1] == 0.0)


def test_respond_player12_equilibrium_fixed_point(generic_solution,
                                                  scalar_generic):
    bundle, offsets, law = generic_solution
    paths, dW = _paths(scalar_generic, law, 13, 32)
    Phih, Phic = reconstruct_Phi(bundle, offsets, paths.X3hat, paths.X3check)
    _, vhat3, vcheck3 = filtered_controls(law, paths)
    r = respond_player12(scalar_generic, bundle, paths.v3, dW, vhat3=vhat3,
                         vcheck3=vcheck3, Phihat=Phih, Phicheck=Phic)
    h = 1.0 / scalar_generic.grid.steps
    assert np.abs(r.v2 - paths.v2).max() <= 10 * h
    assert np.abs(r.v1 - paths.v1).max() <= 10 * h
    assert np.abs(r.X2hat - paths.X3hat[:, :, :2]).max() <= 10 * h


def test_ansatz_residual_shrinks(scalar_generic):
    worsts = []
    for steps in (100, 200):
        sp = dataclasses.replace(scalar_generic,
                                 grid=dataclasses.replace(
                                     scalar_generic.grid, steps=steps))
        bundle, offsets = solve_game(sp)
        law = sq.build_feedback(bundle, offsets, sp)
        plan = NoisePlan.from_seed(7, np.diff(solver_times(sp)))
        dW = plan.increments(np.arange(100))
        paths = simulate_equilibrium(sp, law, dW)
        worsts.append(ansatz_residual(sp, bundle, offsets, paths, dW))
    assert 0.25 <= worsts[1] / worsts[0] <= 0.75


def test_simulation_deterministic_and_chunk_invariant(generic_solution,
                                                      scalar_generic):
    _, _, law = generic_solution
    plan = NoisePlan.from_seed(77, np.diff(solver_times(scalar_generic)))
    a = simulate_equilibrium(scalar_generic, law, plan.increments(np.arange(24)))
    b = simulate_equilibrium(scalar_generic, law, plan.increments(np.arange(24)))
    assert np.array_equal(a.X3, b.X3)
    # paths are keyed by index: simulating a sub-block reproduces its rows
    sub = simulate_equilibrium(scalar_generic, law,
                               plan.increments(np.arange(8, 16)))
    assert np.array_equal(a.X3[8:16], sub.X3)

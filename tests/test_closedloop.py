import dataclasses
from collections import namedtuple

import numpy as np
import pytest

import stacklq as sq
import stacklq.montecarlo as montecarlo
import stacklq.verify as verify
from stacklq.closedloop import (BLOCK_PATHS, CHUNK_PATHS, _node_loop,
                                _phicheck_gain, ansatz_residual)
from stacklq.errors import BlowUpError
from stacklq.lift import CoeffValues, mv, selectors
from stacklq.model import solver_times
from stacklq.montecarlo import (default_directions, simulate_blocks,
                                variational_sweep)
from stacklq.riccati import solve_game
from stacklq.rng import NoisePlan, component_seeds
from stacklq.verify import check_measurability

from reference import (UnsupportedPerturbationError, _follower_offset,
                       _middle_offset, _state_step, homogeneous, respond,
                       rows_at)


Paths = namedtuple("Paths", "X Xh Xc v1 v2 v3")


def _plan(spec, seed):
    return NoisePlan(component_seeds(seed), np.diff(solver_times(spec)))


def _paths(spec, law, seed, n, thin=1):
    """X, Xh, Xc, v1, v2, v3 of n paths at every thin-th node as `stacklq
    simulate` writes them: simulate_blocks' records, split by column; the
    paths' increments are _plan(spec, seed).increments(np.arange(n))."""
    blocks = simulate_blocks(spec, law, _plan(spec, seed), n, thin)
    records = np.concatenate([r for _, r, _ in blocks])
    return Paths(*np.split(records, np.cumsum([4, 4, 4, 1, 1]) * spec.n,
                           axis=-1))


def test_zero_spec_zero_gains_and_paths(zero_spec):
    bundle, Omega = solve_game(zero_spec)
    law = sq.build_feedback(bundle, Omega)
    for name, gain in law.gains.items():
        assert np.all(gain == 0.0), name
    spec0 = dataclasses.replace(zero_spec, x0=np.zeros(1))
    b0, o0 = solve_game(spec0)
    law0 = sq.build_feedback(b0, o0)
    paths = _paths(spec0, law0, 5, 8)
    assert np.all(paths.X == 0.0)
    assert np.all(paths.v1 == 0.0)


def test_k3_formula_zero_state():
    # zero dynamics, nonzero n3: k3(t) = -R3^{-1} n3 and Omega = 0
    spec = sq.make_spec(n=1, n3=0.4, R3=2.0)
    bundle, Omega = solve_game(spec)
    law = sq.build_feedback(bundle, Omega)
    assert np.allclose(law.gains["k3"], -0.4 / 2.0, atol=1e-14)
    assert np.all(Omega == 0.0)


def test_no_noise_levels_coincide(scalar_generic):
    zc = sq.model.Coefficient.constant(np.zeros((1, 1)))
    zv = sq.model.Coefficient.constant(np.zeros(1))
    spec = dataclasses.replace(
        scalar_generic, coeffs={**scalar_generic.coeffs, "C1": zc, "C2": zc,
                                "C3": zc, "sigma1": zv, "sigma2": zv, "sigma3": zv})
    bundle, Omega = solve_game(spec)
    law = sq.build_feedback(bundle, Omega)
    paths = _paths(spec, law, 9, 4)
    assert np.abs(paths.X - paths.Xh).max() <= 1e-12
    assert np.abs(paths.X - paths.Xc).max() <= 1e-12


def _checks(spec, seed, law=None):
    """check_measurability's two checks on spec's own law or on law."""
    if law is None:
        law = sq.build_feedback(*solve_game(spec))
    return check_measurability(spec, law, seed)


def test_measurability_bit_identical(generic_solution, scalar_generic,
                                     n2_spec):
    # the 1.5-scaled follower gain (verify --sabotage-gains) is a law too
    law2 = sq.build_feedback(*solve_game(n2_spec))
    scaled = sq.build_feedback(*generic_solution[:2], 1.5)
    for spec, law in ((scalar_generic, generic_solution[2]), (n2_spec, law2),
                      (scalar_generic, scaled)):
        # the systems are coupled (M2, M3 != 0, the blocks of X's drift on Xh
        # and Xc, in F = I + h M): the zero blocks of the drift and the
        # masked loadings are what keep W1/W2 out of the filters
        n4, F = 4 * law.n, law.step.F
        assert np.abs(F[:, :n4, n4:2 * n4]).max() > 0
        assert np.abs(F[:, :n4, 2 * n4:]).max() > 0
        (cid, ok, detail), _ = check_measurability(spec, law, 21, n_paths=16)
        assert cid == "filter_measurability" and ok, detail


def test_measurability_names_the_condition_that_broke(generic_solution,
                                                      scalar_generic):
    # a law whose additive loads leak W1 into the Xh block: Xh moves with
    # W1, the one condition that breaks, and the failing detail names it
    law, n4 = generic_solution[2], 4 * scalar_generic.n
    s = law.step.s.copy()
    s[:, n4:2 * n4, 0] = s[:, :n4, 0]
    leaky = dataclasses.replace(law, step=dataclasses.replace(law.step, s=s))
    (cid, ok, detail), _ = check_measurability(scalar_generic, leaky, 21,
                                               n_paths=16)
    assert (cid, ok, detail) == ("filter_measurability", False,
                                 "failed: Xh moved with W1")


def test_measurability_and_nesting_share_at_most_three_runs(
        monkeypatch, reducible_spec, scalar_generic):
    # one run per live component zeroed, after the base run
    sigma1_only = sq.make_spec(n=1, T=1.0, steps=100, x0=1.0, sigma1=1.0)
    runs = []
    filtered_paths = verify._filtered_paths

    def counting(spec, law, plan, n_paths):
        run = filtered_paths(spec, law, plan, n_paths)
        runs.append(run[3])
        return run

    monkeypatch.setattr(verify, "_filtered_paths", counting)
    for spec, want in ((reducible_spec, 1), (sigma1_only, 2),
                       (scalar_generic, 3)):
        runs.clear()
        checks = _checks(spec, 3)
        assert [cid for cid, _, _ in checks] == ["filter_measurability",
                                                  "exact_nesting"]
        assert all(ok for _, ok, _ in checks)
        assert len(runs) == want
        for dW, zeroed in zip(runs, ((), (0,), (0, 1))):
            assert all(np.all(dW[:, c] == 0.0) for c in zeroed)


def test_exact_nesting_passes_on_fixture_specs(request):
    # exact in the Euler scheme, with or without noise of either kind, and
    # the filters bit-identical with the components they do not see zeroed,
    # on each spec's law and on its law with a 1.5-scaled follower gain
    no_noise = sq.make_spec(n=1, T=1.0, steps=100, x0=1.0, A=0.3, B1=1.0,
                            Q1=0.5, G1=0.5, Q2=0.3, R2=1.0, Q3=0.2, R3=1.0)
    sigma1_only = sq.make_spec(n=1, T=1.0, steps=100, x0=1.0, sigma1=1.0)
    # x stays at x0 = 0, so a live but multiplicative-only W1 (or W2) loads
    # nothing and cannot move X (or Xh)
    still = {f"still_{c}": sq.make_spec(n=1, steps=50, x0=0.0, B1=1.0, Q1=1.0,
                                        **{c: 0.3}) for c in ("C1", "C2")}
    names = ("zero_spec", "scalar_generic", "scalar_additive", "n2_spec",
             "closed_form_spec", "reducible_spec", "offgrid_spec")
    specs = {name: request.getfixturevalue(name) for name in names}
    specs.update(no_noise=no_noise, sigma1_only=sigma1_only, **still)
    for name, spec in specs.items():
        solved = solve_game(spec)
        for scale in (1.0, 1.5):
            law = sq.build_feedback(*solved, scale)
            for seed in (3, 15, 42):
                for cid, ok, detail in check_measurability(spec, law, seed):
                    assert ok, (name, scale, seed, cid, detail)


def test_exact_nesting_independent_component():
    # x = x0 + sigma1 W1 and G1 = sigma(W3): E[x(t) | W3] = x0, the X of
    # the W3-only run, which the filter holds too
    spec = sq.make_spec(n=1, T=1.0, steps=100, x0=1.0, sigma1=1.0)
    law = sq.build_feedback(*solve_game(spec))
    assert all(ok for _, ok, _ in check_measurability(spec, law, 7))
    plan = dataclasses.replace(NoisePlan.for_spec(spec, 7), live=(False,) * 3)
    X, _, Xc, _ = verify._filtered_paths(spec, law, plan, 4)
    assert np.all(X[..., 0] == 1.0)
    assert np.all(Xc[..., 0] == 1.0)


def test_exact_nesting_breaks_fail_the_report(generic_solution, scalar_generic):
    bundle, Omega, law = generic_solution
    assert all(ok for _, ok, _ in _checks(scalar_generic, 15, law))
    n4 = 4 * law.n
    X, Xh, Xc = slice(0, n4), slice(n4, 2 * n4), slice(2 * n4, 3 * n4)
    # 1% more of M2 in the Xh row's Xh block: the Xh filter drifts off
    h = np.diff(law.times)[:, None, None]
    step = law.step
    with_step = lambda **tables: dataclasses.replace(
        law, step=dataclasses.replace(step, **tables))
    F = step.F.copy()
    F[:, Xh, Xh] += 0.01 * h * _reference_drift(bundle, Omega, law)[1][:-1]
    breaks = [with_step(F=F)]
    # a component's additive load copied from X onto a filter that must
    # not see it: W1 onto Xc, W1 onto Xh, W2 onto Xc
    for comp, block in ((0, Xc), (0, Xh), (1, Xc)):
        s = step.s.copy()
        s[:, block, comp] = s[:, X, comp]
        breaks.append(with_step(s=s))
    # W1's multiplicative load copied from X onto Xh; L holds a channel's
    # (12n, 12n) tables by channel, and every channel loads here
    assert sorted(step.L) == [0, 1, 2]
    L1 = step.L[0].copy()
    L1[:, Xh, Xh] = L1[:, X, X]
    breaks.append(with_step(L={**step.L, 0: L1}))
    for i, broken in enumerate(breaks):
        assert not all(ok for _, ok, _ in _checks(scalar_generic, 15, broken)), i
    # levels deaf to a component they load: X to W1, X and Xh to W2; the
    # levels still agree, so only the measurability check sees it
    for comp, blocks in ((0, (X,)), (1, (X, Xh))):
        s, Li = step.s.copy(), step.L[comp].copy()
        for block in blocks:
            s[:, block, comp] = 0.0
            Li[:, block, block] = 0.0
        deaf = with_step(s=s, L={**step.L, comp: Li})
        measurable, nested = _checks(scalar_generic, 15, deaf)
        assert nested[1] and not measurable[1], comp


def _reference_controls(law, k, X, Xh, Xc):
    """Controls at node k, one gain product per filtered system."""
    g = {name: gain[k] for name, gain in law.gains.items()}
    v1 = Xc @ g["K1"].T + g["k1"]
    v2 = Xh @ g["K2hat"].T + Xc @ g["K2check"].T + g["k2"]
    v3 = X @ g["K3"].T + Xh @ g["K3hat"].T + Xc @ g["K3check"].T + g["k3"]
    return v1, v2, v3


def _reference_drift(bundle, Omega, law):
    """(M0, M2, M3, coff) of the closed-loop drift dX = (M0 X + M2 Xh +
    M3 Xc + coff) dt + ..., from the top level's gains law.gains and the
    lifted families bundle.l3."""
    l3, g, Pf1 = bundle.l3, law.gains, bundle.Pf1
    B3 = l3.frakB3
    return (l3.frakA1 + l3.frakF1bar @ Pf1 + B3 @ g["K3"],
            l3.frakA2 + l3.frakF1dd @ bundle.Pf2
            + (l3.frakF1dd - l3.frakF1bar) @ Pf1 + B3 @ g["K3hat"],
            l3.frakA3 + l3.frakF1dd @ bundle.Pf3 + B3 @ g["K3check"],
            mv(l3.frakF1dd, Omega) + l3.ddb3 + mv(B3, g["k3"]))


def _reference_step(law, l3, drift_tables, k, dWk, X, Xh, Xc):
    """Euler step k -> k+1 of the state and its two filters, each system on
    its own: X sees W1-W3, Xh sees W2-W3, Xc sees W3."""
    h = law.times[k + 1] - law.times[k]
    C, S = l3.frakC, l3.Sigma
    M0, M2, M3, coff = (a[k] for a in drift_tables)
    drift = X @ M0.T + Xh @ M2.T + Xc @ M3.T + coff
    drift_h = Xh @ (M0 + M2).T + Xc @ M3.T + coff
    drift_c = Xc @ (M0 + M2 + M3).T + coff
    load = lambda Y, i: dWk[:, i:i + 1] * (Y @ C[i, k].T + S[i, k])
    return (X + h * drift + load(X, 0) + load(X, 1) + load(X, 2),
            Xh + h * drift_h + load(Xh, 1) + load(Xh, 2),
            Xc + h * drift_c + load(Xc, 2))


@pytest.mark.parametrize("name", ["n2_spec", "reducible_spec", "offgrid_spec"])
def test_block_kernel_matches_per_system_formulas(name, request):
    # the block state against the three systems stepped on their own; the
    # summation order differs, so agreement is to rounding: rtol 1e-12, and
    # the same bound relative to the largest entry for entries near zero
    spec = request.getfixturevalue(name)
    bundle, Omega = solve_game(spec)
    law = sq.build_feedback(bundle, Omega)
    drift_tables = _reference_drift(bundle, Omega, law)
    times = solver_times(spec)
    if name == "offgrid_spec":
        assert np.ptp(np.diff(times)) > 0
    dW = NoisePlan(component_seeds(3), np.diff(times)).increments(np.arange(16))
    X = np.tile(np.concatenate([spec.x0, np.zeros(3 * spec.n)]), (16, 1))
    Xh, Xc = X.copy(), X.copy()
    for k, Z, V in _node_loop(spec, law, dW, 0):
        got = np.split(Z.T, 3, axis=1) + np.split(V.T, 3, axis=1)
        want = (X, Xh, Xc) + _reference_controls(law, k, X, Xh, Xc)
        for g, w in zip(got, want):
            np.testing.assert_allclose(g, w, rtol=1e-12,
                                       atol=1e-12 * np.abs(w).max())
        if k < times.shape[0] - 1:
            X, Xh, Xc = _reference_step(law, bundle.l3, drift_tables, k,
                                        dW[k].T, X, Xh, Xc)


def test_scaled_law_plays_the_scaled_gain(n2_spec):
    # verify's negative control is a law: v1 = 1.5 K1 Xc + k1 of the correct
    # law, and X's x rows are the physical state that those controls drive,
    # stepped on its own (it reads no M3), with multiplicative noise on
    # every channel
    spec, n = n2_spec, n2_spec.n
    bundle, Omega = solve_game(spec)
    law, scaled = sq.build_feedback(bundle, Omega), sq.build_feedback(
        bundle, Omega, 1.5)
    times = law.times
    dW = NoisePlan.for_spec(spec, 3).increments(np.arange(16))
    x = np.tile(spec.x0, (16, 1))

    def close(got, want):
        np.testing.assert_allclose(got, want, rtol=1e-12,
                                   atol=1e-12 * np.abs(want).max())

    for k, Z, V in _node_loop(spec, scaled, dW, 0):
        Z, V = Z.T, V.T     # rows per path, as the reference reads them
        close(V[:, :n], 1.5 * (Z[:, 8 * n:] @ law.gains["K1"][k].T)
              + law.gains["k1"][k])
        close(Z[:, :n], x)
        if k < times.shape[0] - 1:
            x = _state_step(law.cv[k], times, k, dW[k].T, x,
                            np.split(V, 3, axis=1))


def simulate_state(spec, v1, v2, v3, dW):
    """Euler integration of the physical state under given control paths on
    the increments dW (K, 3, N)."""
    K, _, N = dW.shape
    times = solver_times(spec)
    cv = CoeffValues(spec, times)
    x = np.tile(spec.x0, (N, 1))
    xs = np.empty((N, K + 1, spec.n))
    for k in range(K):
        xs[:, k] = x
        v = [rows_at(vi, k, N) for vi in (v1, v2, v3)]
        x = _state_step(cv[k], times, k, dW[k].T, x, v)
    xs[:, K] = x
    return xs


def test_simulate_state_constant():
    spec = sq.make_spec(n=1, x0=3.0, steps=50)
    dW = np.zeros((50, 3, 2))
    xs = simulate_state(spec, np.zeros((51, 1)), np.zeros((51, 1)),
                        np.zeros((51, 1)), dW)
    assert np.all(xs == 3.0)


def test_simulate_state_linear_drift():
    spec = sq.make_spec(n=1, x0=0.5, b=1.0, steps=80)
    dW = np.zeros((80, 3, 1))
    z = np.zeros((81, 1))
    xs = simulate_state(spec, z, z, z, dW)
    assert np.allclose(xs[0, :, 0], 0.5 + solver_times(spec), atol=1e-12)


def test_simulate_state_exponential_growth():
    a, T, steps = 0.8, 1.0, 4000
    spec = sq.make_spec(n=1, x0=1.0, A=a, T=T, steps=steps)
    dW = np.zeros((steps, 3, 1))
    z = np.zeros((steps + 1, 1))
    xs = simulate_state(spec, z, z, z, dW)
    assert abs(xs[0, -1, 0] - np.exp(a * T)) < 2e-4 * np.exp(a * T)


def test_blowup_reported_at_its_step(monkeypatch):
    # one huge W3 increment on step 10 of path 1 must be caught at t_11
    spec = sq.make_spec(n=1, T=1.0, steps=100, x0=1.0, A=0.3, B1=1.0, B2=0.8,
                        B3=0.6, sigma1=0.3, sigma2=0.3, sigma3=0.3,
                        Q1=1.0, G1=0.5, Q2=0.8, Q3=0.6)
    bundle, Omega = solve_game(spec)
    law = sq.build_feedback(bundle, Omega)
    times = solver_times(spec)
    dW = np.zeros((100, 3, 2))
    dW[10, 2, 1] = 1e13
    z = np.zeros((101, 1))
    monkeypatch.setattr(NoisePlan, "increments", lambda plan, idx: dW[..., idx])
    plan = NoisePlan(component_seeds(0), np.diff(times))
    runs = (lambda: list(simulate_blocks(spec, law, plan, 2, thin=1)),
            lambda: simulate_state(spec, z, z, z, dW),
            lambda: variational_sweep(spec, (1,), default_directions(spec)[:1],
                                      (0.1,), 2, 0, law, bundle))
    for run in runs:
        with pytest.raises(BlowUpError) as err:
            run()
        assert err.value.t == times[11]
        assert err.value.path == 1


def test_blowup_in_later_block_names_global_path(monkeypatch):
    # a huge W3 increment on step 10 of path BLOCK_PATHS + 5, in the second
    # block, and of path CHUNK_PATHS + 5, in the second sweep chunk, is
    # reported with that path index at t_11
    spec = sq.make_spec(n=1, T=1.0, steps=100, x0=1.0, A=0.3, B1=1.0, B2=0.8,
                        B3=0.6, sigma1=0.3, sigma2=0.3, sigma3=0.3,
                        Q1=1.0, G1=0.5, Q2=0.8, Q3=0.6)
    bundle, Omega = solve_game(spec)
    law = sq.build_feedback(bundle, Omega)
    times = solver_times(spec)
    bad = BLOCK_PATHS + 5

    def increments(plan, idx):
        dW = np.zeros((100, 3, len(idx)))
        dW[10, 2, np.asarray(idx) == bad] = 1e13
        return dW

    monkeypatch.setattr(NoisePlan, "increments", increments)
    plan = NoisePlan(component_seeds(0), np.diff(times))
    starts = []
    with pytest.raises(BlowUpError) as err:
        for start, _, _ in simulate_blocks(spec, law, plan, bad + 10, thin=1):
            starts.append(start)
    assert starts == [0]
    assert err.value.path == bad
    assert err.value.t == times[11]
    bad = CHUNK_PATHS + 5
    const = default_directions(spec)[0]
    with pytest.raises(BlowUpError) as err:
        variational_sweep(spec, (1,), [const], (0.1,), bad + 10, 0, law,
                          bundle)
    assert err.value.path == bad
    assert err.value.t == times[11]


def test_blowup_on_last_path_of_padded_batch_names_that_path(monkeypatch):
    # a huge W3 increment on step 10 of the last path of a final block or
    # chunk, which copies of that path pad to a multiple of PAD_PATHS: the
    # copies blow up with it, and the blow-up names the path itself at t_11
    spec = sq.make_spec(n=1, T=1.0, steps=100, x0=1.0, A=0.3, B1=1.0, B2=0.8,
                        B3=0.6, sigma1=0.3, sigma2=0.3, sigma3=0.3,
                        Q1=1.0, G1=0.5, Q2=0.8, Q3=0.6)
    bundle, Omega = solve_game(spec)
    law = sq.build_feedback(bundle, Omega)
    times = solver_times(spec)
    plan = NoisePlan(component_seeds(0), np.diff(times))
    const = default_directions(spec)[:1]

    def increments(plan, idx):
        dW = np.zeros((100, 3, len(idx)))
        dW[10, 2, np.asarray(idx) == bad] = 1e13
        return dW

    monkeypatch.setattr(NoisePlan, "increments", increments)
    monkeypatch.setattr(montecarlo, "CHUNK_PATHS", 16)
    simulate = lambda n: list(simulate_blocks(spec, law, plan, n, thin=1))
    sweep = lambda n: variational_sweep(spec, (1,), const, (0.1,), n, 0, law,
                                        bundle)
    for run, n_paths in ((simulate, BLOCK_PATHS + 3), (sweep, 19),
                         (simulate, 3), (sweep, 3)):
        bad = n_paths - 1
        with pytest.raises(BlowUpError) as err:
            run(n_paths)
        assert err.value.path == bad, (run, n_paths)
        assert err.value.t == times[11]


def test_huge_gain_scale_is_a_blowup_not_a_warning():
    # 1e308 times the follower gain overflows: the finite check names K1,
    # with no RuntimeWarning (an error in this suite) raised before it
    spec = sq.make_spec(n=1, steps=20, x0=1.0, A=0.3, B1=3.0, sigma3=0.3,
                        Q1=1.0, G1=2.0)
    with pytest.raises(BlowUpError, match="feedback gain K1"):
        sq.build_feedback(*solve_game(spec), 1e308)


def test_offset_blowup_reported_at_its_node():
    # a huge deterministic control on nodes 0..40 drives each response offset
    # past the blow-up limit on the step down to t_40
    spec = sq.make_spec(n=1, T=1.0, steps=100, x0=1.0, A=0.3, B1=1.0, B2=0.8,
                        B3=0.6, Q1=1.0, G1=0.5, Q2=0.8, G2=0.4, Q3=0.6)
    bundle, _ = solve_game(spec)
    times = solver_times(spec)
    big, zero = np.zeros((101, 1)), np.zeros((101, 1))
    big[:41] = 1e17
    runs = (lambda: _follower_offset(bundle, big, zero),
            lambda: _middle_offset(bundle, big))
    for run in runs:
        with pytest.raises(BlowUpError) as err:
            run()
        assert err.value.t == times[40]


def test_hat_filter_is_unbiased(generic_solution, scalar_generic):
    _, _, law = generic_solution
    # nodes 0, K/4, K/2, 3K/4 and K; the test reads K/4, K/2 and K
    paths = _paths(scalar_generic, law, 17, 10000,
                   thin=scalar_generic.steps // 4)
    for k in (1, 2, 4):
        diff = paths.X[:, k] - paths.Xh[:, k]
        mean = diff.mean(axis=0)
        se = diff.std(axis=0, ddof=1) / np.sqrt(diff.shape[0])
        assert np.all(np.abs(mean) <= 3.0 * se + 1e-12)


def reconstruct_phicheck(bundle, Omega, X3check):
    """Follower offset filter along paths: affine in the check-filtered state."""
    G, g = _phicheck_gain(bundle, Omega)
    return mv(G, X3check) + g


def reconstruct_Phi(bundle, Omega, X3hat, X3check):
    """Middle-level offset filters (hat and check versions) along paths."""
    L = selectors(bundle.p.shape[-1])[2]
    Pf12, Pf3 = bundle.Pf1 + bundle.Pf2, bundle.Pf3
    off = mv(L, Omega)
    Phih = mv(L @ Pf12, X3hat) + mv(L @ Pf3, X3check) + off
    Phic = mv(L @ (Pf12 + Pf3), X3check) + off
    return Phih, Phic


def filtered_controls(law, paths):
    """(vcheck2, vhat3, vcheck3): the leaders' equilibrium controls as the
    lower levels' filters see them, from the law's Kv tables."""
    Xh, Xc, g = paths.Xh, paths.Xc, law.gains
    return (mv(g["Kv2check"], Xc) + g["k2"],
            mv(g["Kv3hat"], Xh) + mv(g["K3check"], Xc) + g["k3"],
            mv(g["Kv3check"], Xc) + g["k3"])


def test_offset_reconstruction_matches_per_node_formulas(n2_spec):
    # node-axis reconstruction against the per-node formulas; the summation
    # order may differ, so agreement is to rounding, not to the bit
    bundle, Omega = solve_game(n2_spec)
    law = sq.build_feedback(bundle, Omega)
    paths = _paths(n2_spec, law, 5, 8)
    phic = reconstruct_phicheck(bundle, Omega, paths.Xc)
    Phih, Phic = reconstruct_Phi(bundle, Omega, paths.Xh, paths.Xc)
    _, U, L, s2 = selectors(n2_spec.n)
    P1, P2 = bundle.P1, bundle.P2
    Pf1, Pf2, Pf3 = bundle.Pf1, bundle.Pf2, bundle.Pf3
    Om = Omega
    for k in range(bundle.times.shape[0]):
        G = s2 @ (P1[k] + P2[k]) @ U + s2 @ L @ (Pf1[k] + Pf2[k] + Pf3[k])
        want = paths.Xc[:, k] @ G.T + s2 @ (L @ Om[k])
        np.testing.assert_allclose(phic[:, k], want, rtol=1e-12, atol=1e-14)
        want_h = (paths.Xh[:, k] @ (L @ (Pf1[k] + Pf2[k])).T
                  + paths.Xc[:, k] @ (L @ Pf3[k]).T + L @ Om[k])
        want_c = (paths.Xc[:, k] @ (L @ (Pf1[k] + Pf2[k] + Pf3[k])).T
                  + L @ Om[k])
        np.testing.assert_allclose(Phih[:, k], want_h, rtol=1e-12, atol=1e-14)
        np.testing.assert_allclose(Phic[:, k], want_c, rtol=1e-12, atol=1e-14)


def test_respond_player1_zero_spec():
    spec = sq.make_spec(n=1, x0=2.0, n1=0.3, R1=1.5, steps=60)
    bundle, _ = solve_game(spec)
    K = solver_times(spec).shape[0]
    dW = np.zeros((K - 1, 3, 3))
    z = np.zeros((K, 1))
    r = respond(spec, bundle, (z, z), dW)
    assert np.allclose(r.x, 2.0, atol=1e-12)
    assert np.allclose(r.controls, -0.3 / 1.5, atol=1e-12)


def test_respond_player1_deterministic_bump():
    # zero dynamics, B2 = 1: the filtered state integrates the bump exactly
    spec = sq.make_spec(n=1, x0=1.0, B2=1.0, steps=100)
    bundle, _ = solve_game(spec)
    times = solver_times(spec)
    K = times.shape[0]
    v2 = (times < 0.5).astype(float)[:, None]
    dW = np.zeros((K - 1, 3, 2))
    r = respond(spec, bundle, (v2, np.zeros((K, 1))), dW)
    expect = 1.0 + np.minimum(times, 0.5)
    assert np.allclose(r.filtered[0, :, 0], expect, atol=1e-12)


def test_respond_player1_rejects_paths_without_filters(generic_solution,
                                                       scalar_generic):
    bundle, _, law = generic_solution
    paths = _paths(scalar_generic, law, 31, 4)
    dW = _plan(scalar_generic, 31).increments(np.arange(4))
    with pytest.raises(UnsupportedPerturbationError):
        respond(scalar_generic, bundle, (paths.v2, paths.v3), dW)


def test_respond_player1_equilibrium_fixed_point(generic_solution,
                                                 scalar_generic):
    bundle, Omega, law = generic_solution
    paths = _paths(scalar_generic, law, 31, 32)
    dW = _plan(scalar_generic, 31).increments(np.arange(32))
    phic = reconstruct_phicheck(bundle, Omega, paths.Xc)
    vcheck2, _, vcheck3 = filtered_controls(law, paths)
    r = respond(scalar_generic, bundle, (paths.v2, paths.v3), dW,
                seen=(vcheck2, vcheck3), offsets=(phic,))
    h = 1.0 / scalar_generic.steps
    assert np.abs(r.controls - paths.v1).max() <= 10 * h
    assert np.abs(r.filtered - paths.Xc[:, :, :1]).max() <= 10 * h


def test_respond_player12_zero_spec():
    spec = sq.make_spec(n=1, x0=1.0, n2=0.25, R2=1.25, steps=60)
    bundle, _ = solve_game(spec)
    K = solver_times(spec).shape[0]
    dW = np.zeros((K - 1, 3, 2))
    r = respond(spec, bundle, (np.zeros((K, 1)),), dW)
    assert np.allclose(r.controls[..., 1:], -0.25 / 1.25, atol=1e-12)


def test_respond_player12_pulse_integral():
    # zero dynamics, B3 = 1: the 2n filter integrates the pulse in its
    # physical block and keeps the adjoint block at zero
    spec = sq.make_spec(n=1, x0=0.0, B3=1.0, steps=100)
    bundle, _ = solve_game(spec)
    times = solver_times(spec)
    K = times.shape[0]
    v3 = ((times >= 0.2) & (times < 0.6)).astype(float)[:, None]
    dW = np.zeros((K - 1, 3, 1))
    r = respond(spec, bundle, (v3,), dW)
    expect = np.clip(times, 0.2, 0.6) - 0.2
    assert np.allclose(r.filtered[0, :, 2], expect, atol=1e-12)
    assert np.all(r.filtered[0, :, 3] == 0.0)


def test_respond_player12_equilibrium_fixed_point(generic_solution,
                                                  scalar_generic):
    bundle, Omega, law = generic_solution
    paths = _paths(scalar_generic, law, 13, 32)
    dW = _plan(scalar_generic, 13).increments(np.arange(32))
    Phih, Phic = reconstruct_Phi(bundle, Omega, paths.Xh, paths.Xc)
    _, vhat3, vcheck3 = filtered_controls(law, paths)
    r = respond(scalar_generic, bundle, (paths.v3,), dW, seen=(vhat3, vcheck3),
                offsets=(Phih, Phic))
    h = 1.0 / scalar_generic.steps
    assert np.abs(r.controls[..., 1:] - paths.v2).max() <= 10 * h
    assert np.abs(r.controls[..., :1] - paths.v1).max() <= 10 * h
    assert np.abs(r.filtered[..., :2] - paths.Xh[:, :, :2]).max() <= 10 * h


@pytest.mark.parametrize("name", ["n2_spec", "offgrid_spec"])
def test_response_on_the_twin_is_the_response_difference(name, request):
    # the systems are linear, so on one draw of the noise and from x0 = 0
    # the homogeneous systems, on the twin (the bundle of the spec with its
    # intercepts zeroed), step the difference of two responses on the spec's
    # bundle: the sweep's response groups rely on it, and a twin that kept
    # any intercept breaks it
    spec = request.getfixturevalue(name)
    spec = dataclasses.replace(spec, x0=np.zeros(spec.n))
    bundle, _ = solve_game(spec)
    twin, _ = solve_game(homogeneous(spec))
    dW = NoisePlan.for_spec(spec, 3).increments(np.arange(16))
    zero = np.zeros((bundle.times.shape[0], spec.n))
    for level in (2, 3):
        rest = (zero,) * (3 - level)
        base = respond(spec, bundle, (zero,) + rest, dW)
        for d in default_directions(spec):
            v = (0.1 * d.path,) + rest
            got, full = respond(spec, twin, v, dW), respond(spec, bundle, v, dW)
            for field in ("x", "filtered", "controls"):
                want = getattr(full, field) - getattr(base, field)
                np.testing.assert_allclose(
                    getattr(got, field), want, rtol=0,
                    atol=1e-10 * np.abs(want).max(), err_msg=(level, d.id, field))


def test_ansatz_residual_shrinks(scalar_generic):
    worsts = []
    for steps in (100, 200):
        sp = dataclasses.replace(scalar_generic, steps=steps)
        bundle, Omega = solve_game(sp)
        law = sq.build_feedback(bundle, Omega)
        dW = _plan(sp, 7).increments(np.arange(100))
        worsts.append(ansatz_residual(bundle, Omega, _paths(sp, law, 7, 100).Xc,
                                      dW))
    assert 0.25 <= worsts[1] / worsts[0] <= 0.75


def test_simulation_deterministic_and_chunk_invariant(generic_solution,
                                                      scalar_generic,
                                                      monkeypatch):
    _, _, law = generic_solution
    a = _paths(scalar_generic, law, 77, 24)
    b = _paths(scalar_generic, law, 77, 24)
    assert np.array_equal(a.X, b.X)
    # paths are keyed by index: blocks of 8 paths, each stepped on its own,
    # reproduce the rows of one block of 24
    monkeypatch.setattr(montecarlo, "BLOCK_PATHS", 8)
    sub = _paths(scalar_generic, law, 77, 24)
    assert all(np.array_equal(x, y) for x, y in zip(a, sub, strict=True))

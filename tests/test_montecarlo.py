import dataclasses
import tracemalloc
from collections import Counter, deque

import numpy as np
import pytest

import stacklq as sq
import stacklq.closedloop as closedloop
import stacklq.montecarlo as montecarlo
from stacklq.closedloop import _node_loop
from stacklq.model import solver_times, with_steps
from stacklq.montecarlo import (_node_cost, default_directions, mean_stderr,
                                simulate_blocks, variational_sweep)
from stacklq.riccati import BLOWUP_LIMIT, backward_rk4, solve_game
from stacklq.rng import NoisePlan, component_seeds
from stacklq.verify import _failure

from reference import (_follower_control, _follower_offset, _follower_step,
                       _middle_controls, _middle_offset, _middle_step,
                       _state_step, homogeneous, respond)


def _solution(spec):
    bundle, Omega = solve_game(spec)
    law = sq.build_feedback(bundle, Omega)
    return bundle, Omega, law


def _path_costs(spec, seed, n_paths):
    """Each player's per-path cost (3, n_paths) as simulate_blocks streams
    it, block by block."""
    _, _, law = _solution(spec)
    plan = NoisePlan(component_seeds(seed), np.diff(solver_times(spec)))
    return np.concatenate([J for _, _, J in simulate_blocks(
        spec, law, plan, n_paths, thin=spec.steps)], axis=1)


def test_cost_constant_path_exact():
    q, m, g, x0, T = 0.8, 0.3, 0.7, 1.5, 1.0
    spec = sq.make_spec(n=1, T=T, steps=200, x0=x0, Q1=q, m1=m, G1=g)
    mean, stderr = mean_stderr(_path_costs(spec, 1, 4)[0])
    expect = 0.5 * (T * q * x0**2 + 2 * T * m * x0 + g * x0**2)
    assert abs(mean - expect) < 1e-12
    assert stderr == 0.0


def test_cost_zero_spec(zero_spec):
    spec = dataclasses.replace(zero_spec, x0=np.zeros(1))
    J = _path_costs(spec, 1, 8)
    for player in (1, 2, 3):
        assert mean_stderr(J[player - 1])[0] == 0.0


def test_cost_against_moment_ode():
    # v = 0, J = G E[x(T)^2]/2 with the second moment from its own ODE
    a, c, s3, x0, T, steps = 0.3, 0.25, 0.4, 1.0, 1.0, 400
    spec = sq.make_spec(n=1, T=T, steps=steps, x0=x0, A=a, C3=c, sigma3=s3,
                        G1=1.0)
    # 4000 paths are several blocks: the streamed sum crosses block boundaries
    assert montecarlo.BLOCK_PATHS < 4000
    mean, stderr = mean_stderr(_path_costs(spec, 5, 4000)[0])

    # independent oracle: m1' = a m1; m2' = (2a + c^2) m2 + 2 c s3 m1 + s3^2,
    # integrated forward by the same one-step scheme run on reversed time
    def rhs(t, M):
        m1, m2 = M
        return -np.array([a * m1, (2 * a + c * c) * m2 + 2 * c * s3 * m1 + s3 * s3])

    times = np.linspace(0, T, steps + 1)
    (values,) = backward_rk4(
        lambda k, j, y: (rhs(times[k] - (0.0, 0.5, 0.5, 1.0)[j]
                             * (times[k] - times[k - 1]), y[0]),),
        (np.array([x0, x0 * x0]),), times, "moment oracle")
    m2_T = values[0][1]  # backward from "terminal" = initial condition
    expect = 0.5 * m2_T
    assert abs(mean - expect) <= 3.0 * stderr + 2e-3 * abs(expect)


def test_variational_pure_control_energy():
    # Q = G = m = n = 0 and R = I: J(eps) = eps^2/2 * ||delta||^2 exactly
    spec = sq.make_spec(n=1, T=1.0, steps=100, x0=0.0, B1=1.0)
    bundle, Omega, law = _solution(spec)
    d = default_directions(spec)[0]
    rep = variational_sweep(spec, (1,), [d], [0.1, 0.2], 64, 3, law,
                            bundle)[0]
    assert rep.slope0 == 0.0
    assert rep.slope_stderr == 0.0
    times = solver_times(spec)
    l2 = np.sum(np.diff(times)[:, None] * d.path[:-1] ** 2)
    for eps, mean in zip(rep.epsilons, rep.means):
        assert abs(mean - 0.5 * eps * eps * l2) < 1e-14
    assert _failure(rep) is None


def test_variational_equilibrium_slopes(scalar_additive, additive_solution):
    bundle, Omega, law = additive_solution
    for player in (1, 2, 3):
        d = default_directions(scalar_additive)[1]
        rep = variational_sweep(scalar_additive, (player,), [d],
                                [0.05, 0.1], 4000, 21, law, bundle)[0]
        assert abs(rep.slope0) <= 3.0 * rep.slope_stderr, (player, rep)
        # the judge's other rules, the slope being held to 3 stderr above
        assert _failure(dataclasses.replace(rep, slope0=0.0)) is None, rep


def test_variational_negative_control(scalar_additive, additive_solution):
    bundle, Omega, _ = additive_solution
    scaled = sq.build_feedback(bundle, Omega, 1.5)
    fails = 0
    for d in default_directions(scalar_additive)[:3]:
        rep = variational_sweep(scalar_additive, (1,), [d], [0.05], 2000, 11,
                                scaled, bundle)[0]
        if abs(rep.slope0) > 2.0 * rep.slope_stderr:
            fails += 1
    assert fails >= 1


def test_stderr_scaling(scalar_generic, generic_solution):
    bundle, _, law = generic_solution
    d = default_directions(scalar_generic)[0]
    ses = {}
    for n in (2000, 8000):
        reps = [variational_sweep(scalar_generic, (1,), [d], [0.1], n,
                                  seed, law, bundle)[0] for seed in (1, 2, 3)]
        ses[n] = np.mean([r.stderrs[-1] for r in reps])
    ratio = ses[2000] / ses[8000]
    assert 1.6 <= ratio <= 2.4  # quadrupling paths halves stderr within 20%


def test_crn_second_difference_epsilon_independent(scalar_generic,
                                                   generic_solution):
    bundle, _, law = generic_solution
    d = default_directions(scalar_generic)[2]
    rep = variational_sweep(scalar_generic, (2,), [d], [0.05, 0.1, 0.2],
                            500, 9, law, bundle)[0]
    eps = np.array(rep.epsilons)
    means = np.array(rep.means)
    # per fixed seed J(eps) is a quadratic polynomial: second difference const
    d2 = []
    for i in range(1, len(eps) - 1):
        if np.isclose(eps[i + 1] - eps[i], eps[i] - eps[i - 1]):
            d2.append(means[i + 1] - 2 * means[i] + means[i - 1])
    d2 = [x for x in d2 if abs(x) > 1e-16]
    if len(d2) >= 2:
        assert np.allclose(d2, d2[0], rtol=1e-9)


def test_report_epsilons_symmetric(scalar_generic, generic_solution):
    bundle, _, law = generic_solution
    d = default_directions(scalar_generic)[0]
    rep = variational_sweep(scalar_generic, (3,), [d], [0.1, 0.05], 100, 2,
                            law, bundle)[0]
    eps = np.array(rep.epsilons)
    assert 0.0 in eps
    assert np.allclose(sorted(eps), sorted(-eps))


def test_seed_determinism(scalar_generic, generic_solution):
    bundle, _, law = generic_solution
    d = default_directions(scalar_generic)[1]
    r1, r2 = (variational_sweep(scalar_generic, (1,), [d], [0.1], 512, 13,
                                law, bundle)[0] for _ in range(2))
    assert r1.slope0 == r2.slope0
    assert r1.means == r2.means


def test_chunks_do_not_change_results(scalar_generic, generic_solution,
                                      monkeypatch):
    bundle, _, law = generic_solution
    d = default_directions(scalar_generic)[0]
    reps = []
    for chunk in (512, 3000):
        monkeypatch.setattr(montecarlo, "CHUNK_PATHS", chunk)
        reps += variational_sweep(scalar_generic, (2,), [d], [0.1], 3000,
                                  4, law, bundle)
    r1, r2 = reps
    assert r1.slope0 == r2.slope0
    assert r1.means == r2.means


def _n4_spec():
    """n = 4 with noise, multiplicative and additive, on every channel and
    intercepts on every drift and cost: Z's tables have 48 rows."""
    n, rng = 4, np.random.default_rng(44)
    mat = lambda s: rng.standard_normal((n, n)) * s
    vec = lambda s: rng.standard_normal(n) * s

    def psd(s):
        V = rng.standard_normal((n, n))
        return s * (V @ V.T) / n

    costs = {f"{w}{i}": f for i in (1, 2, 3) for w, f in (
        ("Q", psd(0.6)), ("R", psd(0.4) + np.eye(n)), ("G", psd(0.3)),
        ("m", vec(0.02)), ("n", vec(0.02)))}
    return sq.make_spec(n=n, T=1.0, steps=12, x0=vec(1.0), A=mat(0.3),
                        B1=mat(0.5) + np.eye(n), B2=mat(0.4), B3=mat(0.4),
                        C1=mat(0.1), C2=mat(0.1), C3=mat(0.1), b=vec(0.05),
                        sigma1=vec(0.2), sigma2=vec(0.2), sigma3=vec(0.2),
                        **costs)


@pytest.mark.parametrize("n", [1, 2, 4])
def test_final_block_paths_bit_identical_to_full_block(n, request,
                                                       monkeypatch):
    # a path's bits do not depend on --paths: each path of a final block, or
    # sweep chunk, of 1 to 17 paths has the records, the per-path costs and
    # the per-path sweep terms (J0 + eps Bc + eps^2 Cc at each eps, and Bc)
    # that it has inside a full block of BLOCK_PATHS, or CHUNK_PATHS, paths
    spec = {1: lambda: request.getfixturevalue("scalar_generic"),
            2: lambda: request.getfixturevalue("n2_spec"), 4: _n4_spec}[n]()
    spec = with_steps(spec, 12)
    bundle, _, law = _solution(spec)
    plan, dirs = NoisePlan.for_spec(spec, 5), default_directions(spec)
    terms = []      # the per-path arrays the sweep reduces, in its order
    monkeypatch.setattr(montecarlo, "mean_stderr",
                        lambda J: terms.append(J.copy()) or (0.0, 0.0))

    def run(n_sim, n_sweep):
        (_, records, J), = simulate_blocks(spec, law, plan, n_sim, thin=1)
        terms.clear()
        variational_sweep(spec, (1, 2, 3), dirs, [0.1], n_sweep, 5, law,
                          bundle)
        return records, J, list(terms)

    records, J, sweep = run(montecarlo.BLOCK_PATHS, montecarlo.CHUNK_PATHS)
    for width in range(1, 18):
        got = run(width, width)
        assert np.array_equal(got[0], records[:width]), width
        assert np.array_equal(got[1], J[:, :width]), width
        assert len(got[2]) == len(sweep) == 15 * 4
        for a, b in zip(got[2], sweep):
            assert np.array_equal(a, b[:width]), width


def _pinned_cases(spec, law, scaled):
    # (player, direction, law) of SWEEP_PINNED's rows; scaled is law with
    # a 1.5-scaled follower gain
    dirs = {d.id: d for d in default_directions(spec)}
    return [(1, dirs["const"], law), (2, dirs["ramp"], law),
            (3, dirs["flip"], law), (1, dirs["front"], scaled)]


def _block_peaks(monkeypatch, thin):
    """Traced peaks above a one-path call (the set-up, which no path count
    changes) of simulate_blocks and of the sweep over 3 blocks of N = 256
    paths and 10 more, each block consumed and let go before the next; with
    the sizes of one noise buffer and one block's records, in bytes."""
    N, K = 256, 500
    monkeypatch.setattr(montecarlo, "BLOCK_PATHS", N)
    monkeypatch.setattr(montecarlo, "CHUNK_PATHS", N)
    spec = sq.make_spec(n=1, T=1.0, steps=K, x0=1.0, A=0.3, B1=1.0, B2=0.8,
                        B3=0.6, C3=0.1, sigma1=0.2, sigma2=0.25, sigma3=0.3,
                        Q1=1.0, G1=0.5, Q2=0.8, Q3=0.6)
    bundle, _, law = _solution(spec)
    plan = NoisePlan(component_seeds(0), np.diff(law.times))

    def peak(run, n_paths):
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            run(n_paths)
            return tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()

    def blocks(n_paths):        # keeps no block once the next is drawn
        deque(simulate_blocks(spec, law, plan, n_paths, thin), maxlen=0)

    def sweep(n_paths):
        variational_sweep(spec, (1,), default_directions(spec)[:1], [0.1],
                          n_paths, 0, law, bundle)

    grow = {run.__name__: peak(run, 3 * N + 10) - peak(run, 1)
            for run in (blocks, sweep)}
    return grow, N * K * 3 * 8, N * (K // thin + 1) * 15 * 8


def test_blocks_hold_one_reused_noise_buffer(monkeypatch):
    # every block draws its increments in place into one buffer that the
    # block loop reuses, with no (N, K) temporaries: 3+ blocks stay within
    # a quarter buffer of one buffer plus one block's records
    grow, buf, records = _block_peaks(monkeypatch, thin=100)
    assert grow["blocks"] < 1.25 * buf + records
    assert grow["sweep"] < 1.25 * buf


def test_blocks_hold_one_block_of_records_at_thin_1(monkeypatch):
    # at thin 1 a block's records (15.4 MB) outweigh the buffer (3.1 MB):
    # neither simulate_blocks nor its consumer may hold the last block's
    # records while the next block is drawn and filled
    grow, buf, records = _block_peaks(monkeypatch, thin=1)
    assert records > 4 * buf
    assert grow["blocks"] < 1.25 * buf + records


def _fingerprint(rep):
    return (rep.player, rep.direction_id, rep.epsilons, rep.slope0,
            rep.slope_stderr, _failure(rep), rep.means, rep.stderrs)


def test_sweep_matches_one_test_per_case(scalar_generic, generic_solution,
                                         monkeypatch):
    # every player against one direction at a time, on the pinned rows'
    # laws: each report bit for bit the one-player sweep's
    bundle, Omega, law = generic_solution
    monkeypatch.setattr(montecarlo, "CHUNK_PATHS", 512)
    scaled = sq.build_feedback(bundle, Omega, 1.5)
    eps, N, seed = [0.05, 0.1], 1100, 8
    for _, d, lw in _pinned_cases(scalar_generic, law, scaled):
        reps = variational_sweep(scalar_generic, (1, 2, 3), [d], eps, N, seed,
                                 lw, bundle)
        assert [rep.player for rep in reps] == [1, 2, 3]
        for rep in reps:
            one = variational_sweep(scalar_generic, (rep.player,), [d], eps, N,
                                    seed, lw, bundle)[0]
            assert _fingerprint(rep) == _fingerprint(one)


def test_sweep_groups_match_one_test_per_case_n2(n2_spec):
    # n = 2 with multiplicative noise in every channel: the products of a
    # group's direction axis sum more than one term, so a group's reports
    # equal the one-case runs to rounding rather than bit for bit
    bundle, Omega, law = _solution(n2_spec)
    dirs = default_directions(n2_spec)
    eps, N, seed = [0.05, 0.1], 300, 7
    sweeps = [((1, 2, 3), dirs, law),
              ((1,), dirs[:3], sq.build_feedback(bundle, Omega, 1.5))]
    for players, ds, lw in sweeps:
        reps = variational_sweep(n2_spec, players, ds, eps, N, seed, lw, bundle)
        cases = [(player, d) for player in players for d in ds]
        for rep, (player, d) in zip(reps, cases, strict=True):
            one = variational_sweep(n2_spec, (player,), [d], eps, N, seed, lw,
                                    bundle)[0]
            label = lambda r: (r.player, r.direction_id, r.epsilons,
                               _failure(r) is None)
            numbers = lambda r: [r.slope0, r.slope_stderr, *r.means,
                                 *r.stderrs]
            assert label(rep) == label(one)
            assert numbers(rep) == pytest.approx(numbers(one), rel=1e-12,
                                                 abs=0.0), (player, d.id)


def test_sweep_draws_each_chunk_once(scalar_generic, generic_solution,
                                    monkeypatch):
    bundle, _, law = generic_solution
    calls = []
    draw = NoisePlan.increments

    def counted(plan, path_indices):
        calls.append(len(path_indices))
        return draw(plan, path_indices)

    monkeypatch.setattr(NoisePlan, "increments", counted)
    N, chunk = 1100, 512
    monkeypatch.setattr(montecarlo, "CHUNK_PATHS", chunk)
    variational_sweep(scalar_generic, (1, 2, 3),
                      default_directions(scalar_generic), [0.1], N, 3, law,
                      bundle)
    assert len(calls) == -(-N // chunk)
    assert sum(calls) == N


def test_sweep_solves_each_offset_once(scalar_generic, generic_solution,
                                      monkeypatch):
    # the response offsets do not depend on the paths: one solve per
    # player-2/3 group and sweep, however many directions the group holds
    # and however many chunks the paths make
    bundle, _, law = generic_solution
    calls = Counter()
    solve = montecarlo._offset_backward

    def counted(times, coef, driver, what):
        calls[what] += 1
        return solve(times, coef, driver, what)

    monkeypatch.setattr(montecarlo, "_offset_backward", counted)
    dirs = default_directions(scalar_generic)[:2]
    for chunk in (90, 30):      # one chunk, three chunks
        calls.clear()
        monkeypatch.setattr(montecarlo, "CHUNK_PATHS", chunk)
        variational_sweep(scalar_generic, (1, 2, 3), dirs, [0.1], 90, 4, law,
                          bundle)
        assert calls == {"follower offset": 1, "middle offset": 1}, chunk


def _verify_cases():
    # check_variational's sweep: (players, follower gain scale of the law)
    return [((1, 2, 3), 1.0)]


def _criterion_8_cases():
    # test_criterion_8_variational_optimality's two sweeps, the second on
    # the sabotaged law
    return [((1, 2, 3), 1.0), ((1,), 1.5)]


@pytest.mark.parametrize("make_cases, groups",
                         [(_verify_cases, 3), (_criterion_8_cases, 4)])
def test_sweep_steps_one_group_per_player_and_gain(
        scalar_generic, generic_solution, monkeypatch, make_cases, groups):
    # per node and chunk: one step of each group's table, not one per
    # direction; and per sweep one step of the law's table and one sum of
    # the base costs J0, every player's at once
    bundle, Omega, _ = generic_solution
    laws = {scale: sq.build_feedback(bundle, Omega, scale)
            for scale in (1.0, 1.5)}
    law_steps = [lw.step for lw in laws.values()]
    calls = Counter()
    table_step, cost = closedloop.LinearStep.advance, montecarlo._node_cost

    def counted_table_step(table, *args):
        stepped = ("law" if any(table is s for s in law_steps) else
                   "response")
        calls[stepped] += 1
        return table_step(table, *args)

    def counted_cost(*args):
        calls["J0"] += 1
        return cost(*args)

    monkeypatch.setattr(closedloop.LinearStep, "advance", counted_table_step)
    monkeypatch.setattr(montecarlo, "_node_cost", counted_cost)
    dirs, K = default_directions(scalar_generic), scalar_generic.steps
    for chunk in (60, 30):      # one chunk, two chunks
        calls.clear()
        monkeypatch.setattr(montecarlo, "CHUNK_PATHS", chunk)
        for players, scale in make_cases():
            variational_sweep(scalar_generic, players, dirs, [0.1], 60, 4,
                              laws[scale], bundle)
        chunks = 60 // chunk
        assert calls["response"] == groups * K * chunks
        assert calls["J0"] == len(make_cases()) * (K + 1) * chunks
        assert calls["law"] == len(make_cases()) * K * chunks


def test_sweep_draws_and_steps_only_what_the_spec_loads(reducible_spec,
                                                         monkeypatch):
    # reducible_spec loads W3 alone (C1 = C2 = sigma1 = sigma2 = 0) and only
    # player 1 controls it (B2 = B3 = 0): per chunk the sweep draws Philox
    # rows for component 3 only, one per path, and steps player 1's response
    # group alone, whatever it asks of players 2 and 3, on the law and on
    # the law with a 1.5-scaled follower gain
    spec = reducible_spec
    bundle, Omega, law = _solution(spec)
    seeds = NoisePlan.for_spec(spec, 4).seeds
    made, rows, steps = [], Counter(), Counter()
    philox, generator = np.random.Philox, np.random.Generator
    group_tables = montecarlo._group_tables
    table_step = closedloop.LinearStep.advance
    player_of = {}      # a group's table by id: the player whose group it is

    def recorded_group_tables(bundle, player, paths):
        table = group_tables(bundle, player, paths)
        player_of[id(table)] = player
        return table

    def counted_philox(key):
        made.append(seeds.index(key))
        return philox(key=key)

    class CountedGenerator:
        def __init__(self, bitgen):
            self.gen, self.comp = generator(bitgen), made[-1]

        def standard_normal(self, out):
            rows[self.comp] += 1
            return self.gen.standard_normal(out=out)

    def counted_table_step(table, *args):     # the groups' steps only
        if id(table) in player_of:
            steps[player_of[id(table)]] += 1
        return table_step(table, *args)

    monkeypatch.setattr(np.random, "Philox", counted_philox)
    monkeypatch.setattr(np.random, "Generator", CountedGenerator)
    monkeypatch.setattr(montecarlo, "_group_tables", recorded_group_tables)
    monkeypatch.setattr(closedloop.LinearStep, "advance", counted_table_step)
    monkeypatch.setattr(montecarlo, "CHUNK_PATHS", 32)
    N, K, dirs = 80, spec.steps, default_directions(spec)
    for players, scale in _criterion_8_cases():
        for counts in (made, rows, steps, player_of):
            counts.clear()
        variational_sweep(spec, players, dirs, [0.1], N, 4,
                          sq.build_feedback(bundle, Omega, scale), bundle)
        assert made == [2, 2, 2]
        assert rows == {2: N}
        assert steps == {1: 3 * K}


def _helper_group(spec, bundle, law, player, directions, dW):
    """A response group stepped by the reference helpers on their own on the
    bundle of homogeneous(spec), directions on a leading axis, on the
    increments dW (K, 3, N): yields at each node k, before its step, the
    state [dx | dxc] or [dx | dX2h | dX2c] as rows (D, N, w), the lower
    levels' controls and the cost polynomials' Bc and Cc summed up to node
    k, whose weights are the real table's."""
    times, n = law.times, spec.n
    hom = solve_game(homogeneous(spec))[0]
    cv, tcv = bundle.cv, hom.cv
    D, N = len(directions), dW.shape[-1]
    paths = np.stack([d.path for d in directions])
    off = None
    if player == 2:
        off = _follower_offset(hom, paths, np.zeros_like(paths))
    elif player == 3:
        off = _middle_offset(hom, paths)
    dx = np.zeros((D, N, n))
    filt = [np.zeros((D, N, n))] if player == 2 else [np.zeros((D, N, 2 * n))] * 2
    Bc, Cc = np.zeros((D, N)), np.zeros((D, N))
    form = lambda a, M, b: np.einsum("...pi,ij,...pj->...p", a, M, b)
    for k, Z, V in _node_loop(spec, law, dW, 0):
        Z, V = Z.T, V.T     # rows per path, as the helpers read them
        c, tc, own, xbase = cv[k], tcv[k], player - 1, Z[:, :n]
        offk = None if off is None else off[k, :, None]
        v = [V[:, :n], V[:, n:2 * n], V[:, 2 * n:]]
        dv = [np.zeros((D, 1, n))] * 3     # zero rows: the controls that do not move
        dv[own] = paths[:, k, None]
        if player == 2:
            dv[0] = _follower_control(hom, tc, k, filt[0], offk)
        elif player == 3:
            dv[0], dv[1] = _middle_controls(hom, tc, k, *filt, offk, offk)
        if k == len(times) - 1:
            Bc = Bc + form(xbase, c.G[own], dx)
            Cc = Cc + 0.5 * form(dx, c.G[own], dx)
        else:
            h = times[k + 1] - times[k]
            Bc = Bc + h * (form(xbase, c.Q[own], dx) + form(v[own], c.R[own], dv[own])
                           + dx @ c.m[own] + dv[own] @ c.nl[own])
            Cc = Cc + h * (0.5 * form(dx, c.Q[own], dx)
                           + 0.5 * form(dv[own], c.R[own], dv[own]))
        state = np.concatenate([dx] + (filt if player > 1 else []), axis=-1)
        yield state, dv[:own], offk, Bc, Cc
        if k < len(times) - 1:
            dWk = dW[k].T
            if player == 2:
                filt = [_follower_step(hom, tc, k, dWk, filt[0], offk,
                                       dv[1], dv[2])]
            elif player == 3:
                filt = list(_middle_step(hom, k, dWk, *filt, offk, offk,
                                         dv[2], dv[2]))
            dx = _state_step(tc, times, k, dWk, dx, dv)


@pytest.mark.parametrize("name", ["scalar_generic", "n2_spec"])
def test_sweep_group_loads_are_the_load_blocks(name, request):
    # each group's L_i is its blocks' loads, bit for bit, in the column
    # form: C_i on dx; C3 on dxc, which observes W3 only; calC2 and calC3
    # on dX2h, which observes W2 and W3; calC3 on dX2c; exact zeros elsewhere
    spec = request.getfixturevalue(name)
    bundle, _ = solve_game(spec)
    n, K = spec.n, bundle.times.shape[0] - 1
    C = bundle.cv.C[:, :-1]
    calC = bundle.l2.calC[:, :-1]
    O, O12, O2 = np.zeros((K, n, n)), np.zeros((K, n, 2 * n)), np.zeros((K, 2 * n, 2 * n))
    want = {
        1: [C[i] for i in range(3)],
        2: [np.block([[C[i], O], [O, C[2] if i == 2 else O]]) for i in range(3)],
        3: [np.block([[C[i], O12, O12], [O12.mT, calC[i] if i > 0 else O2, O2],
                      [O12.mT, O2, calC[2] if i == 2 else O2]]) for i in range(3)]}
    paths = np.stack([d.path for d in default_directions(spec)])
    for player, loads in want.items():
        L = montecarlo._group_tables(bundle, player, paths).L
        assert sorted(L) == [0, 1, 2]
        for i, Li in L.items():
            assert Li.shape == loads[i].shape
            assert Li.tobytes() == loads[i].tobytes(), (player, i)


@pytest.mark.parametrize("name", ["n2_spec", "offgrid_spec", "reducible_spec"])
def test_sweep_group_tables_match_helpers(name, request):
    # each group's table-stepped state, the lower levels' controls read off it
    # and its Bc/Cc against the reference helpers stepped on their own on the
    # bundle of the homogeneous spec;
    # the summation order differs, so agreement is to rounding: rtol 1e-12,
    # and the same bound relative to the node's largest entry near zero
    spec = request.getfixturevalue(name)
    bundle, Omega, law = _solution(spec)
    times, n = law.times, spec.n
    hom = solve_game(homogeneous(spec))[0]
    dirs = default_directions(spec)
    scaled = sq.build_feedback(bundle, Omega, 1.5)
    groups = [(1, dirs, law), (2, dirs, law), (3, dirs, law),
              (1, dirs[:2], scaled)]
    dW = NoisePlan(component_seeds(3), np.diff(times)).increments(np.arange(16))

    def close(got, want):
        np.testing.assert_allclose(got, want, rtol=1e-12,
                                   atol=1e-12 * np.abs(want).max())

    for player, ds, lw in groups:
        paths = np.stack([d.path for d in ds])
        run = montecarlo._Group(16, player, paths,
                                montecarlo._group_tables(bundle, player, paths))
        ref = _helper_group(spec, bundle, lw, player, ds, dW)
        for (k, Z, V), (state, lower, off, Bc, Cc) in zip(
                _node_loop(spec, lw, dW, 0), ref):
            R, tc = run.state.mT, hom.cv[k]
            close(R, state)
            got = ((_follower_control(hom, tc, k, R[..., n:], off),)
                   if player == 2 else
                   _middle_controls(hom, tc, k, R[..., n:3 * n], R[..., 3 * n:],
                                    off, off) if player == 3 else ())
            for g, want in zip(got, lower, strict=True):
                close(g, want)
            run.node(lw, k, Z, V, dW, 0)
            close(run.Bc, Bc)
            close(0.5 * run.Cc2, Cc)


@pytest.mark.parametrize("player", [2, 3])
def test_sweep_blowup_reported_at_its_step(player, monkeypatch):
    # a 1e13 direction value at node 10 moves every response state to about
    # 1e11 at t_11, below BLOWUP_LIMIT; a W3 increment of 1e3 on step 11 of
    # path chunk + 5, in the second chunk, lifts that path's whole group state
    # past it at t_12; no other path and no base state comes near it
    spec = sq.make_spec(n=1, T=1.0, steps=100, x0=1.0, A=0.3, B1=1.0, B2=0.8,
                        B3=0.6, C3=0.2, sigma3=0.3, Q1=1.0, G1=0.5, Q2=0.8,
                        Q3=0.6)
    bundle, _, law = _solution(spec)
    times = solver_times(spec)
    chunk = 32
    bad = chunk + 5

    def increments(plan, idx):
        dW = np.zeros((100, 3, len(idx)))
        dW[11, 2, np.asarray(idx) == bad] = 1e3
        return dW

    path = np.zeros((101, 1))
    path[10] = 1e13
    d = montecarlo.Direction("spike", path)
    monkeypatch.setattr(NoisePlan, "increments", increments)
    monkeypatch.setattr(montecarlo, "CHUNK_PATHS", chunk)
    with pytest.raises(sq.BlowUpError) as err:
        variational_sweep(spec, (player,), [d], [0.1], 3 * chunk, 0, law,
                          bundle)
    assert err.value.t == times[12]
    assert err.value.path == bad
    # the reference, unguarded: the helper-stepped group stays below the
    # limit at t_11 and crosses it at t_12 on that path only
    monkeypatch.setattr(closedloop, "BLOWUP_LIMIT", np.inf)
    dW = increments(None, np.arange(3 * chunk))
    states = [np.abs(state).max(axis=(0, 2)) for state, *_ in _helper_group(
        spec, bundle, law, player, [d], dW)][:13]
    assert states[11].max() < BLOWUP_LIMIT
    assert np.flatnonzero(states[12] > BLOWUP_LIMIT).tolist() == [bad]


@pytest.mark.parametrize("N", [1, 2, 6, 7, 1000])
def test_mean_stderr_exactly_zero_for_equal_values(N):
    # J.std(ddof=1) of equal floats is a few ulp, not 0, for many values
    rng = np.random.default_rng(N)
    values = np.concatenate([rng.standard_normal(400),
                             rng.uniform(-1e6, 1e6, 100), [0.0, -0.0, 1e-300]])
    for x in values:
        mean, stderr = mean_stderr(np.full(N, x))
        assert stderr == 0.0, (N, x)
        assert mean == pytest.approx(x, rel=1e-15, abs=0.0)
    if N > 1:
        assert mean_stderr(np.linspace(0.0, 1.0, N))[1] > 0.0


# rows 0-2 recorded from the sweep before its response system moved into
# closedloop
SWEEP_PINNED = [
    (-0.009200142164814051, 0.016737194406495938,
     (0.6638288492353569, 0.6554884280465897, 0.6524016162448402,
      0.6545684138301081, 0.6619888208023941)),
    (-0.0026885368841425878, 0.0015803367517755757,
     (0.3481619165726198, 0.34643993421644276, 0.34577632220157895,
      0.3461710805280285, 0.3476242091957913)),
    (-0.000254860417319926, 0.001134312632782987,
     (0.2561048482422532, 0.25419783918568245, 0.2535536741529148,
      0.2541723531439504, 0.2560538761587892)),
    # re-pinned when the sabotage became a law (build_feedback's gain_scale):
    # the whole closed loop now plays the 1.5-scaled follower gain
    (-0.2431747149692373, 0.010151668381767774,
     (0.7385830749074633, 0.7229845978086253, 0.709679281610038,
      0.6986671263117017, 0.6899481319136159)),
]


def test_sweep_numbers_pinned(scalar_generic, generic_solution, monkeypatch):
    bundle, Omega, law = generic_solution
    monkeypatch.setattr(montecarlo, "CHUNK_PATHS", 512)
    scaled = sq.build_feedback(bundle, Omega, 1.5)
    reps = [variational_sweep(scalar_generic, (player,), [d], [0.05, 0.1], 1100,
                              8, lw, bundle)[0]
            for player, d, lw in _pinned_cases(scalar_generic, law, scaled)]
    for rep, (slope0, slope_stderr, means) in zip(reps, SWEEP_PINNED,
                                                  strict=True):
        assert rep.slope0 == pytest.approx(slope0, rel=1e-12)
        assert rep.slope_stderr == pytest.approx(slope_stderr, rel=1e-12)
        assert rep.means == pytest.approx(means, rel=1e-12)


@pytest.mark.parametrize("name", ["scalar_generic", "n2_spec", "reducible_spec",
                                  "offgrid_spec"])
def test_sweep_base_run_is_simulates_run(name, request, monkeypatch):
    # on one spec, seed and path count, the mean at epsilon 0 that verify
    # writes to variational.csv is simulate's per-player mean, bit for bit,
    # with the paths split into 3 blocks and 2 sweep chunks
    monkeypatch.setattr(montecarlo, "BLOCK_PATHS", 128)
    monkeypatch.setattr(montecarlo, "CHUNK_PATHS", 256)
    spec = with_steps(request.getfixturevalue(name), 60)
    bundle, _, law = _solution(spec)
    J = np.concatenate([Jb for _, _, Jb in simulate_blocks(
        spec, law, NoisePlan.for_spec(spec, 3), 300, thin=spec.steps)], axis=1)
    reps = variational_sweep(spec, (1, 2, 3), default_directions(spec),
                             (0.05, 0.1, 0.2), 300, 3, law, bundle)
    for rep in reps:
        base = rep.means[rep.epsilons.index(0.0)]
        assert base == mean_stderr(J[rep.player - 1])[0], (rep.player,
                                                            rep.direction_id)


def test_sweep_response_is_the_public_response():
    # no intercept anywhere and x0 = 0: the base run is identically 0, so
    # J(eps) is the player's cost along the lower levels' best response to
    # eps * d alone, which respond computes on the same noise
    spec = sq.make_spec(n=1, T=1.0, steps=60, x0=0.0,
                        A=0.3, B1=1.0, B2=0.8, B3=0.6, C1=0.15, C2=0.12,
                        C3=0.1, Q1=1.0, R1=1.0, G1=0.5, Q2=0.8, R2=1.2,
                        G2=0.4, Q3=0.6, R3=1.5, G3=0.3)
    bundle, _, law = _solution(spec)
    times = solver_times(spec)
    N, seed, eps = 64, 5, 0.1
    dW = NoisePlan(component_seeds(seed), np.diff(times)).increments(np.arange(N))
    zero = np.zeros((times.shape[0], 1))
    for player in (2, 3):
        for d in default_directions(spec):
            rep = variational_sweep(spec, (player,), [d], [eps], N, seed,
                                    law, bundle)[0]
            r = respond(spec, bundle, (eps * d.path, zero)[:4 - player], dW)
            V = np.zeros((times.shape[0], 3, N))    # n = 1: the player's control alone
            V[:, player - 1] = eps * d.path
            J = sum(_node_cost(law.cost, k, r.x[:, k].T, V[k])[player - 1]
                    for k in range(times.shape[0]))
            got = rep.means[rep.epsilons.index(eps)]
            assert got == pytest.approx(J.mean(), rel=1e-12), (player, d.id)

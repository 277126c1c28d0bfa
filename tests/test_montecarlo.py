import dataclasses
from collections import Counter

import numpy as np
import pytest

import stacklq as sq
import stacklq.montecarlo as montecarlo
from stacklq.closedloop import respond_player1, respond_player12
from stacklq.lift import CoeffValues
from stacklq.model import solver_times
from stacklq.montecarlo import (_node_cost, default_directions, mean_stderr,
                                particle_filter, simulate_blocks,
                                variational_sweep)
from stacklq.riccati import backward_rk4, solve_game
from stacklq.rng import NoisePlan


def _solution(spec):
    bundle, offsets = solve_game(spec)
    law = sq.build_feedback(bundle, offsets, spec)
    return bundle, offsets, law


def _path_costs(spec, seed, n_paths):
    """Each player's per-path cost (3, n_paths) as simulate_blocks streams
    it, block by block."""
    _, _, law = _solution(spec)
    plan = NoisePlan.from_seed(seed, np.diff(solver_times(spec)))
    return np.concatenate([J for _, _, J in simulate_blocks(
        spec, law, plan, n_paths, thin=spec.grid.steps)], axis=1)


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
    # 4000 paths are two blocks: the streamed sum crosses a block boundary
    assert montecarlo.BLOCK_PATHS < 4000 <= 2 * montecarlo.BLOCK_PATHS
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
    bundle, offsets, law = _solution(spec)
    d = default_directions(spec)[0]
    rep = variational_sweep(spec, [(1, d, 1.0)], [0.1, 0.2], 64, 3, law,
                            bundle)[0]
    assert rep.slope0 == 0.0
    assert rep.slope_stderr == 0.0
    times = solver_times(spec)
    l2 = np.sum(np.diff(times)[:, None] * d.path[:-1] ** 2)
    for eps, cost in zip(rep.epsilons, rep.costs):
        assert abs(cost.mean - 0.5 * eps * eps * l2) < 1e-14
    assert rep.curvature_ok


def test_variational_equilibrium_slopes(scalar_additive, additive_solution):
    bundle, offsets, law = additive_solution
    for player in (1, 2, 3):
        d = default_directions(scalar_additive)[1]
        rep = variational_sweep(scalar_additive, [(player, d, 1.0)],
                                [0.05, 0.1], 4000, 21, law, bundle)[0]
        assert abs(rep.slope0) <= 3.0 * rep.slope_stderr, (player, rep)
        assert rep.curvature_ok


def test_variational_negative_control(scalar_additive, additive_solution):
    bundle, offsets, law = additive_solution
    fails = 0
    for d in default_directions(scalar_additive)[:3]:
        rep = variational_sweep(scalar_additive, [(1, d, 1.5)], [0.05], 2000,
                                11, law, bundle)[0]
        if abs(rep.slope0) > 2.0 * rep.slope_stderr:
            fails += 1
    assert fails >= 1


def test_variational_feedback_direction(scalar_additive, additive_solution):
    bundle, offsets, law = additive_solution
    d = default_directions(scalar_additive, include_feedback=True)[-1]
    assert d.kind == "filtered_feedback"
    rep = variational_sweep(scalar_additive, [(1, d, 1.0)], [0.05], 4000, 11,
                            law, bundle)[0]
    assert abs(rep.slope0) <= 3.0 * rep.slope_stderr


def test_feedback_direction_rejected_for_leaders(scalar_additive,
                                                 additive_solution):
    from stacklq.errors import UnsupportedPerturbationError
    bundle, _, law = additive_solution
    d = default_directions(scalar_additive, include_feedback=True)[-1]
    with pytest.raises(UnsupportedPerturbationError):
        variational_sweep(scalar_additive, [(2, d, 1.0)], [0.05], 16, 1, law,
                          bundle)


def test_stderr_scaling(scalar_generic, generic_solution):
    bundle, _, law = generic_solution
    d = default_directions(scalar_generic)[0]
    ses = {}
    for n in (2000, 8000):
        reps = [variational_sweep(scalar_generic, [(1, d, 1.0)], [0.1], n,
                                  seed, law, bundle)[0] for seed in (1, 2, 3)]
        ses[n] = np.mean([r.costs[-1].stderr for r in reps])
    ratio = ses[2000] / ses[8000]
    assert 1.6 <= ratio <= 2.4  # quadrupling paths halves stderr within 20%


def test_crn_second_difference_epsilon_independent(scalar_generic,
                                                   generic_solution):
    bundle, _, law = generic_solution
    d = default_directions(scalar_generic)[2]
    rep = variational_sweep(scalar_generic, [(2, d, 1.0)], [0.05, 0.1, 0.2],
                            500, 9, law, bundle)[0]
    eps = np.array(rep.epsilons)
    means = np.array([c.mean for c in rep.costs])
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
    rep = variational_sweep(scalar_generic, [(3, d, 1.0)], [0.1, 0.05], 100, 2,
                            law, bundle)[0]
    eps = np.array(rep.epsilons)
    assert 0.0 in eps
    assert np.allclose(sorted(eps), sorted(-eps))


def test_seed_determinism(scalar_generic, generic_solution):
    bundle, _, law = generic_solution
    d = default_directions(scalar_generic)[1]
    r1, r2 = (variational_sweep(scalar_generic, [(1, d, 1.0)], [0.1], 512, 13,
                                law, bundle)[0] for _ in range(2))
    assert r1.slope0 == r2.slope0
    assert [c.mean for c in r1.costs] == [c.mean for c in r2.costs]


def test_chunks_do_not_change_results(scalar_generic, generic_solution,
                                      monkeypatch):
    bundle, _, law = generic_solution
    d = default_directions(scalar_generic)[0]
    reps = []
    for chunk in (512, 3000):
        monkeypatch.setattr(montecarlo, "BLOCK_PATHS", chunk)
        reps += variational_sweep(scalar_generic, [(2, d, 1.0)], [0.1], 3000,
                                  4, law, bundle)
    r1, r2 = reps
    assert r1.slope0 == r2.slope0
    assert [c.mean for c in r1.costs] == [c.mean for c in r2.costs]


def _sweep_cases(spec):
    dirs = {d.id: d for d in default_directions(spec, include_feedback=True)}
    return [(1, dirs["const"], 1.0), (2, dirs["ramp"], 1.0),
            (3, dirs["flip"], 1.0), (1, dirs["xcheck-feedback"], 1.0),
            (1, dirs["front"], 1.5)]


def _fingerprint(rep):
    return (rep.player, rep.direction_id, rep.epsilons, rep.slope0,
            rep.slope_stderr, rep.curvature_ok,
            [(c.mean, c.stderr, c.n_paths) for c in rep.costs])


def test_sweep_matches_one_test_per_case(scalar_generic, generic_solution,
                                         monkeypatch):
    bundle, _, law = generic_solution
    monkeypatch.setattr(montecarlo, "BLOCK_PATHS", 512)
    cases = _sweep_cases(scalar_generic)
    eps, N, seed = [0.05, 0.1], 1100, 8
    reps = variational_sweep(scalar_generic, cases, eps, N, seed, law, bundle)
    assert len(reps) == len(cases)
    for rep, case in zip(reps, cases):
        one = variational_sweep(scalar_generic, [case], eps, N, seed, law,
                                bundle)[0]
        assert _fingerprint(rep) == _fingerprint(one)


def test_sweep_groups_match_one_test_per_case_n2(n2_spec):
    # n = 2 with multiplicative noise in every channel: the products of a
    # group's direction axis sum more than one term, so a group's reports
    # equal the one-case runs to rounding rather than bit for bit
    bundle, _, law = _solution(n2_spec)
    dirs = default_directions(n2_spec)
    eps, N, seed = [0.05, 0.1], 300, 7
    groups = [[(player, d, 1.0) for d in dirs] for player in (1, 2, 3)]
    groups.append([(1, d, 1.5) for d in dirs[:3]])
    for cases in groups:
        reps = variational_sweep(n2_spec, cases, eps, N, seed, law, bundle)
        for rep, (player, d, gain_scale) in zip(reps, cases):
            one = variational_sweep(n2_spec, [(player, d, gain_scale)], eps, N,
                                    seed, law, bundle)[0]
            label = lambda r: (r.player, r.direction_id, r.epsilons,
                               r.curvature_ok)
            numbers = lambda r: [r.slope0, r.slope_stderr] + [
                x for c in r.costs for x in (c.mean, c.stderr)]
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
    monkeypatch.setattr(montecarlo, "BLOCK_PATHS", chunk)
    variational_sweep(scalar_generic, _sweep_cases(scalar_generic), [0.1], N,
                      3, law, bundle)
    assert len(calls) == -(-N // chunk)
    assert sum(calls) == N


def test_sweep_solves_each_offset_once(scalar_generic, generic_solution,
                                      monkeypatch):
    # the response offsets do not depend on the paths: one solve per
    # player-2/3 group and sweep, however many directions the group holds
    # and however many chunks the paths make
    bundle, _, law = generic_solution
    calls = Counter()
    for name in ("_follower_offset", "_middle_offset"):
        def counted(*args, _solve=getattr(montecarlo, name), _name=name):
            calls[_name] += 1
            return _solve(*args)
        monkeypatch.setattr(montecarlo, name, counted)
    dirs = default_directions(scalar_generic)
    cases = [(player, d, 1.0) for player in (1, 2, 3) for d in dirs[:2]]
    for chunk in (90, 30):      # one chunk, three chunks
        calls.clear()
        monkeypatch.setattr(montecarlo, "BLOCK_PATHS", chunk)
        variational_sweep(scalar_generic, cases, [0.1], 90, 4, law, bundle)
        assert calls == {"_follower_offset": 1, "_middle_offset": 1}, chunk


def _verify_cases(spec):
    # check_variational's cases
    return [(player, d, 1.0) for player in (1, 2, 3)
            for d in default_directions(spec)]


def _criterion_8_cases(spec):
    # test_criterion_8_variational_optimality's cases
    cases = [(player, d, 1.0) for player in (1, 2, 3)
             for d in default_directions(spec, include_feedback=(player == 1))[:5]]
    return cases + [(1, d, 1.5) for d in default_directions(spec)[:5]]


@pytest.mark.parametrize("make_cases, groups",
                         [(_verify_cases, 3), (_criterion_8_cases, 4)])
def test_sweep_steps_one_group_per_player_and_gain(
        scalar_generic, generic_solution, monkeypatch, make_cases, groups):
    # per node and chunk: one response step and one base cost J0 per group,
    # and one scaled-gain state step per sabotage group, not one per case
    bundle, _, law = generic_solution
    calls = Counter()
    step, cost = montecarlo._state_step, montecarlo._node_cost

    def counted_step(*args):
        calls["affine" if args[-1] else "response"] += 1
        return step(*args)

    def counted_cost(*args):
        calls["J0"] += 1
        return cost(*args)

    monkeypatch.setattr(montecarlo, "_state_step", counted_step)
    monkeypatch.setattr(montecarlo, "_node_cost", counted_cost)
    cases = make_cases(scalar_generic)
    K = scalar_generic.grid.steps
    for chunk in (60, 30):      # one chunk, two chunks
        calls.clear()
        monkeypatch.setattr(montecarlo, "BLOCK_PATHS", chunk)
        variational_sweep(scalar_generic, cases, [0.1], 60, 4, law, bundle)
        chunks = 60 // chunk
        assert calls["response"] == groups * K * chunks
        assert calls["J0"] == groups * (K + 1) * chunks
        assert calls["affine"] == (groups - 3) * K * chunks


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


# recorded from the sweep before its response system moved into closedloop
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
    (-0.001399941237025937, 0.006271685054999796,
     (0.6537711659524298, 0.652779002202663, 0.6524016162448402,
      0.6526390080789606, 0.6534911777050245)),
    (-0.41418238301332516, 0.009350866577578259,
     (0.8102348510930492, 0.7860859905920068, 0.7642302909912151,
      0.7446677522906742, 0.7273983744903841)),
]


def test_sweep_numbers_pinned(scalar_generic, generic_solution, monkeypatch):
    bundle, _, law = generic_solution
    monkeypatch.setattr(montecarlo, "BLOCK_PATHS", 512)
    reps = variational_sweep(scalar_generic, _sweep_cases(scalar_generic),
                             [0.05, 0.1], 1100, 8, law, bundle)
    for rep, (slope0, slope_stderr, means) in zip(reps, SWEEP_PINNED):
        assert rep.slope0 == pytest.approx(slope0, rel=1e-12)
        assert rep.slope_stderr == pytest.approx(slope_stderr, rel=1e-12)
        assert [c.mean for c in rep.costs] == pytest.approx(means, rel=1e-12)


def test_sweep_response_is_the_public_response():
    # no intercept anywhere and x0 = 0: the base run is identically 0, so
    # J(eps) is the player's cost along the lower levels' best response to
    # eps * d alone, which respond_player1/12 compute on the same noise
    spec = sq.make_spec(n=1, T=1.0, steps=60, x0=0.0,
                        A=0.3, B1=1.0, B2=0.8, B3=0.6, C1=0.15, C2=0.12,
                        C3=0.1, Q1=1.0, R1=1.0, G1=0.5, Q2=0.8, R2=1.2,
                        G2=0.4, Q3=0.6, R3=1.5, G3=0.3)
    bundle, _, law = _solution(spec)
    times = solver_times(spec)
    cv = CoeffValues(spec, times)
    N, seed, eps = 64, 5, 0.1
    dW = NoisePlan.from_seed(seed, np.diff(times)).increments(np.arange(N))
    zero = np.zeros((times.shape[0], 1))
    for player in (2, 3):
        for d in default_directions(spec):
            rep = variational_sweep(spec, [(player, d, 1.0)], [eps], N, seed,
                                    law, bundle)[0]
            if player == 2:
                r = respond_player1(spec, bundle, eps * d.path, zero, dW)
            else:
                r = respond_player12(spec, bundle, eps * d.path, dW)
            J = sum(_node_cost(cv[k], player - 1, k, times, r.x[:, k],
                               np.broadcast_to(eps * d.path[k], (N, 1)))
                    for k in range(times.shape[0]))
            got = rep.costs[rep.epsilons.index(eps)].mean
            assert got == pytest.approx(J.mean(), rel=1e-12), (player, d.id)


def test_particle_filter_rejects_small_inner(scalar_generic, generic_solution):
    _, _, law = generic_solution
    with pytest.raises(ValueError):
        particle_filter(scalar_generic, law, [0.5], "G1", 2, 50, 1)


def test_particle_filter_no_noise_exact():
    spec = sq.make_spec(n=1, T=1.0, steps=100, x0=1.0, A=0.3, B1=1.0,
                        Q1=0.5, G1=0.5, Q2=0.3, R2=1.0, Q3=0.2, R3=1.0)
    _, _, law = _solution(spec)
    rows = particle_filter(spec, law, [0.5], "G1", 2, 100, 3)
    for r in rows:
        assert abs(r.oracle_mean - r.filter_value) < 1e-10
        assert r.oracle_stderr < 1e-12


def test_particle_filter_independent_component():
    # x = x0 + sigma1 W1 and G1 = sigma(W3): E[x(t)|G1] = x0
    spec = sq.make_spec(n=1, T=1.0, steps=100, x0=1.0, sigma1=1.0)
    _, _, law = _solution(spec)
    rows = particle_filter(spec, law, [0.5], "G1", 3, 400, 7)
    for r in rows:
        if r.target == "X3" and r.component == 0:
            assert r.filter_value == 1.0
            assert abs(r.oracle_mean - 1.0) <= 3.0 * r.oracle_stderr


def test_tower_identity_small(scalar_generic, generic_solution):
    _, _, law = generic_solution
    h = 1.0 / scalar_generic.grid.steps
    rows = particle_filter(scalar_generic, law, [0.3, 0.7], "G1", 4, 300, 15)
    for r in rows:
        if r.target != "X3hat":
            continue
        tol = 3.0 * (r.oracle_stderr + 2.0 * h)
        assert abs(r.oracle_mean - r.filter_value) <= tol

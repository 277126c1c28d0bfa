import dataclasses
import hashlib

import numpy as np
import pytest

import stacklq as sq
from stacklq.model import Coefficient
from stacklq.rng import NoisePlan, component_seeds


def test_increment_moments():
    h = 0.01
    plan = NoisePlan(component_seeds(123), np.full(50, h))
    dW = plan.increments(np.arange(2000))
    assert abs(dW.mean()) < 3.0 * np.sqrt(h / dW.size)
    assert abs(dW.var() - h) < 0.02 * h


def test_path_indexed_reproducibility():
    plan = NoisePlan(component_seeds(9), np.full(20, 0.05))
    a = plan.increments([0, 1, 2, 3])
    b = plan.increments([2, 3])
    assert np.array_equal(a[..., 2:], b)
    again = NoisePlan(component_seeds(9), np.full(20, 0.05)).increments([0, 1, 2, 3])
    assert np.array_equal(a, again)


def test_component_reseeding_is_local():
    plan = NoisePlan(component_seeds(5), np.full(10, 0.1))
    base = plan.increments([0, 1])
    seeds = (component_seeds(777)[0],) + plan.seeds[1:]
    re0 = dataclasses.replace(plan, seeds=seeds).increments([0, 1])
    assert not np.array_equal(base[:, 0], re0[:, 0])
    assert np.array_equal(base[:, 1:], re0[:, 1:])


def test_component_seeds_distinct():
    s = component_seeds(42)
    assert len(set(s)) == 3


def test_nonuniform_step_scaling():
    dts = np.array([0.1, 0.4])
    plan = NoisePlan(component_seeds(3), dts)
    dW = plan.increments(np.arange(4000))
    v = dW.var(axis=(1, 2))
    assert abs(v[0] - 0.1) < 0.02
    assert abs(v[1] - 0.4) < 0.05


# digest of increments([0, 5, 3]) of NoisePlan(component_seeds(9), np.full(20, 0.05)),
# pinned when each path still built its own jumped Philox generator and the
# increments were laid out (paths, steps, 3), the order hashed
PINNED_SHA256 = "c266ce13c29f9559fd68d8b453ec9216704445f2a9c700f41b3e0e39ecce4994"


def _jumped_rows(seed, indices, h, k):
    """(k, paths): each path's jumped stream, scaled, as a column."""
    return np.stack([
        np.random.Generator(np.random.Philox(key=seed).jumped(i))
        .standard_normal(k) * np.sqrt(h) for i in indices], axis=-1)


@pytest.mark.parametrize("indices", [[0, 1, 2047, 2048, 10**6, 2**40],
                                     [2048, 3, 3, 0, 2**40, 1, 0]])
def test_rows_equal_jumped_streams(indices):
    h, k = 0.01, 37
    plan = NoisePlan(component_seeds(17), np.full(k, h))
    dW = plan.increments(indices)
    for comp, seed in enumerate(plan.seeds):
        assert np.array_equal(dW[:, comp], _jumped_rows(seed, indices, h, k))
    # the same rows drawn in place into a plan's reused buffer: a full fill,
    # then a shorter index list into the buffer's leading rows
    reused = plan.reusing(len(indices))
    reused.buffer[...] = np.nan
    for rows in (indices, indices[:-2][::-1]):
        got = reused.increments(rows)
        assert got.shape == (k, 3, len(rows))
        assert np.shares_memory(got, reused.buffer)
        for comp, seed in enumerate(plan.seeds):
            assert np.array_equal(got[:, comp], _jumped_rows(seed, rows, h, k))
    with pytest.raises(ValueError):
        reused.increments(indices + [0])


def test_stream_digest_pinned():
    dW = NoisePlan(component_seeds(9), np.full(20, 0.05)).increments([0, 5, 3])
    assert (hashlib.sha256(dW.transpose(2, 0, 1).tobytes()).hexdigest()
            == PINNED_SHA256)


def test_negative_path_index_rejected():
    plan = NoisePlan(component_seeds(9), np.full(20, 0.05))
    with pytest.raises(ValueError):
        plan.increments([-1])
    with pytest.raises(ValueError):
        plan.increments([4, 0, -3])


def _check_rows(got, plan, full, rows):
    """Dead components exact zeros, live ones the all-live plan's rows."""
    want = full.increments(rows)
    for comp, live in enumerate(plan.live):
        expected = want[:, comp] if live else np.zeros_like(want[:, comp])
        assert np.array_equal(got[:, comp], expected)


@pytest.mark.parametrize("live", [(False, True, True), (False, False, True),
                                  (True, False, False)])
def test_dead_components_zero_beside_jumped_streams(live):
    # a dead component is exact zeros, never drawn; the live columns are the
    # all-live plan's rows, in a new array and drawn batch after batch into a
    # reused buffer whose rows a longer batch left behind
    h, k = 0.01, 37
    full = NoisePlan(component_seeds(17), np.full(k, h))
    plan = dataclasses.replace(full, live=live)
    indices = [0, 3, 2048, 2**40, 1]
    _check_rows(plan.increments(indices), plan, full, indices)
    reused = plan.reusing(4)
    reused.buffer[...] = np.nan
    for rows in ([0, 3, 2048, 2**40], [1, 5], [2**40, 0, 7]):
        got = reused.increments(rows)
        assert np.shares_memory(got, reused.buffer)
        _check_rows(got, plan, full, rows)


def test_jumped_streams_drawn_for_the_components_a_spec_loads(reducible_spec,
                                                              scalar_generic):
    # a component is live when its C_i or sigma_i is nonzero on some piece
    assert NoisePlan.for_spec(reducible_spec, 1).live == (False, False, True)
    assert NoisePlan.for_spec(scalar_generic, 1).live == (True, True, True)
    late = sq.make_spec(n=1, T=1.0, steps=10, C1=0.1,
                        sigma2=Coefficient.piecewise([0.5], [[0.0], [0.3]]))
    plan = NoisePlan.for_spec(late, 2)
    assert plan.live == (True, True, False)
    assert plan.seeds == NoisePlan(component_seeds(2), plan.dts).seeds

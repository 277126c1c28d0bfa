import numpy as np

from stacklq.rng import NoisePlan, component_seeds


def test_increment_moments():
    h = 0.01
    plan = NoisePlan.from_seed(123, np.full(50, h))
    dW = plan.increments(np.arange(2000))
    assert abs(dW.mean()) < 3.0 * np.sqrt(h / dW.size)
    assert abs(dW.var() - h) < 0.02 * h


def test_path_indexed_reproducibility():
    plan = NoisePlan.from_seed(9, np.full(20, 0.05))
    a = plan.increments([0, 1, 2, 3])
    b = plan.increments([2, 3])
    assert np.array_equal(a[2:], b)
    again = NoisePlan.from_seed(9, np.full(20, 0.05)).increments([0, 1, 2, 3])
    assert np.array_equal(a, again)


def test_component_reseeding_is_local():
    plan = NoisePlan.from_seed(5, np.full(10, 0.1))
    base = plan.increments([0, 1])
    re0 = plan.with_component_seed(0, 777).increments([0, 1])
    assert not np.array_equal(base[:, :, 0], re0[:, :, 0])
    assert np.array_equal(base[:, :, 1:], re0[:, :, 1:])


def test_component_seeds_distinct():
    s = component_seeds(42)
    assert len(set(s)) == 3


def test_nonuniform_step_scaling():
    dts = np.array([0.1, 0.4])
    plan = NoisePlan.from_seed(3, dts)
    dW = plan.increments(np.arange(4000))
    v = dW.var(axis=(0, 2))
    assert abs(v[0] - 0.1) < 0.02
    assert abs(v[1] - 0.4) < 0.05

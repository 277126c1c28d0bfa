import numpy as np
import pytest

import stacklq as sq
from stacklq.model import Coefficient


@pytest.fixture(scope="session")
def zero_spec():
    return sq.make_spec(n=1, T=1.0, steps=100)


@pytest.fixture(scope="session")
def scalar_generic():
    """Scalar spec with multiplicative and additive noise in every channel."""
    return sq.make_spec(
        n=1, T=1.0, steps=200, x0=1.0,
        A=0.3, B1=1.0, B2=0.8, B3=0.6, C1=0.15, C2=0.12, C3=0.1,
        b=0.05, sigma1=0.2, sigma2=0.25, sigma3=0.3,
        Q1=1.0, R1=1.0, G1=0.5, m1=0.02, n1=0.01,
        Q2=0.8, R2=1.2, G2=0.4, m2=0.0, n2=0.02,
        Q3=0.6, R3=1.5, G3=0.3, m3=0.01, n3=0.0)


@pytest.fixture(scope="session")
def scalar_additive():
    """Additive-noise scalar spec: the regime where the feedback law is exact."""
    return sq.make_spec(
        n=1, T=1.0, steps=500, x0=1.0,
        A=0.3, B1=1.0, B2=0.8, B3=0.6,
        b=0.05, sigma1=0.25, sigma2=0.3, sigma3=0.35,
        Q1=1.0, R1=1.0, G1=0.5, m1=0.02, n1=0.01,
        Q2=0.8, R2=1.2, G2=0.4, m2=0.0, n2=0.02,
        Q3=0.6, R3=1.5, G3=0.3, m3=0.01, n3=0.0)


def _sym(rng, n, scale=1.0):
    V = rng.standard_normal((n, n))
    return scale * (V @ V.T) / n


@pytest.fixture(scope="session")
def n2_spec():
    rng = np.random.default_rng(2024)
    n = 2
    mk = lambda s: rng.standard_normal((n, n)) * s
    return sq.make_spec(
        n=n, T=1.0, steps=160, x0=np.array([1.0, -0.5]),
        A=mk(0.3), B1=mk(0.5) + np.eye(n), B2=mk(0.4), B3=mk(0.4),
        C1=mk(0.1), C2=mk(0.1), C3=mk(0.1),
        b=rng.standard_normal(n) * 0.05,
        sigma1=rng.standard_normal(n) * 0.2,
        sigma2=rng.standard_normal(n) * 0.2,
        sigma3=rng.standard_normal(n) * 0.2,
        Q1=_sym(rng, n, 0.8), R1=_sym(rng, n, 0.5) + np.eye(n), G1=_sym(rng, n, 0.4),
        m1=rng.standard_normal(n) * 0.02, n1=rng.standard_normal(n) * 0.02,
        Q2=_sym(rng, n, 0.6), R2=_sym(rng, n, 0.4) + np.eye(n), G2=_sym(rng, n, 0.3),
        m2=rng.standard_normal(n) * 0.02, n2=rng.standard_normal(n) * 0.02,
        Q3=_sym(rng, n, 0.5), R3=_sym(rng, n, 0.4) + np.eye(n), G3=_sym(rng, n, 0.3),
        m3=rng.standard_normal(n) * 0.02, n3=rng.standard_normal(n) * 0.02)


@pytest.fixture(scope="session")
def closed_form_spec():
    """A = C = 0, B1 = R1 = G1 = 1, Q1 = 0: follower gain is 1/(1+T-t)."""
    return sq.make_spec(n=1, T=1.0, steps=1000, B1=1.0, R1=1.0, G1=1.0)


@pytest.fixture(scope="session")
def reducible_spec():
    return sq.make_spec(n=1, T=1.0, steps=100, x0=1.0, A=0.4, B1=1.0,
                        C3=0.2, b=0.05, sigma3=0.3,
                        Q1=0.8, R1=1.0, G1=0.6, m1=0.02, n1=0.01)


@pytest.fixture(scope="session")
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


@pytest.fixture(scope="session")
def malformed_documents(reducible_spec):
    """Spec documents that must not parse: reducible_spec's with A made
    piecewise on breaks that are not a list of finite numbers or on a single
    value, or with a grid size or an adjacency entry that is not a whole
    number."""
    docs, two = [], [[[0.4]], [[0.5]]]
    for breaks, values in ((0.5, two), ([[0.5]], two), ([float("nan")], two),
                           ([float("inf")], two), ([0.5], 0.5)):
        doc = sq.spec_to_dict(reducible_spec)
        doc["coeffs"]["A"] = {"kind": "piecewise", "breaks": breaks,
                              "values": values}
        docs.append(doc)
    for key, value in (("steps", 2.7), ("n", 1.5),
                       ("adjacency", [[0, 0, 1.9], [0, 1.5, 1], [1, 1, 1]])):
        docs.append({**sq.spec_to_dict(reducible_spec), key: value})
    return docs


@pytest.fixture(scope="session")
def generic_solution(scalar_generic):
    bundle, Omega = sq.solve_game(scalar_generic)
    law = sq.build_feedback(bundle, Omega)
    return bundle, Omega, law


@pytest.fixture(scope="session")
def additive_solution(scalar_additive):
    bundle, Omega = sq.solve_game(scalar_additive)
    law = sq.build_feedback(bundle, Omega)
    return bundle, Omega, law

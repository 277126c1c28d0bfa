"""Cost estimation, variational optimality tests and the filter oracle.

The variational tests exploit linearity: under common random numbers the
Euler-discretized paths respond affinely to a control perturbation, so one
base run plus one response run per direction determines every perturbed
cost exactly as a quadratic polynomial in the perturbation size.  The
reported central-difference slope coincides with the polynomial's linear
coefficient, and its standard error comes from the per-path linear terms
(classical CRN variance reduction).
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .closedloop import (FeedbackLaw, PathBundle, _controls, _det_backward,
                         _filtered_step, _state_step)
from .errors import UnsupportedPerturbationError
from .lift import CoeffValues, selectors
from .model import GameSpec, solver_times
from .riccati import RiccatiBundle
from .rng import NoisePlan


@dataclass(frozen=True)
class CostEstimate:
    player: int
    mean: float
    stderr: float
    n_paths: int
    seed: int
    grid_steps: int


@dataclass(frozen=True)
class Direction:
    """An admissible perturbation direction for the variational tests.

    kind "deterministic": path (K+1, n) sampled on the grid.
    kind "filtered_feedback": gain (n, n) applied to the follower-filtered
    physical state (player 1 only; the realized path is frozen per run).
    """

    id: str
    kind: str
    path: np.ndarray | None = None
    gain: np.ndarray | None = None


@dataclass(frozen=True)
class PerturbationReport:
    player: int
    direction_id: str
    epsilons: tuple
    costs: tuple            # CostEstimate per epsilon, same order
    slope0: float
    slope_stderr: float
    curvature_ok: bool


def estimate_cost(spec: GameSpec, player: int, bundle: PathBundle,
                  seed: int = 0) -> CostEstimate:
    """Left-endpoint quadrature of the player's cost along stored paths."""
    times = bundle.times
    st = solver_times(spec)
    if times.shape != st.shape or not np.allclose(times, st):
        raise ValueError("path bundle grid does not match the spec grid")
    cv, i = CoeffValues(spec, times), player - 1
    Q, R, m, nl, G = cv.Q[i], cv.R[i], cv.m[i], cv.nl[i], cv.G[i]
    x = bundle.x
    v = (bundle.v1, bundle.v2, bundle.v3)[i]
    K = times.shape[0] - 1
    J = np.zeros(x.shape[0])
    for k in range(K):
        h = times[k + 1] - times[k]
        xk, vk = x[:, k], v[:, k]
        J += h * (0.5 * np.einsum("pi,ij,pj->p", xk, Q[k], xk)
                  + 0.5 * np.einsum("pi,ij,pj->p", vk, R[k], vk)
                  + xk @ m[k] + vk @ nl[k])
    xT = x[:, K]
    J += 0.5 * np.einsum("pi,ij,pj->p", xT, G, xT)
    N = J.shape[0]
    stderr = float(J.std(ddof=1) / np.sqrt(N)) if N > 1 else 0.0
    return CostEstimate(player=player, mean=float(J.mean()), stderr=stderr,
                        n_paths=N, seed=seed, grid_steps=K)


# ---------------------------------------------------------------------------
# fused base + response runner
# ---------------------------------------------------------------------------

def default_directions(spec: GameSpec, include_feedback: bool = False) -> list:
    """Five stock perturbation directions on the solver grid."""
    times = solver_times(spec)
    T = times[-1]
    n = spec.n
    e = np.ones(n) / np.sqrt(n)
    shapes = {
        "const": np.ones_like(times),
        "ramp": times / T,
        "flip": 1.0 - 2.0 * times / T,
        "front": (times < 0.5 * T).astype(float),
        "tail": (times >= 0.5 * T).astype(float),
    }
    dirs = [Direction(name, "deterministic", path=np.outer(s, e))
            for name, s in shapes.items()]
    if include_feedback:
        dirs.append(Direction("xcheck-feedback", "filtered_feedback",
                              gain=0.5 * np.eye(n)))
    return dirs


def _player_quadratics(spec, law: FeedbackLaw, bundle: RiccatiBundle,
                       player: int, direction: Direction, dW: np.ndarray,
                       gain_scale: float = 1.0):
    """Per-path cost polynomial coefficients (J0, B, C) for J(eps)."""
    if direction.kind == "filtered_feedback" and player != 1:
        raise UnsupportedPerturbationError(
            "feedback directions are supported for the follower test only")
    if gain_scale != 1.0 and player != 1:
        raise UnsupportedPerturbationError(
            "the scaled-gain negative control runs on the follower test")
    N, K, _ = dW.shape
    times = law.times
    n = spec.n
    cv, own = CoeffValues(spec, times), player - 1
    Q, R, m, nl, G = cv.Q[own], cv.R[own], cv.m[own], cv.nl[own], cv.G[own]
    _, _, _, s2 = selectors(n)

    X = np.tile(np.concatenate([spec.x0, np.zeros(3 * n)]), (N, 1))
    Xh = X.copy()
    Xc = X.copy()
    sab = gain_scale != 1.0
    xt = X[:, :n].copy() if sab else None         # re-simulated base state
    dx = np.zeros((N, n))                         # response of the state
    if player == 2:
        dxc = np.zeros((N, n))
        l1 = bundle.l1
        # deterministic follower offset response to the direction
        dphi = _det_backward(times, np.transpose(l1.Abar, (0, 2, 1)),
                             np.einsum("kij,kj->ki", bundle.p.values,
                                       np.einsum("kij,kj->ki", cv.B[1], direction.path)),
                             np.zeros(n))
    elif player == 3:
        dX2h = np.zeros((N, 2 * n))
        dX2c = np.zeros((N, 2 * n))
        cl, l2 = bundle.l2cl, bundle.l2
        dPhi = _det_backward(times, np.transpose(cl.ddA1 + cl.ddA2 + cl.ddA3, (0, 2, 1)),
                             np.einsum("kij,kj->ki", cl.va + cl.vc, direction.path),
                             np.zeros(2 * n))

    J0 = np.zeros(N)
    Bc = np.zeros(N)
    Cc = np.zeros(N)

    for k in range(K + 1):
        c = cv[k]
        # base controls at this node
        v1, v2, v3 = _controls(law, k, X, Xh, Xc)
        if sab:
            v1 = gain_scale * (Xc @ law.K1[k].T) + law.k1[k]
        vown = (v1, v2, v3)[own]
        xbase = xt if sab else X[:, :n]

        # direction value and own-control response at this node
        if direction.kind == "deterministic":
            dv_own = np.broadcast_to(direction.path[k], (N, n))
        else:
            dv_own = Xc[:, :n] @ direction.gain.T
        # responses of the re-responding lower levels
        if player == 2:
            dv1 = -(dxc @ (c.B[0].T @ bundle.p.values[k]).T
                    + np.broadcast_to(dphi[k], (N, n)) @ c.B[0]) @ c.Rinv[0].T
        elif player == 3:
            cB2, cF2 = l2.calB2[k], l2.calF2[k]
            P1k, P2k = bundle.P1.values[k], bundle.P2.values[k]
            dv2 = -(dX2h @ (cB2.T @ P1k).T + dX2c @ (cB2.T @ P2k + cF2).T
                    + np.broadcast_to(dPhi[k], (N, 2 * n)) @ cB2) @ c.Rinv[1].T
            dphick = (dX2c @ (s2 @ (P1k + P2k)).T
                      + np.broadcast_to(dPhi[k], (N, 2 * n)) @ s2.T)
            dv1 = -(dX2c[:, :n] @ (c.B[0].T @ bundle.p.values[k]).T
                    + dphick @ c.B[0]) @ c.Rinv[0].T

        # accumulate cost polynomial
        if k < K:
            h = times[k + 1] - times[k]
            J0 += h * (0.5 * np.einsum("pi,ij,pj->p", xbase, Q[k], xbase)
                       + 0.5 * np.einsum("pi,ij,pj->p", vown, R[k], vown)
                       + xbase @ m[k] + vown @ nl[k])
            Bc += h * (np.einsum("pi,ij,pj->p", xbase, Q[k], dx)
                       + np.einsum("pi,ij,pj->p", vown, R[k], dv_own)
                       + dx @ m[k] + dv_own @ nl[k])
            Cc += h * (0.5 * np.einsum("pi,ij,pj->p", dx, Q[k], dx)
                       + 0.5 * np.einsum("pi,ij,pj->p", dv_own, R[k], dv_own))
        else:
            J0 += 0.5 * np.einsum("pi,ij,pj->p", xbase, G, xbase)
            Bc += np.einsum("pi,ij,pj->p", xbase, G, dx)
            Cc += 0.5 * np.einsum("pi,ij,pj->p", dx, G, dx)
            break

        d2, d3 = dW[:, k, 1:2], dW[:, k, 2:3]

        # response dynamics (driven by the direction, multiplicative noise)
        ddrift = dx @ c.A.T
        if player == 1:
            ddrift = ddrift + dv_own @ c.B[0].T
        elif player == 2:
            ddrift = ddrift + dv1 @ c.B[0].T + dv_own @ c.B[1].T
            dxc_drift = (dxc @ bundle.l1.Abar[k].T
                         + np.broadcast_to(dphi[k], (N, n)) @ bundle.l1.F1bar[k].T
                         + dv_own @ c.B[1].T)
            dxc = dxc + h * dxc_drift + d3 * (dxc @ c.C[2].T)
        elif player == 3:
            ddrift = ddrift + dv1 @ c.B[0].T + dv2 @ c.B[1].T + dv_own @ c.B[2].T
            ddA12 = cl.ddA1[k] + cl.ddA2[k]
            dPhik = np.broadcast_to(dPhi[k], (N, 2 * n))
            dh_drift = (dX2h @ ddA12.T + dX2c @ cl.ddA3[k].T
                        + dPhik @ cl.ddF1[k].T + dv_own @ l2.calB3[k].T)
            dc_drift = (dX2c @ (ddA12 + cl.ddA3[k]).T + dPhik @ cl.ddF1[k].T
                        + dv_own @ l2.calB3[k].T)
            dX2h = (dX2h + h * dh_drift
                    + d2 * (dX2h @ l2.calC2[k].T) + d3 * (dX2h @ l2.calC3[k].T))
            dX2c = dX2c + h * dc_drift + d3 * (dX2c @ l2.calC3[k].T)
        dx = dx + h * ddrift + sum(dW[:, k, i:i + 1] * (dx @ c.C[i].T)
                                   for i in range(3))

        # base closed-loop step
        if sab:
            xt = _state_step(c, times, k, dW[:, k], xt, (v1, v2, v3))
        X, Xh, Xc = _filtered_step(law, times, k, dW[:, k], X, Xh, Xc)

    return J0, Bc, Cc


def variational_test(spec: GameSpec, player: int, direction: Direction,
                     epsilons, n_paths: int, seed: int,
                     law: FeedbackLaw | None = None,
                     bundle: RiccatiBundle | None = None,
                     gain_scale: float = 1.0, threads: int = 1,
                     chunk: int = 2048) -> PerturbationReport:
    """CRN perturbation sweep for one player and one direction."""
    if law is None or bundle is None:
        from .closedloop import build_feedback
        from .riccati import solve_game
        bundle, offsets = solve_game(spec)
        law = build_feedback(bundle, offsets, spec)
    eps = sorted({float(e) for e in epsilons} | {0.0} |
                 {-float(e) for e in epsilons})
    times = solver_times(spec)
    plan = NoisePlan.from_seed(seed, np.diff(times))

    starts = list(range(0, n_paths, chunk))

    def run(i0):
        idx = np.arange(i0, min(i0 + chunk, n_paths))
        dW = plan.increments(idx)
        return _player_quadratics(spec, law, bundle, player, direction, dW,
                                  gain_scale)

    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as ex:
            parts = list(ex.map(run, starts))
    else:
        parts = [run(i0) for i0 in starts]
    J0 = np.concatenate([p[0] for p in parts])
    B = np.concatenate([p[1] for p in parts])
    C = np.concatenate([p[2] for p in parts])

    N = n_paths
    costs = []
    for e in eps:
        Je = J0 + e * B + e * e * C
        costs.append(CostEstimate(player=player, mean=float(Je.mean()),
                                  stderr=float(Je.std(ddof=1) / np.sqrt(N)),
                                  n_paths=N, seed=seed,
                                  grid_steps=times.shape[0] - 1))
    j0 = costs[eps.index(0.0)]
    curvature_ok = all(c.mean >= j0.mean - 3.0 * max(c.stderr, 1e-300)
                       for c in costs)
    return PerturbationReport(player=player, direction_id=direction.id,
                              epsilons=tuple(eps), costs=tuple(costs),
                              slope0=float(B.mean()),
                              slope_stderr=float(B.std(ddof=1) / np.sqrt(N)),
                              curvature_ok=curvature_ok)


# ---------------------------------------------------------------------------
# particle-filter oracle for the conditional expectations
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class OracleRow:
    time: float
    sigma_field: str
    target: str           # "X3" or "X3hat"
    component: int
    filter_value: float
    oracle_mean: float
    oracle_stderr: float


def particle_filter(spec: GameSpec, law: FeedbackLaw, target_times,
                    sigma_field: str, n_outer: int, n_inner: int,
                    seed: int) -> list:
    """Brute-force conditional expectations against the closed-form filters.

    G1: freeze one outer draw of the W3 increments, average full simulations
    over inner (W1, W2) draws, compare with the W3-only filter path.
    G2: freeze (W2, W3), average over W1, compare with the (W2, W3) filter.
    """
    if n_inner < 100:
        raise ValueError("n_inner < 100 gives a meaninglessly noisy oracle")
    if sigma_field not in ("G1", "G2"):
        raise ValueError("sigma_field must be 'G1' or 'G2'")
    from .closedloop import simulate_equilibrium
    times = law.times
    dts = np.diff(times)
    K = dts.shape[0]
    tts = np.atleast_1d(np.asarray(target_times, dtype=float))
    kidx = [int(np.argmin(np.abs(times - t))) for t in tts]

    outer_plan = NoisePlan.from_seed(seed, dts)
    inner_plan = NoisePlan.from_seed(seed + 1, dts)
    frozen = (2,) if sigma_field == "G1" else (1, 2)

    rows = []
    for j in range(n_outer):
        outer = outer_plan.increments([j])[0]          # (K, 3)
        dW = inner_plan.increments(np.arange(j * n_inner, (j + 1) * n_inner))
        for comp in frozen:
            dW[:, :, comp] = outer[:, comp]
        paths = simulate_equilibrium(spec, law, dW)
        if sigma_field == "G1":
            pairs = (("X3", paths.X3, paths.X3check),
                     ("X3hat", paths.X3hat, paths.X3check))
        else:
            pairs = (("X3", paths.X3, paths.X3hat),)
        for name, target, ref in pairs:
            for k, t in zip(kidx, tts):
                mean = target[:, k].mean(axis=0)
                se = target[:, k].std(axis=0, ddof=1) / np.sqrt(n_inner)
                fv = ref[0, k]
                for c in range(mean.shape[0]):
                    rows.append(OracleRow(time=float(times[k]),
                                          sigma_field=sigma_field, target=name,
                                          component=c, filter_value=float(fv[c]),
                                          oracle_mean=float(mean[c]),
                                          oracle_stderr=float(se[c])))
    return rows

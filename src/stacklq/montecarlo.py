"""Cost estimation, variational optimality tests and the filter oracle.

The variational tests exploit linearity: under common random numbers the
Euler-discretized paths respond affinely to a control perturbation, so one
base run plus one response run per direction determines every perturbed
cost exactly as a quadratic polynomial in the perturbation size.  The
reported central-difference slope coincides with the polynomial's linear
coefficient, and its standard error comes from the per-path linear terms
(classical CRN variance reduction).

`variational_sweep` runs many (player, direction, gain_scale) cases with the
chunk loop outermost: each chunk of paths draws its Brownian increments once
and steps one base closed loop, along which one response group per distinct
(player, gain_scale) advances all its directions on one leading axis and its
base cost once.  The response is the homogeneous form of closedloop's
best-response systems, the ones `respond_player1/12` run.  No increment row
is drawn twice however many cases share the seed; `variational_test` is the
one-case sweep.

`simulate_blocks` streams the equilibrium for `stacklq simulate` block by
block of paths, keeping every thin-th node and each player's running cost,
so no full path is stored.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

import numpy as np

from .closedloop import (BLOCK_PATHS, FeedbackLaw, PathBundle,
                         _follower_control, _follower_offset, _follower_step,
                         _middle_controls, _middle_offset, _middle_step,
                         _node_loop, _paths_from, _state_step)
from .errors import UnsupportedPerturbationError
from .lift import CoeffValues
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


def _node_cost(c: CoeffValues, i, k: int, times, x, v) -> np.ndarray:
    """Player i+1's per-path cost term at node k, c being the node-k view:
    h (x'Qx/2 + v'Rv/2 + x.m + v.nl) before the last node, x'Gx/2 at it.
    With several players i (a list, or slice(None) for all three, which
    takes the stacked tables without a copy), v holds one (N, n) control
    per player and the terms come one row per player."""
    if k == times.shape[0] - 1:
        return 0.5 * np.einsum("pi,...ij,pj->...p", x, c.G[i], x)
    h = times[k + 1] - times[k]
    return h * (0.5 * np.einsum("pi,...ij,pj->...p", x, c.Q[i], x)
                + 0.5 * np.einsum("...pi,...ij,...pj->...p", v, c.R[i], v)
                + np.einsum("pi,...i->...p", x, c.m[i])
                + np.einsum("...pi,...i->...p", v, c.nl[i]))


def mean_stderr(J: np.ndarray) -> tuple:
    """Mean of per-path values and its standard error, exactly 0 for one
    path or equal values (their J.std can round to a few ulp instead)."""
    spread = np.any(J != J[0])
    stderr = float(J.std(ddof=1) / np.sqrt(J.shape[0])) if spread else 0.0
    return float(J.mean()), stderr


def estimate_cost(spec: GameSpec, player: int, bundle: PathBundle,
                  seed: int = 0) -> CostEstimate:
    """Left-endpoint quadrature of the player's cost along stored paths."""
    times = bundle.times
    st = solver_times(spec)
    if times.shape != st.shape or not np.allclose(times, st):
        raise ValueError("path bundle grid does not match the spec grid")
    cv, i = CoeffValues(spec, times), player - 1
    x = bundle.x
    v = (bundle.v1, bundle.v2, bundle.v3)[i]
    K = times.shape[0] - 1
    J = np.zeros(x.shape[0])
    for k in range(K + 1):
        J += _node_cost(cv[k], i, k, times, x[:, k], v[:, k])
    mean, stderr = mean_stderr(J)
    return CostEstimate(player=player, mean=mean, stderr=stderr,
                        n_paths=J.shape[0], seed=seed, grid_steps=K)


def simulate_blocks(spec: GameSpec, law: FeedbackLaw, plan: NoisePlan,
                    n_paths: int, thin: int):
    """Simulate the equilibrium block by block of BLOCK_PATHS paths.

    Yields (start, records, J) per block, start being its first path index:
    records (paths, K // thin + 1, 15n) holds X, Xh, Xc, v1, v2, v3 at every
    thin-th node and J (3, paths) each player's cost, summed node by node
    as estimate_cost sums it.  Memory is one block's whatever n_paths is; a
    blow-up names its global path index.
    """
    times = law.times
    K = times.shape[0] - 1
    cv = CoeffValues(spec, times)
    nodes = [cv[k] for k in range(K + 1)]
    n = spec.n
    for start in range(0, n_paths, BLOCK_PATHS):
        N = min(start + BLOCK_PATHS, n_paths) - start
        records = np.empty((N, K // thin + 1, 15 * n))
        J = np.zeros((3, N))
        dW = plan.increments(np.arange(start, start + N))
        with _paths_from(start):
            for k, Z, V in _node_loop(spec, law, dW):
                if k % thin == 0:
                    records[:, k // thin, :12 * n] = Z
                    records[:, k // thin, 12 * n:] = V
                J += _node_cost(nodes[k], slice(None), k, times, Z[:, :n],
                                V.reshape(N, 3, n).transpose(1, 0, 2))
        del dW          # before the next block draws its increments
        yield start, records, J


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


class _Group:
    """One player's responses to D directions at one gain scale and their
    per-path cost polynomials J_d(eps) = J0 + eps Bc[d] + eps^2 Cc[d], added
    up node by node along the base run that a sweep's groups share.  The
    directions lead each response array, (D, N, ...); J0 and, for a
    gain_scale other than 1, the state xt re-simulated under the scaled
    follower gain (player 1 only) are one path per group.
    """

    def __init__(self, spec, bundle: RiccatiBundle, N: int, player: int,
                 gain_scale: float, paths, gains, offset):
        D, n = gains.shape[:2]
        self.player, self.gain_scale, self.bundle = player, gain_scale, bundle
        self.paths, self.gains, self.offset = paths, gains, offset
        self.xt = np.tile(spec.x0, (N, 1)) if gain_scale != 1.0 else None
        # the state's response, then the filtered states that re-respond: the
        # follower's for player 2, the middle player's 2n pair for player 3
        self.dx = np.zeros((D, N, n))
        self.dxc = np.zeros((D, N, n)) if player == 2 else None
        self.dX2h = self.dX2c = np.zeros((D, N, 2 * n)) if player == 3 else None
        self.J0, self.Bc, self.Cc = np.zeros(N), np.zeros((D, N)), np.zeros((D, N))

    def node(self, law: FeedbackLaw, c, k: int, Z, V, dW):
        """Add node k's cost terms; before the last node, step to node k+1.

        c is the node-k coefficient view; the block state Z = [X | Xh | Xc]
        and the controls V = [v1 | v2 | v3] are the shared base run at node k.
        """
        n, player, bundle, times = law.n, self.player, self.bundle, law.times
        Xc, own = Z[:, 8 * n:], player - 1
        v = [V[:, :n], V[:, n:2 * n], V[:, 2 * n:]]
        if self.xt is not None:
            v[0] = self.gain_scale * (Xc @ law.K1[k].T) + law.k1[k]
        xbase = Z[:, :n] if self.xt is None else self.xt
        dx, off = self.dx, None if self.offset is None else self.offset[k, :, None]

        # each direction's value, and the lower levels' response at this node
        dv = [None, None, None]
        dv[own] = dv_own = self.paths[:, k, None] + Xc[:, :n] @ self.gains
        if player == 2:
            dv[0] = _follower_control(bundle, c, k, self.dxc, off, False)
        elif player == 3:
            dv[0], dv[1], _ = _middle_controls(bundle, c, k, self.dX2h,
                                               self.dX2c, off, off, False)

        # accumulate the cost polynomials
        form = lambda a, M, b: np.einsum("...pi,ij,...pj->...p", a, M, b)
        self.J0 += _node_cost(c, own, k, times, xbase, v[own])
        if k == dW.shape[1]:
            self.Bc += form(xbase, c.G[own], dx)
            self.Cc += 0.5 * form(dx, c.G[own], dx)
            return
        h = times[k + 1] - times[k]
        Q, R, m, nl = c.Q[own], c.R[own], c.m[own], c.nl[own]
        self.Bc += h * (form(xbase, Q, dx) + form(v[own], R, dv_own)
                        + dx @ m + dv_own @ nl)
        self.Cc += h * (0.5 * form(dx, Q, dx) + 0.5 * form(dv_own, R, dv_own))

        # response dynamics (driven by the directions, multiplicative noise)
        dWk = dW[:, k]
        if player == 2:
            self.dxc = _follower_step(bundle, c, k, dWk, self.dxc, off,
                                      dv_own @ c.B[1].T, False)
        elif player == 3:
            self.dX2h, self.dX2c = _middle_step(bundle, k, dWk, self.dX2h,
                                                self.dX2c, off, off, dv_own,
                                                dv_own, False)
        self.dx = _state_step(c, times, k, dWk, dx, dv, False)
        if self.xt is not None:
            self.xt = _state_step(c, times, k, dWk, self.xt, v, True)


def _sweep_setup(spec, law: FeedbackLaw, bundle: RiccatiBundle, cases):
    """A sweep's path-independent part: the node coefficient views and per
    (player, gain_scale) group its directions, in case order, as paths
    (D, K+1, n) and transposed gains (D, n, n), zero where a direction has
    none, and its response offset (K+1, D, n), solved once."""
    cv = CoeffValues(spec, law.times)
    n, nodes = spec.n, law.times.shape[0]
    groups = {}
    for player, d, gain_scale in cases:
        if player != 1 and (d.kind != "deterministic" or gain_scale != 1):
            raise UnsupportedPerturbationError("feedback directions and the "
                                               "scaled gain test the follower only")
        paths, gains = groups.setdefault((player, gain_scale), ([], []))
        det = d.kind == "deterministic"
        paths.append(d.path if det else np.zeros((nodes, n)))
        gains.append(np.zeros((n, n)) if det else d.gain.T)
    for (player, gain_scale), (paths, gains) in groups.items():
        paths = np.stack(paths)
        offset = (_follower_offset(bundle, cv.B, paths, np.zeros_like(paths), False)
                  if player == 2 else
                  _middle_offset(bundle, paths, False) if player == 3 else None)
        groups[player, gain_scale] = (paths, np.stack(gains), offset)
    return [cv[k] for k in range(nodes)], groups


def _sweep_quadratics(spec, law: FeedbackLaw, bundle: RiccatiBundle, cases,
                      dW: np.ndarray, setup) -> list:
    """Per-path cost polynomial coefficients (J0, B, C) of J(eps) for each
    (player, direction, gain_scale) case, all on one base run driven by dW,
    one response group per (player, gain_scale); setup is the sweep's
    _sweep_setup."""
    nodes, groups = setup
    runs = {key: _Group(spec, bundle, dW.shape[0], *key, *group)
            for key, group in groups.items()}
    for k, Z, V in _node_loop(spec, law, dW):
        for run in runs.values():
            run.node(law, nodes[k], k, Z, V, dW)
    taken, out = Counter(), []      # a group's directions are in case order
    for player, _, gain_scale in cases:
        run, d = runs[player, gain_scale], taken[player, gain_scale]
        taken[player, gain_scale] += 1
        out.append((run.J0, run.Bc[d], run.Cc[d]))
    return out


def variational_sweep(spec: GameSpec, cases, epsilons, n_paths: int,
                      seed: int, law: FeedbackLaw, bundle: RiccatiBundle,
                      chunk: int = BLOCK_PATHS) -> list:
    """CRN perturbation sweep over many cases on one draw of the noise.

    cases is a list of (player, direction, gain_scale); one report per case,
    in order.  The chunk loop is outermost: each chunk of paths draws its
    increments once and runs one shared base closed loop that every response
    group follows, so the sweep holds one chunk of noise and, per case, the
    chunk's responses and three per-path vectors.
    """
    eps = sorted({float(e) for e in epsilons} | {0.0} |
                 {-float(e) for e in epsilons})
    times = solver_times(spec)
    plan = NoisePlan.from_seed(seed, np.diff(times))
    setup = _sweep_setup(spec, law, bundle, cases)

    def run(i0):  # frees each chunk's increments before drawing the next
        dW = plan.increments(np.arange(i0, min(i0 + chunk, n_paths)))
        with _paths_from(i0):
            return _sweep_quadratics(spec, law, bundle, cases, dW, setup)

    parts = [run(i0) for i0 in range(0, n_paths, chunk)]

    reports = []
    for i, (player, direction, _) in enumerate(cases):
        J0, B, C = (np.concatenate([part[i][j] for part in parts])
                    for j in range(3))
        costs = [CostEstimate(player, *mean_stderr(J0 + e * B + e * e * C),
                              n_paths, seed, times.shape[0] - 1) for e in eps]
        j0 = costs[eps.index(0.0)]
        curvature_ok = all(c.mean >= j0.mean - 3.0 * max(c.stderr, 1e-300)
                           for c in costs)
        slope0, slope_stderr = mean_stderr(B)
        reports.append(PerturbationReport(
            player=player, direction_id=direction.id, epsilons=tuple(eps),
            costs=tuple(costs), slope0=slope0, slope_stderr=slope_stderr,
            curvature_ok=curvature_ok))
    return reports


def variational_test(spec: GameSpec, player: int, direction: Direction,
                     epsilons, n_paths: int, seed: int,
                     law: FeedbackLaw | None = None,
                     bundle: RiccatiBundle | None = None,
                     gain_scale: float = 1.0,
                     chunk: int = BLOCK_PATHS) -> PerturbationReport:
    """CRN perturbation sweep for one player and one direction."""
    if law is None or bundle is None:
        from .closedloop import build_feedback
        from .riccati import solve_game
        bundle, offsets = solve_game(spec)
        law = build_feedback(bundle, offsets, spec)
    return variational_sweep(spec, [(player, direction, gain_scale)], epsilons,
                             n_paths, seed, law, bundle, chunk)[0]


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
    times = law.times
    dts = np.diff(times)
    tts = np.atleast_1d(np.asarray(target_times, dtype=float))
    kidx = [int(np.argmin(np.abs(times - t))) for t in tts]

    outer_plan = NoisePlan.from_seed(seed, dts)
    inner_plan = NoisePlan.from_seed(seed + 1, dts)
    frozen = (2,) if sigma_field == "G1" else (1, 2)
    # (target, its filter) as blocks of Z = [X | Xh | Xc]
    pairs = ((("X3", 0, 2), ("X3hat", 1, 2)) if sigma_field == "G1"
             else (("X3", 0, 1),))

    rows = []
    for j in range(n_outer):
        outer = outer_plan.increments([j])[0]          # (K, 3)
        dW = inner_plan.increments(np.arange(j * n_inner, (j + 1) * n_inner))
        for comp in frozen:
            dW[:, :, comp] = outer[:, comp]
        # only the target nodes are kept, not whole paths
        at = {k: np.split(Z, 3, axis=1)
              for k, Z, _ in _node_loop(spec, law, dW) if k in kidx}
        for name, tb, rb in pairs:
            for k, t in zip(kidx, tts):
                target, fv = at[k][tb], at[k][rb][0]
                mean = target.mean(axis=0)
                se = target.std(axis=0, ddof=1) / np.sqrt(n_inner)
                for c in range(mean.shape[0]):
                    rows.append(OracleRow(time=float(times[k]),
                                          sigma_field=sigma_field, target=name,
                                          component=c, filter_value=float(fv[c]),
                                          oracle_mean=float(mean[c]),
                                          oracle_stderr=float(se[c])))
    return rows

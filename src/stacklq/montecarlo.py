"""Streamed costs and the variational optimality tests.

The variational tests exploit linearity: under common random numbers the
Euler-discretized paths respond affinely to a deterministic control
perturbation (a direction's path on the grid), so one base run plus one
response run per direction determines every perturbed cost exactly as a
quadratic polynomial in the perturbation size.  The
reported central-difference slope coincides with the polynomial's linear
coefficient, and its standard error comes from the per-path linear terms
(classical CRN variance reduction).

`variational_sweep` tests players against directions with the chunk loop
outermost: each chunk of paths draws its Brownian increments once and steps
one base closed loop of the law it is handed, whose costs it sums once for
all players, and along it one response group per player, which advances
all the directions as one state and their eps terms.  Its tables are a `LinearStep`, the law's form, stepped by the same
`advance` and built once per sweep in closed form from the solved bundle by
closedloop's `_euler_step`, as Z's are: the homogeneous best response of
the levels below the player, whose feedback on their filtered states folds
into the drift, and each direction's drive from its path and the offset it
drives, solved by riccati's `backward_rk4`.  No increment row is drawn
twice however many players and directions share the seed.  The sabotaged
law of `verify --sabotage-gains` is swept like any other.
Each (player, direction) gets one `PerturbationReport`: the mean cost and its
standard error at each epsilon, and the slope with its own; verify judges it.

`simulate_blocks`, the package's one path simulator, streams the equilibrium
for `stacklq simulate` block by block of paths, one block alive at a time,
keeping every thin-th node and each player's running cost, so no full path
is stored.  Both read their cost weights off the law's Euler cost table
`law.cost` and build none.  Both iterate closedloop's `batches`, which
draws each block or chunk, pads a short one and hands out its node loop,
named by the global path index in a blow-up, so each path's records, costs
and eps terms are bit for bit those it has inside a full block.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .closedloop import (BLOCK_PATHS, CHUNK_PATHS, FeedbackLaw, LinearStep,
                         _euler_step, batches)
from .lift import Family, block, mv
from .model import GameSpec, solver_times
from .riccati import RiccatiBundle, backward_rk4
from .rng import NoisePlan


@dataclass(frozen=True)
class Direction:
    """A perturbation direction for the variational tests: the deterministic
    control perturbation path (K+1, n) sampled on the grid."""

    id: str
    path: np.ndarray


@dataclass(frozen=True)
class PerturbationReport:
    player: int
    direction_id: str
    epsilons: tuple
    means: tuple            # mean cost at each epsilon, same order
    stderrs: tuple          # its standard error
    slope0: float
    slope_stderr: float


def _node_cost(cost: Family, k: int, Z, V) -> np.ndarray:
    """The three players' per-path cost terms (3, N) at node k along the
    block state Z (12n, N) and controls V = [v1 | v2 | v3] (3n, N), from the
    law's Euler cost table: player i's is h (x'Wx x/2 + v_i'Wv v_i/2 + wx.x
    + wv.v_i) on node k's row, x'G_i x/2 at the last node."""
    x, v = Z[:len(V) // 3], V.reshape(3, -1, V.shape[-1])
    Wx, Wv, wx, wv = cost.Wx[k], cost.Wv[k], cost.wx[k], cost.wv[k]
    return cost.h[k] * (0.5 * np.einsum("ip,...ij,jp->...p", x, Wx, x)
                        + 0.5 * np.einsum("...ip,...ij,...jp->...p", v, Wv, v)
                        + np.einsum("ip,...i->...p", x, wx)
                        + np.einsum("...ip,...i->...p", v, wv))


def mean_stderr(J: np.ndarray) -> tuple:
    """Mean of per-path values and its standard error, exactly 0 for one
    path or equal values (their J.std can round to a few ulp instead)."""
    spread = np.any(J != J[0])
    stderr = float(J.std(ddof=1) / np.sqrt(J.shape[0])) if spread else 0.0
    return float(J.mean()), stderr


def simulate_blocks(spec: GameSpec, law: FeedbackLaw, plan: NoisePlan,
                    n_paths: int, thin: int):
    """Simulate the equilibrium block by block of BLOCK_PATHS paths.

    Yields (start, records, J) per block, start being its first path index:
    records (paths, K // thin + 1, 15n) holds X, Xh, Xc, v1, v2, v3 at every
    thin-th node and J (3, paths) each player's cost, the package's one
    cost sum.  Each block's arrays are new, and the generator lets go of
    them once yielded, so memory is one reused (K, 3, BLOCK_PATHS)
    increment buffer (12.3 MB at K = 500) plus the records of the block a
    consumer holds, whatever n_paths is; a blow-up names its global path
    index.
    """
    K, n = law.times.shape[0] - 1, law.n
    for start, N, dW, nodes in batches(spec, law, plan, n_paths, BLOCK_PATHS):
        records = np.empty((N, K // thin + 1, 15 * n))
        J = np.zeros((3, N))
        for k, Z, V in nodes:
            if k % thin == 0:
                records[:, k // thin, :12 * n] = Z[:, :N].T
                records[:, k // thin, 12 * n:] = V[:, :N].T
            J += _node_cost(law.cost, k, Z, V)[:, :N]
        yield start, records, J
        del records, J      # a block's records are not held while the next is drawn


# ---------------------------------------------------------------------------
# fused base + response runner
# ---------------------------------------------------------------------------

def default_directions(spec: GameSpec) -> list:
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
    return [Direction(name, np.outer(s, e)) for name, s in shapes.items()]


def _offset_backward(times, coef, driver, what):
    """RK4 for -y' = coef y + driver, y(T) = 0, with node-tabulated inputs
    averaged over each step; a driver (D, K+1, d) gives D solutions at once,
    as (K+1, D, d)."""
    CmT = (0.5 * (coef[1:] + coef[:-1])).mT
    dm = 0.5 * (driver[..., 1:, :] + driver[..., :-1, :])
    return backward_rk4(lambda k, j, y: (-(y[0] @ CmT[k - 1] + dm[..., k - 1, :]),),
                        (np.zeros_like(driver[..., 0, :]),), times, what)[0]


def _group_tables(bundle: RiccatiBundle, player, paths) -> LinearStep:
    """A group's LinearStep (see _Group) in closed form from the solved
    bundle: the homogeneous best response of the levels below player to
    each direction's path (D, K+1, n) of its control.  The lower levels'
    feedback on their filtered states is folded into the drift; their
    feedback on the offset a direction drives, solved once here, and the
    direction's own control make its drive.  The loads are masked as each
    filter observes."""
    times, cv, p = bundle.times, bundle.cv, bundle.p
    n = p.shape[-1]
    A, C, (B1, B2, B3) = cv.A, cv.C, cv.B
    dv = paths.swapaxes(0, 1)       # (K+1, D, n)
    if player == 1:                 # [dx]
        M, drive, blocks = A, dv @ B1.mT, [(0, C, None)]
    elif player == 2:               # [dx | dxc]: v1 = -R1^-1 B1' (p dxc + phi)
        l1 = bundle.l1
        phi = _offset_backward(times, l1.Abar.mT, mv(p, mv(B2, paths)),
                               "follower offset")
        M = block([[A, l1.F1bar @ p], [np.zeros((n, n)), l1.Abar]])
        drive = np.tile(phi @ l1.F1bar.mT + dv @ B2.mT, 2)
        blocks = [(0, C, None), (2, C, None)]
    else:       # [dx | dX2h | dX2c]: v2 = K2h dX2h + K2c dX2c + k2 Phi and
        # v1 = K1 dX2c + k1 s2 Phi, fed the follower offset filter
        l2, cl, P1, P2 = bundle.l2, bundle.l2cl, bundle.P1, bundle.P2
        Phi = _offset_backward(times, (cl.ddA1 + cl.ddA2 + cl.ddA3).mT,
                               mv(cl.va + cl.vc, paths), "middle offset")
        s2 = np.eye(n, 2 * n, n)
        k1, k2 = -cv.Rinv[0] @ B1.mT, -cv.Rinv[1] @ l2.calB2.mT
        K1 = k1 @ (p @ np.eye(n, 2 * n) + s2 @ (P1 + P2))
        K2h, K2c = k2 @ P1, k2 @ P2 - cv.Rinv[1] @ l2.calF2
        ddA12, O = cl.ddA1 + cl.ddA2, np.zeros((2 * n, n))
        M = block([[A, B2 @ K2h, B1 @ K1 + B2 @ K2c], [O, ddA12, cl.ddA3],
                   [O, np.zeros((2 * n, 2 * n)), ddA12 + cl.ddA3]])
        on_Phi = np.concatenate([B1 @ k1 @ s2 + B2 @ k2, cl.ddF1, cl.ddF1], axis=-2)
        on_dv = np.concatenate([B3, l2.calB3, l2.calB3], axis=-2)
        drive = Phi @ on_Phi.mT + dv @ on_dv.mT
        blocks = [(0, C, None), (1, l2.calC, None), (2, l2.calC, None)]
    return _euler_step(times, M, drive, blocks)


class _Group:
    """One player's responses to D directions and the eps terms of their
    per-path cost polynomials J_d(eps) = J0 + eps Bc[d] + eps^2 Cc[d], added
    up node by node along the base run, whose J0 the sweep sums for all, on
    the player's row of the law's cost table `law.cost`.

    state (D, w, N) holds the responses as columns of [dx] (player 1), [dx |
    dxc] (player 2) or [dx | dX2h | dX2c] (player 3), one block per
    direction, stepped on the group's LinearStep `step`, whose c[k] (D, w, 1)
    is each direction's drive.  dv (D, K+1, n) holds the directions' paths.
    A still group, whose drive is all exact zeros (as when its player's B is
    0), keeps state = 0: it is never stepped and its costs take only the dv
    terms.
    """

    def __init__(self, N: int, player: int, dv, step: LinearStep):
        self.dv, self.step, self.player = dv, step, player
        self.still = not np.any(step.c)
        D = len(dv)
        self.state = np.zeros((D, step.F.shape[-1], N))
        self.Bc, self.Cc2 = np.zeros((D, N)), np.zeros((D, N))

    def node(self, law: FeedbackLaw, k: int, Z, V, dW, first: int):
        """Add node k's eps and eps^2 terms; before the last node, step to k+1.

        The block state Z = [X | Xh | Xc] and the controls V = [v1 | v2 | v3]
        are the shared base run at node k on dW, whose first path is path
        `first`.
        """
        n, own, K = law.n, self.player - 1, dW.shape[0]
        x, vown = Z[:n], V[own * n:(own + 1) * n]

        # each direction's value and the response dx contract with the
        # player's row of the law's cost table, scaled by the node's h
        dv, dx = self.dv[:, k], self.state[:, :n]
        c, h = law.cost, law.cost.h[k]
        Wx, wx = h * c.Wx[k, own], h * c.wx[k, own][:, None]
        Wv, wv = h * c.Wv[k, own], h * c.wv[k, own][:, None]
        Bx, Cx = ((0.0, 0.0) if self.still else
                  (np.einsum("dip,ip->dp", dx, Wx.mT @ x + wx),
                   np.einsum("dip,ij,djp->dp", dx, Wx, dx)))
        self.Bc += Bx + np.einsum("di,ip->dp", dv, Wv.mT @ vown + wv)
        self.Cc2 += Cx + np.einsum("di,ij,dj->d", dv, Wv, dv)[:, None]
        if k < K and not self.still:
            self.state = self.step.advance(k, self.state, dW[k],
                                           float(law.times[k + 1]),
                                           "response state", first)


def variational_sweep(spec: GameSpec, players, directions, epsilons,
                      n_paths: int, seed: int, law: FeedbackLaw,
                      bundle: RiccatiBundle) -> list:
    """CRN perturbation sweep of players against directions on one draw of
    the noise, along the closed loop of law.

    One report per (player, direction), player by player, each player's in
    direction order.  The chunk loop is outermost: each chunk of CHUNK_PATHS
    paths draws its increments once, into one reused buffer, and runs one
    base closed loop that every player's response group follows, so the
    sweep holds that buffer and, per group, the chunk's responses and
    per-path cost vectors.
    """
    eps = sorted({float(e) for e in epsilons} | {0.0} |
                 {-float(e) for e in epsilons})
    paths = np.stack([d.path for d in directions])
    steps = [_group_tables(bundle, player, paths) for player in players]
    parts = []
    for start, N, dW, nodes in batches(spec, law, NoisePlan.for_spec(spec, seed),
                                       n_paths, CHUNK_PATHS):
        groups = [_Group(dW.shape[-1], player, paths, step)
                  for player, step in zip(players, steps)]
        J = np.zeros((3, dW.shape[-1]))     # the base run's, every player's
        for k, Z, V in nodes:
            J += _node_cost(law.cost, k, Z, V)
            for group in groups:
                group.node(law, k, Z, V, dW, start)
        parts.append([(J[g.player - 1, :N], g.Bc[:, :N], 0.5 * g.Cc2[:, :N])
                      for g in groups])
        groups = group = None   # a chunk's responses go before the next is drawn

    reports = []
    for i, player in enumerate(players):
        J0 = np.concatenate([part[i][0] for part in parts])
        for d, direction in enumerate(directions):
            B, C = (np.concatenate([part[i][j][d] for part in parts])
                    for j in (1, 2))
            with np.errstate(over="ignore", invalid="ignore"):  # inf is judged
                means, stderrs = zip(*(mean_stderr(J0 + e * B + e * e * C)
                                       for e in eps))
            slope0, slope_stderr = mean_stderr(B)
            reports.append(PerturbationReport(
                player=player, direction_id=direction.id, epsilons=tuple(eps),
                means=means, stderrs=stderrs, slope0=slope0,
                slope_stderr=slope_stderr))
    return reports

"""Backward integration of the solver's matrix ODE ladder.

The ladder, the follower gain p (n x n), the middle pair P1/P2 (2n x 2n), the
top triple Pf1/Pf2/Pf3 (4n x 4n) and the affine offset Omega (4n), is
block-triangular: p needs nothing above it, P1/P2 need p, and Pf1-Pf3 and
Omega need p, P1 and P2.  RK4 of a triangular system is RK4 of each level in
turn, so each level is one classical fourth-order pass over the grid (the
uniform one refined with every coefficient breakpoint) whose operands are
built once, from the stage states the passes below recorded, on the (step,
stage) rows; every stage reads its step's midpoint coefficients.
`backward_rk4` is the package's one RK4 loop, with one blow-up guard: it
runs these passes and the response offsets in `closedloop`.

One Riccati form, six instances: dP/dt = -(P M + M^T P + P S P + Q +
sum_i C_i^T P_(i) C_i), `_riccati`, holds for p and for each level's
cumulative sums, P1 and P1+P2 at 2n, Pf1, Pf1+Pf2 and Pf1+Pf2+Pf3 at 4n, as
one call per level on operands stacked (L, d, d).  The loads mirror the
nested information: channel i loads the sum of the finest level that
observes it, capped at the instance's own (at 2n channels 1 and 2 stop at
P1).  Omega is the last instance's affine part.  The RK4 state keeps the
blocks, so P2' = R(P1+P2) - R(P1), and likewise for Pf2 and Pf3.  The level
functions take one node or a leading row axis, so the residual diagnostic
calls them once on the table of interior nodes.

Offsets: with deterministic coefficients the offset backward SDEs admit
deterministic solutions with zero martingale integrands and with all
conditional-expectation decorations equal to the process itself, so Omega
collapses to a linear backward ODE.  The lower levels' offsets are blocks of
Omega under the stacking ansatz: the middle level's 2n offset its lower half,
the follower's n offset its last quarter.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import BlowUpError, ConsistencyError
from .lift import (CoeffValues, Family, bdiag, level1_at, level2_at,
                   level2_closedloop_at, level3_at, mv)
from .model import GameSpec, solver_times

BLOWUP_LIMIT = 1e12
P_ASYM_TOL = 1e-9
CHUNK_ROWS = 256    # RK4 stage rows (64 steps) whose level operands are built at once


@dataclass(frozen=True)
class MatrixTrajectory:
    """A matrix- or vector-valued function sampled on the solver grid."""

    times: np.ndarray
    values: np.ndarray  # (K+1, ...) one value per node

    @property
    def terminal(self):
        return self.values[-1]


@dataclass(frozen=True)
class RiccatiBundle:
    times: np.ndarray
    p: MatrixTrajectory
    P1: MatrixTrajectory
    P2: MatrixTrajectory
    Pf1: MatrixTrajectory
    Pf2: MatrixTrajectory
    Pf3: MatrixTrajectory
    l1: Family
    l2: Family
    l2cl: Family
    l3: Family


@dataclass(frozen=True)
class OffsetBundle:
    times: np.ndarray
    Omega: MatrixTrajectory      # 4n


# ---------------------------------------------------------------------------
# right-hand sides (backward equations written as dM/dt = f(t, M, ...))
# ---------------------------------------------------------------------------

def _riccati(blocks, M, S, Q, C, loads):
    """The instances P, cumulative sums of the blocks on the third-last axis,
    and the blocks' derivatives from -(P M + M^T P + P S P + Q + sum_i C_i^T
    P[loads[i]] C_i), with C (..., 3, 1, d, d) stacking the channels."""
    P = blocks.cumsum(axis=-3)
    terms = C.mT @ P[..., loads, :, :] @ C
    R = -(P @ M + M.mT @ P + P @ S @ P + Q + terms[..., 0, :, :, :]
          + terms[..., 1, :, :, :] + terms[..., 2, :, :, :])
    dB = R.copy()
    dB[..., 1:, :, :] -= R[..., :-1, :, :]
    return P, dB


def _level_rhs(ops, y, loads):
    """Derivatives of a level's state: its blocks, and at the top Omega, the
    last instance's affine part, with drift (Mc + S Pf123)^T."""
    P, dB = _riccati(y[0], *ops[:4], loads)
    if len(y) == 1:
        return (dB,)
    M, S, _, C, Sig, b, f, g = ops
    Pc = P[..., 2, :, :]
    s = mv(C[..., 0, :, :].mT, mv(P[..., loads[:, -1], :, :], Sig))
    src = s[..., 0, :] + s[..., 1, :] + s[..., 2, :] + mv(Pc, b) + f - g
    return dB, -(mv(M[..., 2, :, :].mT + Pc @ S[..., 2, :, :], y[1]) + src)


def _instances(*Ms):
    return np.stack(Ms, axis=-3)


def _level_ops(cv, *lower):
    """Operands of the level above `lower` (M, S, Q and C by instance, then
    Omega's sources) on one node or a leading row axis: they depend on the
    levels below it only."""
    if not lower:
        return (_instances(cv.A), _instances(-(cv.B[0] @ cv.Rinv[0] @ cv.B[0].mT)),
                _instances(cv.Q[0]), _instances(*cv.C)[..., None, :, :])
    l2 = level2_at(cv, level1_at(cv, lower[0][..., 0, :, :]))
    if len(lower) == 1:
        R2, cB2, cF2 = cv.Rinv[1], l2.calB2, l2.calF2
        RF2 = R2 @ cF2
        ddF1 = l2.calF1 - cB2 @ R2 @ cB2.mT          # the closed loop's, free of P
        return (_instances(l2.calA1, l2.calA1 + l2.calA2 - cB2 @ RF2),
                _instances(ddF1, ddF1), _instances(l2.calQ2, l2.calQ2 - cF2.mT @ RF2),
                _instances(l2.calC1, l2.calC2, l2.calC3)[..., None, :, :])
    P = lower[1]
    l3 = level3_at(cv, l2, level2_closedloop_at(cv, l2, P[..., 0, :, :],
                                                P[..., 1, :, :]))
    R3, B, Fa, A12 = cv.Rinv[2], l3.frakB3, l3.Fa, l3.frakA1 + l3.frakA2
    Fab, Q3, Rn3 = Fa + l3.Fb, l3.frakQ3 + l3.frakQ3dd, mv(R3, cv.nl[2])
    RFa, RFab, BRB = R3 @ Fa, R3 @ Fab, B @ R3 @ B.mT
    S = l3.frakF1dd - BRB
    return (_instances(l3.frakA1 - B @ RFa, A12 - B @ RFa, A12 + l3.frakA3 - B @ RFab),
            _instances(l3.frakF1bar - BRB, S, S),
            _instances(l3.frakQ3 - Fa.mT @ RFa, Q3 - Fa.mT @ RFa, Q3 - Fab.mT @ RFab),
            _instances(l3.frakC1, l3.frakC2, l3.frakC3)[..., None, :, :],
            np.stack((l3.Sigma1, l3.Sigma2, l3.Sigma3), axis=-2),
            l3.ddb3 - mv(B, Rn3), l3.ddf3, mv(Fab.mT, Rn3))


# The loads by level (p; P1, P2; Pf1, Pf2, Pf3): channel i of instance l loads
# instance LOADS[i][l], the sum of the finest level that observes channel i,
# capped at the instance's own.
_LOADS = (np.array(((0,), (0,), (0,))), np.array(((0, 0), (0, 0), (0, 1))),
          np.array(((0, 0, 0), (0, 1, 1), (0, 1, 2))))


def terminal_state(spec: GameSpec):
    """The ladder's terminal values; the only builder of calG2 and frakG3."""
    n = spec.n
    G1, G2, G3 = (player.G for player in spec.costs.players)
    z, z2, z4 = (np.zeros((d, d)) for d in (n, 2 * n, 4 * n))
    return (G1.copy(), bdiag(G2, z), z2, bdiag(bdiag(G3, z), z2), z4, z4,
            np.zeros(4 * n))


def _level_states(p, P1, P2, Pf1, Pf2, Pf3, Om):
    """The ladder's arrays (p, P1, ..., Omega) as the three levels' states."""
    return ((_instances(p),), (_instances(P1, P2),), (_instances(Pf1, Pf2, Pf3), Om))


def _ladder_rhs(cv, state):
    """Derivatives of (p, P1, P2, Pf1, Pf2, Pf3, Omega) on one node or a node
    table: the three level functions, each fed the levels below it."""
    ders, lower = [], []
    for loads, y in zip(_LOADS, _level_states(*state)):
        blocks, *rest = _level_rhs(_level_ops(cv, *lower), y, loads)
        ders += list(np.moveaxis(blocks, -3, 0)) + rest
        lower.append(y[0])
    return ders


def _axpy(state, ders, a):
    return tuple(s + a * d for s, d in zip(state, ders))


def backward_rk4(rhs, terminal, times, what, fix=lambda y: y, stop=0):
    """Classical RK4 run backward from the terminal tuple of arrays.

    rhs(k, j, y) gives the derivatives of y at stage j of the step from node k
    down to node k-1, at time t_k - (0, 1/2, 1/2, 1)[j] h.  fix(y) runs after
    each step and every new state is checked for blow-up.  Steps run down to
    node `stop`; returns (K+1-stop, ...) arrays.
    """
    K = times.shape[0] - 1
    y = tuple(terminal)
    hist = [y]                          # node K first
    for k in range(K, stop, -1):
        h = times[k] - times[k - 1]
        k1 = rhs(k, 0, y)
        k2 = rhs(k, 1, _axpy(y, k1, -0.5 * h))
        k3 = rhs(k, 2, _axpy(y, k2, -0.5 * h))
        k4 = rhs(k, 3, _axpy(y, k3, -h))
        incr = [d1 + 2.0 * d2 + 2.0 * d3 + d4
                for d1, d2, d3, d4 in zip(k1, k2, k3, k4)]
        y = fix(_axpy(y, incr, -h / 6.0))
        for s in y:
            if not np.abs(s).max(initial=0.0) <= BLOWUP_LIMIT:   # NaN fails too
                raise BlowUpError(what, times[k - 1])
        hist.append(y)
    return [np.array(traj[::-1]) for traj in zip(*hist)]


def _solve_levels(spec: GameSpec, depth):
    """Backward RK4 of the ladder's first `depth` levels, one pass per level,
    each reading the stage states the passes below it recorded, on rows that
    run step K's four stages first.  A blow-up ends every higher pass at its
    step, so the one raised is the latest in time."""
    times = solver_times(spec)
    K = times.shape[0] - 1
    mid = CoeffValues(spec, 0.5 * (times[1:] + times[:-1]))
    terminals = _level_states(*terminal_state(spec))
    max_asym, stop, error, lower, arrays = 0.0, 0, None, [], []

    def symmetric_p(y):
        # keep the follower gain exactly symmetric; track the drift it had
        nonlocal max_asym
        max_asym = max(max_asym, np.abs(y[0] - y[0].mT).max(initial=0.0))
        return (0.5 * (y[0] + y[0].mT),)

    for i, loads in enumerate(_LOADS[:depth]):
        m, ops = 4 * (K - stop), {}
        seen = np.empty((m,) + terminals[i][0].shape) if i + 1 < depth else None

        def stage(k, j, y):
            r = 4 * (K - k) + j
            c, q = divmod(r, CHUNK_ROWS)
            if c not in ops:                # a chunk's first stage builds its operands
                ops.clear()
                end = min(r + CHUNK_ROWS, m)      # row r is step K - r // 4
                ops[c] = _level_ops(mid[K - 1 - np.arange(r, end) // 4],
                                    *(s[r:end] for s in lower))
            if seen is not None:
                seen[r] = y[0]
            return _level_rhs(tuple(o[q] for o in ops[c]), y, loads)

        try:
            arrays += backward_rk4(stage, terminals[i], times, "riccati system",
                                   symmetric_p if i == 0 else (lambda y: y), stop)
        except BlowUpError as exc:
            error, stop = exc, int(np.searchsorted(times, exc.t)) + 1
        lower.append(seen)
    if error is not None:
        raise error
    if max_asym > P_ASYM_TOL:
        raise ConsistencyError(f"follower gain asymmetry {max_asym:.3e} exceeds "
                               f"{P_ASYM_TOL:g}")
    return times, arrays


# ---------------------------------------------------------------------------
# public operations
# ---------------------------------------------------------------------------

def solve_p(spec: GameSpec) -> MatrixTrajectory:
    """Follower Riccati gain; terminal value is the follower's terminal weight."""
    times, (p,) = _solve_levels(spec, 1)
    return MatrixTrajectory(times, p[:, 0])


def solve_game(spec: GameSpec):
    """Full ladder, level by level: RiccatiBundle plus OffsetBundle."""
    times, (p, P, Pf, Om) = _solve_levels(spec, 3)
    p, P1, P2, Pf1, Pf2, Pf3, Om = (MatrixTrajectory(times, a) for a in (
        p[:, 0], P[:, 0], P[:, 1], Pf[:, 0], Pf[:, 1], Pf[:, 2], Om))
    cv = CoeffValues(spec, times)
    l1 = level1_at(cv, p.values)
    l2 = level2_at(cv, l1)
    l2cl = level2_closedloop_at(cv, l2, P1.values, P2.values)
    l3 = level3_at(cv, l2, l2cl)
    bundle = RiccatiBundle(times=times, p=p, P1=P1, P2=P2, Pf1=Pf1, Pf2=Pf2,
                           Pf3=Pf3, l1=l1, l2=l2, l2cl=l2cl, l3=l3)
    return bundle, OffsetBundle(times, Om)


# ---------------------------------------------------------------------------
# residual diagnostics
# ---------------------------------------------------------------------------

def riccati_residuals(spec: GameSpec, bundle: RiccatiBundle,
                      offsets: OffsetBundle) -> dict:
    """Max centered-difference residual of every solved backward equation.

    For order-4 trajectories the centered difference carries an O(h^2)
    truncation error, so residuals should scale like C h^2 on constant
    coefficients.
    """
    times, names = bundle.times, ("p", "P1", "P2", "Pf1", "Pf2", "Pf3")
    vals = [getattr(bundle, f).values for f in names] + [offsets.Omega.values]
    ders = _ladder_rhs(CoeffValues(spec, times[1:-1]), [v[1:-1] for v in vals])
    dt = times[2:] - times[:-2]
    out = {}
    for name, v, d in zip(names + ("Omega",), vals, ders):
        num = (v[2:] - v[:-2]) / dt.reshape((-1,) + (1,) * (v.ndim - 1))
        out[name] = float(np.abs(num - d).max(initial=0.0))
    return out

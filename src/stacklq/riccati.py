"""Backward integration of the solver's matrix ODE ladder.

The ladder, the follower gain p (n x n), the middle pair P1/P2 (2n x 2n), the
top triple Pf1/Pf2/Pf3 (4n x 4n) and the affine offset Omega (4n), is
block-triangular: p needs nothing above it, P1/P2 need p, and Pf1-Pf3 and
Omega need p, P1 and P2.  RK4 of a triangular system is RK4 of each level in
turn, so each level is one classical fourth-order pass over the grid (the
uniform one refined with every coefficient breakpoint) whose operands are
built once, from the stage states the passes below recorded, on the (step,
stage) rows; every stage of step k reads row k of the grid's table.
`backward_rk4` is the package's one RK4 loop, with one blow-up guard: it
runs these passes and the sweep's response offsets in `montecarlo`.

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

`solve_game`, the one entry point, builds the grid's one coefficient table
`cv`, which the ladder and every later consumer read, and returns it and
the levels, (K+1, d, d) arrays, on one RiccatiBundle, and Omega (K+1, 4n).
No equation of the ladder reads an intercept (b, sigma_i, m_i or n_i) but
Omega's, so a spec with them zeroed solves to the same levels.

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
from .lift import (CoeffValues, Family, block, level1_at, level2_at,
                   level2_closedloop_at, level3_at, mv)
from .model import BLOWUP_LIMIT, GameSpec, solver_times

P_ASYM_TOL = 1e-9
CHUNK_ROWS = 256    # RK4 stage rows (64 steps) whose level operands are built at once
LEVELS = ("p", "P1", "P2", "Pf1", "Pf2", "Pf3")     # RiccatiBundle's arrays, in ladder order


@dataclass(frozen=True)
class RiccatiBundle:
    """The solved levels, one (K+1, d, d) array each, the lifted families
    and the coefficient table `cv` on the solver grid `times`, all read-only."""

    times: np.ndarray
    cv: CoeffValues
    p: np.ndarray
    P1: np.ndarray
    P2: np.ndarray
    Pf1: np.ndarray
    Pf2: np.ndarray
    Pf3: np.ndarray
    l1: Family
    l2: Family
    l2cl: Family
    l3: Family


# ---------------------------------------------------------------------------
# right-hand sides (backward equations written as dM/dt = f(t, M, ...))
# ---------------------------------------------------------------------------

def _riccati(blocks, M, S, Q, C, loads):
    """The instances P, cumulative sums of the blocks on the third-last axis,
    and the blocks' derivatives from -(P M + M^T P + P S P + Q + sum_i C_i^T
    P[loads[i]] C_i), with C (..., c, 1, d, d) stacking the channels, all
    three or those that load, added in channel order."""
    P = blocks.cumsum(axis=-3)
    R = P @ M + M.mT @ P + P @ S @ P + Q
    R = sum((C.mT @ P[..., loads, :, :] @ C).swapaxes(0, -4), R)
    dB = -R
    dB[..., 1:, :, :] += R[..., :-1, :, :]
    return P, dB


def _level_rhs(ops, y, loads):
    """Derivatives of a level's state: its blocks, and at the top Omega, the
    last instance's affine part, with drift (Mc + S Pf123)^T."""
    P, dB = _riccati(y[0], *ops[:4], loads)
    if len(y) == 1:
        return (dB,)
    M, S, _, C, Sig, b, f, g = ops
    Pc = P[..., 2, :, :]
    s = sum(mv(C[..., 0, :, :].mT, mv(P[..., loads[:, -1], :, :], Sig))
            .swapaxes(0, -2), -0.0)     # x + -0.0 is x: the sum of no channel
    src = s + mv(Pc, b) + f - g
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
                _instances(*l2.calC)[..., None, :, :])
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
            _instances(*l3.frakC)[..., None, :, :], np.stack(tuple(l3.Sigma), axis=-2),
            l3.ddb3 - mv(B, Rn3), l3.ddf3, mv(Fab.mT, Rn3))


# The loads by level (p; P1, P2; Pf1, Pf2, Pf3): channel i of instance l loads
# instance LOADS[i][l], the sum of the finest level that observes channel i,
# capped at the instance's own.
_LOADS = (np.array(((0,), (0,), (0,))), np.array(((0, 0), (0, 0), (0, 1))),
          np.array(((0, 0, 0), (0, 1, 1), (0, 1, 2))))


def terminal_state(spec: GameSpec):
    """The ladder's terminal values (p, P1, P2, Pf1, Pf2, Pf3, Omega); the only
    builder of calG2 and frakG3, G2 and G3 in their upper-left blocks."""
    n = spec.n
    G1, G2, G3 = spec.G
    z, z2, z4 = (np.zeros((d, d)) for d in (n, 2 * n, 4 * n))
    calG3 = block([[G3, z], [z, z]])
    return (G1.copy(), block([[G2, z], [z, z]]), z2,
            block([[calG3, z2], [z2, z2]]), z4, z4, np.zeros(4 * n))


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


@np.errstate(over="ignore", invalid="ignore")
def backward_rk4(rhs, terminal, times, what, fix=lambda y: y, stop=0):
    """Classical RK4 run backward from the terminal tuple of arrays.

    rhs(k, j, y) gives the derivatives of y at stage j of the step from node k
    down to node k-1, at time t_k - (0, 1/2, 1/2, 1)[j] h.  fix(y) runs after
    each step and every new state is checked for blow-up.  Steps run down to
    node `stop`; returns (K+1-stop, ...) arrays.  A step that overflows is
    that blow-up, not a warning: its inf and NaN fail the check.
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


def _solve_levels(spec: GameSpec, cv: CoeffValues):
    """Backward RK4 of the ladder's three levels on the grid of the table cv,
    one pass per level, each reading the stage states the passes below it
    recorded, on rows that run step K's four stages first.  A blow-up ends
    every higher pass at its step, so the one raised is the latest in time."""
    times = cv.t
    K = times.shape[0] - 1
    terminals = _level_states(*terminal_state(spec))
    max_asym, stop, error, lower, arrays = 0.0, 0, None, [], []

    def symmetric_p(y):
        # keep the follower gain exactly symmetric; track the drift it had
        nonlocal max_asym
        max_asym = max(max_asym, np.abs(y[0] - y[0].mT).max(initial=0.0))
        return (0.5 * (y[0] + y[0].mT),)

    for i, loads in enumerate(_LOADS):
        m, ops = 4 * (K - stop), {}
        seen = (np.empty((m,) + terminals[i][0].shape)
                if i + 1 < len(_LOADS) else None)

        def stage(k, j, y):
            r = 4 * (K - k) + j
            c, q = divmod(r, CHUNK_ROWS)
            if c not in ops:                # a chunk's first stage builds its operands
                ops.clear()
                end = min(r + CHUNK_ROWS, m)      # row r is step K - r // 4
                o = list(_level_ops(cv[K - 1 - np.arange(r, end) // 4],
                                    *(s[r:end] for s in lower)))
                # the channels whose C loads on the chunk: C, Sigma, loads rows
                live = np.any(o[3], axis=(0, 2, 3, 4))
                o[3:5] = (a[:, live] for a in o[3:5])
                ops[c] = o, loads[live]
            if seen is not None:
                seen[r] = y[0]
            o, live_loads = ops[c]
            return _level_rhs(tuple(a[q] for a in o), y, live_loads)

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
    return arrays


# ---------------------------------------------------------------------------
# public operations
# ---------------------------------------------------------------------------

def solve_game(spec: GameSpec):
    """Full ladder, level by level, on the grid table cv built first: the
    RiccatiBundle, its families read off cv and, like cv's, its arrays
    read-only, and Omega (K+1, 4n), read-only too."""
    cv = CoeffValues(spec, solver_times(spec))
    times, (p, P, Pf, Omega) = cv.t, _solve_levels(spec, cv)
    p, P1, P2, Pf1, Pf2, Pf3 = p[:, 0], P[:, 0], P[:, 1], Pf[:, 0], Pf[:, 1], Pf[:, 2]
    l1 = level1_at(cv, p)
    l2 = level2_at(cv, l1)
    l2cl = level2_closedloop_at(cv, l2, P1, P2)
    l3 = level3_at(cv, l2, l2cl)
    for arr in (times, p, P1, P2, Pf1, Pf2, Pf3, Omega, *l1.values(),
                *l2.values(), *l2cl.values(), *l3.values()):
        arr.flags.writeable = False
    return RiccatiBundle(times=times, cv=cv, p=p, P1=P1, P2=P2, Pf1=Pf1,
                         Pf2=Pf2, Pf3=Pf3, l1=l1, l2=l2, l2cl=l2cl, l3=l3), Omega


# ---------------------------------------------------------------------------
# residual diagnostics
# ---------------------------------------------------------------------------

def riccati_residuals(bundle: RiccatiBundle, Omega) -> dict:
    """Max residual of every solved backward equation at the interior nodes.

    The derivative is the three-point one on the node's two steps: the
    centred difference where they are equal, and still O(h^2) beside a
    breakpoint between grid nodes.  A solution's slope jumps with its
    coefficients, so the nodes beside a change of the grid table's row are
    left out.  On RK4 trajectories the residuals should scale like C h^2.
    """
    times = bundle.times
    vals = [getattr(bundle, f) for f in LEVELS] + [Omega]
    ders = _ladder_rhs(bundle.cv[1:-1], [v[1:-1] for v in vals])
    dt, h1, h2 = times[2:] - times[:-2], np.diff(times[:-1]), np.diff(times[1:])
    jump = bundle.cv.changes()
    keep = ~(jump[:-1] | jump[1:])
    out = {}
    for name, v, d in zip(LEVELS + ("Omega",), vals, ders):
        col = lambda a: a.reshape((-1,) + (1,) * (v.ndim - 1))
        v0, v1, v2 = v[:-2], v[1:-1], v[2:]
        num = ((v2 - v0) / col(dt) + col((h2 - h1) / (h1 * h2 * dt))
               * (col(h1) * (v1 - v2) + col(h2) * (v1 - v0)))
        out[name] = float(np.abs(num - d)[keep].max(initial=0.0))
    return out

"""Backward integration of the solver's matrix ODE ladder.

One classical fourth-order pass integrates, in dependency order, the
follower gain p (n x n), the middle pair P1/P2 (2n x 2n), the top triple
Pf1/Pf2/Pf3 (4n x 4n) and the affine offset Omega (4n).  All equations are
integrated jointly so stage values of lower levels are available exactly
where higher levels need them; the grid is the uniform one refined with
every coefficient breakpoint, so no step straddles a jump.  `backward_rk4`
is the package's one RK4 loop, with one blow-up guard: it runs this ladder,
the response offsets in `closedloop` and the DP oracle's phi/chi equations.

One Riccati form, six instances: dP/dt = -(P M + M^T P + P S P + Q +
sum_i C_i^T P_(i) C_i), `_riccati`, holds for p and for each level's
cumulative sums, P1 and P1+P2 at 2n, Pf1, Pf1+Pf2 and Pf1+Pf2+Pf3 at 4n.  The
loads mirror the nested information: channel i loads the sum of the finest
level that observes it, capped at the instance's own (at 2n channels 1 and 2
stop at P1).  Omega is the last instance's affine part.  The RK4 state keeps
the blocks, so P2' = R(P1+P2) - R(P1), and likewise for Pf2 and Pf3.

The right-hand sides, like the lifted formulas they call, take one node or
a leading node axis: the pass calls them once per RK4 stage on the node view
of one midpoint coefficient table, and the residual diagnostic calls them
once on the table of interior nodes.

Offsets: with deterministic coefficients the offset backward SDEs admit
deterministic solutions with zero martingale integrands and with all
conditional-expectation decorations equal to the process itself, so Omega
collapses to a linear backward ODE.  The 2n offset Phi and the n offset
phi_check are the corresponding blocks of Omega under the stacking ansatz.
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
    Phi: MatrixTrajectory        # 2n, lower half of Omega
    phi_check: MatrixTrajectory  # n, lower quarter of Omega


# ---------------------------------------------------------------------------
# right-hand sides (backward equations written as dM/dt = f(t, M, ...))
# ---------------------------------------------------------------------------

def _riccati(P, M, S, Q, loads):
    """-(P M + M^T P + P S P + Q + sum C^T Pc C) over the (C, Pc) in loads."""
    acc = P @ M + M.mT @ P + P @ S @ P + Q
    for C, Pc in loads:
        acc = acc + C.mT @ Pc @ C
    return -acc


def _rhs_p(cv: CoeffValues, p):
    B1 = cv.B[0]
    return _riccati(p, cv.A, -(B1 @ cv.Rinv[0] @ B1.mT), cv.Q[0],
                    [(C, p) for C in cv.C])


def _stack_rhs(cv, state):
    """Derivatives of the ladder state (p, P1, P2, Pf1, Pf2, Pf3, Omega): one
    `_riccati` instance per cumulative sum, differenced back into blocks."""
    p, P1, P2, Pf1, Pf2, Pf3, Om = state
    l1 = level1_at(cv, p)
    l2 = level2_at(cv, l1)
    cl = level2_closedloop_at(cv, l2, P1, P2)
    l3 = level3_at(cv, l2, cl)

    cC1, cC2, cC3, cF2 = l2["calC1"], l2["calC2"], l2["calC3"], l2["calF2"]
    RF2 = cv.Rinv[1] @ cF2
    P12 = P1 + P2
    dP1 = _riccati(P1, l2["calA1"], cl["ddF1"], l2["calQ2"],
                   [(cC1, P1), (cC2, P1), (cC3, P1)])
    dP12 = _riccati(P12, l2["calA1"] + l2["calA2"] - l2["calB2"] @ RF2,
                    cl["ddF1"], l2["calQ2"] - cF2.mT @ RF2,
                    [(cC1, P1), (cC2, P1), (cC3, P12)])

    R3, B, Fa, Fab = cv.Rinv[2], l3["frakB3"], l3["Fa"], l3["Fa"] + l3["Fb"]
    fC1, fC2, fC3 = l3["frakC1"], l3["frakC2"], l3["frakC3"]
    RFa, RFab, BRB = R3 @ Fa, R3 @ Fab, B @ R3 @ B.mT
    A12 = l3["frakA1"] + l3["frakA2"]
    Q3 = l3["frakQ3"] + l3["frakQ3dd"]
    S = l3["frakF1dd"] - BRB
    Mc = A12 + l3["frakA3"] - B @ RFab
    Pf12 = Pf1 + Pf2
    Pf123 = Pf12 + Pf3
    dPf1 = _riccati(Pf1, l3["frakA1"] - B @ RFa, l3["frakF1bar"] - BRB,
                    l3["frakQ3"] - Fa.mT @ RFa,
                    [(fC1, Pf1), (fC2, Pf1), (fC3, Pf1)])
    dPf12 = _riccati(Pf12, A12 - B @ RFa, S, Q3 - Fa.mT @ RFa,
                     [(fC1, Pf1), (fC2, Pf12), (fC3, Pf12)])
    dPf123 = _riccati(Pf123, Mc, S, Q3 - Fab.mT @ RFab,
                      [(fC1, Pf1), (fC2, Pf12), (fC3, Pf123)])

    # Omega: the affine part of the last instance, drift (Mc + S Pf123)^T
    Rn3 = mv(R3, cv.nl[2])
    src = (mv(fC1.mT, mv(Pf1, l3["Sigma1"])) + mv(fC2.mT, mv(Pf12, l3["Sigma2"]))
           + mv(fC3.mT, mv(Pf123, l3["Sigma3"]))
           + mv(Pf123, l3["ddb3"] - mv(B, Rn3)) + l3["ddf3"] - mv(Fab.mT, Rn3))
    dOm = -(mv(Mc.mT + Pf123 @ S, Om) + src)
    return (_rhs_p(cv, p), dP1, dP12 - dP1, dPf1, dPf12 - dPf1, dPf123 - dPf12, dOm)


def _axpy(state, ders, a):
    return tuple(s + a * d for s, d in zip(state, ders))


def terminal_state(spec: GameSpec):
    """The ladder's terminal values; the only builder of calG2 and frakG3."""
    n = spec.n
    G1, G2, G3 = (player.G for player in spec.costs.players)
    z, z2, z4 = (np.zeros((d, d)) for d in (n, 2 * n, 4 * n))
    return (G1.copy(), bdiag(G2, z), z2, bdiag(bdiag(G3, z), z2), z4, z4,
            np.zeros(4 * n))


def backward_rk4(rhs, terminal, times, what, fix=lambda y: y):
    """Classical RK4 run backward from the terminal tuple of arrays.

    rhs(k, c, y) gives the derivatives of y on the step from node k down to
    node k-1 at time t_k - c h, c in {0, 1/2, 1}.  fix(y) runs after each step
    and every new state is checked for blow-up.  Returns (K+1, ...) arrays.
    """
    K = times.shape[0] - 1
    y = tuple(terminal)
    hist = [y]                          # node K first
    for k in range(K, 0, -1):
        h = times[k] - times[k - 1]
        k1 = rhs(k, 0.0, y)
        k2 = rhs(k, 0.5, _axpy(y, k1, -0.5 * h))
        k3 = rhs(k, 0.5, _axpy(y, k2, -0.5 * h))
        k4 = rhs(k, 1.0, _axpy(y, k3, -h))
        incr = [d1 + 2.0 * d2 + 2.0 * d3 + d4
                for d1, d2, d3, d4 in zip(k1, k2, k3, k4)]
        y = fix(_axpy(y, incr, -h / 6.0))
        for s in y:
            if not np.abs(s).max(initial=0.0) <= BLOWUP_LIMIT:   # NaN fails too
                raise BlowUpError(what, times[k - 1])
        hist.append(y)
    return [np.array(traj[::-1]) for traj in zip(*hist)]


def _solve_stack(spec: GameSpec, rhs, terminal):
    """Backward RK4 of rhs(cv, y) over the refined grid; per-node arrays."""
    times = solver_times(spec)
    mid = CoeffValues(spec, 0.5 * (times[1:] + times[:-1]))
    max_asym = 0.0

    def symmetric_p(y):
        # keep the follower gain exactly symmetric; track the drift it had
        nonlocal max_asym
        p = y[0]
        max_asym = max(max_asym, np.abs(p - p.T).max(initial=0.0))
        return (0.5 * (p + p.T),) + y[1:]

    arrays = backward_rk4(lambda k, c, y: rhs(mid[k - 1], y), terminal, times,
                          "riccati system", symmetric_p)
    if max_asym > P_ASYM_TOL:
        raise ConsistencyError(f"follower gain asymmetry {max_asym:.3e} exceeds "
                               f"{P_ASYM_TOL:g}")
    return times, arrays


# ---------------------------------------------------------------------------
# public operations
# ---------------------------------------------------------------------------

def integrate_backward(rhs, terminal, times) -> MatrixTrajectory:
    """RK4 for dM/dt = rhs(t, M) run backward from M(times[-1]) = terminal."""
    times = np.asarray(times, dtype=float)
    (values,) = backward_rk4(
        lambda k, c, y: (rhs(times[k] - c * (times[k] - times[k - 1]), y[0]),),
        (np.asarray(terminal, dtype=float),), times, "backward integration")
    return MatrixTrajectory(times, values)


def solve_p(spec: GameSpec) -> MatrixTrajectory:
    """Follower Riccati gain; terminal value is the follower's terminal weight."""
    times, arrays = _solve_stack(spec, lambda cv, y: (_rhs_p(cv, y[0]),),
                                 terminal_state(spec)[:1])
    return MatrixTrajectory(times, arrays[0])


def solve_game(spec: GameSpec):
    """Full ladder in one pass: RiccatiBundle plus OffsetBundle.

    The offsets' blocks give the 2n offset Phi and the n offset phi_check."""
    times, arrays = _solve_stack(spec, _stack_rhs, terminal_state(spec))
    p, P1, P2, Pf1, Pf2, Pf3, Om = (MatrixTrajectory(times, a) for a in arrays)
    cv = CoeffValues(spec, times)
    l1 = level1_at(cv, p.values)
    l2 = level2_at(cv, l1)
    l2cl = level2_closedloop_at(cv, l2, P1.values, P2.values)
    l3 = level3_at(cv, l2, l2cl)
    bundle = RiccatiBundle(times=times, p=p, P1=P1, P2=P2, Pf1=Pf1, Pf2=Pf2,
                           Pf3=Pf3, l1=l1, l2=l2, l2cl=l2cl, l3=l3)
    n = spec.n
    offsets = OffsetBundle(times, Om, MatrixTrajectory(times, Om.values[:, 2 * n:]),
                           MatrixTrajectory(times, Om.values[:, 3 * n:]))
    return bundle, offsets


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
    times = bundle.times
    names = ("p", "P1", "P2", "Pf1", "Pf2", "Pf3", "Omega")
    vals = [bundle.p.values, bundle.P1.values, bundle.P2.values,
            bundle.Pf1.values, bundle.Pf2.values, bundle.Pf3.values,
            offsets.Omega.values]
    ders = _stack_rhs(CoeffValues(spec, times[1:-1]),
                      tuple(v[1:-1] for v in vals))
    dt = times[2:] - times[:-2]
    out = {}
    for name, v, d in zip(names, vals, ders):
        num = (v[2:] - v[:-2]) / dt.reshape((-1,) + (1,) * (v.ndim - 1))
        out[name] = float(np.abs(num - d).max(initial=0.0))
    return out

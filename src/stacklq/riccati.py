"""Backward integration of the solver's matrix ODE ladder.

One classical fourth-order pass integrates, in dependency order, the
follower gain p (n x n), the middle pair P1/P2 (2n x 2n), the top triple
Pf1/Pf2/Pf3 (4n x 4n) and the affine offset Omega (4n).  All equations are
integrated jointly so stage values of lower levels are available exactly
where higher levels need them; the grid is the uniform one refined with
every coefficient breakpoint, so no step straddles a jump.  `backward_rk4`
is the package's one RK4 loop, with one blow-up guard: it runs this ladder,
the response offsets in `closedloop` and the DP oracle's phi/chi equations.

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

def _rhs_p(cv: CoeffValues, p):
    B1 = cv.B[0]
    acc = p @ cv.A + cv.A.mT @ p - p @ B1 @ cv.Rinv[0] @ B1.mT @ p + cv.Q[0]
    for Ci in cv.C:
        acc = acc + Ci.mT @ p @ Ci
    return -acc


def _rhs_P1(cv, l2, P1):
    K = l2["calB2"] @ cv.Rinv[1]
    S = l2["calF1"] - K @ l2["calB2"].mT
    acc = P1 @ l2["calA1"] + l2["calA1"].mT @ P1 + P1 @ S @ P1 + l2["calQ2"]
    for Ci in (l2["calC1"], l2["calC2"], l2["calC3"]):
        acc = acc + Ci.mT @ P1 @ Ci
    return -acc


def _rhs_P2(cv, l2, P1, P2):
    Rinv2 = cv.Rinv[1]
    cB2, cF2 = l2["calB2"], l2["calF2"]
    K = cB2 @ Rinv2
    S = l2["calF1"] - K @ cB2.mT
    A12 = l2["calA1"] + l2["calA2"]
    P12 = P1 + P2
    FRB = cF2.mT @ Rinv2 @ cB2.mT
    acc = (P2 @ A12 + A12.mT @ P2
           + l2["calA2"].mT @ P1 + P1 @ l2["calA2"]
           + P1 @ S @ P2 + P2 @ S @ P1 + P2 @ S @ P2
           + l2["calC3"].mT @ P2 @ l2["calC3"]
           - P12 @ K @ cF2 - FRB @ P2 - cF2.mT @ Rinv2 @ cF2
           - FRB @ P1)
    return -acc


def _rhs_Pf1(cv, l3, Pf1):
    Rinv3 = cv.Rinv[2]
    Ma = l3["frakA1"] - l3["frakB3"] @ Rinv3 @ l3["Fa"]
    Sbar = l3["frakF1bar"] - l3["frakB3"] @ Rinv3 @ l3["frakB3"].mT
    acc = (Pf1 @ Ma + Ma.mT @ Pf1 + Pf1 @ Sbar @ Pf1 + l3["frakQ3"]
           - l3["Fa"].mT @ Rinv3 @ l3["Fa"])
    for Ci in (l3["frakC1"], l3["frakC2"], l3["frakC3"]):
        acc = acc + Ci.mT @ Pf1 @ Ci
    return -acc


def _rhs_Pf2(cv, l3, Pf1, Pf2):
    Rinv3 = cv.Rinv[2]
    Mb = l3["frakA1"] + l3["frakA2"] - l3["frakB3"] @ Rinv3 @ l3["Fa"]
    S = l3["frakF1dd"] - l3["frakB3"] @ Rinv3 @ l3["frakB3"].mT
    acc = (Pf2 @ Mb + Mb.mT @ Pf2
           + Pf1 @ S @ Pf2 + Pf2 @ S @ Pf1 + Pf2 @ S @ Pf2
           + l3["frakQ3dd"] + Pf1 @ l3["frakA2"] + l3["frakA2"].mT @ Pf1
           + Pf1 @ (l3["frakF1dd"] - l3["frakF1bar"]) @ Pf1)
    for Ci in (l3["frakC2"], l3["frakC3"]):
        acc = acc + Ci.mT @ Pf2 @ Ci
    return -acc


def _rhs_Pf3(cv, l3, Pf1, Pf2, Pf3):
    Rinv3 = cv.Rinv[2]
    Fa, Fb, B3f = l3["Fa"], l3["Fb"], l3["frakB3"]
    S = l3["frakF1dd"] - B3f @ Rinv3 @ B3f.mT
    Mc = (l3["frakA1"] + l3["frakA2"] + l3["frakA3"]
          - B3f @ Rinv3 @ (Fa + Fb))
    Md = l3["frakA3"] - B3f @ Rinv3 @ Fb
    P12 = Pf1 + Pf2
    acc = (Pf3 @ Mc + Mc.mT @ Pf3
           + P12 @ Md + Md.mT @ P12
           + P12 @ S @ Pf3 + Pf3 @ S @ P12 + Pf3 @ S @ Pf3
           + l3["frakC3"].mT @ Pf3 @ l3["frakC3"]
           - Fa.mT @ Rinv3 @ Fb - Fb.mT @ Rinv3 @ Fa - Fb.mT @ Rinv3 @ Fb)
    return -acc


def _rhs_Omega(cv, l3, Pf1, Pf2, Pf3, Om):
    Rinv3 = cv.Rinv[2]
    Fa, Fb, B3f = l3["Fa"], l3["Fb"], l3["frakB3"]
    n3 = cv.nl[2]
    S = l3["frakF1dd"] - B3f @ Rinv3 @ B3f.mT
    Psum = Pf1 + Pf2 + Pf3
    W = ((l3["frakA1"] + l3["frakA2"] + l3["frakA3"]).mT
         - (Fa + Fb).mT @ Rinv3 @ B3f.mT + Psum @ S)
    src = (mv(l3["frakC1"].mT, mv(Pf1, l3["Sigma1"]))
           + mv(l3["frakC2"].mT, mv(Pf1 + Pf2, l3["Sigma2"]))
           + mv(l3["frakC3"].mT, mv(Pf1 + Pf2 + Pf3, l3["Sigma3"]))
           + mv(Psum, l3["ddb3"] - mv(B3f, mv(Rinv3, n3)))
           + l3["ddf3"] - mv((Fa + Fb).mT, mv(Rinv3, n3)))
    return -(mv(W, Om) + src)


# ---------------------------------------------------------------------------
# the stacked backward pass
# ---------------------------------------------------------------------------

def _stack_rhs(cv, state, follower_only):
    """Derivatives of the ladder state; follower_only leaves all but p at rest."""
    p, P1, P2, Pf1, Pf2, Pf3, Om = state
    dp = _rhs_p(cv, p)
    if follower_only:
        return (dp, None, None, None, None, None, None)
    l1 = level1_at(cv, p)
    l2 = level2_at(cv, l1)
    dP1 = _rhs_P1(cv, l2, P1)
    dP2 = _rhs_P2(cv, l2, P1, P2)
    cl = level2_closedloop_at(cv, l2, P1, P2)
    l3 = level3_at(cv, l2, cl)
    dPf1 = _rhs_Pf1(cv, l3, Pf1)
    dPf2 = _rhs_Pf2(cv, l3, Pf1, Pf2)
    dPf3 = _rhs_Pf3(cv, l3, Pf1, Pf2, Pf3)
    dOm = _rhs_Omega(cv, l3, Pf1, Pf2, Pf3, Om)
    return (dp, dP1, dP2, dPf1, dPf2, dPf3, dOm)


def _axpy(state, ders, a):
    return tuple(s if d is None else s + a * d for s, d in zip(state, ders))


def terminal_state(spec: GameSpec):
    n = spec.n
    G1 = spec.costs.players[0].G
    calG2 = bdiag(spec.costs.players[1].G, np.zeros((n, n)))
    calG3 = bdiag(spec.costs.players[2].G, np.zeros((n, n)))
    frakG3 = bdiag(calG3, np.zeros((2 * n, 2 * n)))
    return (G1.copy(), calG2, np.zeros((2 * n, 2 * n)), frakG3,
            np.zeros((4 * n, 4 * n)), np.zeros((4 * n, 4 * n)),
            np.zeros(4 * n))


def backward_rk4(rhs, terminal, times, what, fix=None):
    """Classical RK4 run backward from the terminal tuple of arrays.

    rhs(k, c, y) gives the derivatives of y on the step from node k down to
    node k-1 at time t_k - c h, c in {0, 1/2, 1}; a None derivative leaves
    that entry unchanged.  fix(y), when given, runs after each step, and every
    new state is checked for blow-up.  Returns one (K+1, ...) array per entry.
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
        incr = [None if d1 is None else d1 + 2.0 * d2 + 2.0 * d3 + d4
                for d1, d2, d3, d4 in zip(k1, k2, k3, k4)]
        y = _axpy(y, incr, -h / 6.0)
        if fix is not None:
            y = fix(y)
        for s in y:
            if not np.abs(s).max(initial=0.0) <= BLOWUP_LIMIT:   # NaN fails too
                raise BlowUpError(what, times[k - 1])
        hist.append(y)
    return [np.array(traj[::-1]) for traj in zip(*hist)]


def _solve_stack(spec: GameSpec, follower_only: bool):
    """Backward RK4 over the refined grid; returns per-node value arrays.

    follower_only integrates p alone (the DP cross-check's cheap pass)."""
    times = solver_times(spec)
    mid = CoeffValues(spec, 0.5 * (times[1:] + times[:-1]))
    max_asym = 0.0

    def symmetric_p(y):
        # keep the follower gain exactly symmetric; track the drift it had
        nonlocal max_asym
        p = y[0]
        max_asym = max(max_asym, np.abs(p - p.T).max(initial=0.0))
        return (0.5 * (p + p.T),) + y[1:]

    arrays = backward_rk4(lambda k, c, y: _stack_rhs(mid[k - 1], y, follower_only),
                          terminal_state(spec), times, "riccati system",
                          symmetric_p)
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
    times, arrays = _solve_stack(spec, True)
    return MatrixTrajectory(times, arrays[0])


def solve_game(spec: GameSpec):
    """Full ladder in one pass: RiccatiBundle plus OffsetBundle.

    The offsets' blocks give the 2n offset Phi and the n offset phi_check."""
    times, arrays = _solve_stack(spec, False)
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
                      tuple(v[1:-1] for v in vals), False)
    dt = times[2:] - times[:-2]
    out = {}
    for name, v, d in zip(names, vals, ders):
        num = (v[2:] - v[:-2]) / dt.reshape((-1,) + (1,) * (v.ndim - 1))
        out[name] = float(np.abs(num - d).max(initial=0.0))
    return out

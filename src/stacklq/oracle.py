"""Discrete-time dynamic-programming ground truth.

For specs in which only the third noise component is active and only the
follower controls the state, filtering is trivial (the state is adapted to
the follower's observations) and the problem reduces to a single-controller
LQG.  The exact backward recursion for the Euler-discretized problem then
cross-checks the continuous follower Riccati gain and the optimal value.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ReductionError, StackLQError
from .lift import CoeffValues, level1_at
from .model import GameSpec, with_steps
from .riccati import backward_rk4, solve_p


@dataclass(frozen=True)
class DiscreteLQ:
    """x' = A x + B v + c + (Cn x + sn) xi with xi ~ N(0, var) per step.

    Stage cost 0.5 xQx + 0.5 vRv + q.x + r.v; terminal 0.5 xGx + g.x.
    """

    A: np.ndarray       # (K, n, n)
    B: np.ndarray
    c: np.ndarray       # (K, n)
    Cn: np.ndarray
    sn: np.ndarray
    var: np.ndarray     # (K,)
    Q: np.ndarray
    R: np.ndarray
    q: np.ndarray
    r: np.ndarray
    G: np.ndarray       # (n, n)
    g: np.ndarray       # (n,)

    @property
    def steps(self) -> int:
        return self.A.shape[0]


@dataclass(frozen=True)
class DPSolution:
    S: np.ndarray        # (K+1, n, n) value Hessians
    s: np.ndarray        # (K+1, n)   value gradients at 0
    const: np.ndarray    # (K+1,)     value constants
    gains: np.ndarray    # (K, n, n)  v = gains x + offs
    offs: np.ndarray     # (K, n)

    def value(self, x0) -> float:
        x0 = np.asarray(x0, dtype=float)
        return float(0.5 * x0 @ self.S[0] @ x0 + self.s[0] @ x0 + self.const[0])


def _coeff_is_zero(coeff) -> bool:
    return np.abs(coeff.values).max(initial=0.0) == 0.0


def reduce_to_single_player(spec: GameSpec, steps: int | None = None) -> DiscreteLQ:
    """Euler discretization of the follower-only, third-noise-only spec."""
    c = spec.coeffs
    offending = [name for name, coeff in
                 (("B2", c.B[1]), ("B3", c.B[2]), ("C1", c.C[0]), ("C2", c.C[1]),
                  ("sigma1", c.sigma[0]), ("sigma2", c.sigma[1]))
                 if not _coeff_is_zero(coeff)]
    if offending:
        raise ReductionError("spec is not reducible to a single controller; "
                             f"nonzero: {', '.join(offending)}")
    K = spec.grid.steps if steps is None else int(steps)
    T = spec.horizon
    h = T / K
    n = spec.n
    cv = CoeffValues(spec, np.arange(K) * h)
    return DiscreteLQ(A=np.eye(n) + h * cv.A, B=h * cv.B[0], c=h * cv.b,
                      Cn=cv.C[2], sn=cv.sigma[2], var=np.full(K, h),
                      Q=h * cv.Q[0], R=h * cv.R[0], q=h * cv.m[0], r=h * cv.nl[0],
                      G=spec.costs.players[0].G.copy(), g=np.zeros(n))


def solve_dp(d: DiscreteLQ) -> DPSolution:
    """Exact backward recursion for the affine-quadratic value function."""
    K = d.steps
    n = d.G.shape[0]
    S = np.empty((K + 1, n, n))
    s = np.empty((K + 1, n))
    const = np.empty(K + 1)
    gains = np.empty((K, n, n))
    offs = np.empty((K, n))
    S[K], s[K], const[K] = d.G, d.g, 0.0
    for k in range(K - 1, -1, -1):
        A, B, c, Cn, sn, var = d.A[k], d.B[k], d.c[k], d.Cn[k], d.sn[k], d.var[k]
        Sp, sp, cp = S[k + 1], s[k + 1], const[k + 1]
        M = d.R[k] + B.T @ Sp @ B
        ev = np.linalg.eigvalsh(0.5 * (M + M.T))
        if ev.min() <= 0:
            raise StackLQError(f"DP stage {k}: R + B'SB not positive definite")
        rhs_x = B.T @ Sp @ A
        rhs_0 = B.T @ (Sp @ c) + B.T @ sp + d.r[k]
        Kk = -np.linalg.solve(M, rhs_x)
        kk = -np.linalg.solve(M, rhs_0)
        Acl = A + B @ Kk
        S[k] = (d.Q[k] + Kk.T @ d.R[k] @ Kk + Acl.T @ Sp @ Acl
                + var * Cn.T @ Sp @ Cn)
        S[k] = 0.5 * (S[k] + S[k].T)
        u = c + B @ kk
        s[k] = (d.q[k] + Kk.T @ (d.r[k] + d.R[k] @ kk) + Acl.T @ (Sp @ u + sp)
                + var * Cn.T @ (Sp @ sn))
        const[k] = (cp + 0.5 * u @ Sp @ u + sp @ u + 0.5 * var * sn @ Sp @ sn
                    + 0.5 * kk @ d.R[k] @ kk + d.r[k] @ kk)
        gains[k], offs[k] = Kk, kk
    return DPSolution(S=S, s=s, const=const, gains=gains, offs=offs)


@dataclass(frozen=True)
class CrosscheckReport:
    steps: int
    gap_S0: float          # |S0 - p(0)| (max norm, relative to 1+|p(0)|)
    gap_value: float       # |DP value - continuous value| at x0
    dp_value: float
    continuous_value: float


def _continuous_value(spec: GameSpec, steps: int):
    """Value of the reduced continuous problem: the package's follower gain
    p plus the offset phi and constant chi ODEs on the uniform oracle grid."""
    T = spec.horizon
    times = np.linspace(0.0, T, steps + 1)
    n = spec.n
    ptraj = solve_p(with_steps(spec, steps))
    # solve_p's grid adds every breakpoint; keep the node nearest each t_k
    j = np.clip(np.searchsorted(ptraj.times, times), 1, ptraj.times.shape[0] - 1)
    j -= times - ptraj.times[j - 1] < ptraj.times[j] - times
    pv = ptraj.values[j]
    # coefficients at the RK4 stage times: nodes and step midpoints
    stage_t = np.empty(2 * steps + 1)
    stage_t[0::2] = times
    stage_t[1::2] = times[1:] - 0.5 * np.diff(times)
    stages = CoeffValues(spec, stage_t)
    # p and phi at a stage time are taken at the nearest node, ties to even
    near = np.clip(np.rint(stage_t / T * steps).astype(int), 0, steps)
    l1 = level1_at(stages, pv[near])
    Abar, f1bar = l1["Abar"], l1["f1bar"]

    # stage j of the step down from t_k is entry 2k - (0, 1, 1, 2)[j] of the table
    def rhs_phi(k, j, y):
        i = 2 * k - (j + 1) // 2
        return (-(Abar[i].T @ y[0] + f1bar[i]),)

    (phis,) = backward_rk4(rhs_phi, (np.zeros(n),), times, "oracle offset phi")

    def rhs_chi(k, j, y):
        i = 2 * k - (j + 1) // 2
        cv, p, phi = stages[i], pv[near[i]], phis[near[i]]
        w = cv.B[0].T @ phi + cv.nl[0]
        s3 = cv.sigma[2]
        return (-(phi @ cv.b + 0.5 * s3 @ (p @ s3)
                  - 0.5 * w @ (cv.Rinv[0] @ w)),)

    (chis,) = backward_rk4(rhs_chi, (np.zeros(()),), times, "oracle constant chi")
    x0 = spec.x0
    return (float(0.5 * x0 @ pv[0] @ x0 + phis[0] @ x0 + chis[0]), pv[0])


def crosscheck_p(spec: GameSpec, steps: int | None = None) -> CrosscheckReport:
    """Compare the DP recursion against the continuous follower solution."""
    d = reduce_to_single_player(spec, steps)
    sol = solve_dp(d)
    cont_val, p0 = _continuous_value(spec, d.steps)
    gap_S0 = float(np.abs(sol.S[0] - p0).max() / (1.0 + np.abs(p0).max()))
    dp_val = sol.value(spec.x0)
    return CrosscheckReport(steps=d.steps, gap_S0=gap_S0,
                            gap_value=abs(dp_val - cont_val),
                            dp_value=dp_val, continuous_value=cont_val)

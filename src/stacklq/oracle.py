"""Discrete-time dynamic-programming ground truth.

For specs in which only the third noise component is active and only the
follower controls the state, filtering is trivial (the state is adapted to
the follower's observations) and the problem reduces to a single-controller
LQG.  The exact backward recursion for the Euler-discretized problem then
cross-checks the solved ladder: its follower gain p(0) and the optimal
value, whose offset phi is the last quarter of Omega.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import BlowUpError, ReductionError, StackLQError
from .lift import CoeffValues, mv
from .model import BLOWUP_LIMIT, GameSpec
from .riccati import RiccatiBundle


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


def reduce_to_single_player(spec: GameSpec, steps: int | None = None) -> DiscreteLQ:
    """Euler discretization of the follower-only, third-noise-only spec."""
    offending = [name for name in ("B2", "B3", "C1", "C2", "sigma1", "sigma2")
                 if np.any(spec.coeffs[name].values)]
    if offending:
        raise ReductionError("spec is not reducible to a single controller; "
                             f"nonzero: {', '.join(offending)}")
    K = spec.steps if steps is None else int(steps)
    h = spec.T / K
    n = spec.n
    cv = CoeffValues(spec, np.arange(K) * h)
    return DiscreteLQ(A=np.eye(n) + h * cv.A, B=h * cv.B[0], c=h * cv.b,
                      Cn=cv.C[2], sn=cv.sigma[2], var=np.full(K, h),
                      Q=h * cv.Q[0], R=h * cv.R[0], q=h * cv.m[0], r=h * cv.nl[0],
                      G=spec.G[0].copy(), g=np.zeros(n))


def solve_dp(d: DiscreteLQ) -> DPSolution:
    """Exact backward recursion for the affine-quadratic value function.

    It runs on the augmented state y = [x; 1]: the step is y' = Ay y + By v
    + Cy y xi, the stage cost 0.5 y'Qy y + 0.5 v'Rv + v'Ny y with Ny = [0 | r],
    and the value 0.5 y'Sy y with Sy = [[S, s], [s', 2 const]].  One product
    X'Sy X of X = [Ay | sqrt(var) Cy | By] holds every term of a stage:
        Sy_k = Qy + Ay'Sy Ay + var Cy'Sy Cy - H'M^-1 H,
        H = By'Sy Ay + Ny,  M = R + By'Sy By,  v = -M^-1 H y.
    """
    K, n, m = d.B.shape
    a = n + 1
    X = np.zeros((K, a, 2 * a + m))
    X[:, :n, :n], X[:, :n, n], X[:, n, n] = d.A, d.c, 1.0
    sd = np.sqrt(d.var)[:, None]
    X[:, :n, a:a + n], X[:, :n, a + n] = sd[..., None] * d.Cn, sd * d.sn
    X[:, :n, 2 * a:] = d.B
    Qy = np.zeros((K, a, a))
    Qy[:, :n, :n], Qy[:, :n, n], Qy[:, n, :n] = d.Q, d.q, d.q
    Ny = np.zeros((K, m, a))
    Ny[:, :, n] = d.r
    Sy = np.zeros((K + 1, a, a))
    Sy[K, :n, :n], Sy[K, :n, n], Sy[K, n, :n] = d.G, d.g, d.g
    F = np.empty((K, m, a))
    for k in range(K - 1, -1, -1):
        P = X[k].T @ (Sy[k + 1] @ X[k])
        M = d.R[k] + P[2 * a:, 2 * a:]
        try:
            np.linalg.cholesky(M)
        except np.linalg.LinAlgError:
            raise StackLQError(f"DP stage {k}: R + B'SB not positive "
                               "definite") from None
        H = P[2 * a:, :a] + Ny[k]
        F[k] = -np.linalg.solve(M, H)
        S = Qy[k] + P[:a, :a] + P[a:2 * a, a:2 * a] + H.T @ F[k]
        Sy[k] = 0.5 * (S + S.T)
    return DPSolution(S=Sy[:, :n, :n], s=Sy[:, :n, n], const=0.5 * Sy[:, n, n],
                      gains=F[:, :, :n], offs=F[:, :, n])


@dataclass(frozen=True)
class CrosscheckReport:
    gap_S0: float          # |S0 - p(0)| (max norm, relative to 1+|p(0)|)
    gap_value: float       # |DP value - continuous value| at x0
    continuous_value: float


def _continuous_value(spec: GameSpec, bundle: RiccatiBundle, Omega) -> float:
    """Value of the reduced continuous problem from the solved ladder: the
    follower gain p, its offset phi (Omega's last quarter, as in the
    follower's feedback offset) and the constant chi, whose right-hand side
    reads no chi, by the midpoint rule on the solver grid, added up backward
    from T."""
    times, n = bundle.times, spec.n
    p, phi = bundle.p, Omega[:, 3 * n:]
    pm, phim = 0.5 * (p[1:] + p[:-1]), 0.5 * (phi[1:] + phi[:-1])
    mid = CoeffValues(spec, 0.5 * (times[1:] + times[:-1]))
    # -chi' = phi.b + 1/2 s3'p s3 - 1/2 w'R1^-1 w with w = B1'phi + n1
    s3, w = mid.sigma[2], mv(mid.B[0].mT, phim) + mid.nl[0]
    dot = lambda u, v: np.einsum("ki,ki->k", u, v)
    rate = dot(phim, mid.b) + 0.5 * dot(s3, mv(pm, s3)) - 0.5 * dot(w, mv(mid.Rinv[0], w))
    chis = np.append(np.cumsum((np.diff(times) * rate)[::-1])[::-1], 0.0)
    bad = np.flatnonzero(~(np.abs(chis) <= BLOWUP_LIMIT))     # NaN is bad too
    if bad.size:        # backward_rk4 stops at the latest node past the limit
        raise BlowUpError("oracle constant chi", times[bad[-1]])
    x0 = spec.x0
    return float(0.5 * x0 @ p[0] @ x0 + phi[0] @ x0 + chis[0])


def crosscheck_p(spec: GameSpec, bundle: RiccatiBundle, Omega,
                 steps: int | None = None) -> CrosscheckReport:
    """Compare the DP recursion against the solved continuous follower problem."""
    d = reduce_to_single_player(spec, steps)
    sol = solve_dp(d)
    cont_val, p0 = _continuous_value(spec, bundle, Omega), bundle.p[0]
    gap_S0 = float(np.abs(sol.S[0] - p0).max() / (1.0 + np.abs(p0).max()))
    return CrosscheckReport(gap_S0=gap_S0, continuous_value=cont_val,
                            gap_value=abs(sol.value(spec.x0) - cont_val))

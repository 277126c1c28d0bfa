"""Equilibrium feedback laws and the linear Euler step of path simulation.

The equilibrium is simulated through three coupled forward systems: the 4n
information state X, its filter Xh given the middle player's observations
(components 2 and 3 of the noise), and its filter Xc given the follower's
observations (component 3 only), stepped as one block state Z = [X | Xh |
Xc] on one set of Brownian increments.  Z's drift is block upper-triangular
and its noise loadings are masked (X sees W1-W3, Xh W2-W3, Xc W3), so a
coarser filter never sees a component outside its sigma-algebra: a masked
entry adds an exact zero, which the bit-level measurability checks exercise.
`_node_loop` steps Z by `LinearStep.advance`, the one linear Euler step,
which the sweep's response groups take too; `batches` draws each batch of
paths and hands out its node loop to `simulate_blocks`, the one path
simulator, to the variational sweep and to `verify`'s path checks.  Paths
lie on the last, contiguous axis of every per-path array: Z is (12n, paths)
and each node's products run along rows of paths.  A path's bits do not
depend on how paths are batched: BLAS gives a column the same result
wherever it sits in a product whose width is a multiple of PAD_PATHS, to
which `batches` pads a short batch.

`_euler_step` is the one builder of a LinearStep: from the drift M, the
drive and the diagonal blocks' loads of a system y' = y + h (M y + drive)
+ sum_i dW_i (s_i + C_i y), s_i and C_i masked alike as each block observes,
it makes Z's tables here and the response groups' tables in `montecarlo`,
in the column form Y' = F Y + ... with F = I + h M.
The gains, one read-only mapping `law.gains` keyed by `GAINS`, the law's
Euler cost table `law.cost` and the residuals read the solve's grid
coefficient table, `bundle.cv`, carried on as `law.cv`.  `verify`'s negative
control is a law too: `build_feedback` with a gain_scale other than 1
scales the follower gain on every block.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass
from types import MappingProxyType

import numpy as np

from .errors import BlowUpError
from .lift import CoeffValues, Family, block, mv
from .model import BLOWUP_LIMIT, GameSpec
from .riccati import RiccatiBundle

# Paths stepped together: a block of the streaming simulate, whose reused
# increment buffer (12.3 MB at K = 500) and records scale with it, and a chunk
# of the variational sweep.  In process on a 2-vCPU VM, one BLAS thread: the
# sweep on verify-reducible's seed-1 spec (4000 paths) took 0.107 s in median
# with 2048-path chunks and 0.126 s with 1024; simulate-8k's blocks took 0.58 s
# at 2048 paths and 0.64 s at 1024, at twice the traced peak (28 against 14 MB).
BLOCK_PATHS = 1024
CHUNK_PATHS = 2048
# A batch of paths is stepped at a width that is a multiple of this: with
# OpenBLAS's Haswell kernels a column's product varies with a width that is
# 1-4 mod 8, and numpy gives a one-column product to its matrix-vector kernel.
PAD_PATHS = 8

# The output gains by name, in gains.csv order.
GAINS = ("K1", "k1", "K2hat", "K2check", "k2", "K3", "K3hat", "K3check", "k3",
         "Kv2check", "Kv3hat", "Kv3check")


@dataclass(frozen=True)
class LinearStep:
    """The tables of the base law's and every response group's Euler step
    Y' = F[k] Y + s[k] dW_k + c[k] + sum_i dW_{k,i} L[i][k] Y, columns Y
    being Z (12n, N) or a group's (D, w, N), one block per direction."""

    F: np.ndarray                   # (K, w, w): I + h M
    c: np.ndarray                   # (K, w, 1) intercept, or (K, D, w, 1) drives
    s: np.ndarray | None            # (K, w, 3); None for a response group
    L: Mapping[int, np.ndarray]     # (K, w, w) by channel, those loading Y

    def advance(self, k, Y, dWk, t, what, first):
        """Y's step k -> k+1 on the increments dWk (3, N), guarded: a
        blow-up at t, node k+1's time, names `what` and path first + column."""
        Yn = self.F[k] @ Y          # in place below: few (w, N) temporaries
        if self.s is not None:
            Yn += self.s[k] @ dWk
        Yn += self.c[k]
        if self.L:      # the channels' sum from zero, each term scaled in place
            loads = 0.0
            for i, Li in self.L.items():
                YL = Li[k] @ Y
                YL *= dWk[i]
                YL += loads
                loads = YL
            Yn += loads
        _guard(Yn, t, what, first)
        return Yn


@dataclass(frozen=True)
class FeedbackLaw:
    """Gain tables on the solver grid plus the closed-loop drift they induce.

    Controls, with the gains of the read-only mapping `gains` by name:
        v1 = K1 Xc + k1
        v2 = K2hat Xh + K2check Xc + k2
        v3 = K3 X + K3hat Xh + K3check Xc + k3
    with X the 4n information state, Xh/Xc its two filters.  gains.csv also
    holds the filtered controls
        vcheck2 = Kv2check Xc + k2
        vhat3   = Kv3hat Xh + K3check Xc + k3
        vcheck3 = Kv3check Xc + k3.

    Simulation reads the block tables of Z = [X | Xh | Xc], stacked on
    rows, paths on columns: [v1 | v2 | v3] = Kz[k] Z + kz[k], and `step` is
    Z's LinearStep for the closed-loop drift dX = (M0 X + M2 Xh + M3 Xc +
    coff) dt + ...: F[k] = I + h M with block rows [M0, M2, M3], [0, M0+M2,
    M3], [0, 0, M0+M2+M3], c[k] h coff on each block, s and L Sigma_i and
    frakC_i on the blocks that observe W_i (X: W1-W3, Xh: W2-W3, Xc: W3).
    cv is the solve's grid coefficient table and cost the Euler cost table
    that montecarlo's `_node_cost` reads: at node k, h its step (1 at the
    last node) and Q_i, R_i, m_i, n_i (G_i, 0, 0, 0 at the last) by player.
    """

    times: np.ndarray
    n: int
    cv: CoeffValues
    cost: Family            # h (K+1,); Wx, Wv (K+1, 3, n, n); wx, wv (K+1, 3, n)
    gains: Mapping[str, np.ndarray]     # GAINS: (K+1, n, m) or (K+1, n)
    step: LinearStep
    Kz: np.ndarray          # (K+1, 3n, 12n)
    kz: np.ndarray          # (K+1, 3n, 1)


@np.errstate(over="ignore", invalid="ignore")
def build_feedback(bundle: RiccatiBundle, Omega: np.ndarray,
                   gain_scale: float = 1.0) -> FeedbackLaw:
    """Assemble all gain tables and the closed-loop drift tables from the
    solved ladder and its offset Omega (K+1, 4n).

    A gain_scale other than 1 builds the sabotaged law of `verify
    --sabotage-gains`: the follower plays v1 = gain_scale K1 Xc + k1, which
    drives the x rows of all three blocks, so the law stays nested."""
    times, cv, p = bundle.times, bundle.cv, bundle.p
    n = p.shape[-1]
    # selectors: x, the upper and the lower 2n of 4n; the lower n of 2n
    e1, U, L = np.eye(n, 4 * n), np.eye(2 * n, 4 * n), np.eye(2 * n, 4 * n, 2 * n)
    s2 = np.eye(n, 2 * n, n)
    R1i, R2i, R3i = cv.Rinv
    B1 = cv.B[0]
    l2, l3 = bundle.l2, bundle.l3
    cB2, cF2 = l2.calB2, l2.calF2
    B3f, Fa, Fb = l3.frakB3, l3.Fa, l3.Fb
    P1, P2, Pf1, Pf2, Pf3 = bundle.P1, bundle.P2, bundle.Pf1, bundle.Pf2, bundle.Pf3
    Psum = Pf1 + Pf2 + Pf3
    LOm = mv(L, Omega)

    g = {}
    g["K3"] = -R3i @ (B3f.mT @ Pf1 + Fa)
    g["K3hat"] = -R3i @ (B3f.mT @ Pf2)
    g["K3check"] = -R3i @ (B3f.mT @ Pf3 + Fb)
    g["k3"] = mv(-R3i, mv(B3f.mT, Omega) + cv.nl[2])
    g["Kv3hat"] = -R3i @ (B3f.mT @ (Pf1 + Pf2) + Fa)
    g["Kv3check"] = -R3i @ (B3f.mT @ Psum + Fa + Fb)

    g["K2hat"] = -R2i @ (cB2.mT @ P1 @ U + cB2.mT @ L @ (Pf1 + Pf2))
    g["K2check"] = -R2i @ ((cB2.mT @ P2 + cF2) @ U + cB2.mT @ L @ Pf3)
    g["k2"] = mv(-R2i, mv(cB2.mT, LOm) + cv.nl[1])
    g["Kv2check"] = -R2i @ ((cB2.mT @ (P1 + P2) + cF2) @ U + cB2.mT @ L @ Psum)

    g["K1"] = -R1i @ (B1.mT @ p @ e1 + B1.mT @ s2 @ (P1 + P2) @ U
                      + B1.mT @ s2 @ L @ Psum)
    g["k1"] = mv(-R1i, mv(B1.mT, mv(s2, LOm)) + cv.nl[0])

    g["M0"] = l3.frakA1 + l3.frakF1bar @ Pf1 + B3f @ g["K3"]
    g["M2"] = (l3.frakA2 + l3.frakF1dd @ Pf2
               + (l3.frakF1dd - l3.frakF1bar) @ Pf1 + B3f @ g["K3hat"])
    g["M3"] = l3.frakA3 + l3.frakF1dd @ Pf3 + B3f @ g["K3check"]
    g["coff"] = mv(l3.frakF1dd, Omega) + l3.ddb3 + mv(B3f, g["k3"])
    if gain_scale != 1.0:
        g["M3"] = g["M3"] + (gain_scale - 1.0) * (e1.T @ B1 @ g["K1"])
        g["K1"] = gain_scale * g["K1"]

    for name, table in g.items():
        if not np.all(np.isfinite(table)):
            raise BlowUpError(f"feedback gain {name}", float(times[-1]))

    On, O = np.zeros((n, 4 * n)), np.zeros((4 * n, 4 * n))
    Kz = block([[On, On, g["K1"]], [On, g["K2hat"], g["K2check"]],
                [g["K3"], g["K3hat"], g["K3check"]]])
    kz = np.concatenate([g["k1"], g["k2"], g["k3"]], axis=-1)[..., None]
    M0, M2, M3 = g["M0"], g["M2"], g["M3"]
    M = block([[M0, M2, M3], [O, M0 + M2, M3], [O, O, M0 + M2 + M3]])
    step = _euler_step(times, M, np.tile(g["coff"], 3),
                       [(first, l3.frakC, l3.Sigma) for first in range(3)])
    gains = MappingProxyType({name: g[name] for name in GAINS})
    cost = Family(h=np.append(np.diff(times), 1.0))
    for name, w, last in (("Wx", cv.Q, cv.G), ("Wv", cv.R, 0.0),
                          ("wx", cv.m, 0.0), ("wv", cv.nl, 0.0)):
        cost[name] = np.moveaxis(w, 1, 0).copy()    # node-major and writable
        cost[name][-1] = last
    return FeedbackLaw(times=times, n=n, cv=cv, cost=cost, gains=gains,
                       step=step, Kz=Kz, kz=kz)


def _euler_step(times, M, drive, blocks) -> LinearStep:
    """The LinearStep of the Euler step y' = y + h (M y + drive) + sum_i
    dW_i (s_i + C_i y) from node tables (K+1, ...), the last node unread:
    F = I + h M, c = h drive as a column and L_i = C_i.  blocks lists y's
    diagonal blocks as (f, C, S), C (3, K+1, d, d) and S (3, K+1, d) or None
    their loads by channel: a block observes W_i for i >= f, and there C_i
    and s_i carry C[i] and S[i].  Channels whose C loads nothing are left
    out."""
    K, w = times.shape[0] - 1, M.shape[-1]
    h = np.diff(times)
    L, s = {}, None if blocks[0][2] is None else np.zeros((K, w, 3))
    for i in range(3):
        Li, at = np.zeros((K, w, w)), 0
        for first, C, S in blocks:
            d = C.shape[-1]
            if i >= first:
                Li[:, at:at + d, at:at + d] = C[i, :-1]
                if s is not None:
                    s[:, at:at + d, i] = S[i, :-1]
            at += d
        if np.any(Li):
            L[i] = Li
    c = h.reshape((K,) + (1,) * (drive.ndim - 1)) * drive[:-1]
    return LinearStep(F=np.eye(w) + h[:, None, None] * M[:-1], s=s, L=L,
                      c=c[..., None])


def _guard(arr, t, what, first):
    """BlowUpError naming the first bad path, first + its index on the last
    axis, if arr is non-finite or huge."""
    if not np.abs(arr).max(initial=0.0) <= BLOWUP_LIMIT:   # NaN fails too
        ok = np.abs(arr) <= BLOWUP_LIMIT
        bad = np.flatnonzero(~ok.reshape(-1, ok.shape[-1]).all(axis=0))
        raise BlowUpError(what, t, path=first + int(bad[0]) if bad.size else None)


def batches(spec: GameSpec, law: FeedbackLaw, plan, n_paths: int, width: int):
    """Yield (start, N, dW, nodes) per batch of `width` of paths 0..n_paths-1:
    its first path and size, its increments (K, 3, N') in the NoisePlan
    plan's one reused buffer, padded by copies of its last path to N', a
    multiple of PAD_PATHS, and `nodes`, its `_node_loop`.  A copy steps as
    its path bit for bit, so no blow-up names it first; drop columns past N."""
    plan = plan.reusing(min(width, n_paths))
    for start in range(0, n_paths, width):
        N = min(start + width, n_paths) - start
        dW = plan.increments(np.arange(start, start + N))
        if pad := -N % PAD_PATHS:
            dW = np.pad(dW, ((0, 0), (0, 0), (0, pad)), mode="edge")
        yield start, N, dW, _node_loop(spec, law, dW, start)


def _node_loop(spec: GameSpec, law: FeedbackLaw, dW: np.ndarray, first: int):
    """Yield (k, Z, V) at each node k = 0..K, Z = [X | Xh | Xc] (12n, N)
    driven by dW (K, 3, N), whose first path is path `first`, and V = [v1 |
    v2 | v3] (3n, N) its equilibrium controls; then step to k+1.  Each step
    makes new arrays, so a consumer may keep what it is handed."""
    K, _, N = dW.shape
    times = law.times
    if K != times.shape[0] - 1:
        raise ValueError("noise increments do not match the solver grid")
    Z = np.tile(np.concatenate([spec.x0, np.zeros(3 * spec.n)])[:, None],
                (3, N))
    for k in range(K + 1):
        V = law.Kz[k] @ Z
        V += law.kz[k]
        yield k, Z, V
        if k < K:
            Z = law.step.advance(k, Z, dW[k], float(times[k + 1]),
                                 "equilibrium state", first)


# ---------------------------------------------------------------------------
# reconstruction of offset processes along equilibrium paths
# ---------------------------------------------------------------------------

def _phicheck_gain(bundle: RiccatiBundle, Omega):
    """(G, g) on the node axis such that the follower offset filter is
    phicheck = G X3check + g along equilibrium paths."""
    n = bundle.p.shape[-1]
    U, L, s2 = np.eye(2 * n, 4 * n), np.eye(2 * n, 4 * n, 2 * n), np.eye(n, 2 * n, n)
    G = (s2 @ (bundle.P1 + bundle.P2) @ U
         + s2 @ L @ (bundle.Pf1 + bundle.Pf2 + bundle.Pf3))
    return G, mv(s2 @ L, Omega)


# ---------------------------------------------------------------------------
# filtered-ansatz drift residual (decoupling diagnostic)
# ---------------------------------------------------------------------------

def ansatz_residual(bundle: RiccatiBundle, Omega, Xc: np.ndarray,
                    dW: np.ndarray) -> float:
    """Max node-wise mismatch between the adjoint drift and the ansatz drift
    along the follower-filter paths Xc (paths, K+1, 4n) driven by dW (K, 3,
    paths).

    The check runs on the follower-filtered quantities: ycheck = -p xcheck -
    phicheck with the martingale integrand read off the ansatz.  Exact in
    continuous time; the discrete mismatch must shrink ~linearly with h.
    All steps are evaluated at once on the node axis.
    """
    times, p, l3 = bundle.times, bundle.p, bundle.l3
    n = p.shape[-1]
    G, g = _phicheck_gain(bundle, Omega)
    y = -(mv(p, Xc[..., :n]) + mv(G, Xc) + g)
    cv = bundle.cv[:-1]                         # left endpoint of each step
    Xc = Xc[:, :-1]
    xc = Xc[..., :n]
    z = [-mv(p[:-1], mv(Ci, xc) + si) for Ci, si in zip(cv.C, cv.sigma)]
    z[2] = z[2] - mv(G[:-1], mv(l3.frakC[2, :-1], Xc) + l3.Sigma[2, :-1])
    drift = (mv(cv.A.mT, y[:, :-1]) - mv(cv.Q[0], xc) - cv.m[0]
             + sum(mv(Ci.mT, zi) for Ci, zi in zip(cv.C, z)))
    pred = -np.diff(times)[:, None] * drift + dW[:, 2].T[..., None] * z[2]
    return float(np.abs(np.diff(y, axis=1) - pred).max())

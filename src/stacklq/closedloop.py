"""Equilibrium feedback laws, path simulation and best-response systems.

The equilibrium is simulated through three coupled forward systems: the 4n
information state X, its filter Xh given the middle player's observations
(components 2 and 3 of the noise), and its filter Xc given the follower's
observations (component 3 only), stepped as one block state Z = [X | Xh |
Xc] on one set of Brownian increments.  Z's drift is block upper-triangular
and its noise loadings are masked (X sees W1-W3, Xh W2-W3, Xc W3), so a
coarser filter never sees a component outside its sigma-algebra: a masked
entry adds an exact zero, which the bit-level measurability checks exercise.
`_node_loop` steps Z by `LinearStep.advance`, the one linear Euler step,
which the sweep's response groups take too; `simulate_blocks`, the one path
simulator, the variational sweep and `verify`'s path checks all run it.

Each lower level's best-response system (its offset, its controls and the
Euler step of its filtered states) is written once, with its intercepts,
and composed once per node by `_response_step`, which steps the physical
state too.  On riccati's `without_intercepts(bundle)` it is the homogeneous
form, under common noise exactly the response to a control perturbation:
the variational sweep in `montecarlo` probes it on basis rows for its
groups' tables.  The tests' reference `respond` (tests/reference.py) runs
it path by path against exogenous controls.  The offsets are solved by
riccati's `backward_rk4`, blow-up guarded like the ladder.
The gains, one read-only mapping `law.gains` keyed by `GAINS`, the
responses and the residuals read the solve's grid coefficient table,
`bundle.cv`, which the law carries on as `law.cv`.  `verify`'s negative
control is a law too: `build_feedback` with a gain_scale other than 1
scales the follower gain on every block.
"""

from __future__ import annotations

from collections.abc import Mapping
from contextlib import contextmanager
from dataclasses import dataclass
from types import MappingProxyType

import numpy as np

from .errors import BlowUpError
from .lift import CoeffValues, mv, selectors
from .model import BLOWUP_LIMIT, GameSpec
from .riccati import RiccatiBundle, backward_rk4

# Paths stepped together: a block of the streaming simulate, whose reused
# increment buffer and records scale with it (11.7 MB of noise at K = 500),
# and a chunk of the variational sweep, whose CPU time on the verify-reducible
# benchmark rose 7.8% with 1024-path chunks against 1.7% for simulate's.
BLOCK_PATHS = 1024
CHUNK_PATHS = 2048

# The output gains by name, in gains.csv order.
GAINS = ("K1", "k1", "K2hat", "K2check", "k2", "K3", "K3hat", "K3check", "k3",
         "Kv2check", "Kv3hat", "Kv3check")


@dataclass(frozen=True)
class LinearStep:
    """The tables of the base law's and every response group's Euler step
    Y' = Y F[k] + c[k] + sum_i dW_{k,i} (s[k, i] + Y L[i][k]), rows Y being
    Z (N, 12n) or a group's (D, N, w), one row block per direction."""

    F: np.ndarray                   # (K, w, w)
    c: np.ndarray                   # (K, w) intercept, or (K, D, 1, w) drives
    s: np.ndarray | None            # (K, 3, w); None for a response group
    L: Mapping[int, np.ndarray]     # (K, w, w) by channel, those loading Y

    def advance(self, k, Y, dWk, t, what):
        """Y's step k -> k+1 on the increments dWk (N, 3), guarded: a
        blow-up at t, the time of node k+1, is named `what`."""
        Yn = Y @ self.F[k]          # in place below: few (N, w) temporaries
        if self.s is not None:
            Yn += dWk @ self.s[k]
        Yn += self.c[k]
        if self.L:      # the channels' sum from zero, each term scaled in place
            loads = 0.0
            for i, Li in self.L.items():
                YL = Y @ Li[k]
                YL *= dWk[:, i, None]
                YL += loads
                loads = YL
            Yn += loads
        _guard(Yn, t, what)
        return Yn


@dataclass(frozen=True)
class FeedbackLaw:
    """Gain tables on the solver grid plus the closed-loop drift they induce.

    Controls, with the gains of the read-only mapping `gains` by name:
        v1 = K1 Xc + k1
        v2 = K2hat Xh + K2check Xc + k2
        v3 = K3 X + K3hat Xh + K3check Xc + k3
    with X the 4n information state, Xh/Xc its two filters.  The filtered
    controls (used to freeze equilibrium processes) are
        vcheck2 = Kv2check Xc + k2
        vhat3   = Kv3hat Xh + K3check Xc + k3
        vcheck3 = Kv3check Xc + k3.

    Simulation reads the block tables of Z = [X | Xh | Xc]: [v1 | v2 | v3] =
    Z KzT[k] + kz[k], and `step` is Z's LinearStep: F[k] = (I + h M)^T with
    block rows [M0, M2, M3], [0, M0+M2, M3], [0, 0, M0+M2+M3], c[k] h coff on
    each block, s and L Sigma_i and frakC_i^T on the blocks that observe W_i
    (X: W1-W3, Xh: W2-W3, Xc: W3).  cv is the solve's grid coefficient table.
    """

    times: np.ndarray
    n: int
    cv: CoeffValues
    gains: Mapping[str, np.ndarray]     # GAINS: (K+1, n, m) or (K+1, n)
    M0: np.ndarray      # closed-loop drift: dX = (M0 X + M2 Xh + M3 Xc + coff)dt + ...
    M2: np.ndarray
    M3: np.ndarray
    coff: np.ndarray
    step: LinearStep
    KzT: np.ndarray         # (K+1, 12n, 3n)
    kz: np.ndarray          # (K+1, 3n)


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
    e1, U, L, s2 = selectors(n)
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

    On = np.zeros_like(g["K1"])
    Kz = np.block([[On, On, g["K1"]], [On, g["K2hat"], g["K2check"]],
                   [g["K3"], g["K3hat"], g["K3check"]]])
    kz = np.concatenate([g["k1"], g["k2"], g["k3"]], axis=-1)
    gains = MappingProxyType({name: g.pop(name) for name in GAINS})
    return FeedbackLaw(times=times, n=n, cv=cv, gains=gains, kz=kz,
                       KzT=np.ascontiguousarray(Kz.mT),
                       step=_block_tables(times, g, l3), **g)


def _block_tables(times, g, l3) -> LinearStep:
    """Z = [X | Xh | Xc]'s LinearStep."""
    K, n4 = times.shape[0] - 1, g["M0"].shape[-1]
    h = np.diff(times)[:, None, None]
    M0, M2, M3 = (g[name][:-1] for name in ("M0", "M2", "M3"))
    O = np.zeros_like(M0)
    M = np.block([[M0, M2, M3], [O, M0 + M2, M3], [O, O, M0 + M2 + M3]])
    sees = np.tril(np.ones((3, 3)))     # [i, b]: block b observes W_{i+1}
    Sig = np.stack([l3.Sigma1, l3.Sigma2, l3.Sigma3], axis=1)[:-1]
    C = np.stack([l3.frakC1, l3.frakC2, l3.frakC3], axis=1)[:-1]
    # L[i][k][(b, r), (d, c)] = frakC_i[c, r] if d = b sees W_i
    L = {i: np.einsum("b,bd,kcr->kbrdc", sees[i], np.eye(3), C[:, i])
         .reshape(K, 3 * n4, 3 * n4) for i in range(3) if np.any(C[:, i])}
    return LinearStep(F=np.ascontiguousarray((np.eye(3 * n4) + h * M).mT),
                      c=np.tile(h[:, 0] * g["coff"][:-1], 3),
                      s=np.einsum("ib,kic->kibc", sees, Sig).reshape(K, 3, 3 * n4),
                      L=L)


def _guard(arr, t, what):
    """BlowUpError naming the first bad path (axis -2) if arr is non-finite or huge."""
    if not np.abs(arr).max(initial=0.0) <= BLOWUP_LIMIT:   # NaN fails too
        ok = np.abs(arr).max(axis=-1) <= BLOWUP_LIMIT
        bad = np.flatnonzero(~ok.reshape(-1, ok.shape[-1]).all(axis=0))
        raise BlowUpError(what, t, path=int(bad[0]) if bad.size else None)


@contextmanager
def _paths_from(start: int):
    """Name a blow-up inside a block of paths by its global path index."""
    try:
        yield
    except BlowUpError as err:
        if err.path is None:
            raise
        raise BlowUpError(err.what, err.t, path=start + err.path) from None


def _state_step(cv: CoeffValues, times, k, dWk, x, v):
    """Euler step k -> k+1 of the physical state under controls v, guarded.

    cv is the node-k coefficient view; v holds (v1, v2, v3) at node k.  x
    is rows (N, n) or, as in the response helpers below, D directions' rows
    (D, N, n).
    """
    h = times[k + 1] - times[k]
    drift = sum((vi @ Bi.T for Bi, vi in zip(cv.B, v)), x @ cv.A.T + cv.b)
    loads = [x @ Ci.T + si for Ci, si in zip(cv.C, cv.sigma)]
    x = x + h * drift + sum(dWk[:, i:i + 1] * loads[i] for i in range(3))
    _guard(x, float(times[k + 1]), "state")
    return x


def _node_loop(spec: GameSpec, law: FeedbackLaw, dW: np.ndarray):
    """Yield (k, Z, V) at each node k = 0..K, Z = [X | Xh | Xc] driven by dW
    and V = [v1 | v2 | v3] its equilibrium controls; then step to k+1.  Each
    step makes new arrays, so a consumer may keep what it is handed."""
    N, K, _ = dW.shape
    times = law.times
    if K != times.shape[0] - 1:
        raise ValueError("noise increments do not match the solver grid")
    Z = np.tile(np.concatenate([spec.x0, np.zeros(3 * spec.n)]), (N, 3))
    for k in range(K + 1):
        yield k, Z, Z @ law.KzT[k] + law.kz[k]
        if k < K:
            Z = law.step.advance(k, Z, dW[:, k], float(times[k + 1]),
                                 "equilibrium state")


# ---------------------------------------------------------------------------
# reconstruction of offset processes along equilibrium paths
# ---------------------------------------------------------------------------

def _phicheck_gain(bundle: RiccatiBundle, Omega):
    """(G, g) on the node axis such that the follower offset filter is
    phicheck = G X3check + g along equilibrium paths."""
    _, U, L, s2 = selectors(bundle.p.shape[-1])
    G = (s2 @ (bundle.P1 + bundle.P2) @ U
         + s2 @ L @ (bundle.Pf1 + bundle.Pf2 + bundle.Pf3))
    return G, mv(s2 @ L, Omega)


# ---------------------------------------------------------------------------
# lower-level best-response systems
# ---------------------------------------------------------------------------

def _offset_backward(times, coef, driver, what):
    """RK4 for -y' = coef y + driver, y(T) = 0, with node-tabulated inputs
    averaged over each step; a driver (D, K+1, d) gives D solutions at once,
    as (K+1, D, d)."""
    CmT = (0.5 * (coef[1:] + coef[:-1])).mT
    dm = 0.5 * (driver[..., 1:, :] + driver[..., :-1, :])
    return backward_rk4(lambda k, j, y: (-(y[0] @ CmT[k - 1] + dm[..., k - 1, :]),),
                        (np.zeros_like(driver[..., 0, :]),), times, what)[0]


def _follower_offset(bundle: RiccatiBundle, v2, v3):
    """Follower offset on the grid under deterministic (K+1, n) leader
    controls, or D directions' (D, K+1, n): -phi' = Abar' phi + p (B2 v2 +
    B3 v3) + f1bar, phi(T) = 0."""
    drv = mv(bundle.p, mv(bundle.cv.B[1], v2) + mv(bundle.cv.B[2], v3))
    return _offset_backward(bundle.times, bundle.l1.Abar.mT,
                            drv + bundle.l1.f1bar, "follower offset")


def _middle_offset(bundle: RiccatiBundle, v3):
    """Middle-level offset on the grid under a deterministic (K+1, n) top
    control, or D directions' (D, K+1, n): -Phi' = (ddA1 + ddA2 + ddA3)' Phi
    + (va + vc) v3 + ddf2, Phi(T) = 0."""
    cl = bundle.l2cl
    return _offset_backward(bundle.times, (cl.ddA1 + cl.ddA2 + cl.ddA3).mT,
                            mv(cl.va + cl.vc, v3) + cl.ddf2, "middle offset")


def _follower_control(bundle: RiccatiBundle, c: CoeffValues, k, xc, phi):
    """Follower control v1 at node k from its filtered state xc and offset
    phi (rows per path); c is the node-k coefficient view."""
    B1 = c.B[0]
    u = xc @ (B1.T @ bundle.p[k]).T + phi @ B1 + c.nl[0]
    return -u @ c.Rinv[0].T


def _middle_controls(bundle: RiccatiBundle, c: CoeffValues, k, X2h, X2c,
                     Phih, Phic):
    """(v1, v2) at node k from the middle player's hat and check filtered 2n
    states and offsets: v2 from the middle level's feedback, v1 from the
    follower's, fed the follower offset filter phicheck."""
    n = c.A.shape[-1]
    s2 = selectors(n)[3]
    cB2, cF2 = bundle.l2.calB2[k], bundle.l2.calF2[k]
    P1, P2 = bundle.P1[k], bundle.P2[k]
    u = X2h @ (cB2.T @ P1).T + X2c @ (cB2.T @ P2 + cF2).T + Phih @ cB2 + c.nl[1]
    phick = X2c @ (s2 @ (P1 + P2)).T + Phic @ s2.T
    v1 = _follower_control(bundle, c, k, X2c[..., :n], phick)
    return v1, -u @ c.Rinv[1].T


def _follower_step(bundle: RiccatiBundle, c: CoeffValues, k, dWk, xc, phi,
                   vc2, vc3):
    """Euler step k -> k+1 of the follower-filtered state, which sees W3 only;
    vc2/vc3 are the leaders' controls at node k as the follower sees them."""
    l1 = bundle.l1
    h = bundle.times[k + 1] - bundle.times[k]
    drift = (xc @ l1.Abar[k].T + phi @ l1.F1bar[k].T + vc2 @ c.B[1].T
             + vc3 @ c.B[2].T)
    load = xc @ c.C[2].T + c.sigma[2]
    return xc + h * (drift + l1.bbar[k]) + dWk[:, 2:3] * load


def _middle_step(bundle: RiccatiBundle, k, dWk, X2h, X2c, Phih, Phic, vh3,
                 vc3):
    """Euler step k -> k+1 of the middle player's filtered 2n states: the hat
    filter sees W2 and W3, the check filter W3 only.  vh3/vc3 are the top
    control at node k as each filter sees it."""
    l2, cl = bundle.l2, bundle.l2cl
    h = bundle.times[k + 1] - bundle.times[k]
    ddA12 = cl.ddA1[k] + cl.ddA2[k]
    drift_h = (X2h @ ddA12.T + X2c @ cl.ddA3[k].T + Phih @ cl.ddF1[k].T
               + vh3 @ l2.calB3[k].T + cl.ddb2[k])
    drift_c = (X2c @ (ddA12 + cl.ddA3[k]).T + Phic @ cl.ddF1[k].T
               + vc3 @ l2.calB3[k].T + cl.ddb2[k])
    d2, d3 = dWk[:, 1:2], dWk[:, 2:3]
    return (X2h + h * drift_h + d2 * (X2h @ l2.calC2[k].T + l2.barsigma2[k])
            + d3 * (X2h @ l2.calC3[k].T + l2.barsigma3[k]),
            X2c + h * drift_c + d3 * (X2c @ l2.calC3[k].T + l2.barsigma3[k]))


def _response_step(bundle: RiccatiBundle, c: CoeffValues, k, dWk, R, off, v,
                   seen):
    """The best response of the levels below l = 4 - len(v) to the exogenous
    controls v = (v_l, ..., v3) at node k, c being the node-k view.

    R holds the rows [x] (l = 1), [x | xcheck] (l = 2) or [x | X2hat |
    X2check] (l = 3); off the responders' offsets, () or (phicheck,) or
    (Phihat, Phicheck); seen the exogenous controls as their filters see
    them, () or (vcheck2, vcheck3) or (vhat3, vcheck3).  Returns the
    responders' controls, () or (v1,) or (v1, v2), and R at node k+1, None
    at the last node.
    """
    n, level = c.A.shape[-1], 4 - len(v)
    if level == 2:
        controls = (_follower_control(bundle, c, k, R[..., n:], *off),)
    elif level == 3:
        controls = _middle_controls(bundle, c, k, R[..., n:3 * n], R[..., 3 * n:],
                                    *off)
    else:
        controls = ()
    if dWk is None:
        return controls, None
    filtered = ((_follower_step(bundle, c, k, dWk, R[..., n:], *off, *seen),)
                if level == 2 else
                _middle_step(bundle, k, dWk, R[..., n:3 * n], R[..., 3 * n:],
                             *off, *seen) if level == 3 else ())
    x = _state_step(c, bundle.times, k, dWk, R[..., :n], controls + tuple(v))
    return controls, np.concatenate((x, *filtered), axis=-1)


# ---------------------------------------------------------------------------
# filtered-ansatz drift residual (decoupling diagnostic)
# ---------------------------------------------------------------------------

def ansatz_residual(bundle: RiccatiBundle, Omega, Xc: np.ndarray,
                    dW: np.ndarray) -> float:
    """Max node-wise mismatch between the adjoint drift and the ansatz drift
    along the follower-filter paths Xc (paths, K+1, 4n) driven by dW.

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
    z[2] = z[2] - mv(G[:-1], mv(l3.frakC3[:-1], Xc) + l3.Sigma3[:-1])
    drift = (mv(cv.A.mT, y[:, :-1]) - mv(cv.Q[0], xc) - cv.m[0]
             + sum(mv(Ci.mT, zi) for Ci, zi in zip(cv.C, z)))
    pred = -np.diff(times)[:, None] * drift + dW[..., 2:3] * z[2]
    return float(np.abs(np.diff(y, axis=1) - pred).max())

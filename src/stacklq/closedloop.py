"""Equilibrium feedback laws, path simulation and best-response systems.

The equilibrium is simulated through three coupled forward systems: the 4n
information state X, its filter Xh given the middle player's observations
(components 2 and 3 of the noise), and its filter Xc given the follower's
observations (component 3 only), stepped as one block state Z = [X | Xh |
Xc] on one set of Brownian increments.  Z's drift is block upper-triangular
and its noise loadings are masked (X sees W1-W3, Xh W2-W3, Xc W3), so a
coarser filter never sees a component outside its sigma-algebra: a masked
entry adds an exact zero, which the bit-level measurability checks exercise.

Each lower level's best-response system (its offset, its controls and the
Euler step of its filtered states) is written once, node by node, with an
`affine` switch.  `respond_player1` / `respond_player12` run it with every
intercept (b, sigma_i, n_i and the offsets' sources) against exogenous
controls, stepping the physical state in the same node loop.  Its
homogeneous form is, under common noise, exactly the response to a control
perturbation, the systems being linear: the variational sweep in
`montecarlo` probes it on basis rows for its per-group node tables.  The
offsets are solved by riccati's `backward_rk4`, so they are blow-up guarded
like the ladder.  Gains, responses and residuals read the solve's one grid
coefficient table, `bundle.cv`, which the law carries on as `law.cv`.
`verify`'s negative control is a law too: `build_feedback` with a
gain_scale other than 1 scales the follower gain on every block.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from .errors import BlowUpError, UnsupportedPerturbationError
from .lift import CoeffValues, mv, selectors
from .model import GameSpec
from .riccati import BLOWUP_LIMIT, RiccatiBundle, backward_rk4

# Paths stepped together: a block of the streaming simulate, a chunk of the
# variational sweep.
BLOCK_PATHS = 2048


@dataclass(frozen=True)
class FeedbackLaw:
    """Gain tables on the solver grid plus the closed-loop drift they induce.

    Controls:
        v1 = K1 Xc + k1
        v2 = K2hat Xh + K2check Xc + k2
        v3 = K3 X + K3hat Xh + K3check Xc + k3
    with X the 4n information state, Xh/Xc its two filters.  The filtered
    controls (used to freeze equilibrium processes) are
        vcheck2 = Kv2check Xc + k2
        vhat3   = Kv3hat Xh + K3check Xc + k3
        vcheck3 = Kv3check Xc + k3.

    Simulation reads the block tables of Z = [X | Xh | Xc]: [v1 | v2 | v3] =
    Z KzT[k] + kz[k], and a step is Z Ft[k] + dW_k S[k] + cz[k] (+ dW_k,i Z
    Ct[k]_i summed over i), Ft[k] = (I + h M)^T with block rows [M0, M2, M3],
    [0, M0+M2, M3], [0, 0, M0+M2+M3].  S and Ct hold Sigma_i and frakC_i on
    the blocks that observe W_i (X: W1-W3, Xh: W2-W3, Xc: W3); Ct is None
    when every frakC_i is 0.  cv is the solve's grid coefficient table.
    """

    times: np.ndarray
    n: int
    cv: CoeffValues
    K1: np.ndarray
    k1: np.ndarray
    K2hat: np.ndarray
    K2check: np.ndarray
    k2: np.ndarray
    K3: np.ndarray
    K3hat: np.ndarray
    K3check: np.ndarray
    k3: np.ndarray
    Kv2check: np.ndarray
    Kv3hat: np.ndarray
    Kv3check: np.ndarray
    M0: np.ndarray      # closed-loop drift: dX = (M0 X + M2 Xh + M3 Xc + coff)dt + ...
    M2: np.ndarray
    M3: np.ndarray
    coff: np.ndarray
    Ft: np.ndarray          # (K, 12n, 12n)
    S: np.ndarray           # (K, 3, 12n)
    cz: np.ndarray          # (K, 12n): h coff on each block
    Ct: np.ndarray | None   # (K, 12n, 36n): [C1^T | C2^T | C3^T]
    KzT: np.ndarray         # (K+1, 12n, 3n)
    kz: np.ndarray          # (K+1, 3n)


@dataclass(frozen=True)
class PathBundle:
    """Simulated equilibrium paths (one row per noise path)."""

    times: np.ndarray
    X3: np.ndarray        # (N, K+1, 4n)
    X3hat: np.ndarray
    X3check: np.ndarray
    v1: np.ndarray        # (N, K+1, n)
    v2: np.ndarray
    v3: np.ndarray


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

    return FeedbackLaw(times=times, n=n, cv=cv, **_block_tables(times, g, l3), **g)


def _block_tables(times, g, l3) -> dict:
    """FeedbackLaw's step and control tables of Z = [X | Xh | Xc]."""
    K, n4 = times.shape[0] - 1, g["M0"].shape[-1]
    h = np.diff(times)[:, None, None]
    M0, M2, M3 = (g[name][:-1] for name in ("M0", "M2", "M3"))
    O, On = np.zeros_like(M0), np.zeros_like(g["K1"])
    M = np.block([[M0, M2, M3], [O, M0 + M2, M3], [O, O, M0 + M2 + M3]])
    Kz = np.block([[On, On, g["K1"]], [On, g["K2hat"], g["K2check"]],
                   [g["K3"], g["K3hat"], g["K3check"]]])
    sees = np.tril(np.ones((3, 3)))     # [i, b]: block b observes W_{i+1}
    Sig = np.stack([l3.Sigma1, l3.Sigma2, l3.Sigma3], axis=1)[:-1]
    C = np.stack([l3.frakC1, l3.frakC2, l3.frakC3], axis=1)[:-1]
    Ct = None
    if np.any(C):   # Ct[k][(b, r), (i, d, c)] = frakC_i[c, r] if d = b sees W_i
        Ct = np.einsum("ib,bd,kicr->kbridc", sees, np.eye(3), C)
    return dict(Ft=np.ascontiguousarray((np.eye(3 * n4) + h * M).mT),
                S=np.einsum("ib,kic->kibc", sees, Sig).reshape(K, 3, 3 * n4),
                cz=np.tile(h[:, 0] * g["coff"][:-1], 3),
                Ct=None if Ct is None else Ct.reshape(K, 3 * n4, 9 * n4),
                KzT=np.ascontiguousarray(Kz.mT),
                kz=np.concatenate([g["k1"], g["k2"], g["k3"]], axis=-1))


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


def _state_step(cv: CoeffValues, times, k, dWk, x, v, affine):
    """Euler step k -> k+1 of the physical state under controls v, guarded.

    cv is the node-k coefficient view; v holds (v1, v2, v3) at node k, None
    for a control that does not move.  affine=False drops b and the sigma_i:
    the step of a response to a control perturbation.  x is rows (N, n) or,
    as in the response helpers below, D directions' rows (D, N, n).
    """
    h = times[k + 1] - times[k]
    drift = x @ cv.A.T
    loads = [x @ Ci.T for Ci in cv.C]
    if affine:
        drift = drift + cv.b
        loads = [load + si for load, si in zip(loads, cv.sigma)]
    for Bi, vi in zip(cv.B, v):
        if vi is not None:
            drift = drift + vi @ Bi.T
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
            dWk = dW[:, k]
            Zn = Z @ law.Ft[k]          # in place: no (N, 12n) temporaries
            Zn += dWk @ law.S[k]
            Zn += law.cz[k]
            if law.Ct is not None:
                Zn += np.einsum("pi,pij->pj", dWk,
                                (Z @ law.Ct[k]).reshape(N, 3, -1))
            _guard(Zn, float(times[k + 1]), "equilibrium state")
            Z = Zn


def simulate_equilibrium(spec: GameSpec, law: FeedbackLaw,
                         dW: np.ndarray) -> PathBundle:
    """Explicit first-order stepping of the three filtered systems driven by
    the increments dW (paths, steps, 3)."""
    N, K, _ = dW.shape
    Zs, Vs = np.empty((N, K + 1, 12 * law.n)), np.empty((N, K + 1, 3 * law.n))
    for k, Z, V in _node_loop(spec, law, dW):
        Zs[:, k], Vs[:, k] = Z, V
    X, Xh, Xc = np.split(Zs, 3, axis=-1)
    v1, v2, v3 = np.split(Vs, 3, axis=-1)
    return PathBundle(times=law.times, X3=X, X3hat=Xh, X3check=Xc,
                      v1=v1, v2=v2, v3=v3)


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
# lower-level best-response systems (affine=False: the homogeneous form)
# ---------------------------------------------------------------------------

def _rows_at(v, k, N):
    """(N, d) rows at node k of a (K+1, d) or (N, K+1, d) array."""
    arr = np.asarray(v, dtype=float)
    if arr.ndim == 2:
        return np.broadcast_to(arr[k], (N, arr.shape[-1]))
    return arr[:, k]


@dataclass(frozen=True)
class Player1Response:
    x: np.ndarray
    xcheck: np.ndarray
    v1: np.ndarray


@dataclass(frozen=True)
class Player12Response:
    X2hat: np.ndarray
    X2check: np.ndarray
    v1: np.ndarray
    v2: np.ndarray
    x: np.ndarray


def _offset_backward(times, coef, driver, what):
    """RK4 for -y' = coef y + driver, y(T) = 0, with node-tabulated inputs
    averaged over each step; a driver (D, K+1, d) gives D solutions at once,
    as (K+1, D, d)."""
    CmT = (0.5 * (coef[1:] + coef[:-1])).mT
    dm = 0.5 * (driver[..., 1:, :] + driver[..., :-1, :])
    return backward_rk4(lambda k, j, y: (-(y[0] @ CmT[k - 1] + dm[..., k - 1, :]),),
                        (np.zeros_like(driver[..., 0, :]),), times, what)[0]


def _follower_offset(bundle: RiccatiBundle, v2, v3, affine):
    """Follower offset on the grid under deterministic (K+1, n) leader
    controls, or D directions' (D, K+1, n): -phi' = Abar' phi + p (B2 v2 +
    B3 v3) + f1bar, phi(T) = 0."""
    drv = mv(bundle.p, mv(bundle.cv.B[1], v2) + mv(bundle.cv.B[2], v3))
    if affine:
        drv = drv + bundle.l1.f1bar
    return _offset_backward(bundle.times, bundle.l1.Abar.mT, drv,
                            "follower offset")


def _middle_offset(bundle: RiccatiBundle, v3, affine):
    """Middle-level offset on the grid under a deterministic (K+1, n) top
    control, or D directions' (D, K+1, n): -Phi' = (ddA1 + ddA2 + ddA3)' Phi
    + (va + vc) v3 + ddf2, Phi(T) = 0."""
    cl = bundle.l2cl
    drv = mv(cl.va + cl.vc, v3)
    if affine:
        drv = drv + cl.ddf2
    return _offset_backward(bundle.times, (cl.ddA1 + cl.ddA2 + cl.ddA3).mT, drv,
                            "middle offset")


def _follower_control(bundle: RiccatiBundle, c: CoeffValues, k, xc, phi, affine):
    """Follower control v1 at node k from its filtered state xc and offset
    phi (rows per path); c is the node-k coefficient view."""
    B1 = c.B[0]
    u = xc @ (B1.T @ bundle.p[k]).T + phi @ B1
    if affine:
        u = u + c.nl[0]
    return -u @ c.Rinv[0].T


def _middle_controls(bundle: RiccatiBundle, c: CoeffValues, k, X2h, X2c,
                     Phih, Phic, affine):
    """(v1, v2) at node k from the middle player's hat and check filtered 2n
    states and offsets: v2 from the middle level's feedback, v1 from the
    follower's, fed the follower offset filter phicheck."""
    n = c.A.shape[-1]
    s2 = selectors(n)[3]
    cB2, cF2 = bundle.l2.calB2[k], bundle.l2.calF2[k]
    P1, P2 = bundle.P1[k], bundle.P2[k]
    u = X2h @ (cB2.T @ P1).T + X2c @ (cB2.T @ P2 + cF2).T + Phih @ cB2
    if affine:
        u = u + c.nl[1]
    phick = X2c @ (s2 @ (P1 + P2)).T + Phic @ s2.T
    v1 = _follower_control(bundle, c, k, X2c[..., :n], phick, affine)
    return v1, -u @ c.Rinv[1].T


def _follower_step(bundle: RiccatiBundle, c: CoeffValues, k, dWk, xc, phi,
                   drive, affine):
    """Euler step k -> k+1 of the follower-filtered state, which sees W3 only;
    drive is the leaders' B2 v2 + B3 v3 at node k as the follower sees it."""
    l1 = bundle.l1
    h = bundle.times[k + 1] - bundle.times[k]
    drift = xc @ l1.Abar[k].T + phi @ l1.F1bar[k].T + drive
    load = xc @ c.C[2].T
    if affine:
        drift, load = drift + l1.bbar[k], load + c.sigma[2]
    return xc + h * drift + dWk[:, 2:3] * load


def _middle_step(bundle: RiccatiBundle, k, dWk, X2h, X2c, Phih, Phic, vh3,
                 vc3, affine):
    """Euler step k -> k+1 of the middle player's filtered 2n states: the hat
    filter sees W2 and W3, the check filter W3 only.  vh3/vc3 are the top
    control at node k as each filter sees it."""
    l2, cl = bundle.l2, bundle.l2cl
    h = bundle.times[k + 1] - bundle.times[k]
    ddA12 = cl.ddA1[k] + cl.ddA2[k]
    drift_h = (X2h @ ddA12.T + X2c @ cl.ddA3[k].T + Phih @ cl.ddF1[k].T
               + vh3 @ l2.calB3[k].T)
    drift_c = (X2c @ (ddA12 + cl.ddA3[k]).T + Phic @ cl.ddF1[k].T
               + vc3 @ l2.calB3[k].T)
    load_h2, load_h3 = X2h @ l2.calC2[k].T, X2h @ l2.calC3[k].T
    load_c3 = X2c @ l2.calC3[k].T
    if affine:
        drift_h, drift_c = drift_h + cl.ddb2[k], drift_c + cl.ddb2[k]
        load_h2, load_h3 = load_h2 + l2.barsigma2[k], load_h3 + l2.barsigma3[k]
        load_c3 = load_c3 + l2.barsigma3[k]
    d2, d3 = dWk[:, 1:2], dWk[:, 2:3]
    return (X2h + h * drift_h + d2 * load_h2 + d3 * load_h3,
            X2c + h * drift_c + d3 * load_c3)


def respond_player1(spec: GameSpec, bundle: RiccatiBundle, v2, v3, dW,
                    vcheck2=None, vcheck3=None,
                    phicheck=None) -> Player1Response:
    """Follower best response to exogenous leader controls.

    Deterministic (K+1, n) controls are handled in full (their filters are
    themselves and the offset solves as a backward ODE).  Path-valued
    controls are admitted only together with their filter paths and a
    phicheck path reconstructed by the caller; anything else is rejected.
    """
    N, K, _ = dW.shape
    n, cv = spec.n, bundle.cv
    if np.ndim(v2) == 2 and np.ndim(v3) == 2:
        vc2, vc3 = np.asarray(v2, dtype=float), np.asarray(v3, dtype=float)
        phi = _follower_offset(bundle, vc2, vc3, True)
    else:
        if vcheck2 is None or vcheck3 is None or phicheck is None:
            raise UnsupportedPerturbationError(
                "path-valued leader controls need vcheck2/vcheck3/phicheck paths")
        vc2, vc3, phi = vcheck2, vcheck3, phicheck

    x = xc = np.tile(spec.x0, (N, 1))
    xs, xcs, v1 = (np.empty((N, K + 1, n)) for _ in range(3))
    for k in range(K + 1):
        c, phik = cv[k], _rows_at(phi, k, N)
        xs[:, k], xcs[:, k] = x, xc
        v1[:, k] = _follower_control(bundle, c, k, xc, phik, True)
        if k < K:
            drive = _rows_at(vc2, k, N) @ c.B[1].T + _rows_at(vc3, k, N) @ c.B[2].T
            xc = _follower_step(bundle, c, k, dW[:, k], xc, phik, drive, True)
            v = (v1[:, k], _rows_at(v2, k, N), _rows_at(v3, k, N))
            x = _state_step(c, bundle.times, k, dW[:, k], x, v, True)
    return Player1Response(x=xs, xcheck=xcs, v1=v1)


def respond_player12(spec: GameSpec, bundle: RiccatiBundle, v3, dW,
                     vhat3=None, vcheck3=None,
                     Phihat=None, Phicheck=None) -> Player12Response:
    """Joint best response of the two lower levels to an exogenous top control.

    Deterministic (K+1, n) top controls are handled in full (the offset
    collapses to one backward ODE).  Path-valued controls additionally need
    their filter paths and the hat/check offset paths, which are affine in
    the filtered states: with L the lower 2n rows of the 4n ladder,
    Phihat = L (Pf1 + Pf2) X3hat + L Pf3 X3check + L Omega and
    Phicheck = L (Pf1 + Pf2 + Pf3) X3check + L Omega.
    """
    N, K, _ = dW.shape
    n, cv = spec.n, bundle.cv
    if np.ndim(v3) == 2:
        v3 = np.asarray(v3, dtype=float)
        Phih = Phic = _middle_offset(bundle, v3, True)
        vh3 = vc3 = v3
    else:
        if any(a is None for a in (vhat3, vcheck3, Phihat, Phicheck)):
            raise UnsupportedPerturbationError(
                "path-valued top control needs vhat3/vcheck3/Phihat/Phicheck paths")
        vh3, vc3, Phih, Phic = vhat3, vcheck3, Phihat, Phicheck

    x = np.tile(spec.x0, (N, 1))
    X2h = np.tile(np.concatenate([spec.x0, np.zeros(n)]), (N, 1))
    X2c = X2h.copy()
    X2hs, X2cs = np.empty((N, K + 1, 2 * n)), np.empty((N, K + 1, 2 * n))
    xs, v1, v2 = (np.empty((N, K + 1, n)) for _ in range(3))
    for k in range(K + 1):
        Phihk, Phick = _rows_at(Phih, k, N), _rows_at(Phic, k, N)
        xs[:, k], X2hs[:, k], X2cs[:, k] = x, X2h, X2c
        v1[:, k], v2[:, k] = _middle_controls(
            bundle, cv[k], k, X2h, X2c, Phihk, Phick, True)
        if k < K:
            X2h, X2c = _middle_step(bundle, k, dW[:, k], X2h, X2c, Phihk, Phick,
                                    _rows_at(vh3, k, N), _rows_at(vc3, k, N), True)
            v = (v1[:, k], v2[:, k], _rows_at(v3, k, N))
            x = _state_step(cv[k], bundle.times, k, dW[:, k], x, v, True)
    return Player12Response(X2hat=X2hs, X2check=X2cs, v1=v1, v2=v2, x=xs)


# ---------------------------------------------------------------------------
# filtered-ansatz drift residual (decoupling diagnostic)
# ---------------------------------------------------------------------------

def ansatz_residual(bundle: RiccatiBundle, Omega, paths: PathBundle,
                    dW: np.ndarray) -> float:
    """Max node-wise mismatch between the adjoint drift and the ansatz drift.

    The check runs on the follower-filtered quantities: ycheck = -p xcheck -
    phicheck with the martingale integrand read off the ansatz.  Exact in
    continuous time; the discrete mismatch must shrink ~linearly with h.
    All steps are evaluated at once on the node axis.
    """
    times, p, l3 = bundle.times, bundle.p, bundle.l3
    n = p.shape[-1]
    G, g = _phicheck_gain(bundle, Omega)
    y = -(mv(p, paths.X3check[..., :n]) + mv(G, paths.X3check) + g)
    cv = bundle.cv[:-1]                         # left endpoint of each step
    Xc = paths.X3check[:, :-1]
    xc = Xc[..., :n]
    z = [-mv(p[:-1], mv(Ci, xc) + si) for Ci, si in zip(cv.C, cv.sigma)]
    z[2] = z[2] - mv(G[:-1], mv(l3.frakC3[:-1], Xc) + l3.Sigma3[:-1])
    drift = (mv(cv.A.mT, y[:, :-1]) - mv(cv.Q[0], xc) - cv.m[0]
             + sum(mv(Ci.mT, zi) for Ci, zi in zip(cv.C, z)))
    pred = -np.diff(times)[:, None] * drift + dW[..., 2:3] * z[2]
    return float(np.abs(np.diff(y, axis=1) - pred).max())

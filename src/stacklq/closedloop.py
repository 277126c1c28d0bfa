"""Equilibrium feedback laws and path simulation.

The equilibrium is simulated through three coupled forward systems: the 4n
information state, its filter given the middle player's observations
(components 2 and 3 of the noise), and its filter given the follower's
observations (component 3 only).  All three share one set of Brownian
increments; the coarser filters simply never see the components outside
their sigma-algebra, which is what the bit-level measurability checks
exercise.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from .errors import BlowUpError, UnsupportedPerturbationError
from .lift import CoeffValues, mv, selectors
from .model import GameSpec, solver_times
from .riccati import OffsetBundle, RiccatiBundle
from .rng import NoisePlan

BLOWUP_LIMIT = 1e12
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
    """

    times: np.ndarray
    n: int
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
    frakC1: np.ndarray
    frakC2: np.ndarray
    frakC3: np.ndarray
    Sigma1: np.ndarray
    Sigma2: np.ndarray
    Sigma3: np.ndarray


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
    vcheck2: np.ndarray
    vhat3: np.ndarray
    vcheck3: np.ndarray

    @property
    def x(self) -> np.ndarray:
        n4 = self.X3.shape[-1]
        return self.X3[..., : n4 // 4]


def build_feedback(bundle: RiccatiBundle, offsets: OffsetBundle,
                   spec: GameSpec) -> FeedbackLaw:
    """Assemble all gain tables and the closed-loop drift tables."""
    n = spec.n
    e1, U, L, s2 = selectors(n)
    times = bundle.times
    cv = CoeffValues(spec, times)
    R1i, R2i, R3i = cv.Rinv
    B1 = cv.B[0]
    l2, l3 = bundle.l2, bundle.l3
    cB2, cF2 = l2.calB2, l2.calF2
    B3f, Fa, Fb = l3.frakB3, l3.Fa, l3.Fb
    p, P1, P2 = bundle.p.values, bundle.P1.values, bundle.P2.values
    Pf1, Pf2, Pf3 = bundle.Pf1.values, bundle.Pf2.values, bundle.Pf3.values
    Om = offsets.Omega.values
    Psum = Pf1 + Pf2 + Pf3
    LOm = mv(L, Om)

    g = {}
    g["K3"] = -R3i @ (B3f.mT @ Pf1 + Fa)
    g["K3hat"] = -R3i @ (B3f.mT @ Pf2)
    g["K3check"] = -R3i @ (B3f.mT @ Pf3 + Fb)
    g["k3"] = mv(-R3i, mv(B3f.mT, Om) + cv.nl[2])
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
    g["coff"] = mv(l3.frakF1dd, Om) + l3.ddb3 + mv(B3f, g["k3"])

    for name, table in g.items():
        if not np.all(np.isfinite(table)):
            raise BlowUpError(f"feedback gain {name}", float(times[-1]))

    return FeedbackLaw(times=times, n=n,
                       frakC1=l3.frakC1, frakC2=l3.frakC2, frakC3=l3.frakC3,
                       Sigma1=l3.Sigma1, Sigma2=l3.Sigma2, Sigma3=l3.Sigma3,
                       **g)


def _increments(noise, n_paths):
    if isinstance(noise, NoisePlan):
        if n_paths is None:
            raise ValueError("n_paths required with a NoisePlan")
        return noise.increments(np.arange(n_paths))
    return noise


def _guard(arr, t, what):
    """BlowUpError naming the first bad path when arr is non-finite or huge."""
    if not np.abs(arr).max(initial=0.0) <= BLOWUP_LIMIT:   # NaN fails too
        ok = np.abs(arr).max(axis=tuple(range(1, arr.ndim))) <= BLOWUP_LIMIT
        bad = np.flatnonzero(~ok)
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


def _controls(law: FeedbackLaw, k, X, Xh, Xc):
    """Equilibrium controls (v1, v2, v3) at node k."""
    v1 = Xc @ law.K1[k].T + law.k1[k]
    v2 = Xh @ law.K2hat[k].T + Xc @ law.K2check[k].T + law.k2[k]
    v3 = X @ law.K3[k].T + Xh @ law.K3hat[k].T + Xc @ law.K3check[k].T + law.k3[k]
    return v1, v2, v3


def _filtered_step(law: FeedbackLaw, times, k, dWk, X, Xh, Xc):
    """Euler step k -> k+1 of the state and its two filters, guarded."""
    h = times[k + 1] - times[k]
    drift = X @ law.M0[k].T + Xh @ law.M2[k].T + Xc @ law.M3[k].T + law.coff[k]
    drift_h = Xh @ (law.M0[k] + law.M2[k]).T + Xc @ law.M3[k].T + law.coff[k]
    drift_c = Xc @ (law.M0[k] + law.M2[k] + law.M3[k]).T + law.coff[k]
    d1, d2, d3 = dWk[:, 0:1], dWk[:, 1:2], dWk[:, 2:3]
    Xn = (X + h * drift
          + d1 * (X @ law.frakC1[k].T + law.Sigma1[k])
          + d2 * (X @ law.frakC2[k].T + law.Sigma2[k])
          + d3 * (X @ law.frakC3[k].T + law.Sigma3[k]))
    Xhn = (Xh + h * drift_h
           + d2 * (Xh @ law.frakC2[k].T + law.Sigma2[k])
           + d3 * (Xh @ law.frakC3[k].T + law.Sigma3[k]))
    Xcn = Xc + h * drift_c + d3 * (Xc @ law.frakC3[k].T + law.Sigma3[k])
    _guard(Xn, float(times[k + 1]), "equilibrium state")
    return Xn, Xhn, Xcn


def _state_step(cv: CoeffValues, times, k, dWk, x, v):
    """Euler step k -> k+1 of the physical state under controls v, guarded.

    cv is the node-k coefficient view; v holds (v1, v2, v3) at node k.
    """
    h = times[k + 1] - times[k]
    drift = x @ cv.A.T + cv.b
    for Bi, vi in zip(cv.B, v):
        drift = drift + vi @ Bi.T
    diff = sum(dWk[:, i:i + 1] * (x @ cv.C[i].T + cv.sigma[i]) for i in range(3))
    x = x + h * drift + diff
    _guard(x, float(times[k + 1]), "state")
    return x


def _node_loop(spec: GameSpec, law: FeedbackLaw, dW: np.ndarray):
    """Yield (k, X, Xh, Xc, v) at each node k = 0..K of the three filtered
    systems driven by dW, v being the equilibrium controls; then step to k+1.

    Each step makes new arrays, so a consumer may keep what it is handed.
    """
    N, K, _ = dW.shape
    times = law.times
    if K != times.shape[0] - 1:
        raise ValueError("noise increments do not match the solver grid")
    n4 = law.M0.shape[1]
    X = np.tile(np.concatenate([spec.x0, np.zeros(n4 - spec.n)]), (N, 1))
    Xh = X.copy()
    Xc = X.copy()
    for k in range(K + 1):
        yield k, X, Xh, Xc, _controls(law, k, X, Xh, Xc)
        if k < K:
            X, Xh, Xc = _filtered_step(law, times, k, dW[:, k], X, Xh, Xc)


def simulate_equilibrium(spec: GameSpec, law: FeedbackLaw, noise,
                         n_paths: int | None = None) -> PathBundle:
    """Explicit first-order stepping of the three filtered systems."""
    dW = _increments(noise, n_paths)
    N, K, _ = dW.shape
    n, n4 = law.n, law.M0.shape[1]
    X3, X3h, X3c = (np.empty((N, K + 1, n4)) for _ in range(3))
    out = {name: np.empty((N, K + 1, n)) for name in
           ("v1", "v2", "v3", "vcheck2", "vhat3", "vcheck3")}
    for k, X, Xh, Xc, v in _node_loop(spec, law, dW):
        X3[:, k], X3h[:, k], X3c[:, k] = X, Xh, Xc
        out["v1"][:, k], out["v2"][:, k], out["v3"][:, k] = v
        out["vcheck2"][:, k] = Xc @ law.Kv2check[k].T + law.k2[k]
        out["vhat3"][:, k] = (Xh @ law.Kv3hat[k].T + Xc @ law.K3check[k].T
                              + law.k3[k])
        out["vcheck3"][:, k] = Xc @ law.Kv3check[k].T + law.k3[k]
    return PathBundle(times=law.times, X3=X3, X3hat=X3h, X3check=X3c, **out)


# ---------------------------------------------------------------------------
# raw state simulation under arbitrary control paths
# ---------------------------------------------------------------------------

def _rows_at(v, k, N):
    """(N, d) rows at node k of a (K+1, d) or (N, K+1, d) array."""
    arr = np.asarray(v, dtype=float)
    if arr.ndim == 2:
        return np.broadcast_to(arr[k], (N, arr.shape[-1]))
    return arr[:, k]


def simulate_state(spec: GameSpec, v1, v2, v3, noise, n_paths: int | None = None,
                   x0=None) -> np.ndarray:
    """Euler integration of the physical state under given control paths."""
    dW = _increments(noise, n_paths)
    N, K, _ = dW.shape
    times = solver_times(spec)
    if K != times.shape[0] - 1:
        raise ValueError("noise increments do not match the solver grid")
    n = spec.n
    cv = CoeffValues(spec, times)
    x = np.tile(spec.x0 if x0 is None else np.asarray(x0, dtype=float), (N, 1))
    xs = np.empty((N, K + 1, n))
    for k in range(K):
        xs[:, k] = x
        v = [_rows_at(vi, k, N) for vi in (v1, v2, v3)]
        x = _state_step(cv[k], times, k, dW[:, k], x, v)
    xs[:, K] = x
    return xs


# ---------------------------------------------------------------------------
# reconstruction of offset processes along equilibrium paths
# ---------------------------------------------------------------------------

def reconstruct_phicheck(bundle: RiccatiBundle, offsets: OffsetBundle,
                         X3check: np.ndarray) -> np.ndarray:
    """Follower offset filter along paths: affine in the check-filtered state."""
    n = bundle.p.values.shape[-1]
    _, U, L, s2 = selectors(n)
    K = bundle.times.shape[0]
    out = np.empty(X3check.shape[:2] + (n,))
    for k in range(K):
        G = (s2 @ (bundle.P1.values[k] + bundle.P2.values[k]) @ U
             + s2 @ L @ (bundle.Pf1.values[k] + bundle.Pf2.values[k]
                         + bundle.Pf3.values[k]))
        out[:, k] = X3check[:, k] @ G.T + s2 @ (L @ offsets.Omega.values[k])
    return out


def reconstruct_Phi(bundle: RiccatiBundle, offsets: OffsetBundle,
                    X3hat: np.ndarray, X3check: np.ndarray):
    """Middle-level offset filters (hat and check versions) along paths."""
    n = bundle.p.values.shape[-1]
    _, U, L, s2 = selectors(n)
    K = bundle.times.shape[0]
    Phih = np.empty(X3hat.shape[:2] + (2 * n,))
    Phic = np.empty_like(Phih)
    for k in range(K):
        Psum12 = bundle.Pf1.values[k] + bundle.Pf2.values[k]
        Psum = Psum12 + bundle.Pf3.values[k]
        off = L @ offsets.Omega.values[k]
        Phih[:, k] = (X3hat[:, k] @ (L @ Psum12).T
                      + X3check[:, k] @ (L @ bundle.Pf3.values[k]).T + off)
        Phic[:, k] = X3check[:, k] @ (L @ Psum).T + off
    return Phih, Phic


def reconstruct_Phi_raw(bundle: RiccatiBundle, offsets: OffsetBundle,
                        X3: np.ndarray, X3hat: np.ndarray,
                        X3check: np.ndarray) -> np.ndarray:
    """Unfiltered middle-level offset along paths."""
    n = bundle.p.values.shape[-1]
    _, _, L, _ = selectors(n)
    K = bundle.times.shape[0]
    out = np.empty(X3.shape[:2] + (2 * n,))
    for k in range(K):
        out[:, k] = (X3[:, k] @ (L @ bundle.Pf1.values[k]).T
                     + X3hat[:, k] @ (L @ bundle.Pf2.values[k]).T
                     + X3check[:, k] @ (L @ bundle.Pf3.values[k]).T
                     + L @ offsets.Omega.values[k])
    return out


# ---------------------------------------------------------------------------
# follower response systems (verification harness)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Player1Response:
    times: np.ndarray
    x: np.ndarray
    xcheck: np.ndarray
    phicheck: np.ndarray
    v1: np.ndarray


@dataclass(frozen=True)
class Player12Response:
    times: np.ndarray
    X2: np.ndarray
    X2hat: np.ndarray
    X2check: np.ndarray
    Phihat: np.ndarray
    Phicheck: np.ndarray
    v1: np.ndarray
    v2: np.ndarray
    x: np.ndarray
    xcheck: np.ndarray
    phicheck: np.ndarray


def _det_backward(times, coef, driver, terminal):
    """RK4 for -y' = coef(k) y + driver(k) with node-tabulated inputs."""
    Kn = times.shape[0]
    y = terminal.copy()
    out = np.empty((Kn,) + y.shape)
    out[-1] = y
    for k in range(Kn - 1, 0, -1):
        h = times[k] - times[k - 1]
        Cm = 0.5 * (coef[k] + coef[k - 1])
        dm = 0.5 * (driver[k] + driver[k - 1])
        f = lambda yv: -(Cm @ yv + dm)
        k1 = f(y)
        k2 = f(y - 0.5 * h * k1)
        k3 = f(y - 0.5 * h * k2)
        k4 = f(y - h * k3)
        y = y - (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
        out[k - 1] = y
    return out


def _is_deterministic(v):
    return np.asarray(v).ndim == 2


def respond_player1(spec: GameSpec, bundle: RiccatiBundle, v2, v3, noise,
                    n_paths: int | None = None, vcheck2=None, vcheck3=None,
                    phicheck=None) -> Player1Response:
    """Follower best response to exogenous leader controls.

    Deterministic (K+1, n) controls are handled in full (their filters are
    themselves and the offset solves as a backward ODE).  Path-valued
    controls are admitted only together with their filter paths and a
    phicheck path reconstructed by the caller; anything else is rejected.
    """
    dW = _increments(noise, n_paths)
    N, K, _ = dW.shape
    times = bundle.times
    n = spec.n
    p = bundle.p.values
    l1 = bundle.l1
    cv = CoeffValues(spec, times)
    B1, B2, B3 = cv.B

    det = _is_deterministic(v2) and _is_deterministic(v3)
    if det:
        vc2 = np.asarray(v2, dtype=float)
        vc3 = np.asarray(v3, dtype=float)
        drv = np.einsum("kij,kj->ki", p, np.einsum("kij,kj->ki", B2, vc2)
                        + np.einsum("kij,kj->ki", B3, vc3)) + l1.f1bar
        coefT = np.transpose(l1.Abar, (0, 2, 1))
        phi = _det_backward(times, coefT, drv, np.zeros(n))
        phi_paths = np.broadcast_to(phi, (N, K + 1, n))
    else:
        if vcheck2 is None or vcheck3 is None or phicheck is None:
            raise UnsupportedPerturbationError(
                "path-valued leader controls need vcheck2/vcheck3/phicheck paths")
        vc2, vc3, phi_paths = vcheck2, vcheck3, phicheck

    C3, sig3 = cv.C[2], cv.sigma[2]
    xc = np.tile(spec.x0, (N, 1))
    xcs = np.empty((N, K + 1, n))
    for k in range(K):
        xcs[:, k] = xc
        h = times[k + 1] - times[k]
        drift = (xc @ l1.Abar[k].T + phi_paths[:, k] @ l1.F1bar[k].T
                 + _rows_at(vc2, k, N) @ B2[k].T
                 + _rows_at(vc3, k, N) @ B3[k].T + l1.bbar[k])
        xc = xc + h * drift + dW[:, k, 2:3] * (xc @ C3[k].T + sig3[k])
    xcs[:, K] = xc

    v1 = np.empty((N, K + 1, n))
    nl1, R1i = cv.nl[0], cv.Rinv[0]
    for k in range(K + 1):
        v1[:, k] = -(xcs[:, k] @ (B1[k].T @ p[k]).T + phi_paths[:, k] @ B1[k]
                     + nl1[k]) @ R1i[k].T

    xs = simulate_state(spec, v1, v2, v3, dW)
    return Player1Response(times=times, x=xs, xcheck=xcs, phicheck=phi_paths, v1=v1)


def respond_player12(spec: GameSpec, bundle: RiccatiBundle, offsets: OffsetBundle,
                     v3, noise, n_paths: int | None = None, vhat3=None,
                     vcheck3=None, Phihat=None, Phicheck=None,
                     Phiraw=None) -> Player12Response:
    """Joint best response of the two lower levels to an exogenous top control.

    Deterministic (K+1, n) top controls are handled in full (the offset
    collapses to one backward ODE).  Path-valued controls additionally need
    their filter paths and the offset paths reconstructed by the caller.
    """
    dW = _increments(noise, n_paths)
    N, K, _ = dW.shape
    times = bundle.times
    n = spec.n
    l2, cl = bundle.l2, bundle.l2cl
    P1, P2 = bundle.P1.values, bundle.P2.values
    _, _, _, s2 = selectors(n)

    det = _is_deterministic(v3)
    if det:
        v3 = np.asarray(v3, dtype=float)
        coefT = np.transpose(cl.ddA1 + cl.ddA2 + cl.ddA3, (0, 2, 1))
        drv = np.einsum("kij,kj->ki", cl.va + cl.vc, v3) + cl.ddf2
        Phi = _det_backward(times, coefT, drv, np.zeros(2 * n))
        Phih_paths = Phic_paths = Phiraw_paths = Phi
        vh3 = vc3 = v3
    else:
        if any(a is None for a in (vhat3, vcheck3, Phihat, Phicheck, Phiraw)):
            raise UnsupportedPerturbationError(
                "path-valued top control needs vhat3/vcheck3/Phihat/Phicheck/"
                "Phiraw paths")
        Phih_paths, Phic_paths, Phiraw_paths = Phihat, Phicheck, Phiraw
        vh3, vc3 = vhat3, vcheck3

    X0 = np.concatenate([spec.x0, np.zeros(n)])
    X2 = np.tile(X0, (N, 1))
    X2h = X2.copy()
    X2c = X2.copy()
    X2s = np.empty((N, K + 1, 2 * n))
    X2hs = np.empty_like(X2s)
    X2cs = np.empty_like(X2s)
    v2 = np.empty((N, K + 1, n))
    v1 = np.empty((N, K + 1, n))
    table = CoeffValues(spec, times)
    for k in range(K + 1):
        X2s[:, k], X2hs[:, k], X2cs[:, k] = X2, X2h, X2c
        cv = table[k]
        cB2, cF2 = l2.calB2[k], l2.calF2[k]
        v2[:, k] = -(X2h @ (cB2.T @ P1[k]).T + X2c @ (cB2.T @ P2[k] + cF2).T
                     + _rows_at(Phih_paths, k, N) @ cB2 + cv.nl[1]) @ cv.Rinv[1].T
        phick = (X2c @ (s2 @ (P1[k] + P2[k])).T + _rows_at(Phic_paths, k, N) @ s2.T)
        v1[:, k] = -(X2c[:, :n] @ (cv.B[0].T @ bundle.p.values[k]).T
                     + phick @ cv.B[0] + cv.nl[0]) @ cv.Rinv[0].T
        if k == K:
            break
        h = times[k + 1] - times[k]
        ddA12 = cl.ddA1[k] + cl.ddA2[k]
        Y2 = X2 @ P1[k].T + X2c @ P2[k].T + _rows_at(Phiraw_paths, k, N)
        drift = (X2 @ l2.calA1[k].T + X2c @ l2.calA2[k].T + Y2 @ l2.calF1[k].T
                 + v2[:, k] @ cB2.T + _rows_at(v3, k, N) @ l2.calB3[k].T + l2.barb2[k])
        drift_h = (X2h @ ddA12.T + X2c @ cl.ddA3[k].T
                   + _rows_at(Phih_paths, k, N) @ cl.ddF1[k].T
                   + _rows_at(vh3, k, N) @ l2.calB3[k].T + cl.ddb2[k])
        drift_c = (X2c @ (ddA12 + cl.ddA3[k]).T
                   + _rows_at(Phic_paths, k, N) @ cl.ddF1[k].T
                   + _rows_at(vc3, k, N) @ l2.calB3[k].T + cl.ddb2[k])
        d1, d2, d3 = dW[:, k, 0:1], dW[:, k, 1:2], dW[:, k, 2:3]
        X2 = (X2 + h * drift
              + d1 * (X2 @ l2.calC1[k].T + l2.barsigma1[k])
              + d2 * (X2 @ l2.calC2[k].T + l2.barsigma2[k])
              + d3 * (X2 @ l2.calC3[k].T + l2.barsigma3[k]))
        X2h = (X2h + h * drift_h
               + d2 * (X2h @ l2.calC2[k].T + l2.barsigma2[k])
               + d3 * (X2h @ l2.calC3[k].T + l2.barsigma3[k]))
        X2c = X2c + h * drift_c + d3 * (X2c @ l2.calC3[k].T + l2.barsigma3[k])

    xs = simulate_state(spec, v1, v2, v3, dW)
    phic_full = np.empty((N, K + 1, n))
    for k in range(K + 1):
        phic_full[:, k] = (X2cs[:, k] @ (s2 @ (P1[k] + P2[k])).T
                           + _rows_at(Phic_paths, k, N) @ s2.T)
    return Player12Response(times=times, X2=X2s, X2hat=X2hs, X2check=X2cs,
                            Phihat=np.asarray(Phih_paths),
                            Phicheck=np.asarray(Phic_paths),
                            v1=v1, v2=v2, x=xs, xcheck=X2cs[:, :, :n],
                            phicheck=phic_full)


# ---------------------------------------------------------------------------
# filtered-ansatz drift residual (decoupling diagnostic)
# ---------------------------------------------------------------------------

def ansatz_residual(spec: GameSpec, bundle: RiccatiBundle, offsets: OffsetBundle,
                    paths: PathBundle, dW: np.ndarray) -> float:
    """Max node-wise mismatch between the adjoint drift and the ansatz drift.

    The check runs on the follower-filtered quantities: ycheck = -p xcheck -
    phicheck with the martingale integrand read off the ansatz.  Exact in
    continuous time; the discrete mismatch must shrink ~linearly with h.
    """
    times = bundle.times
    K = times.shape[0] - 1
    n = spec.n
    p = bundle.p.values
    xc = paths.X3check[:, :, :n]
    phic = reconstruct_phicheck(bundle, offsets, paths.X3check)
    _, U, L, s2 = selectors(n)
    table = CoeffValues(spec, times)
    worst = 0.0
    y = -(np.einsum("kij,pkj->pki", p, xc) + phic)
    for k in range(K):
        cv = table[k]
        h = times[k + 1] - times[k]
        Gphi = (s2 @ (bundle.P1.values[k] + bundle.P2.values[k]) @ U
                + s2 @ L @ (bundle.Pf1.values[k] + bundle.Pf2.values[k]
                            + bundle.Pf3.values[k]))
        theta = (paths.X3check[:, k] @ bundle.l3.frakC3[k].T
                 + bundle.l3.Sigma3[k]) @ Gphi.T
        z = [-(xc[:, k] @ cv.C[i].T + cv.sigma[i]) @ p[k].T for i in range(3)]
        z[2] = z[2] - theta
        drift = (y[:, k] @ cv.A - xc[:, k] @ cv.Q[0].T - cv.m[0]
                 + sum(zi @ cv.C[i] for i, zi in enumerate(z)))
        pred = -h * drift + dW[:, k, 2:3] * z[2]
        mism = np.abs((y[:, k + 1] - y[:, k]) - pred).max()
        worst = max(worst, float(mism))
    return worst

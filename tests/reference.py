"""Reference best responses of the lower levels, for the tests.

The follower's and the middle player's best-response systems, written once
with their intercepts as node helpers: their offsets (`_follower_offset`,
`_middle_offset`, solved by the sweep's `_offset_backward`), their controls
(`_follower_control`, `_middle_controls`), the Euler steps of their
filtered states (`_follower_step`, `_middle_step`) and of the physical
state (`_state_step`), composed once per node by `_response_step`.
`respond` runs that composition against exogenous controls, path by path.
`solve_p` solves the ladder's first level alone, for the oracle's
reference value.  On the bundle of `homogeneous(spec)` the helpers step the homogeneous
systems, which the variational sweep's response groups step through tables
built in closed form from the solved ladder: the tests hold the groups
against these helpers.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np

from stacklq.closedloop import _guard
from stacklq.errors import StackLQError
from stacklq.lift import CoeffValues, mv, selectors
from stacklq.model import Coefficient, GameSpec, solver_times
from stacklq.montecarlo import _offset_backward
from stacklq.riccati import (_LOADS, RiccatiBundle, _level_ops, _level_rhs,
                             backward_rk4, terminal_state)

# the intercepts: of the ladder's equations, only Omega's read them
INTERCEPTS = ("b", "sigma1", "sigma2", "sigma3", "m1", "m2", "m3", "n1", "n2",
              "n3")


def homogeneous(spec: GameSpec) -> GameSpec:
    """spec with its intercepts exact zeros, on the same pieces: its grid
    and its solved levels p to Pf3 are spec's, and its best-response
    systems are spec's homogeneous ones."""
    zeroed = {name: Coefficient(spec.coeffs[name].breaks,
                                np.zeros_like(spec.coeffs[name].values))
              for name in INTERCEPTS}
    return dataclasses.replace(spec, coeffs={**spec.coeffs, **zeroed})


def solve_p(spec: GameSpec) -> np.ndarray:
    """The follower gain p (K+1, n, n) on the solver grid: the ladder's
    first level alone, one RK4 pass on the step midpoints' operands, kept
    exactly symmetric as solve_game keeps it."""
    times = solver_times(spec)
    ops = _level_ops(CoeffValues(spec, 0.5 * (times[1:] + times[:-1])))
    (p,) = backward_rk4(
        lambda k, j, y: _level_rhs(tuple(a[k - 1] for a in ops), y, _LOADS[0]),
        (terminal_state(spec)[0][None],), times, "riccati system",
        lambda y: (0.5 * (y[0] + y[0].mT),))
    return p[:, 0]


def _state_step(cv: CoeffValues, times, k, dWk, x, v):
    """Euler step k -> k+1 of the physical state under controls v, guarded.

    cv is the node-k coefficient view; v holds (v1, v2, v3) at node k.  x
    is rows (N, n) or, as in the response helpers below, D directions' rows
    (D, N, n), and dWk the step's increments as rows (N, 3).
    """
    h = times[k + 1] - times[k]
    drift = sum((vi @ Bi.T for Bi, vi in zip(cv.B, v)), x @ cv.A.T + cv.b)
    loads = [x @ Ci.T + si for Ci, si in zip(cv.C, cv.sigma)]
    x = x + h * drift + sum(dWk[:, i:i + 1] * loads[i] for i in range(3))
    _guard(x.mT, float(times[k + 1]), "state", 0)   # paths on the last axis
    return x


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
    C, s = l2.calC[:, k], l2.barsigma[:, k]
    return (X2h + h * drift_h + d2 * (X2h @ C[1].T + s[1])
            + d3 * (X2h @ C[2].T + s[2]),
            X2c + h * drift_c + d3 * (X2c @ C[2].T + s[2]))


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


class UnsupportedPerturbationError(StackLQError):
    """An exogenous control without a computable conditional expectation."""


def rows_at(v, k, N):
    """(N, d) rows at node k of a (K+1, d) or (N, K+1, d) array."""
    arr = np.asarray(v, dtype=float)
    if arr.ndim == 2:
        return np.broadcast_to(arr[k], (N, arr.shape[-1]))
    return arr[:, k]


@dataclass(frozen=True)
class Response:
    """The lower levels' best response, one row per noise path: the state x
    (N, K+1, n), the responders' filtered states (the follower's xcheck, or
    the middle player's [X2hat | X2check]) and their controls ([v1] or
    [v1 | v2])."""

    x: np.ndarray
    filtered: np.ndarray
    controls: np.ndarray


def respond(spec: GameSpec, bundle: RiccatiBundle, v, dW, seen=None,
            offsets=None) -> Response:
    """Best response of the levels below l = 4 - len(v) to the exogenous
    controls v = (v_l, ..., v3) on the increments dW (K, 3, N), as
    `NoisePlan.increments` lays them out: the follower's to (v2,
    v3), the two lower levels' to (v3,), none to (v1, v2, v3).

    Deterministic (K+1, n) controls are handled in full: each filter sees
    them as they are and the offsets solve as backward ODEs.  Path-valued
    (N, K+1, n) controls need `seen` and `offsets` as `_response_step`
    reads them, as paths.  The offsets are affine in the filtered states:
    with U/L the upper/lower 2n rows of 4n and s2 the lower n of 2n, Phihat
    = L (Pf1 + Pf2) X3hat + L Pf3 X3check + L Omega, Phicheck = L (Pf1 +
    Pf2 + Pf3) X3check + L Omega and phicheck = s2 ((P1 + P2) U X3check +
    Phicheck).  On the bundle of `homogeneous(spec)` it steps the
    homogeneous systems.
    """
    K, _, N = dW.shape
    n, level = spec.n, 4 - len(v)
    if all(np.ndim(u) == 2 for u in v):
        v = tuple(np.asarray(u, dtype=float) for u in v)
        seen = v * (level - 1)
        offsets = ((_follower_offset(bundle, *v),) if level == 2 else
                   (_middle_offset(bundle, *v),) * 2 if level == 3 else ())
    elif level > 1 and (seen is None or offsets is None):
        raise UnsupportedPerturbationError(
            "path-valued exogenous controls need their filters' and the "
            "offsets' paths")
    x0, z = spec.x0, np.zeros(n)
    R = np.tile(np.concatenate((x0,) * level if level < 3 else (x0, x0, z, x0, z)),
                (N, 1))
    Rs = np.empty((N, K + 1, R.shape[-1]))
    us = np.empty((N, K + 1, (level - 1) * n))
    at = lambda arrs, k: tuple(rows_at(a, k, N) for a in arrs or ())
    for k in range(K + 1):
        Rs[:, k] = R
        u, R = _response_step(bundle, bundle.cv[k], k, dW[k].T if k < K else None,
                              R, at(offsets, k), at(v, k), at(seen, k))
        if u:
            us[:, k] = np.concatenate(u, axis=-1)
    return Response(x=Rs[..., :n], filtered=Rs[..., n:], controls=us)

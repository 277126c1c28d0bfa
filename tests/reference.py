"""Reference best responses of the lower levels, for the tests.

`respond` runs closedloop's per-node composition `_response_step` against
exogenous controls, path by path, with the offsets solved by closedloop's
`_follower_offset` and `_middle_offset`.  The variational sweep's response
groups step the same systems through tables probed once per sweep, so the
tests hold the groups against it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from stacklq.closedloop import _follower_offset, _middle_offset, _response_step
from stacklq.errors import StackLQError
from stacklq.model import GameSpec
from stacklq.riccati import RiccatiBundle


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
    controls v = (v_l, ..., v3) on the increments dW: the follower's to (v2,
    v3), the two lower levels' to (v3,), none to (v1, v2, v3).

    Deterministic (K+1, n) controls are handled in full: each filter sees
    them as they are and the offsets solve as backward ODEs.  Path-valued
    (N, K+1, n) controls need `seen` and `offsets` as `_response_step`
    reads them, as paths.  The offsets are affine in the filtered states:
    with U/L the upper/lower 2n rows of 4n and s2 the lower n of 2n, Phihat
    = L (Pf1 + Pf2) X3hat + L Pf3 X3check + L Omega, Phicheck = L (Pf1 +
    Pf2 + Pf3) X3check + L Omega and phicheck = s2 ((P1 + P2) U X3check +
    Phicheck).  On `without_intercepts(bundle)` it steps the homogeneous
    systems.
    """
    N, K, _ = dW.shape
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
        u, R = _response_step(bundle, bundle.cv[k], k, dW[:, k] if k < K else None,
                              R, at(offsets, k), at(v, k), at(seen, k))
        if u:
            us[:, k] = np.concatenate(u, axis=-1)
    return Response(x=Rs[..., :n], filtered=Rs[..., n:], controls=us)

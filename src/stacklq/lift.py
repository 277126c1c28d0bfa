"""Derived coefficient families for the three solver stages.

Stage 1 substitutes the follower's feedback into the state equation and
yields the reduced n-dimensional families (Abar, F*bar, bbar, f1bar).
Stage 2 stacks the state with the middle player's forward adjoint into a
2n system (cal* families).  Stage 3 stacks once more, to 4n (frak*
families), after the middle player's feedback is substituted (dd*
closed-loop families).  The equations are the self-consistent ones obtained
by re-deriving the ansatz coefficient matching, so every Riccati solution
is symmetric.

Every formula takes one node or a leading node axis.  `CoeffValues(spec, t)`
with a float t holds one node's coefficients; with an array of times each
field carries the node axis first and `cv[k]` is the node-k view.  The
`level*_at` formulas keep the leading axis of their operands: the ladder's
passes call each on the (step, stage) rows of the solver grid's one table,
row k for step k, and `solve_game` on the table itself, kept on the bundle
as `cv` for every consumer of the grid.  `block` builds every stacked (2n,
4n, Z's 12n) layout of the package, a constant zero block standing for one
at every node.
A family with one entry per noise channel (calC, barsigma, frakC, Sigma) is
one array with the channel axis first, as C and sigma are in CoeffValues.
"""

from __future__ import annotations

import numpy as np

from .errors import SingularCoefficientError
from .model import GameSpec


# ---------------------------------------------------------------------------
# stacked layouts
# ---------------------------------------------------------------------------

def block(parts):
    """np.block over the last axis (a list of vectors) or the last two (a list
    of rows of matrices), each part first broadcast to the leading shape all
    the parts share, so a constant zero block stands for one at every node.
    The result is a fresh array."""
    core = 2 if isinstance(parts[0], list) else 1
    rows = parts if core == 2 else [parts]
    lead = np.broadcast_shapes(*(p.shape[:-core] for row in rows for p in row))
    out = [[np.broadcast_to(p, lead + p.shape[-core:]) for p in row] for row in rows]
    return np.block(out if core == 2 else out[0])


def mv(M, v):
    """Matrix-vector product over any leading node axis."""
    return (M @ v[..., None])[..., 0]


# ---------------------------------------------------------------------------
# coefficient tables
# ---------------------------------------------------------------------------

def _with_inverse(R, t, name):
    """R at t and its inverse, solving once per piece that t reaches."""
    j = np.searchsorted(R.breaks, t, side="right")
    eye = np.eye(R.values.shape[-1])
    inv = np.empty_like(R.values)
    for piece in np.unique(j):
        try:
            inv[piece] = np.linalg.solve(R.values[piece], eye)
        except np.linalg.LinAlgError as exc:
            first = np.atleast_1d(t)[np.atleast_1d(j) == piece][0]
            raise SingularCoefficientError(name, float(first)) from exc
    return R.values[j], inv[j]


_STACKED = ("B", "C", "sigma", "Q", "R", "Rinv", "m", "nl")     # player/channel axis first


class CoeffValues:
    """All spec coefficients, with R-inverses, at one time or an array of times.

    With an array of times every field but G carries the node axis first and
    cv[k] is the one-node view at t[k], cv[a:b] a table's.  G is
    time-independent.  A field with one entry per player or noise channel is
    one array with that axis first.  The arrays are read-only: one grid's
    table is shared by every consumer of the solve.
    """

    __slots__ = ("t", "A", "b", "G") + _STACKED

    def __init__(self, spec: GameSpec, t):
        at = lambda name: spec.coeffs[name].at(t)
        stack = lambda name: np.stack([at(f"{name}{i}") for i in (1, 2, 3)])
        self.t = t
        self.A, self.b = at("A"), at("b")
        self.B, self.C, self.sigma = stack("B"), stack("C"), stack("sigma")
        self.Q, self.m, self.nl = stack("Q"), stack("m"), stack("n")
        self.R, self.Rinv = map(np.stack, zip(*(
            _with_inverse(spec.coeffs[f"R{i}"], t, f"R{i}") for i in (1, 2, 3))))
        self.G = np.stack(spec.G)
        for name in self.__slots__[1:]:
            getattr(self, name).flags.writeable = False

    def __getitem__(self, k) -> "CoeffValues":
        node = object.__new__(CoeffValues)
        node.t, node.A, node.b, node.G = self.t[k], self.A[k], self.b[k], self.G
        for name in _STACKED:
            setattr(node, name, getattr(self, name)[:, k])
        return node

    def changes(self) -> np.ndarray:
        """(K,) for a table of K+1 times: whether any coefficient at t[k+1]
        differs from its value at t[k]."""
        rows = [self.A, self.b] + [np.moveaxis(getattr(self, f), 1, 0) for f in _STACKED]
        flat = np.concatenate([r.reshape(len(self.t), -1) for r in rows], axis=1)
        return np.any(flat[1:] != flat[:-1], axis=1)


class Family(dict):
    """One lifted coefficient family: formula outputs by name, also as attributes."""

    def __getattr__(self, name):
        try:
            return self[name]
        except KeyError:
            raise AttributeError(name) from None


# ---------------------------------------------------------------------------
# formulas (one node or a leading node axis)
# ---------------------------------------------------------------------------

def level1_at(cv: CoeffValues, p: np.ndarray) -> Family:
    B1, B2, B3 = cv.B
    R1i, nl1 = cv.Rinv[0], cv.nl[0]
    BRB1 = B1 @ R1i @ B1.mT
    f1bar = mv(p, cv.b) + cv.m[0] - mv(p @ B1 @ R1i, nl1)
    for Ci, si in zip(cv.C, cv.sigma):
        f1bar = f1bar + mv(Ci.mT, mv(p, si))
    return Family(
        Abar=cv.A - BRB1 @ p,
        F1bar=-BRB1,
        F2bar=B2.mT @ p,
        F3bar=B3.mT @ p,
        bbar=cv.b - mv(B1 @ R1i, nl1),
        f1bar=f1bar,
    )


def level2_at(cv: CoeffValues, l1: dict) -> Family:
    n = cv.A.shape[-1]
    z, zv = np.zeros((n, n)), np.zeros(n)
    calC = block([[cv.C, z], [z, z]])       # W3 on both blocks
    calC[2, ..., n:, n:] = cv.C[2]
    return Family(
        calA1=block([[cv.A, z], [z, l1["Abar"]]]),
        calA2=block([[l1["Abar"] - cv.A, z], [z, z]]),
        calF1=block([[z, l1["F1bar"]], [l1["F1bar"], z]]),
        calB2=block([[cv.B[1]], [z]]),
        calB3=block([[cv.B[2]], [z]]),
        calC=calC,
        calQ2=block([[cv.Q[1], z], [z, z]]),
        calF2=block([[z, l1["F2bar"]]]),
        calF3=block([[z, l1["F3bar"]]]),
        barb2=block([l1["bbar"], zv]),
        barsigma=block([cv.sigma, zv]),
        f2bar=block([cv.m[1], l1["f1bar"]]),
    )


def level2_closedloop_at(cv: CoeffValues, l2: dict, P1, P2) -> Family:
    Rinv2, n2 = cv.Rinv[1], cv.nl[1]
    cB2, cB3, cF1, cF2, cF3 = (l2["calB2"], l2["calB3"], l2["calF1"],
                               l2["calF2"], l2["calF3"])
    C, s = l2["calC"], l2["barsigma"]
    K = cB2 @ Rinv2                       # 2n x n
    KBt = K @ cB2.mT                      # 2n x 2n
    P12 = P1 + P2
    ddf2 = (l2["f2bar"] + mv(P12, l2["barb2"]) + mv(C[0].mT, mv(P1, s[0]))
            + mv(C[1].mT, mv(P1, s[1])) + mv(C[2].mT, mv(P12, s[2]))
            - mv(P12, mv(K, n2)) - mv(cF2.mT, mv(Rinv2, n2)))
    return Family(
        ddA1=l2["calA1"] + cF1 @ P1,
        ddA2=-KBt @ P1,
        ddA3=l2["calA2"] + cF1 @ P2 - KBt @ P2 - K @ cF2,
        ddF1=cF1 - KBt,
        ddb2=l2["barb2"] - mv(K, n2),
        ddf2=ddf2,
        H=P1 @ KBt @ P1,
        va=P1 @ cB3,                      # pairs the raw exogenous control
        vc=P2 @ cB3 + cF3.mT,             # pairs its level-1-filtered version
    )


def level3_at(cv: CoeffValues, l2: dict, cl: dict) -> Family:
    n = cv.A.shape[-1]
    z, z2, zc, zv = (np.zeros(d) for d in ((n, n), (2 * n, 2 * n), (2 * n, n), n))
    H = cl["H"]
    frakC = block([[l2["calC"], z2], [z2, z2]])     # W2 on both blocks
    frakC[1, ..., 2 * n:, 2 * n:] = l2["calC"][1]
    return Family(
        frakA1=block([[cl["ddA1"], z2], [z2, cl["ddA1"]]]),
        frakA2=block([[cl["ddA2"], z2], [z2, cl["ddA2"]]]),
        frakA3=block([[cl["ddA3"], z2], [z2, cl["ddA3"]]]),
        frakF1bar=block([[z2, l2["calF1"]], [l2["calF1"], z2]]),
        frakF1dd=block([[z2, cl["ddF1"]], [cl["ddF1"], z2]]),
        frakB3=block([[l2["calB3"]], [zc]]),
        frakC=frakC,
        frakQ3=block([[block([[cv.Q[2], z], [z, z]]), H], [H, z2]]),
        frakQ3dd=block([[z2, -H], [-H, z2]]),
        Fa=block([[zc.mT, cl["va"].mT]]),
        Fb=block([[zc.mT, cl["vc"].mT]]),
        ddb3=block([cl["ddb2"], zv, zv]),
        Sigma=block([l2["barsigma"], zv, zv]),
        ddf3=block([cv.m[2], zv, cl["ddf2"]]),
    )

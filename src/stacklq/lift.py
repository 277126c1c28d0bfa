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
`level*_at` formulas and the block helpers keep the leading axis of their
first argument: the ladder's passes call each on the (step, stage) rows of
the solver grid's one table, row k for step k, and `solve_game` on the
table itself, kept on the bundle as `cv` for every consumer of the grid.
A family with one entry per noise channel (calC, barsigma, frakC, Sigma) is
one array with the channel axis first, as C and sigma are in CoeffValues.
"""

from __future__ import annotations

import numpy as np

from .errors import SingularCoefficientError
from .model import GameSpec


# ---------------------------------------------------------------------------
# block helpers (zero blocks are exact zeros; the leading shape is the first
# argument's)
# ---------------------------------------------------------------------------

def bdiag(M11, M22):
    d1, e1 = M11.shape[-2:]
    out = np.zeros(M11.shape[:-2] + (d1 + M22.shape[-2], e1 + M22.shape[-1]))
    out[..., :d1, :e1] = M11
    out[..., d1:, e1:] = M22
    return out


def anti(M):
    """[[0, M], [M, 0]] for square M."""
    d = M.shape[-1]
    out = np.zeros(M.shape[:-2] + (2 * d, 2 * d))
    out[..., :d, d:] = M
    out[..., d:, :d] = M
    return out


def stack_top(M, rows_below):
    d = M.shape[-2]
    out = np.zeros(M.shape[:-2] + (d + rows_below, M.shape[-1]))
    out[..., :d, :] = M
    return out


def row_right(M, cols_left):
    out = np.zeros(M.shape[:-1] + (cols_left + M.shape[-1],))
    out[..., cols_left:] = M
    return out


def vcat(v1, v2):
    d = v1.shape[-1]
    out = np.zeros(v1.shape[:-1] + (d + v2.shape[-1],))
    out[..., :d] = v1
    out[..., d:] = v2
    return out


def mv(M, v):
    """Matrix-vector product over any leading node axis."""
    return (M @ v[..., None])[..., 0]


def selectors(n: int):
    """(e1, U, L, s2): x from 4n, upper/lower 2n from 4n, lower n from 2n."""
    e1 = np.zeros((n, 4 * n))
    e1[:, :n] = np.eye(n)
    U = np.zeros((2 * n, 4 * n))
    U[:, :2 * n] = np.eye(2 * n)
    L = np.zeros((2 * n, 4 * n))
    L[:, 2 * n:] = np.eye(2 * n)
    s2 = np.zeros((n, 2 * n))
    s2[:, n:] = np.eye(n)
    return e1, U, L, s2


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
    z = np.zeros((n, n))
    zv = np.zeros(n)
    calC = bdiag(cv.C, np.zeros_like(cv.C))     # W3 on both blocks
    calC[2, ..., n:, n:] = cv.C[2]
    return Family(
        calA1=bdiag(cv.A, l1["Abar"]),
        calA2=bdiag(l1["Abar"] - cv.A, z),
        calF1=anti(l1["F1bar"]),
        calB2=stack_top(cv.B[1], n),
        calB3=stack_top(cv.B[2], n),
        calC=calC,
        calQ2=bdiag(cv.Q[1], z),
        calF2=row_right(l1["F2bar"], n),
        calF3=row_right(l1["F3bar"], n),
        barb2=vcat(l1["bbar"], zv),
        barsigma=vcat(cv.sigma, np.zeros_like(cv.sigma)),
        f2bar=vcat(cv.m[1], l1["f1bar"]),
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
    z = np.zeros((n, n))
    zv2 = np.zeros(2 * n)
    frakQ3 = anti(cl["H"])
    frakQ3[..., :2 * n, :2 * n] = bdiag(cv.Q[2], z)
    frakC = bdiag(l2["calC"], np.zeros_like(l2["calC"]))   # W2 on both blocks
    frakC[1, ..., 2 * n:, 2 * n:] = l2["calC"][1]
    return Family(
        frakA1=bdiag(cl["ddA1"], cl["ddA1"]),
        frakA2=bdiag(cl["ddA2"], cl["ddA2"]),
        frakA3=bdiag(cl["ddA3"], cl["ddA3"]),
        frakF1bar=anti(l2["calF1"]),
        frakF1dd=anti(cl["ddF1"]),
        frakB3=stack_top(l2["calB3"], 2 * n),
        frakC=frakC,
        frakQ3=frakQ3,
        frakQ3dd=anti(-cl["H"]),
        Fa=row_right(cl["va"].mT, 2 * n),
        Fb=row_right(cl["vc"].mT, 2 * n),
        ddb3=vcat(cl["ddb2"], zv2),
        Sigma=vcat(l2["barsigma"], np.zeros_like(l2["barsigma"])),
        ddf3=vcat(vcat(cv.m[2], np.zeros(n)), cl["ddf2"]),
    )

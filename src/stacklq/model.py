"""Game specification: dynamics coefficients, cost weights, information pattern.

A game is three controllers acting on one linear SDE

    dx = [A x + B1 v1 + B2 v2 + B3 v3 + b] dt + sum_i [Ci x + sigma_i] dWi

with quadratic costs per player and the nested information pattern in which
player 1 observes W3, player 2 observes (W2, W3) and player 3 observes all
three Brownian components.  Coefficients are constant or piecewise-constant
in time so that specs are exactly representable in JSON and integrable
without quadrature ambiguity.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .errors import DomainError, SpecFormatError

NESTED_ADJACENCY = np.array([[0, 0, 1], [0, 1, 1], [1, 1, 1]], dtype=int)

PSD_EIG_TOL = -1e-10        # min eigenvalue accepted for Q, G
RHO_MIN_DEFAULT = 1e-8      # min eigenvalue required for R
SYM_TOL = 1e-10
BIG = 1e18                  # finiteness guard (uniform boundedness surrogate)

COEFF_NAMES = ("A", "B1", "B2", "B3", "C1", "C2", "C3",
               "b", "sigma1", "sigma2", "sigma3")
VECTOR_COEFFS = ("b", "sigma1", "sigma2", "sigma3")


@dataclass(frozen=True)
class Coefficient:
    """A constant or piecewise-constant (right-continuous) time coefficient."""

    breaks: np.ndarray   # shape (J,), strictly increasing, inside (0, T); empty = constant
    values: np.ndarray   # shape (J+1, ...) pieces on [0,b0), [b0,b1), ..., [bJ-1, T]

    @staticmethod
    def constant(value) -> "Coefficient":
        v = np.asarray(value, dtype=float)
        return Coefficient(np.zeros(0), v[None, ...].copy())

    @staticmethod
    def piecewise(breaks, values) -> "Coefficient":
        b = np.asarray(breaks, dtype=float)
        v = np.asarray(values, dtype=float)
        if v.shape[0] != b.shape[0] + 1:
            raise SpecFormatError("piecewise coefficient needs len(values) == len(breaks)+1")
        return Coefficient(b, v)

    @property
    def is_constant(self) -> bool:
        return self.breaks.size == 0

    def at(self, t) -> np.ndarray:
        """Value of the piece whose half-open interval [tau_j, tau_{j+1}) holds t.

        An array of times gives one value per time along a leading axis.
        """
        return self.values[np.searchsorted(self.breaks, t, side="right")]

    def to_json(self):
        if self.is_constant:
            return {"kind": "constant", "value": self.values[0].tolist()}
        return {"kind": "piecewise", "breaks": self.breaks.tolist(),
                "values": self.values.tolist()}

    @staticmethod
    def from_json(obj) -> "Coefficient":
        try:
            kind = obj["kind"]
            if kind == "constant":
                return Coefficient.constant(obj["value"])
            if kind == "piecewise":
                return Coefficient.piecewise(obj["breaks"], obj["values"])
        except (KeyError, TypeError) as exc:
            raise SpecFormatError(f"bad coefficient entry: {exc}") from exc
        raise SpecFormatError(f"unknown coefficient kind {kind!r}")


@dataclass(frozen=True)
class TimeGrid:
    """Uniform solver grid t_k = k T / steps."""

    horizon: float
    steps: int

    @property
    def nodes(self) -> np.ndarray:
        return np.linspace(0.0, self.horizon, self.steps + 1)


@dataclass(frozen=True)
class CoefficientSet:
    A: Coefficient
    B: tuple        # (B1, B2, B3), each n x n
    C: tuple        # (C1, C2, C3), each n x n
    b: Coefficient
    sigma: tuple    # (sigma1, sigma2, sigma3), each n


@dataclass(frozen=True)
class PlayerCost:
    Q: Coefficient  # n x n, PSD
    R: Coefficient  # n x n, PD
    G: np.ndarray   # n x n, PSD, time-independent
    m: Coefficient  # n
    n_lin: Coefficient  # n (linear control weight; "n" in the cost integrand)


@dataclass(frozen=True)
class CostSpec:
    players: tuple  # (PlayerCost, PlayerCost, PlayerCost)


@dataclass(frozen=True)
class InfoStructure:
    adjacency: np.ndarray  # 3 x 3 binary


@dataclass(frozen=True)
class GameSpec:
    n: int
    grid: TimeGrid
    coeffs: CoefficientSet
    costs: CostSpec
    info: InfoStructure
    x0: np.ndarray
    rho_min: float = RHO_MIN_DEFAULT

    @property
    def horizon(self) -> float:
        return self.grid.horizon


@dataclass(frozen=True)
class Violation:
    field: str
    message: str
    t: float | None = None

    def __str__(self):
        at = "" if self.t is None else f" at t={self.t:.12g}"
        return f"{self.field}{at}: {self.message}"


@dataclass(frozen=True)
class ValidationReport:
    violations: tuple

    @property
    def valid(self) -> bool:
        return len(self.violations) == 0

    def __str__(self):
        if self.valid:
            return "spec valid"
        return "\n".join(str(v) for v in self.violations)


def _coeff_map(spec: GameSpec) -> dict:
    c = spec.coeffs
    out = {"A": c.A, "B1": c.B[0], "B2": c.B[1], "B3": c.B[2],
           "C1": c.C[0], "C2": c.C[1], "C3": c.C[2], "b": c.b,
           "sigma1": c.sigma[0], "sigma2": c.sigma[1], "sigma3": c.sigma[2]}
    for i, pc in enumerate(spec.costs.players, start=1):
        out[f"Q{i}"] = pc.Q
        out[f"R{i}"] = pc.R
        out[f"m{i}"] = pc.m
        out[f"n{i}"] = pc.n_lin
    return out


def eval_coeff(spec: GameSpec, which: str, t: float) -> np.ndarray:
    """Evaluate a named coefficient at time t (right-continuous convention).

    At t == T the last piece is returned.  t outside [0, T] is a DomainError.
    """
    T = spec.horizon
    if not (0.0 <= t <= T):
        raise DomainError(f"t={t!r} outside [0, {T}]")
    table = _coeff_map(spec)
    if which not in table:
        raise DomainError(f"unknown coefficient id {which!r}")
    coeff = table[which]
    if t == T and not coeff.is_constant:
        return coeff.values[-1]
    return coeff.at(t)


def with_steps(spec: GameSpec, steps: int) -> GameSpec:
    """The spec on a uniform grid of `steps` steps over the same horizon."""
    return replace(spec, grid=replace(spec.grid, steps=steps))


def solver_times(spec: GameSpec) -> np.ndarray:
    """Uniform grid nodes joined with every declared breakpoint.

    Integration steps never straddle a coefficient jump.
    """
    pts = [spec.grid.nodes]
    for coeff in _coeff_map(spec).values():
        if coeff.breaks.size:
            pts.append(coeff.breaks)
    t = np.concatenate(pts)
    t = t[(t >= 0.0) & (t <= spec.horizon)]
    t = np.unique(t)
    # merge near-duplicates from decimal breakpoints landing on grid nodes
    keep = np.concatenate([[True], np.diff(t) > 1e-12 * max(spec.horizon, 1.0)])
    return t[keep]


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------

def _check_shape(coeff, name, shape, bad):
    for piece in coeff.values:
        if piece.shape != shape:
            bad.append(Violation(name, f"expected shape {shape}, got {piece.shape}"))
            return False
    return True


def _piece_starts(coeff):
    return [0.0] + [float(b) for b in coeff.breaks]


def _min_eig_sym(M):
    return float(np.linalg.eigvalsh(0.5 * (M + M.T)).min())


def validate_spec(spec: GameSpec) -> ValidationReport:
    """Collect every violated invariant; an empty report means a valid spec."""
    bad: list[Violation] = []
    n, T = spec.n, spec.horizon

    if n < 1:
        bad.append(Violation("n", "state dimension must be >= 1"))
        return ValidationReport(tuple(bad))
    if not (np.isfinite(spec.rho_min) and spec.rho_min > 0.0):
        bad.append(Violation("rho_min", "must be a positive finite real"))
    if not (T > 0.0 and np.isfinite(T)):
        bad.append(Violation("T", "horizon must be a positive finite real"))
    if spec.grid.steps < 2:
        bad.append(Violation("steps", "need at least 2 grid steps"))
    if spec.x0.shape != (n,):
        bad.append(Violation("x0", f"expected shape ({n},), got {spec.x0.shape}"))
    elif not np.all(np.isfinite(spec.x0)):
        bad.append(Violation("x0", "non-finite entries"))

    mat_shape, vec_shape = (n, n), (n,)
    table = _coeff_map(spec)
    for name, coeff in table.items():
        shape = vec_shape if (name in VECTOR_COEFFS or name[0] in "mn") else mat_shape
        if not _check_shape(coeff, name, shape, bad):
            continue
        if not np.all(np.isfinite(coeff.values)) or np.abs(coeff.values).max(initial=0.0) > BIG:
            bad.append(Violation(name, "non-finite or unbounded entries"))
        if coeff.breaks.size:
            if np.any(np.diff(coeff.breaks) <= 0):
                bad.append(Violation(name, "piecewise breakpoints not strictly increasing"))
            if coeff.breaks[0] <= 0.0 or coeff.breaks[-1] >= T:
                bad.append(Violation(name, "piecewise breakpoints outside (0, T)"))

    # weight sign conditions on every piece, reported at the piece's start
    for i, pc in enumerate(spec.costs.players, start=1):
        G = pc.G
        if G.shape != mat_shape:
            bad.append(Violation(f"G{i}", f"expected shape {mat_shape}, got {G.shape}"))
        else:
            if np.abs(G - G.T).max(initial=0.0) > SYM_TOL:
                bad.append(Violation(f"G{i}", "not symmetric"))
            elif _min_eig_sym(G) < PSD_EIG_TOL:
                bad.append(Violation(f"G{i}", "not positive semidefinite"))
        for name, W, floor, low in (
                (f"Q{i}", pc.Q, PSD_EIG_TOL, "not positive semidefinite"),
                (f"R{i}", pc.R, spec.rho_min,
                 f"min eigenvalue below rho_min={spec.rho_min:g}")):
            for M, t in zip(W.values, _piece_starts(W)):
                if M.shape == mat_shape:
                    if np.abs(M - M.T).max(initial=0.0) > SYM_TOL:
                        bad.append(Violation(name, "not symmetric", t))
                        break
                    if _min_eig_sym(M) < floor:
                        bad.append(Violation(name, low, t))
                        break

    adj = spec.info.adjacency
    if adj.shape != (3, 3) or not np.array_equal(adj, NESTED_ADJACENCY):
        bad.append(Violation("adjacency", "information pattern must be the nested "
                                          "lower-triangular {001,011,111}"))

    return ValidationReport(tuple(bad))


# ---------------------------------------------------------------------------
# JSON external format
# ---------------------------------------------------------------------------

def spec_to_dict(spec: GameSpec) -> dict:
    """Canonical JSON-ready form of a spec."""
    coeffs = {name: coeff.to_json() for name, coeff in _coeff_map(spec).items()
              if name in COEFF_NAMES}
    costs = {}
    for i, pc in enumerate(spec.costs.players, start=1):
        costs[f"player{i}"] = {"Q": pc.Q.to_json(), "R": pc.R.to_json(),
                               "G": pc.G.tolist(), "m": pc.m.to_json(),
                               "n": pc.n_lin.to_json()}
    return {"n": spec.n, "T": spec.horizon, "steps": spec.grid.steps,
            "x0": spec.x0.tolist(), "coeffs": coeffs, "costs": costs,
            "adjacency": spec.info.adjacency.tolist()}


def spec_from_dict(obj: dict) -> GameSpec:
    try:
        n = int(obj["n"])
        grid = TimeGrid(float(obj["T"]), int(obj["steps"]))
        co = obj["coeffs"]
        coeffs = CoefficientSet(
            A=Coefficient.from_json(co["A"]),
            B=tuple(Coefficient.from_json(co[f"B{i}"]) for i in (1, 2, 3)),
            C=tuple(Coefficient.from_json(co[f"C{i}"]) for i in (1, 2, 3)),
            b=Coefficient.from_json(co["b"]),
            sigma=tuple(Coefficient.from_json(co[f"sigma{i}"]) for i in (1, 2, 3)),
        )
        players = []
        for i in (1, 2, 3):
            pc = obj["costs"][f"player{i}"]
            players.append(PlayerCost(
                Q=Coefficient.from_json(pc["Q"]),
                R=Coefficient.from_json(pc["R"]),
                G=np.asarray(pc["G"], dtype=float),
                m=Coefficient.from_json(pc["m"]),
                n_lin=Coefficient.from_json(pc["n"]),
            ))
        info = InfoStructure(np.asarray(obj["adjacency"], dtype=int))
        x0 = np.asarray(obj["x0"], dtype=float)
    except (KeyError, TypeError, ValueError) as exc:
        raise SpecFormatError(f"malformed game spec: {exc}") from exc
    return GameSpec(n=n, grid=grid, coeffs=coeffs, costs=CostSpec(tuple(players)),
                    info=info, x0=x0)


def load_spec(path) -> GameSpec:
    text = Path(path).read_text()
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SpecFormatError(f"{path}: line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc
    if not isinstance(obj, dict):
        raise SpecFormatError(f"{path}: top-level JSON value must be an object")
    return spec_from_dict(obj)


def save_spec(spec: GameSpec, path) -> None:
    Path(path).write_text(json.dumps(spec_to_dict(spec), indent=2) + "\n")


# ---------------------------------------------------------------------------
# programmatic construction helpers (used heavily by tests and the docs)
# ---------------------------------------------------------------------------

def _as_coeff(x, n, vector=False) -> Coefficient:
    if isinstance(x, Coefficient):
        return x
    arr = np.asarray(x, dtype=float)
    if arr.ndim == 0:
        arr = arr * np.ones(n) if vector else arr * np.eye(n)
    return Coefficient.constant(arr)


def make_spec(n=1, T=1.0, steps=100, x0=1.0, A=0.0, B1=0.0, B2=0.0, B3=0.0,
              C1=0.0, C2=0.0, C3=0.0, b=0.0, sigma1=0.0, sigma2=0.0, sigma3=0.0,
              Q1=0.0, R1=1.0, G1=0.0, m1=0.0, n1=0.0,
              Q2=0.0, R2=1.0, G2=0.0, m2=0.0, n2=0.0,
              Q3=0.0, R3=1.0, G3=0.0, m3=0.0, n3=0.0,
              adjacency=None) -> GameSpec:
    """Build a spec from scalars/arrays, broadcasting scalars to n x n or n."""
    mk = lambda x: _as_coeff(x, n)
    mkv = lambda x: _as_coeff(x, n, vector=True)
    mkG = lambda x: (np.asarray(x, dtype=float) if np.ndim(x) == 2
                     else float(x) * np.eye(n))
    x0v = np.asarray(x0, dtype=float) * np.ones(n) if np.ndim(x0) == 0 \
        else np.asarray(x0, dtype=float)
    coeffs = CoefficientSet(A=mk(A), B=(mk(B1), mk(B2), mk(B3)),
                            C=(mk(C1), mk(C2), mk(C3)), b=mkv(b),
                            sigma=(mkv(sigma1), mkv(sigma2), mkv(sigma3)))
    players = (
        PlayerCost(mk(Q1), mk(R1), mkG(G1), mkv(m1), mkv(n1)),
        PlayerCost(mk(Q2), mk(R2), mkG(G2), mkv(m2), mkv(n2)),
        PlayerCost(mk(Q3), mk(R3), mkG(G3), mkv(m3), mkv(n3)),
    )
    adj = NESTED_ADJACENCY if adjacency is None else np.asarray(adjacency, dtype=int)
    return GameSpec(n=n, grid=TimeGrid(float(T), int(steps)), coeffs=coeffs,
                    costs=CostSpec(players), info=InfoStructure(adj), x0=x0v)

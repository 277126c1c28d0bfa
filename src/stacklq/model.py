"""Game specification: dynamics coefficients, cost weights, information pattern.

A game is three controllers acting on one linear SDE

    dx = [A x + B1 v1 + B2 v2 + B3 v3 + b] dt + sum_i [Ci x + sigma_i] dWi

with quadratic costs per player and the nested information pattern in which
player 1 observes W3, player 2 observes (W2, W3) and player 3 observes all
three Brownian components.  Coefficients are constant or piecewise-constant
in time so that specs are exactly representable in JSON and integrable
without quadrature ambiguity.

A GameSpec is the parsed JSON document, its fields the document's keys:
spec.coeffs["B1"] is a Coefficient by its JSON name (player i's weights as
Q{i}, R{i}, m{i}, n{i}), spec.G[0] is player 1's G, and spec.T and
spec.steps fix the grid.
"""

from __future__ import annotations

import json
from collections.abc import Mapping
from dataclasses import dataclass, replace
from pathlib import Path
from types import MappingProxyType

import numpy as np

from .errors import SpecFormatError

NESTED_ADJACENCY = np.array([[0, 0, 1], [0, 1, 1], [1, 1, 1]], dtype=int)

PSD_EIG_TOL = -1e-10        # min eigenvalue accepted for Q, G
RHO_MIN_DEFAULT = 1e-8      # min eigenvalue required for R
SYM_TOL = 1e-10
BIG = 1e18                  # finiteness guard (uniform boundedness surrogate)
BLOWUP_LIMIT = 1e12         # the solve's and simulation's blow-up guard

# The document's time coefficients by name, in document order: the dynamics
# under "coeffs", then each player's weights under "costs/player{i}", whose
# keys are PLAYER_KEYS.  G_i is a constant matrix, not a coefficient.
DYNAMICS = ("A", "B1", "B2", "B3", "C1", "C2", "C3",
            "b", "sigma1", "sigma2", "sigma3")
PLAYER_KEYS = ("Q", "R", "G", "m", "n")
COEFF_NAMES = DYNAMICS + tuple(f"{key}{i}" for i in (1, 2, 3)
                               for key in PLAYER_KEYS if key != "G")
VECTOR_COEFFS = frozenset(("b", "sigma1", "sigma2", "sigma3",
                           "m1", "n1", "m2", "n2", "m3", "n3"))


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
        if b.ndim != 1 or not np.all(np.isfinite(b)):
            raise SpecFormatError("piecewise breaks must be a list of finite numbers")
        if v.ndim == 0 or v.shape[0] != b.shape[0] + 1:
            raise SpecFormatError("piecewise coefficient needs len(values) == len(breaks)+1")
        return Coefficient(b, v)

    def at(self, t) -> np.ndarray:
        """Value of the piece whose half-open interval [tau_j, tau_{j+1}) holds t.

        An array of times gives one value per time along a leading axis.
        """
        return self.values[np.searchsorted(self.breaks, t, side="right")]

    def to_json(self):
        if not self.breaks.size:
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
class GameSpec:
    """A parsed spec document: one field per top-level key.

    coeffs maps each name of COEFF_NAMES to its Coefficient, read-only; G is
    (G1, G2, G3), each n x n, PSD and time-independent.
    """

    n: int
    T: float
    steps: int                 # uniform solver grid t_k = k T / steps
    x0: np.ndarray
    coeffs: Mapping[str, Coefficient]
    G: tuple
    adjacency: np.ndarray      # 3 x 3 binary
    rho_min: float = RHO_MIN_DEFAULT

    def __post_init__(self):
        object.__setattr__(self, "coeffs", MappingProxyType(
            {name: self.coeffs[name] for name in COEFF_NAMES}))


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


def with_steps(spec: GameSpec, steps: int) -> GameSpec:
    """The spec on a uniform grid of `steps` steps over the same horizon."""
    return replace(spec, steps=steps)


def solver_times(spec: GameSpec) -> np.ndarray:
    """Uniform grid nodes joined with every declared breakpoint.

    Integration steps never straddle a coefficient jump.
    """
    t = np.concatenate([np.linspace(0.0, spec.T, spec.steps + 1),
                        *(coeff.breaks for coeff in spec.coeffs.values())])
    t = t[(t >= 0.0) & (t <= spec.T)]
    t = np.unique(t)
    # merge near-duplicates from decimal breakpoints landing on grid nodes
    # into the earlier node, and a break that close to T into T
    t = t[np.concatenate([[True], np.diff(t) > 1e-12 * max(spec.T, 1.0)])]
    t[-1] = spec.T
    return t


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------

def _check_shape(coeff, name, shape, bad):
    for piece in coeff.values:
        if piece.shape != shape:
            bad.append(Violation(name, f"expected shape {shape}, got {piece.shape}"))
            return False
    return True


def _bounded(values) -> bool:
    return bool(np.all(np.isfinite(values))) and np.abs(values).max(initial=0.0) <= BIG


def _min_eig_sym(M):
    return float(np.linalg.eigvalsh(0.5 * (M + M.T)).min())


def validate_spec(spec: GameSpec) -> ValidationReport:
    """Collect every violated invariant; an empty report means a valid spec."""
    bad: list[Violation] = []
    n, T = spec.n, spec.T

    if n < 1:
        bad.append(Violation("n", "state dimension must be >= 1"))
        return ValidationReport(tuple(bad))
    if not (np.isfinite(spec.rho_min) and spec.rho_min > 0.0):
        bad.append(Violation("rho_min", "must be a positive finite real"))
    if not (T > 0.0 and np.isfinite(T)):
        bad.append(Violation("T", "horizon must be a positive finite real"))
    if spec.steps < 2:
        bad.append(Violation("steps", "need at least 2 grid steps"))
    if spec.x0.shape != (n,):
        bad.append(Violation("x0", f"expected shape ({n},), got {spec.x0.shape}"))
    elif not _bounded(spec.x0):
        bad.append(Violation("x0", "non-finite or unbounded entries"))
    elif np.abs(spec.x0).max(initial=0.0) > BLOWUP_LIMIT:
        bad.append(Violation("x0", f"entries beyond the blow-up limit {BLOWUP_LIMIT:g}"))

    mat_shape, vec_shape = (n, n), (n,)
    for name, coeff in spec.coeffs.items():
        shape = vec_shape if name in VECTOR_COEFFS else mat_shape
        if not _check_shape(coeff, name, shape, bad):
            continue
        if not _bounded(coeff.values):
            bad.append(Violation(name, "non-finite or unbounded entries"))
        if coeff.breaks.size:
            if np.any(np.diff(coeff.breaks) <= 0):
                bad.append(Violation(name, "piecewise breakpoints not strictly increasing"))
            if coeff.breaks[0] <= 0.0 or coeff.breaks[-1] >= T:
                bad.append(Violation(name, "piecewise breakpoints outside (0, T)"))

    # sign conditions on every piece of a bounded weight, reported at its start
    for i, G in enumerate(spec.G, start=1):
        if G.shape != mat_shape:
            bad.append(Violation(f"G{i}", f"expected shape {mat_shape}, got {G.shape}"))
        elif not _bounded(G):
            bad.append(Violation(f"G{i}", "non-finite or unbounded entries"))
        elif np.abs(G - G.T).max(initial=0.0) > SYM_TOL:
            bad.append(Violation(f"G{i}", "not symmetric"))
        elif _min_eig_sym(G) < PSD_EIG_TOL:
            bad.append(Violation(f"G{i}", "not positive semidefinite"))
        for name, floor, low in (
                (f"Q{i}", PSD_EIG_TOL, "not positive semidefinite"),
                (f"R{i}", spec.rho_min, f"min eigenvalue below rho_min={spec.rho_min:g}")):
            W = spec.coeffs[name]
            for M, t in zip(W.values, [0.0, *W.breaks.tolist()]):
                if M.shape == mat_shape and _bounded(W.values):
                    if np.abs(M - M.T).max(initial=0.0) > SYM_TOL:
                        bad.append(Violation(name, "not symmetric", t))
                        break
                    if _min_eig_sym(M) < floor:
                        bad.append(Violation(name, low, t))
                        break

    if not np.array_equal(spec.adjacency, NESTED_ADJACENCY):
        bad.append(Violation("adjacency", "information pattern must be the nested "
                                          "lower-triangular {001,011,111}"))

    return ValidationReport(tuple(bad))


# ---------------------------------------------------------------------------
# JSON external format
# ---------------------------------------------------------------------------

def spec_to_dict(spec: GameSpec) -> dict:
    """Canonical JSON-ready form of a spec."""
    costs = {f"player{i}": {key: spec.G[i - 1].tolist() if key == "G"
                            else spec.coeffs[f"{key}{i}"].to_json()
                            for key in PLAYER_KEYS} for i in (1, 2, 3)}
    return {"n": spec.n, "T": spec.T, "steps": spec.steps, "x0": spec.x0.tolist(),
            "coeffs": {name: spec.coeffs[name].to_json() for name in DYNAMICS},
            "costs": costs, "adjacency": spec.adjacency.tolist()}


def _reject_non_numbers(obj, at=""):
    """SpecFormatError at the first JSON true/false, or string not under
    `kind`: the format has no other, and Python reads true as 1 and "1.0"
    as 1.0."""
    if isinstance(obj, bool) or isinstance(obj, str) and not at.endswith("/kind"):
        raise SpecFormatError(f"{at[1:]}: expected a number, got {json.dumps(obj)}")
    for key, value in (enumerate(obj) if isinstance(obj, list) else
                       obj.items() if isinstance(obj, dict) else ()):
        _reject_non_numbers(value, f"{at}/{key}")


def spec_from_dict(obj: dict) -> GameSpec:
    _reject_non_numbers(obj)
    try:
        n, steps = int(obj["n"]), int(obj["steps"])
        if (n, steps) != (obj["n"], obj["steps"]):     # 2.7 is not truncated
            raise SpecFormatError("n and steps must be whole numbers")
        T = float(obj["T"])
        coeffs = {name: Coefficient.from_json(obj["coeffs"][name]) for name in DYNAMICS}
        G = []
        for i in (1, 2, 3):
            player = obj["costs"][f"player{i}"]
            for key in PLAYER_KEYS:
                if key == "G":
                    G.append(np.asarray(player["G"], dtype=float))
                else:
                    coeffs[f"{key}{i}"] = Coefficient.from_json(player[key])
        adjacency = np.asarray(obj["adjacency"], dtype=int)
        if not np.array_equal(adjacency, obj["adjacency"]):    # nor is 1.9
            raise SpecFormatError("adjacency entries must be whole numbers")
        x0 = np.asarray(obj["x0"], dtype=float)
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise SpecFormatError(f"malformed game spec: {exc}") from exc
    return GameSpec(n=n, T=T, steps=steps, x0=x0, coeffs=coeffs, G=tuple(G),
                    adjacency=adjacency)


def load_spec(path) -> GameSpec:
    try:
        obj = json.loads(Path(path).read_text())
    except (OSError, UnicodeDecodeError) as exc:
        raise SpecFormatError(f"{path}: cannot read spec file: {exc}") from exc
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
    given = locals()
    coeffs = {name: _as_coeff(given[name], n, name in VECTOR_COEFFS)
              for name in COEFF_NAMES}
    G = tuple(np.asarray(x, dtype=float) if np.ndim(x) == 2 else float(x) * np.eye(n)
              for x in (G1, G2, G3))
    x0v = np.asarray(x0, dtype=float) * np.ones(n) if np.ndim(x0) == 0 \
        else np.asarray(x0, dtype=float)
    adj = NESTED_ADJACENCY if adjacency is None else np.asarray(adjacency, dtype=int)
    return GameSpec(n=n, T=float(T), steps=int(steps), x0=x0v, coeffs=coeffs, G=G,
                    adjacency=adj)

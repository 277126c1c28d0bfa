"""Benchmark workloads: spec JSON and CLI arguments drawn from a seed, plus
the checks each command's outputs must pass.

The generators use numpy only, never stacklq, so the inputs do not change
when the program under test changes.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

COEFFS = ("A", "B1", "B2", "B3", "C1", "C2", "C3")
VECTORS = ("b", "sigma1", "sigma2", "sigma3")

# Rows that `stacklq solve` writes per grid node and per state dimension n,
# as listed in the README: trajectory (t,row,col,value) and gain
# (t,gain,row,col,value) CSVs.
SOLVE_ROWS_PER_NODE = {
    "p.csv": lambda n: n * n,
    "P1.csv": lambda n: 4 * n * n,
    "P2.csv": lambda n: 4 * n * n,
    "Pf1.csv": lambda n: 16 * n * n,
    "Pf2.csv": lambda n: 16 * n * n,
    "Pf3.csv": lambda n: 16 * n * n,
    "Omega.csv": lambda n: 4 * n,
    # nine n x 4n gains and three n-vectors
    "gains.csv": lambda n: 9 * 4 * n * n + 3 * n,
}
RESIDUAL_NAMES = ("Omega", "P1", "P2", "Pf1", "Pf2", "Pf3", "p")
PATHS_ROWS_PER_NODE = lambda n: 15 * n  # x|psi2|Psi3 x three levels, v1..v3


def constant(value):
    return {"kind": "constant", "value": np.asarray(value, dtype=float).tolist()}


def piecewise(breaks, values):
    return {"kind": "piecewise", "breaks": [float(b) for b in breaks],
            "values": np.asarray(values, dtype=float).tolist()}


def spec_json(n, steps, x0, coeffs, costs):
    """Full spec document on [0, 1]; coefficients not given are zero, R_i = I."""
    zero_m, zero_v = np.zeros((n, n)), np.zeros(n)
    doc_coeffs = {name: coeffs.get(name, constant(zero_m)) for name in COEFFS}
    doc_coeffs.update({name: coeffs.get(name, constant(zero_v)) for name in VECTORS})
    doc_costs = {}
    for i in (1, 2, 3):
        given = costs.get(i, {})
        doc_costs[f"player{i}"] = {
            "Q": given.get("Q", constant(zero_m)),
            "R": given.get("R", constant(np.eye(n))),
            "G": np.asarray(given.get("G", zero_m), dtype=float).tolist(),
            "m": given.get("m", constant(zero_v)),
            "n": given.get("n", constant(zero_v)),
        }
    return {"n": n, "T": 1.0, "steps": steps,
            "x0": np.asarray(x0, dtype=float).reshape(n).tolist(),
            "coeffs": doc_coeffs, "costs": doc_costs,
            "adjacency": [[0, 0, 1], [0, 1, 1], [1, 1, 1]]}


def scalar_spec(steps, x0, costs, **coeffs):
    """n = 1 spec from scalars; costs maps player -> {Q, R, G, m, n} scalars."""
    doc_coeffs = {k: constant([v] if k in VECTORS else [[v]])
                  for k, v in coeffs.items()}
    doc_costs = {}
    for i, c in costs.items():
        doc_costs[i] = {k: (constant([v]) if k in "mn" else constant([[v]]))
                        for k, v in c.items() if k != "G"}
        doc_costs[i]["G"] = [[c.get("G", 0.0)]]
    return spec_json(1, steps, [x0], doc_coeffs, doc_costs)


def _sym(rng, n, scale):
    V = rng.standard_normal((n, n))
    M = scale * (V @ V.T) / n
    return 0.5 * (M + M.T)


def ladder_spec(rng, steps=2000):
    """Random n = 2 game with piecewise A, C3, R1 broken off the uniform grid.

    Each of the three has three breakpoints, each strictly inside a grid cell
    and at least a fifth of a cell from either node, so the refined grid
    always has steps + 10 nodes.  Returns (spec, nodes).
    """
    n, breaks_per_coeff = 2, 3
    mat = lambda s: rng.standard_normal((n, n)) * s
    vec = lambda s: rng.standard_normal(n) * s
    cells = rng.choice(np.arange(steps // 20, steps - steps // 20),
                       size=3 * breaks_per_coeff, replace=False)
    breaks = (cells + rng.uniform(0.2, 0.8, cells.shape[0])) / steps
    groups = [np.sort(breaks[j::3]) for j in range(3)]
    pieces = breaks_per_coeff + 1
    coeffs = {
        "A": piecewise(groups[0], [mat(0.3) for _ in range(pieces)]),
        "B1": constant(mat(0.5) + np.eye(n)), "B2": constant(mat(0.4)),
        "B3": constant(mat(0.4)), "C1": constant(mat(0.1)),
        "C2": constant(mat(0.1)),
        "C3": piecewise(groups[1], [mat(0.1) for _ in range(pieces)]),
        "b": constant(vec(0.05)), "sigma1": constant(vec(0.2)),
        "sigma2": constant(vec(0.2)), "sigma3": constant(vec(0.2)),
    }
    costs = {}
    for i, (q, r, g) in enumerate(((0.8, 0.5, 0.4), (0.6, 0.4, 0.3),
                                   (0.5, 0.4, 0.3)), start=1):
        if i == 1:
            R = piecewise(groups[2], [_sym(rng, n, r) + np.eye(n)
                                      for _ in range(pieces)])
        else:
            R = constant(_sym(rng, n, r) + np.eye(n))
        costs[i] = {"Q": constant(_sym(rng, n, q)), "R": R, "G": _sym(rng, n, g),
                    "m": constant(vec(0.02)), "n": constant(vec(0.02))}
    x0 = rng.standard_normal(n)
    return spec_json(n, steps, x0, coeffs, costs), steps + 1 + 3 * breaks_per_coeff


README_SCALAR = dict(
    steps=500, x0=1.0, A=0.3, B1=1.0, B2=0.8, B3=0.6,
    sigma1=0.25, sigma2=0.3, sigma3=0.35,
    costs={1: {"Q": 1.0, "R": 1.0, "G": 0.5}, 2: {"Q": 0.8, "R": 1.2, "G": 0.4},
           3: {"Q": 0.6, "R": 1.5, "G": 0.3}})

# `scalar_additive` in tests/conftest.py
SCALAR_ADDITIVE = dict(
    steps=500, x0=1.0, A=0.3, B1=1.0, B2=0.8, B3=0.6,
    b=0.05, sigma1=0.25, sigma2=0.3, sigma3=0.35,
    costs={1: {"Q": 1.0, "R": 1.0, "G": 0.5, "m": 0.02, "n": 0.01},
           2: {"Q": 0.8, "R": 1.2, "G": 0.4, "m": 0.0, "n": 0.02},
           3: {"Q": 0.6, "R": 1.5, "G": 0.3, "m": 0.01, "n": 0.0}})

# `reducible_spec` in tests/conftest.py
REDUCIBLE = dict(
    steps=100, x0=1.0, A=0.4, B1=1.0, C3=0.2, b=0.05, sigma3=0.3,
    costs={1: {"Q": 0.8, "R": 1.0, "G": 0.6, "m": 0.02, "n": 0.01}})


class CheckFailed(Exception):
    """A command's outputs are missing or wrong."""


def _count_rows(path: Path) -> int:
    """Data rows of a CSV with one header line, read in blocks."""
    lines = 0
    with open(path, "rb") as fh:
        while block := fh.read(1 << 20):
            lines += block.count(b"\n")
    return lines - 1


def _digest(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        while block := fh.read(1 << 20):
            h.update(block)
    return h.hexdigest()


@dataclass
class Workload:
    name: str
    command: str
    spec: dict
    cli_seed: int
    nodes: int                      # solver grid nodes, known from the generator
    paths: int | None = None
    thin: int | None = None
    ok_codes: tuple = (0,)
    digests: dict = field(default_factory=dict)

    def argv(self, spec_path: Path, out: Path) -> list:
        argv = [self.command, "--spec", str(spec_path), "--out", str(out),
                "--seed", str(self.cli_seed), "--threads", "1"]
        if self.paths is not None:
            argv += ["--paths", str(self.paths)]
        if self.thin is not None:
            argv += ["--thin", str(self.thin)]
        return argv

    def check(self, out: Path) -> int:
        """Raise CheckFailed on bad output; return the number of failed checks
        that `verify` reports (0 for solve and simulate)."""
        return getattr(self, f"_check_{self.command}")(out)

    def _check_solve(self, out: Path) -> int:
        n = self.spec["n"]
        for fname, per_node in SOLVE_ROWS_PER_NODE.items():
            path = out / fname
            if not path.is_file():
                raise CheckFailed(f"{fname} missing")
            rows, want = _count_rows(path), self.nodes * per_node(n)
            if rows != want:
                raise CheckFailed(f"{fname}: {rows} rows, expected {want}")
        summary = out / "solve_summary.txt"
        if not summary.is_file():
            raise CheckFailed("solve_summary.txt missing")
        found = {}
        for line in summary.read_text().splitlines():
            if line.startswith("max centered-difference residual "):
                name, value = line.rsplit(" ", 2)[-2:]
                found[name.rstrip(":")] = float(value)
        if sorted(found) != sorted(RESIDUAL_NAMES):
            raise CheckFailed(f"residuals reported for {sorted(found)}")
        if not all(math.isfinite(v) for v in found.values()):
            raise CheckFailed(f"non-finite residual in {found}")
        return 0

    def _check_simulate(self, out: Path) -> int:
        n = self.spec["n"]
        want = self.paths * math.ceil(self.nodes / self.thin) * PATHS_ROWS_PER_NODE(n)
        for fname in ("paths.csv", "costs.csv"):
            if not (out / fname).is_file():
                raise CheckFailed(f"{fname} missing")
        rows = _count_rows(out / "paths.csv")
        if rows != want:
            raise CheckFailed(f"paths.csv: {rows} rows, expected {want}")
        lines = (out / "costs.csv").read_text().splitlines()[1:]
        if len(lines) != 3:
            raise CheckFailed(f"costs.csv: {len(lines)} rows, expected 3")
        for line in lines:
            mean, stderr = (float(v) for v in line.split(",")[1:3])
            if not (math.isfinite(mean) and math.isfinite(stderr)):
                raise CheckFailed(f"costs.csv: non-finite row {line!r}")
        for fname in ("paths.csv", "costs.csv"):
            digest = _digest(out / fname)
            if self.digests.setdefault(fname, digest) != digest:
                raise CheckFailed(f"{fname} differs between repetitions")
        return 0

    def _check_verify(self, out: Path) -> int:
        try:
            report = json.loads((out / "verify_report.json").read_text())
        except (OSError, ValueError) as exc:
            raise CheckFailed(f"verify_report.json: {exc}") from exc
        if not isinstance(report, list) or not all(
                isinstance(c, dict) and "passed" in c for c in report):
            raise CheckFailed("verify_report.json is not a list of checks")
        return sum(1 for c in report if not c["passed"])


NAMES = ("solve-ladder", "simulate-8k", "verify-additive", "verify-reducible")


def make(name: str, seed: int) -> Workload:
    """The workload's inputs for a seed: same seed, same spec and CLI seed."""
    if name not in NAMES:
        raise ValueError(f"unknown workload {name!r}; choose from {NAMES}")
    rng = np.random.default_rng(np.random.SeedSequence([seed, NAMES.index(name)]))
    cli_seed = int(rng.integers(1, 2**31))
    if name == "solve-ladder":
        spec, nodes = ladder_spec(rng)
        return Workload(name, "solve", spec, cli_seed, nodes)
    if name == "simulate-8k":
        return Workload(name, "simulate", scalar_spec(**README_SCALAR), cli_seed,
                        501, paths=8000, thin=50)
    base = SCALAR_ADDITIVE if name == "verify-additive" else REDUCIBLE
    return Workload(name, "verify", scalar_spec(**base), cli_seed,
                    base["steps"] + 1, paths=4000, ok_codes=(0, 4))

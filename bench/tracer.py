"""Spans and counters recorded from outside the program.

`Tracer.install` rebinds stacklq's public functions, at the module names
their callers look up, to wrappers that record a span per call and update
counters from the call's arguments and result.  Two methods are wrapped on
their classes: `NoisePlan.increments` and `CoeffValues.__init__`.
A name the program lacks is skipped and its figures read 0.
`uninstall` puts every original back.  Spans are kept in memory as
(name, start, end, parent index, command id) and written out by the caller.

The span stack is not thread-local: commands must run with `--threads 1`.
"""

from __future__ import annotations

import importlib
import statistics
import time
from collections import Counter, defaultdict

import numpy as np

VERIFY_CHECKS = ("check_terminals", "check_residual_order", "check_p_psd",
                 "check_measurability", "check_zero_noise_nesting",
                 "check_ansatz_residual", "check_tower", "check_variational",
                 "check_dp")

# (module, names bound there) -> every binding a CLI command reaches
BINDINGS = (
    ("cli", ("validate_spec", "solve_game", "build_feedback", "riccati_residuals",
             "simulate_equilibrium", "estimate_cost", "run_verification")),
    ("verify", ("validate_spec", "solve_game", "build_feedback",
                "riccati_residuals", "simulate_equilibrium", "particle_filter",
                "variational_test", "crosscheck_p") + VERIFY_CHECKS),
    ("riccati", ("solve_game", "build_level1", "build_level2",
                 "build_level2_closedloop", "build_level3")),
    # imported inside function bodies by montecarlo
    ("closedloop", ("simulate_equilibrium", "build_feedback")),
)

LIFT_BUILDERS = ("lift.build_level1", "lift.build_level2",
                 "lift.build_level2_closedloop", "lift.build_level3")

PER_LAYER_UNITS = {
    "model.validate_s": "s",
    "riccati.solve_s": "s", "riccati.solve_calls": "count",
    "riccati.rk4_steps": "count", "riccati.residuals_s": "s",
    "lift.build_s": "s", "lift.coeff_evals": "count",
    "rng.increments_s": "s", "rng.rows": "count", "rng.rows_distinct_frac": "ratio",
    "closedloop.feedback_s": "s", "closedloop.simulate_s": "s",
    "closedloop.path_steps": "count", "closedloop.bundle_mb": "MB",
    "montecarlo.variational_s": "s", "montecarlo.variational_calls": "count",
    "montecarlo.path_steps": "count", "montecarlo.cost_s": "s",
    "montecarlo.oracle_s": "s",
    "oracle.crosscheck_s": "s", "oracle.crosscheck_calls": "count",
    **{f"verify.{c[len('check_'):]}_s": "s" for c in VERIFY_CHECKS},
    "verify.self_s": "s",
    "cli.write_s": "s", "cli.out_bytes": "bytes",
}


def _short(fn) -> str:
    return f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"


def _bundle_mb(bundle) -> float:
    arrays = [v for v in vars(bundle).values() if isinstance(v, np.ndarray)]
    return sum(a.nbytes for a in arrays) / 2**20


class Tracer:
    def __init__(self):
        self.spans = []          # [name, start, end, parent, command]
        self.by_command = {}     # command -> (counters, noise row keys)
        self.counters = Counter()
        self.noise_keys = defaultdict(set)
        self.command = None
        self._stack = []
        self._restore = []

    # -- spans ---------------------------------------------------------------
    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, time.perf_counter(), None, parent, self.command])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def close(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._stack.pop()

    def begin_command(self, command_id: int) -> int:
        self.command = command_id
        self.counters, self.noise_keys = Counter(), defaultdict(set)
        self.by_command[command_id] = (self.counters, self.noise_keys)
        return self.open("cli.command")

    # -- wrappers ------------------------------------------------------------
    def _wrap(self, fn, after=None):
        name = _short(fn)
        tracer = self

        def wrapper(*args, **kwargs):
            index = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(index)
            if after is not None:
                after(args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _after_solve(self, args, kwargs, result):
        self.counters["riccati.rk4_steps"] += result[0].times.shape[0] - 1

    def _after_simulate(self, args, kwargs, result):
        N, nodes = result.X3.shape[:2]
        self.counters["closedloop.path_steps"] += N * (nodes - 1)
        self.counters["closedloop.bundle_mb"] = max(
            self.counters["closedloop.bundle_mb"], _bundle_mb(result))

    def _after_variational(self, args, kwargs, result):
        est = result.costs[0]
        self.counters["montecarlo.path_steps"] += est.n_paths * est.grid_steps

    def _patch(self, owner, attr, make):
        """Replace owner.attr by make(original); skip names a version lacks."""
        orig = getattr(owner, attr, None)
        if orig is not None:
            self._restore.append((owner, attr, orig))
            setattr(owner, attr, make(orig))

    def install(self, stacklq) -> None:
        after = {"solve_game": self._after_solve,
                 "simulate_equilibrium": self._after_simulate,
                 "variational_test": self._after_variational}
        wrappers = {}

        def shared_wrapper(attr):
            def make(orig):
                if orig not in wrappers:
                    wrappers[orig] = self._wrap(orig, after.get(attr))
                return wrappers[orig]
            return make

        for module_name, names in BINDINGS:
            module = importlib.import_module(f"stacklq.{module_name}")
            for attr in names:
                self._patch(module, attr, shared_wrapper(attr))

        tracer = self

        def traced_increments(increments):
            def wrapper(plan, path_indices):
                index = tracer.open("rng.increments")
                try:
                    out = increments(plan, path_indices)
                finally:
                    tracer.close(index)
                idx = np.asarray(path_indices, dtype=int).ravel().tolist()
                tracer.counters["rng.rows"] += 3 * len(idx)
                for comp, seed in enumerate(plan.seeds):
                    tracer.noise_keys[(seed, comp, plan.dts.shape[0])].update(idx)
                return out
            return wrapper

        def counted_init(init):
            def wrapper(cv, *args, **kwargs):
                tracer.counters["lift.coeff_evals"] += 1
                init(cv, *args, **kwargs)
            return wrapper

        for cls, attr, make in ((getattr(stacklq.rng, "NoisePlan", None),
                                 "increments", traced_increments),
                                (getattr(stacklq.lift, "CoeffValues", None),
                                 "__init__", counted_init)):
            if cls is not None:
                self._patch(cls, attr, make)

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, orig = self._restore.pop()
            setattr(owner, attr, orig)

    # -- per-command figures ---------------------------------------------------
    def command_figures(self, command_id: int) -> dict:
        """Per-layer figures of one finished command."""
        counters, noise_keys = self.by_command[command_id]
        spans = [(i, s) for i, s in enumerate(self.spans) if s[4] == command_id]
        total, own, calls = Counter(), Counter(), Counter()
        child_time = Counter()
        for i, (name, start, end, parent, _) in spans:
            if parent is not None:
                child_time[parent] += end - start
        for i, (name, start, end, parent, _) in spans:
            total[name] += end - start
            own[name] += (end - start) - child_time[i]
            calls[name] += 1
        rows = counters["rng.rows"]
        distinct = sum(len(v) for v in noise_keys.values())
        fig = {
            "model.validate_s": total["model.validate_spec"],
            "riccati.solve_s": own["riccati.solve_game"],
            "riccati.solve_calls": calls["riccati.solve_game"],
            "riccati.rk4_steps": counters["riccati.rk4_steps"],
            "riccati.residuals_s": total["riccati.riccati_residuals"],
            "lift.build_s": sum(total[b] for b in LIFT_BUILDERS),
            "lift.coeff_evals": counters["lift.coeff_evals"],
            "rng.increments_s": total["rng.increments"],
            "rng.rows": rows,
            "rng.rows_distinct_frac": distinct / rows if rows else 0.0,
            "closedloop.feedback_s": total["closedloop.build_feedback"],
            "closedloop.simulate_s": own["closedloop.simulate_equilibrium"],
            "closedloop.path_steps": counters["closedloop.path_steps"],
            "closedloop.bundle_mb": counters["closedloop.bundle_mb"],
            "montecarlo.variational_s": own["montecarlo.variational_test"],
            "montecarlo.variational_calls": calls["montecarlo.variational_test"],
            "montecarlo.path_steps": counters["montecarlo.path_steps"],
            "montecarlo.cost_s": total["montecarlo.estimate_cost"],
            "montecarlo.oracle_s": own["montecarlo.particle_filter"],
            "oracle.crosscheck_s": total["oracle.crosscheck_p"],
            "oracle.crosscheck_calls": calls["oracle.crosscheck_p"],
            "verify.self_s": own["verify.run_verification"],
            "cli.write_s": own["cli.command"],
        }
        for check in VERIFY_CHECKS:
            fig[f"verify.{check[len('check_'):]}_s"] = total[f"verify.{check}"]
        return fig


def median_figures(per_command: list) -> dict:
    """Median of each figure over commands; counts should all be equal."""
    return {k: statistics.median(f[k] for f in per_command) for k in per_command[0]}

"""Tests of the benchmark itself: python3 -m pytest bench/test_bench.py"""

import json
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

stacklq = run.import_program()

COUNTS = [k for k, unit in tracer.PER_LAYER_UNITS.items() if unit != "s"]


def small(command):
    """Quick stand-ins for the benchmark workloads, built the same way."""
    if command == "solve":
        spec, nodes = workloads.ladder_spec(np.random.default_rng(5), steps=100)
        return workloads.Workload("small-solve", "solve", spec, 7, nodes)
    if command == "simulate":
        spec = workloads.scalar_spec(**dict(workloads.README_SCALAR, steps=50))
        return workloads.Workload("small-simulate", "simulate", spec, 7, 51,
                                  paths=64, thin=5)
    spec = workloads.scalar_spec(**dict(workloads.REDUCIBLE, steps=20))
    return workloads.Workload("small-verify", "verify", spec, 7, 21,
                              paths=200, ok_codes=(0, 4))


def write_spec(wl, tmp_path):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(wl.spec))
    return path


@pytest.mark.parametrize("name", workloads.NAMES)
def test_generator_deterministic_and_valid(name):
    a, b = workloads.make(name, 11), workloads.make(name, 11)
    assert json.dumps(a.spec) == json.dumps(b.spec)
    assert a.cli_seed == b.cli_seed
    assert workloads.make(name, 12).cli_seed != a.cli_seed
    for seed in range(5):
        wl = workloads.make(name, seed)
        spec = stacklq.spec_from_dict(json.loads(json.dumps(wl.spec)))
        assert stacklq.validate_spec(spec).valid
        assert stacklq.solver_times(spec).shape[0] == wl.nodes


def test_ladder_breaks_fall_off_the_grid():
    wl = workloads.make("solve-ladder", 3)
    steps = wl.spec["steps"]
    breaks = (wl.spec["coeffs"]["A"]["breaks"] + wl.spec["coeffs"]["C3"]["breaks"]
              + wl.spec["costs"]["player1"]["R"]["breaks"])
    assert len(breaks) == 9
    cells = np.asarray(breaks) * steps
    assert np.all(np.abs(cells - np.round(cells)) >= 0.19)


@pytest.mark.parametrize("command", ["solve", "simulate", "verify"])
def test_counters_repeat_and_self_times_nest(command, tmp_path):
    wl = small(command)
    spec_path = write_spec(wl, tmp_path)
    figures = []
    for _ in range(2):
        tr = tracer.Tracer()
        rec = run.traced_command(stacklq, wl, spec_path, tmp_path / "out", tr, 0)
        figures.append(tr.command_figures(0) | {"cli.out_bytes": rec["out_bytes"]})
        assert all(end is not None for _, _, end, _, _ in tr.spans)
        child = {}
        for name, start, end, parent, _ in tr.spans:
            if parent is not None:
                child[parent] = child.get(parent, 0.0) + (end - start)
        for i, (name, start, end, parent, _) in enumerate(tr.spans):
            assert child.get(i, 0.0) <= end - start, name
    assert {k: figures[0][k] for k in COUNTS} == {k: figures[1][k] for k in COUNTS}
    assert figures[0]["riccati.solve_calls"] >= 1
    assert figures[0]["lift.coeff_evals"] > 0
    if command != "solve":
        assert figures[0]["rng.rows"] > 0


def test_uninstall_restores_every_binding():
    import stacklq.cli as cli
    import stacklq.verify as verify
    before = (cli.solve_game, verify.check_dp, stacklq.rng.NoisePlan.increments,
              stacklq.lift.CoeffValues.__init__)
    tr = tracer.Tracer()
    tr.install(stacklq)
    assert cli.solve_game is not before[0]
    tr.uninstall()
    after = (cli.solve_game, verify.check_dp, stacklq.rng.NoisePlan.increments,
             stacklq.lift.CoeffValues.__init__)
    assert after == before


@pytest.mark.parametrize("command,victim", [("solve", "gains.csv"),
                                            ("simulate", "paths.csv")])
def test_checks_catch_missing_or_short_output(command, victim, tmp_path):
    wl = small(command)
    spec_path, out = write_spec(wl, tmp_path), tmp_path / "out"
    assert run.run_command(stacklq, wl, spec_path, out)["outcome"] == "ok"
    lines = (out / victim).read_text().splitlines(keepends=True)
    (out / victim).write_text("".join(lines[:-1]))
    with pytest.raises(workloads.CheckFailed):
        wl.check(out)


def test_simulate_check_requires_identical_reruns(tmp_path):
    wl = small("simulate")
    spec_path, out = write_spec(wl, tmp_path), tmp_path / "out"
    assert run.run_command(stacklq, wl, spec_path, out)["outcome"] == "ok"
    wl.digests["costs.csv"] = "0" * 64
    with pytest.raises(workloads.CheckFailed, match="differs"):
        wl.check(out)

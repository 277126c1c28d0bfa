import dataclasses
import hashlib
import json
import shutil
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

import stacklq as sq
from stacklq.cli import main
from stacklq.closedloop import BLOCK_PATHS
from stacklq.lift import CoeffValues
from stacklq.verify import run_verification


@pytest.fixture(scope="module")
def spec_file(tmp_path_factory):
    d = tmp_path_factory.mktemp("specs")
    spec = sq.make_spec(n=1, T=1.0, steps=150, x0=1.0,
                        A=0.3, B1=1.0, B2=0.8, B3=0.6,
                        b=0.05, sigma1=0.25, sigma2=0.3, sigma3=0.35,
                        Q1=1.0, R1=1.0, G1=0.5, m1=0.02, n1=0.01,
                        Q2=0.8, R2=1.2, G2=0.4, n2=0.02,
                        Q3=0.6, R3=1.5, G3=0.3, m3=0.01)
    path = d / "game.json"
    sq.save_spec(spec, path)
    return path


@pytest.fixture(scope="module")
def zero_file(tmp_path_factory):
    d = tmp_path_factory.mktemp("specs0")
    path = d / "zero.json"
    sq.save_spec(sq.make_spec(n=1, T=1.0, steps=80, x0=0.0), path)
    return path


def test_validate_ok(zero_file, tmp_path):
    rc = main(["validate", "--spec", str(zero_file), "--out", str(tmp_path)])
    assert rc == 0
    assert (tmp_path / "validation.txt").read_text().strip() == "spec valid"


def test_validate_bad_weight(tmp_path):
    spec = sq.make_spec(n=1, R2=-1.0)
    p = tmp_path / "bad.json"
    sq.save_spec(spec, p)
    rc = main(["validate", "--spec", str(p), "--out", str(tmp_path)])
    assert rc == 1
    assert "R2" in (tmp_path / "validation.txt").read_text()


@pytest.mark.parametrize("rho_min", ["nan", "-5", "0"])
def test_rho_min_must_be_positive(tmp_path, rho_min):
    # a rho_min that is not positive would let an indefinite R1 through
    spec = sq.make_spec(n=1, R1=-1.0)
    p = tmp_path / "bad.json"
    sq.save_spec(spec, p)
    for command in ("validate", "solve"):
        out = tmp_path / command
        rc = main([command, "--spec", str(p), "--out", str(out),
                   "--rho-min", rho_min])
        assert rc == 2, command
        assert not out.exists()
    report = sq.validate_spec(dataclasses.replace(spec, rho_min=float(rho_min)))
    assert "rho_min" in {v.field for v in report.violations}


@pytest.mark.parametrize("field, value", [("G1", -1.0), ("G1", np.nan),
                                          ("G2", np.inf), ("G3", 1e300),
                                          ("x0", 1e300), ("x0", -1e19),
                                          ("x0", 1e13)])
def test_invalid_spec_exits_1_before_out(tmp_path, field, value):
    p = tmp_path / "bad.json"
    sq.save_spec(sq.make_spec(n=1, **{field: value}), p)
    rc = main(["validate", "--spec", str(p), "--out", str(tmp_path / "report")])
    assert rc == 1
    assert (tmp_path / "report" / "validation.txt").read_text().startswith(
        f"{field}: ")
    for command in ("solve", "simulate", "verify"):
        out = tmp_path / command
        assert main([command, "--spec", str(p), "--out", str(out)]) == 1, command
        assert not out.exists()


def test_rho_min_override_takes_effect(tmp_path, capsys):
    p = tmp_path / "spec.json"
    sq.save_spec(sq.make_spec(n=1, R1=1.0), p)
    rc = main(["solve", "--spec", str(p), "--out", str(tmp_path / "o"),
               "--rho-min", "2"])
    assert rc == 1
    assert "R1 at t=0: min eigenvalue below rho_min=2" in capsys.readouterr().err


def test_simulate_blow_up_exits_3(tmp_path, capsys):
    p = tmp_path / "spec.json"
    sq.save_spec(sq.make_spec(n=1, steps=50, A=40.0, sigma3=0.1), p)
    rc = main(["simulate", "--spec", str(p), "--out", str(tmp_path / "o"),
               "--paths", "4"])
    assert rc == 3
    assert "numerical blow-up: equilibrium state blew up" in capsys.readouterr().err


def test_solve_overflow_reports_only_the_blow_up(tmp_path, capsys):
    # one RK4 step of 5e38 overflows: stderr holds the blow-up line alone
    p = tmp_path / "spec.json"
    sq.save_spec(sq.make_spec(n=1, T=1e40, steps=20, A=0.3, B1=1.0, Q1=1.0,
                              G1=0.5), p)
    rc = main(["solve", "--spec", str(p), "--out", str(tmp_path / "o")])
    assert rc == 3
    assert capsys.readouterr().err == (
        "numerical blow-up: riccati system blew up at t=9.5e+39\n")


def test_zero_paths_is_a_parse_error(zero_file, tmp_path):
    rc = main(["simulate", "--spec", str(zero_file), "--out", str(tmp_path / "o"),
               "--paths", "0"])
    assert rc == 2
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("seed", ["-1", str(2**64)])
@pytest.mark.parametrize("command", ["simulate", "verify"])
def test_seed_outside_u64_is_a_parse_error(spec_file, tmp_path, command, seed):
    rc = main([command, "--spec", str(spec_file), "--out", str(tmp_path / "o"),
               "--paths", "2", "--seed", seed])
    assert rc == 2
    assert not (tmp_path / "o").exists()


def test_verify_one_path_is_a_parse_error(spec_file, tmp_path):
    # one path has no spread, so no slope has a stderr to put its z on;
    # simulate still takes one path
    rc = main(["verify", "--spec", str(spec_file), "--out", str(tmp_path / "o"),
               "--paths", "1"])
    assert rc == 2
    assert not (tmp_path / "o").exists()


def test_parse_error_exit_2(tmp_path, malformed_documents):
    p = tmp_path / "garbled.json"
    p.write_text("{ definitely not json !!")
    rc = main(["validate", "--spec", str(p), "--out", str(tmp_path)])
    assert rc == 2
    # a malformed document is exit 2 before anything runs, whatever the command
    for doc in malformed_documents:
        p.write_text(json.dumps(doc))
        for command in ("validate", "solve"):
            out = tmp_path / command
            rc = main([command, "--spec", str(p), "--out", str(out)])
            assert rc == 2, (command, doc)
            assert not out.exists()


def test_boolean_entry_exits_2_before_out(spec_file, tmp_path, capsys):
    # "n": true would read as n = 1 and the spec as valid
    doc = json.loads(spec_file.read_text())
    p = tmp_path / "bool.json"
    p.write_text(json.dumps({**doc, "n": True}))
    for command in ("validate", "solve", "simulate", "verify"):
        out = tmp_path / command
        assert main([command, "--spec", str(p), "--out", str(out)]) == 2, command
        assert not out.exists()
    err = capsys.readouterr().err.splitlines()
    assert err == ["parse error: n: expected a number, got true"] * 4


def test_string_number_exits_2_before_out(spec_file, tmp_path, capsys):
    # "T": "1.0" would read as T = 1.0 and the spec as valid
    doc = json.loads(spec_file.read_text())
    p = tmp_path / "string.json"
    p.write_text(json.dumps({**doc, "T": "1.0"}))
    for command in ("validate", "solve", "simulate", "verify"):
        out = tmp_path / command
        assert main([command, "--spec", str(p), "--out", str(out)]) == 2, command
        assert not out.exists()
    err = capsys.readouterr().err.splitlines()
    assert err == ['parse error: T: expected a number, got "1.0"'] * 4


@pytest.mark.parametrize("command", ["validate", "solve", "simulate", "verify"])
@pytest.mark.parametrize("kind", ["missing", "directory", "undecodable"])
def test_unreadable_spec_file_exit_2(tmp_path, capsys, kind, command):
    # a spec file that cannot be read or decoded is an input failure
    p = tmp_path / "spec.json"
    if kind == "directory":
        p.mkdir()
    elif kind == "undecodable":
        p.write_bytes(b"\xff\xfe{}")
    out = tmp_path / "out"
    rc = main([command, "--spec", str(p), "--out", str(out), "--paths", "2"])
    assert rc == 2
    assert f"parse error: {p}: " in capsys.readouterr().err
    assert not out.exists()


def test_solve_zero_spec_all_zero_csv(zero_file, tmp_path):
    rc = main(["solve", "--spec", str(zero_file), "--out", str(tmp_path)])
    assert rc == 0
    for name in ("p", "P1", "P2", "Pf1", "Pf2", "Pf3", "Omega"):
        rows = (tmp_path / f"{name}.csv").read_text().strip().splitlines()[1:]
        vals = {float(r.split(",")[-1]) for r in rows}
        assert vals == {0.0}, name


def test_solve_closed_form_value(tmp_path):
    spec = sq.make_spec(n=1, T=1.0, steps=1000, B1=1.0, R1=1.0, G1=1.0)
    p = tmp_path / "cf.json"
    sq.save_spec(spec, p)
    rc = main(["solve", "--spec", str(p), "--out", str(tmp_path)])
    assert rc == 0
    first = (tmp_path / "p.csv").read_text().splitlines()[1]
    t, _, _, value = first.split(",")
    assert float(t) == 0.0
    assert abs(float(value) - 0.5) <= 1e-8


def test_gains_cover_every_node(spec_file, tmp_path):
    rc = main(["solve", "--spec", str(spec_file), "--out", str(tmp_path)])
    assert rc == 0
    rows = (tmp_path / "gains.csv").read_text().strip().splitlines()[1:]
    ts = {r.split(",")[0] for r in rows}
    assert len(ts) == 151


# sha256 of every file `solve` writes for offgrid_spec, whose pieces break
# between grid nodes: the six ladder levels, Omega, the gains and the summary
SOLVE_OFFGRID_PINNED = {
    "p.csv": "84616e168bad3286476c64473d5220478a3282d72570dedd5be4b885a40279ef",
    "P1.csv": "d63a7fc688cb45f786009236eae0064633d594e42a08591ccf5aeb837732f462",
    "P2.csv": "4e70fc0a6415d1cebc66fd8ad0b50563b2b892390f63bc216080031c55418f46",
    "Pf1.csv": "c72afda56355929cfda32d1a4ccf5ece5ee0620e5040a2fb34ea85d615900189",
    "Pf2.csv": "7f46d5c27c35133604ccea3c5fa2f1256ad6da38587fd6bec59bc488983175e7",
    "Pf3.csv": "a73171056d56503728a5c3884bec7777181059d1e50a1da63dab0945f029aecb",
    "Omega.csv": "7efede3ceaf376fd21fc967a4750720fe300a5defcbcd0f5126e5582c2fbea63",
    "gains.csv": "d3a7d8dfe5b0e32a294148d50cd3071a69a50208d186bf8bf2cda85b2ad780d9",
    "solve_summary.txt": "4ddf3d74318f3aca372e1afdb330d51c7f38c45e4909cb511ebc4a5917ad36be",
}


def test_solve_bytes_pinned(offgrid_spec, tmp_path):
    p = tmp_path / "offgrid.json"
    sq.save_spec(offgrid_spec, p)
    out = tmp_path / "solved"
    assert main(["solve", "--spec", str(p), "--out", str(out)]) == 0
    assert sorted(f.name for f in out.iterdir()) == sorted(SOLVE_OFFGRID_PINNED)
    assert {name: _sha256(out / name) for name in SOLVE_OFFGRID_PINNED} == (
        SOLVE_OFFGRID_PINNED)


def test_simulate_zero_cost_and_deterministic_stderr(zero_file, tmp_path):
    rc = main(["simulate", "--spec", str(zero_file), "--out", str(tmp_path),
               "--paths", "8"])
    assert rc == 0
    rows = (tmp_path / "costs.csv").read_text().strip().splitlines()[1:]
    for r in rows:
        _, mean, stderr, *_ = r.split(",")
        assert float(mean) == 0.0
        assert float(stderr) == 0.0


def test_simulate_no_noise_zero_stderr(tmp_path):
    spec = sq.make_spec(n=1, T=1.0, steps=60, x0=1.0, A=0.2, B1=1.0,
                        Q1=0.5, G1=0.5, Q2=0.4, Q3=0.3)
    p = tmp_path / "det.json"
    sq.save_spec(spec, p)
    rc = main(["simulate", "--spec", str(p), "--out", str(tmp_path / "o"),
               "--paths", "6"])
    assert rc == 0
    rows = (tmp_path / "o" / "costs.csv").read_text().strip().splitlines()[1:]
    for r in rows:
        assert float(r.split(",")[2]) == 0.0


def test_verify_no_noise_writes_report(tmp_path):
    # without noise every per-path slope is the same number, so a non-zero
    # slope has stderr 0: the report must still be written
    spec = sq.make_spec(n=1, T=1.0, steps=60, x0=1.0, A=0.2, B1=1.0,
                        Q1=0.5, G1=0.5, Q2=0.4, Q3=0.3)
    p = tmp_path / "det.json"
    sq.save_spec(spec, p)
    rc = main(["verify", "--spec", str(p), "--out", str(tmp_path / "v"),
               "--paths", "200", "--seed", "1"])
    assert rc in (0, 4)
    report = json.loads((tmp_path / "v" / "verify_report.json").read_text())
    assert {"variational_p1", "variational_p2", "variational_p3"} <= {
        c["id"] for c in report}


def test_simulate_rerun_bit_identical(spec_file, tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for out, threads in ((a, "1"), (b, "4")):
        rc = main(["simulate", "--spec", str(spec_file), "--out", str(out),
                   "--paths", "32", "--seed", "7", "--threads", threads])
        assert rc == 0
    for name in ("paths.csv", "costs.csv"):
        assert (a / name).read_bytes() == (b / name).read_bytes()


@pytest.mark.parametrize("thin", ["0", "-3"])
def test_simulate_rejects_bad_thin(zero_file, tmp_path, thin):
    rc = main(["simulate", "--spec", str(zero_file), "--out", str(tmp_path),
               "--paths", "2", "--thin", thin])
    assert rc == 2
    assert not (tmp_path / "paths.csv").exists()


# "0" and "0,-0.0": a sweep of epsilon 0 alone would pass every curvature gate
@pytest.mark.parametrize("epsilons", ["0.1,abc", "", "nan", "0.05,inf", "0",
                                      "0,-0.0"])
def test_verify_rejects_bad_epsilons(spec_file, tmp_path, epsilons):
    rc = main(["verify", "--spec", str(spec_file), "--out", str(tmp_path / "v"),
               "--paths", "8", "--epsilons", epsilons])
    assert rc == 2
    assert not (tmp_path / "v").exists()


# 1e200 is finite but its square is not: each mean would read inf with
# stderr 0, and the curvature gate would pass on nothing
@pytest.mark.parametrize("epsilons", ["1e200", "0.1,-1e155"])
def test_verify_rejects_epsilons_whose_squares_overflow(spec_file, tmp_path,
                                                        capsys, epsilons):
    rc = main(["verify", "--spec", str(spec_file), "--out", str(tmp_path / "v"),
               "--paths", "8", "--epsilons", epsilons])
    assert rc == 2
    assert not (tmp_path / "v").exists()
    assert capsys.readouterr().err == (
        "parse error: --epsilons needs numbers whose squares are finite, "
        f"got {epsilons!r}\n")


def test_verify_fails_costs_that_overflow(tmp_path):
    # 1e154 squares to a finite 1e308, but e^2 C, or its sum over the paths,
    # overflows: 30 of the 45 rows of variational.csv read inf, and an inf
    # mean must fail its player's check, naming its direction and epsilon
    spec = sq.make_spec(n=1, T=1.0, steps=500, x0=1.0, A=0.3, B1=1.0, B2=0.8,
                        B3=0.6, sigma1=0.25, sigma2=0.3, sigma3=0.35,
                        Q1=1.0, R1=1.0, G1=0.5, Q2=0.8, R2=1.2, G2=0.4,
                        Q3=0.6, R3=1.5, G3=0.3)
    sq.save_spec(spec, tmp_path / "readme.json")
    out = tmp_path / "v"
    rc = main(["verify", "--spec", str(tmp_path / "readme.json"), "--out",
               str(out), "--epsilons", "1e154", "--steps", "20", "--paths",
               "16"])
    assert rc == 4
    rows = (out / "variational.csv").read_text().splitlines()[1:]
    assert sum(row.split(",")[3] == "inf" for row in rows) == 30
    report = {c["id"]: c for c in json.loads(
        (out / "verify_report.json").read_text())}
    for player in (1, 2, 3):
        check = report[f"variational_p{player}"]
        assert not check["passed"]
        assert "const(eps=-1e+154: mean inf" in check["detail"], check


# a non-finite scale would build a law of NaN gains and end as a blow-up
@pytest.mark.parametrize("gains", ["nan", "inf", "-inf"])
def test_verify_rejects_non_finite_sabotage_gains(spec_file, tmp_path, gains):
    rc = main(["verify", "--spec", str(spec_file), "--out", str(tmp_path / "v"),
               "--paths", "8", f"--sabotage-gains={gains}"])
    assert rc == 2
    assert not (tmp_path / "v").exists()


def _sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def test_simulate_bytes_pinned_across_blocks(n2_spec, tmp_path):
    # two full blocks of paths plus a remainder, and a thin that does not
    # divide K; digests taken with one block of paths, re-taken when the
    # three filtered systems became one block state (values moved by at
    # most 2e-15 of each column's largest entry) and when the ladder became
    # one Riccati instance per cumulative sum (paths.csv moved by at most
    # 7.6e-16 of each (block, component) column's largest entry, the cost
    # means and stderrs by at most 1.9e-16 relative)
    p = tmp_path / "n2.json"
    sq.save_spec(n2_spec, p)
    base = ["simulate", "--spec", str(p), "--steps", "10", "--seed", "11"]
    out = tmp_path / "blocks"
    assert main(base + ["--out", str(out), "--paths", "4100", "--thin", "4"]) == 0
    assert 4100 > 2 * BLOCK_PATHS
    assert _sha256(out / "paths.csv") == (
        "c110c205c5b9946317d70cb31c98d68b5d2f47922b1ce30a848ee084bd2ca53f")
    assert _sha256(out / "costs.csv") == (
        "5a67a756cea625c901bb1a39809a1d836073639067894d99e00c08a5f66726d0")
    # re-pinned when a one-path block came to be padded to a batch width,
    # not stepped by numpy's matrix-vector kernel: the one path's costs are
    # now those it has inside a full block, each mean moved by at most
    # 1.24e-15 relative (the four-block digests above did not move)
    one = tmp_path / "one"
    assert main(base + ["--out", str(one), "--paths", "1"]) == 0
    rows = (one / "costs.csv").read_text().strip().splitlines()[1:]
    assert [r.split(",")[2] for r in rows] == ["0", "0", "0"]
    assert _sha256(one / "costs.csv") == (
        "b58ddad67d64c1d5a62b6897a9db8c999474438efe89d81807c2f1e9f9289a53")


def test_simulate_memory_bounded_in_paths(spec_file, tmp_path):
    # at --thin 1 a block's records (0.61 MB here) are the largest thing
    # simulate holds: 4 blocks must peak as 1 block does, so no block's
    # records outlive the drawing of the next
    def simulate(paths):
        return main(["simulate", "--spec", str(spec_file), "--steps", "4",
                     "--thin", "1", "--out", str(tmp_path / str(paths)),
                     "--paths", str(paths)])

    assert simulate(2) == 0     # one-time allocations stay out of the peaks
    peaks = []
    for blocks in (1, 4):
        tracemalloc.start()
        try:
            assert simulate(blocks * BLOCK_PATHS) == 0
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert abs(peaks[1] - peaks[0]) <= 0.1 * peaks[0], peaks


def test_verify_passes_and_sabotage_fails(spec_file, tmp_path):
    rc = main(["verify", "--spec", str(spec_file), "--out", str(tmp_path / "v"),
               "--paths", "1500", "--seed", "1"])
    assert rc == 0
    report = json.loads((tmp_path / "v" / "verify_report.json").read_text())
    assert all(c["passed"] for c in report)
    ids = {c["id"] for c in report}
    assert {"terminal_conditions", "residual_order", "filter_measurability",
            "exact_nesting", "variational_p1", "variational_p2",
            "variational_p3"} <= ids
    # reducible specs additionally route through the DP crosscheck
    assert "dp_crosscheck" not in ids

    rc = main(["verify", "--spec", str(spec_file), "--out", str(tmp_path / "s"),
               "--paths", "1500", "--seed", "1", "--sabotage-gains", "1.5"])
    assert rc == 4
    report = json.loads((tmp_path / "s" / "verify_report.json").read_text())
    failed = {c["id"] for c in report if not c["passed"]}
    assert "variational_p1" in failed


def test_verify_reducible_includes_dp(tmp_path, reducible_spec):
    p = tmp_path / "red.json"
    sq.save_spec(reducible_spec, p)
    rc = main(["verify", "--spec", str(p), "--out", str(tmp_path / "v"),
               "--paths", "1000", "--seed", "5"])
    report = json.loads((tmp_path / "v" / "verify_report.json").read_text())
    assert "dp_crosscheck" in {c["id"] for c in report}
    assert rc == 0


def test_verify_threads_bit_identical(tmp_path, reducible_spec):
    p = tmp_path / "red.json"
    sq.save_spec(reducible_spec, p)
    outs = []
    for threads in ("1", "2"):
        out = tmp_path / f"t{threads}"
        main(["verify", "--spec", str(p), "--out", str(out), "--paths", "2500",
              "--seed", "5", "--threads", threads])
        outs.append(out)
    for name in ("verify_report.json", "variational.csv"):
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()


# sha256 of verify's outputs on reducible_spec at --paths 600 --seed 7, pinned
# when the sweep still drew all three Brownian components and stepped every
# response group: W1, W2 and the undriven groups of players 2 and 3 changed
# no byte. verify_report.json was re-pinned when one set of W-zeroed runs
# took over the measurability and nesting checks: only their details moved.
# The "1.5" digests were re-pinned when --sabotage-gains became a law that
# every check runs: player 1's rows of variational.csv and the exact_nesting,
# ansatz_residual and variational_p1 details moved.  Both variational.csv
# digests were re-pinned when the response groups took the base law's row
# form and stepper: 9 of 210 mean and 8 of 210 stderr values moved, each by
# at most 2.2e-16 of its column's largest value.  They were re-pinned again
# when the group tables came to be built in closed form, not probed: 2 of 210
# mean and 7 of 210 stderr values moved, each by at most 2.3e-16 of its
# column's largest value.
VERIFY_REDUCIBLE_PINNED = {
    "1.0": (0, {
        "verify_report.json": "e425a330f609f04a82790b87f22de7dde7fd85fbf4be7f83f969e560c6c788bb",
        "variational.csv": "5229f733bed96d81745ca5b16cb897036fc3938efad6639dc210d0b7a25ad518"}),
    "1.5": (4, {
        "verify_report.json": "1d1b55f0d157bbcfdf2295448a8767e138b3be04f64a97b146d38427573abd15",
        "variational.csv": "b538cb2e11ece61fe7de864ed4ade872dfdc34d124c272582480a7494b2f34e6"}),
}


@pytest.mark.parametrize("gains", sorted(VERIFY_REDUCIBLE_PINNED))
def test_verify_reducible_bytes_pinned(tmp_path, reducible_spec, gains):
    p = tmp_path / "red.json"
    sq.save_spec(reducible_spec, p)
    rc = main(["verify", "--spec", str(p), "--out", str(tmp_path / "v"),
               "--paths", "600", "--seed", "7", "--sabotage-gains", gains])
    code, digests = VERIFY_REDUCIBLE_PINNED[gains]
    assert rc == code
    assert {name: _sha256(tmp_path / "v" / name) for name in digests} == digests


# sha256 of verify's outputs on n2_spec at --steps 40 --paths 300 --seed 7: a
# spec that loads every channel (every C_i and sigma_i nonzero, drift and cost
# intercepts too) and drives all three response groups, so every load table
# of Z and of the groups reaches these bytes.  At 40 steps the correct law's
# O(h) Euler slope fails variational_p2 and variational_p3: exit 4 at both
# gain scales.
VERIFY_N2_PINNED = {
    "1.0": (4, {
        "verify_report.json": "f3c4b86f64995b70b2c491d664683b378dfb0275a263cbdb2c700073feb5d284",
        "variational.csv": "7954018a97882bd179067c48cee1a52aa861127e45f9b22a832f764819cbfb35"}),
    "1.5": (4, {
        "verify_report.json": "a2c11746e4b84b77146effb8e45c58c4f8297599b6880bcbdb79a5ac6609e1ee",
        "variational.csv": "43d1ef4be852c759e9017773703a1b5a1064083a5eb602f1c9a659a1244d1ef4"}),
}


@pytest.mark.parametrize("gains", sorted(VERIFY_N2_PINNED))
def test_verify_every_channel_bytes_pinned(tmp_path, n2_spec, gains):
    p = tmp_path / "n2.json"
    sq.save_spec(n2_spec, p)
    rc = main(["verify", "--spec", str(p), "--out", str(tmp_path / "v"),
               "--steps", "40", "--paths", "300", "--seed", "7",
               "--sabotage-gains", gains])
    code, digests = VERIFY_N2_PINNED[gains]
    assert rc == code
    assert {name: _sha256(tmp_path / "v" / name) for name in digests} == digests


def test_each_grid_builds_its_coefficient_table_once(reducible_spec, tmp_path,
                                                     monkeypatch):
    # a solve builds the table of its step midpoints and of its grid, which
    # the gains, the simulation, the sweep and the residuals all share; the
    # DP cross-check builds its own two (DP grid and midpoints)
    built = []
    init = CoeffValues.__init__

    def counting(cv, spec, t):
        built.append(np.shape(t))
        init(cv, spec, t)

    monkeypatch.setattr(CoeffValues, "__init__", counting)
    p = tmp_path / "red.json"
    sq.save_spec(reducible_spec, p)
    for command in ("solve", "simulate"):
        built.clear()
        assert main([command, "--spec", str(p), "--out", str(tmp_path / command),
                     "--paths", "8"]) == 0
        assert built == [(100,), (101,)], command
    built.clear()
    run_verification(reducible_spec, seed=3, n_paths=16,
                     epsilons=(0.05, 0.1, 0.2), gain_scale=1.0)
    assert len(built) == 6, built


def test_shared_coefficient_table_is_read_only(reducible_spec):
    bundle, Omega = sq.solve_game(reducible_spec)
    law = sq.build_feedback(bundle, Omega)
    assert law.cv is bundle.cv
    with pytest.raises(ValueError):
        bundle.cv.A[0] = 1.0
    with pytest.raises(ValueError):
        bundle.cv[1:-1].Rinv[0] += 1.0


def test_console_entry_point(zero_file, tmp_path):
    exe = shutil.which("stacklq")
    cmd = ([exe] if exe else [sys.executable, "-m", "stacklq.cli"])
    proc = subprocess.run(cmd + ["validate", "--spec", str(zero_file),
                                 "--out", str(tmp_path)],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert "spec valid" in proc.stdout

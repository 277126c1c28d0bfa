import dataclasses
import hashlib
import json
import shutil
import subprocess
import sys
import tracemalloc

import pytest

import stacklq as sq
from stacklq.cli import main
from stacklq.closedloop import BLOCK_PATHS


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


@pytest.mark.parametrize("seed", ["-1", str(2**64)])
@pytest.mark.parametrize("command", ["simulate", "verify"])
def test_seed_outside_u64_is_a_parse_error(spec_file, tmp_path, command, seed):
    rc = main([command, "--spec", str(spec_file), "--out", str(tmp_path / "o"),
               "--paths", "2", "--seed", seed])
    assert rc == 2
    assert not (tmp_path / "o").exists()


def test_parse_error_exit_2(tmp_path):
    p = tmp_path / "garbled.json"
    p.write_text("{ definitely not json !!")
    rc = main(["validate", "--spec", str(p), "--out", str(tmp_path)])
    assert rc == 2


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


@pytest.mark.parametrize("epsilons", ["0.1,abc", "", "nan", "0.05,inf"])
def test_verify_rejects_bad_epsilons(spec_file, tmp_path, epsilons):
    rc = main(["verify", "--spec", str(spec_file), "--out", str(tmp_path / "v"),
               "--paths", "8", "--epsilons", epsilons])
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
    one = tmp_path / "one"
    assert main(base + ["--out", str(one), "--paths", "1"]) == 0
    rows = (one / "costs.csv").read_text().strip().splitlines()[1:]
    assert [r.split(",")[2] for r in rows] == ["0", "0", "0"]
    assert _sha256(one / "costs.csv") == (
        "7e07e1510ad4e2af7eeb13772ee908a8fae3e709227f843aa938f874e9637b7b")


def test_simulate_memory_bounded_in_paths(spec_file, tmp_path):
    def simulate(paths):
        return main(["simulate", "--spec", str(spec_file), "--steps", "10",
                     "--thin", "10", "--out", str(tmp_path / str(paths)),
                     "--paths", str(paths)])

    assert simulate(2) == 0     # one-time allocations stay out of the peaks
    peaks = []
    for blocks in (2, 4):
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
            "tower_oracle", "variational_p1", "variational_p2",
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


def test_console_entry_point(zero_file, tmp_path):
    exe = shutil.which("stacklq")
    cmd = ([exe] if exe else [sys.executable, "-m", "stacklq.cli"])
    proc = subprocess.run(cmd + ["validate", "--spec", str(zero_file),
                                 "--out", str(tmp_path)],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert "spec valid" in proc.stdout

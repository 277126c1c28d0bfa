"""Command-line entry point: validate | solve | simulate | verify.

Exit codes: 0 success, 1 domain/validation failure, 2 input parse failure,
3 numerical blow-up, 4 verification failure.  All outputs land under the
--out directory; reruns with the same configuration replace them
deterministically.  Numbers are printed with 17 significant digits so CSV
round-trips are bit-faithful; one writer writes solve's tables.  The options
are the one source of verify's seed, paths and epsilons.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

import numpy as np

from .closedloop import build_feedback
from .errors import BlowUpError, DomainError, SpecFormatError, StackLQError
from .model import load_spec, validate_spec, with_steps
from .montecarlo import mean_stderr, simulate_blocks
from .riccati import LEVELS, riccati_residuals, solve_game
from .rng import NoisePlan
from .verify import run_verification

FMT = "%.17g"

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_PARSE = 2
EXIT_BLOWUP = 3
EXIT_VERIFY = 4


def _row_template(times, rows, lead: str = "") -> str:
    """CSV lines `{lead}{t},{row},{value}` for each time and then each row,
    t formatted now and value left as a FMT field: one `template % values`
    call fills every line."""
    node = "".join(f"{lead}\0,{row},{FMT}\n" for row in rows)
    return "".join(node.replace("\0", FMT % t) for t in times)


def _write_tables_csv(path: Path, header: str, times, tables: dict):
    """The header, then `t,{label}{row},{col},value` lines node by node over
    tables: (K+1, rows, cols) or (K+1, rows) arrays by label, a vector's col 0."""
    vals = [v.reshape(*v.shape[:2], -1) for v in tables.values()]
    template = _row_template(times, [
        f"{label}{i},{j}" for label, v in zip(tables, vals)
        for i in range(v.shape[1]) for j in range(v.shape[2])])
    values = np.concatenate([v.reshape(len(times), -1) for v in vals], axis=1)
    with open(path, "w") as fh:
        fh.write(header + "\n")
        fh.write(template % tuple(values.ravel().tolist()))


def _path_rows(n: int) -> list:
    """`block,component` of the paths.csv lines of one node, in file order:
    the columns of simulate_blocks' records."""
    state = (("x", n), ("psi2", n), ("Psi3", 2 * n))
    rows = [f"{name}{level},{c}" for level in ("", "_hat", "_check")
            for name, width in state for c in range(width)]
    return rows + [f"v{i},{c}" for i in (1, 2, 3) for c in range(n)]


def _load(args):
    if args.paths < 1:
        raise SpecFormatError("--paths must be at least 1")
    if getattr(args, "thin", 1) < 1:
        raise SpecFormatError("--thin must be at least 1")
    if not 0 <= args.seed < 2**64:
        raise SpecFormatError("--seed must be an unsigned 64-bit integer")
    spec = load_spec(args.spec)
    if args.steps is not None:
        spec = with_steps(spec, args.steps)
    if args.rho_min is not None:
        if not (np.isfinite(args.rho_min) and args.rho_min > 0.0):
            raise SpecFormatError("--rho-min must be a positive finite number")
        spec = dataclasses.replace(spec, rho_min=args.rho_min)
    return spec


def _prepare(args):
    """The spec of args, loaded and validated, and the --out directory,
    created; an invalid spec raises DomainError listing every violation."""
    spec = _load(args)
    report = validate_spec(spec)
    if not report.valid:
        raise DomainError(str(report))
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return spec, out


def cmd_validate(args) -> int:
    spec = _load(args)
    report = validate_spec(spec)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    (out / "validation.txt").write_text(str(report) + "\n")
    print(report)
    return EXIT_OK if report.valid else EXIT_INVALID


def cmd_solve(args) -> int:
    spec, out = _prepare(args)
    bundle, Omega = solve_game(spec)
    law = build_feedback(bundle, Omega)
    levels = {name: getattr(bundle, name) for name in LEVELS} | {"Omega": Omega}
    for name, values in levels.items():
        _write_tables_csv(out / f"{name}.csv", "t,row,col,value", bundle.times,
                          {"": values})
    _write_tables_csv(out / "gains.csv", "t,gain,row,col,value", bundle.times,
                      {f"{name},": g for name, g in law.gains.items()})
    res = riccati_residuals(bundle, Omega)
    lines = ["terminal conditions set exactly at T"]
    lines += [f"max centered-difference residual {k}: {v:.6e}"
              for k, v in sorted(res.items())]
    (out / "solve_summary.txt").write_text("\n".join(lines) + "\n")
    print("\n".join(lines))
    return EXIT_OK


def cmd_simulate(args) -> int:
    spec, out = _prepare(args)
    law = build_feedback(*solve_game(spec))
    times = law.times
    plan = NoisePlan.for_spec(spec, args.seed)
    # one path's lines, its id put in once and then its values filled in;
    # simulate_blocks' records hold the values in this order
    template = _row_template(times[::args.thin], _path_rows(spec.n), lead="\1,")
    J = np.empty((3, args.paths))
    with open(out / "paths.csv", "w") as fh:
        fh.write("path_id,t,block,component,value\n")
        for start, records, Jb in simulate_blocks(spec, law, plan, args.paths,
                                                  args.thin):
            N = Jb.shape[1]
            J[:, start:start + N] = Jb
            for pid, row in zip(range(start, start + N), records.reshape(N, -1)):
                fh.write(template.replace("\1", str(pid)) % tuple(row.tolist()))
            del records, row, Jb     # nothing of a block alive as the next is drawn
    with open(out / "costs.csv", "w") as fh:
        fh.write("player,mean,stderr,n_paths,seed,grid_steps\n")
        for player in (1, 2, 3):
            mean, stderr = mean_stderr(J[player - 1])
            fh.write(f"{player},{FMT % mean},{FMT % stderr},"
                     f"{args.paths},{args.seed},{times.shape[0] - 1}\n")
    print(f"simulated {args.paths} paths on {spec.steps} steps "
          f"(seed {args.seed})")
    return EXIT_OK


def _epsilons(text: str) -> tuple:
    try:
        eps = tuple(float(e) for e in text.split(","))
    except ValueError:
        eps = (np.nan,)
    if not np.all(np.isfinite(eps)):
        raise SpecFormatError(f"--epsilons needs finite numbers, got {text!r}")
    if not np.all(np.isfinite([e * e for e in eps])):   # a cost's eps^2 term
        raise SpecFormatError(f"--epsilons needs numbers whose squares are "
                              f"finite, got {text!r}")
    if not any(eps):    # a sweep of epsilon 0 alone has no curvature to gate
        raise SpecFormatError(f"--epsilons needs a nonzero value, got {text!r}")
    return eps


def cmd_verify(args) -> int:
    eps = _epsilons(args.epsilons)
    if args.paths < 2:      # one path has no spread to put a slope's z on
        raise SpecFormatError("verify --paths must be at least 2")
    if not np.isfinite(args.sabotage_gains):
        raise SpecFormatError("--sabotage-gains must be a finite number")
    spec, out = _prepare(args)
    checks, reports = run_verification(spec, seed=args.seed, n_paths=args.paths,
                                       epsilons=eps,
                                       gain_scale=args.sabotage_gains)
    payload = [{"id": cid, "passed": bool(ok), "detail": detail}
               for cid, ok, detail in checks]
    (out / "verify_report.json").write_text(json.dumps(payload, indent=2) + "\n")
    with open(out / "variational.csv", "w") as fh:
        fh.write("player,direction_id,epsilon,mean,stderr,n_paths,seed\n")
        for rep in reports:
            for eps_v, mean, se in zip(rep.epsilons, rep.means, rep.stderrs):
                fh.write(f"{rep.player},{rep.direction_id},{FMT % eps_v},"
                         f"{FMT % mean},{FMT % se},{args.paths},{args.seed}\n")
    all_ok = True
    for cid, ok, detail in checks:
        all_ok &= ok
        print(f"[{'PASS' if ok else 'FAIL'}] {cid}: {detail}")
    if not all_ok:
        failing = ",".join(c["id"] for c in payload if not c["passed"])
        print(f"verification failed: {failing}", file=sys.stderr)
    return EXIT_OK if all_ok else EXIT_VERIFY


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="stacklq", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--spec", required=True, help="game spec JSON file")
    common.add_argument("--out", default="out", help="output directory")
    common.add_argument("--seed", type=int, default=42)
    common.add_argument("--paths", type=int, default=256)
    common.add_argument("--steps", type=int, default=None,
                        help="override the spec's grid steps")
    common.add_argument("--threads", type=int, default=1,
                        help="accepted for compatibility; changes nothing, "
                             "every command runs in one thread")
    common.add_argument("--rho-min", type=float, default=None,
                        help="override the minimum eigenvalue required of "
                             "the control weights R_i")
    sub.add_parser("validate", parents=[common]).set_defaults(fn=cmd_validate)
    sub.add_parser("solve", parents=[common]).set_defaults(fn=cmd_solve)
    sim = sub.add_parser("simulate", parents=[common])
    sim.add_argument("--thin", type=int, default=1,
                     help="write every k-th grid node to paths.csv")
    sim.set_defaults(fn=cmd_simulate)
    ver = sub.add_parser("verify", parents=[common])
    ver.add_argument("--epsilons", default="0.05,0.1,0.2")
    ver.add_argument("--sabotage-gains", type=float, default=1.0,
                     help="test hook: verify the law whose follower gain "
                          "is scaled by X (1.0 = off)")
    ver.set_defaults(fn=cmd_verify)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except SpecFormatError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except BlowUpError as exc:
        print(f"numerical blow-up: {exc}", file=sys.stderr)
        return EXIT_BLOWUP
    except StackLQError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID


if __name__ == "__main__":
    sys.exit(main())

"""Batch front door: build laws, materialise tables, run verification suites.

Exit codes and the stderr line of each error family (stablewalk.errors):

  0  pass
  1  trend-criterion failure; StableWalkError   "error: ..."
  2  ConfigError                                "configuration error: ..."
  3  BudgetError                                "numerical budget error: ..."

An error exits by the first family in its class's ancestry; `verify` records
a BudgetError per id and runs the rest.
Every run writes a manifest listing its outputs with content hashes.  A
rerun with an identical configuration writes every listed output
byte-identical, from a cold or a warm artifact cache, and a manifest.json
that differs only in wall_clock_s, the run's wall time.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import math
import re
import sys
import time
from pathlib import Path

from . import asymptotics as asy
from .errors import BudgetError, ConfigError, StableWalkError
from .killed_walk import first_passage, ladder_renewals, run_kernel
from .output import csv_text, json_text
from .potential_theory import PotentialTable
from .stable_numerics import constants, density_grid
from .walk_model import WalkLaw, build_walk_law, parse_law_config, stable_params_of, validate_tails

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_CONFIG = 2
EXIT_BUDGET = 3


class RunManifest:
    def __init__(self, subcommand: str, args: argparse.Namespace):
        self.data = {
            "schema_version": 1,
            "subcommand": subcommand,
            "config": getattr(args, "config", None),
            "parameters": {
                k: v for k, v in vars(args).items() if k not in ("func",) and v is not None
            },
            "law_hash": None,
            "outputs": {},
            "wall_clock_s": None,
        }
        self._t0 = time.time()

    def write_output(self, path: Path, text: str) -> Path:
        """Write text to path and record the SHA-256 of its bytes among the outputs."""
        data = text.encode()
        path.write_bytes(data)
        self.data["outputs"][str(path)] = hashlib.sha256(data).hexdigest()
        return path

    def write(self, out_dir: Path) -> None:
        self.data["wall_clock_s"] = round(time.time() - self._t0, 3)
        (out_dir / "manifest.json").write_text(json_text(self.data))


def _load_law(args) -> WalkLaw:
    if getattr(args, "law", None):
        return WalkLaw.from_json(Path(args.law).read_text())
    if getattr(args, "config", None):
        spec = parse_law_config(Path(args.config).read_text())
        return build_walk_law(spec)
    raise ConfigError("provide --law LAW.json or --config LAW.cfg")


def _out_dir(args) -> Path:
    out = Path(args.out or ".")
    out.mkdir(parents=True, exist_ok=True)
    return out


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_law(args) -> int:
    manifest = RunManifest("law", args)
    out = _out_dir(args)
    law = _load_law(args)
    manifest.data["law_hash"] = law.law_hash()
    manifest.write_output(out / "law.json", law.to_json() + "\n")
    manifest.write_output(out / "tails.csv", validate_tails(law).to_csv())
    manifest.write(out)
    print(f"law {law.law_hash()} built: gamma calibration C0={law.c0:.3e}")
    return EXIT_PASS


def _table_sites(args) -> list:
    """The --set values (floats for --kind density, else sites), once --n, --x-max, --window and --t are in range."""
    if min(args.n, args.x_max) < 0 or (args.window is not None and args.window < 1) or not args.t > 0:
        raise ConfigError(f"--n {args.n}, --x-max {args.x_max}, --window {args.window}, --t {args.t}: "
                          "need n >= 0, x-max >= 0, window >= 1, t > 0")
    try:
        return [(float if args.kind == "density" else int)(v) for v in args.set.split(",")]
    except ValueError as exc:
        raise ConfigError(f"--set {args.set!r}: {exc}") from None


def cmd_table(args) -> int:
    sites = _table_sites(args)
    manifest = RunManifest("table", args)
    out = _out_dir(args)
    law = _load_law(args)
    manifest.data["law_hash"] = law.law_hash()
    kind = args.kind
    if kind == "kernel":
        table = run_kernel(law, None, [args.x], args.n, window=args.window, keep=[args.n])
        name, text = f"kernel_n{args.n}.csv", table.to_csv(args.n)
    elif kind == "killed":
        table = run_kernel(law, ("set", tuple(sites)), [args.x], args.n, window=args.window, keep=[args.n])
        name, text = f"killed_n{args.n}.csv", table.to_csv(args.n)
    elif kind == "potential":
        name, text = "potential.csv", PotentialTable(law).to_csv(args.x_max)
    elif kind == "fp":
        fp = first_passage(law, ("set", tuple(sites)), args.x, args.n, window=args.window)
        name = f"fp_x{args.x}_n{args.n}.csv"
        text = csv_text(("n", "f"), [(n, fp.f[n]) for n in range(1, args.n + 1)])
    elif kind == "constants":
        params = stable_params_of(law)
        clean = {
            k: (v if isinstance(v, str) or math.isfinite(v) else None)
            for k, v in constants(params).as_dict().items()
        }
        name, text = "constants.json", json_text({f"({params.alpha!r},{params.gamma!r})": clean})
    elif kind == "density":
        vals, errs = density_grid(args.t, sites, stable_params_of(law))
        name = "density.csv"
        text = csv_text(("t", "x", "value", "abs_error_estimate"), [(args.t, *row) for row in zip(sites, vals, errs)])
    elif kind == "ladder":
        lt = ladder_renewals(law, x_max=args.x_max)
        name = "ladder.csv"
        text = csv_text(("x", "U_ds", "V_as"), [(x, lt.U_ds[x], lt.V_as[x]) for x in range(args.x_max + 1)])
    else:
        raise ConfigError(f"unknown table kind {kind!r}")
    path = manifest.write_output(out / name, text)
    manifest.write(out)
    print(f"wrote {path}")
    return EXIT_PASS


def _drivers() -> dict:
    """theorem id -> its drivers, each called as driver(ctx, quick) with its own quick and full grids.

    verify_ladder returns two reports.
    """
    return {
        "thm1": (asy.verify_thm1,),
        "thm2": (asy.verify_thm2_small, asy.verify_thm2_bulk),
        # thm2 writes the thm2_small report; thm3 adds the crossover scan
        "thm3": (asy.verify_crossover,),
        "thm4": (asy.verify_thm4_y_small, asy.verify_bulk_scaling),
        "thm5": (asy.verify_thm5_x_small,),
        "thm6": (asy.verify_thm6,),
        "cor1": (asy.verify_cor1,),
        "cor2": (asy.verify_cor2,),
        "cor3": (asy.verify_cor3,),
        "finite": (asy.verify_finite_set,),
        "comp": (asy.verify_comp,),
        "ladder": (asy.verify_ladder,),
        "kest": (asy.verify_k_small_eta,),
        "llt": (asy.verify_llt,),
        "prop21": (asy.diagnostics_prop21,),
        "prop22": (asy.verify_prop22,),
        "prop23": (asy.diagnostics_prop23,),
    }


def _registry(ctx: asy.LawContext, quick: bool):
    """theorem_id -> zero-arg callable returning its VerificationReports, all on one context."""

    def reports(fns):
        out = []
        for fn in fns:
            rep = fn(ctx, quick)
            out.extend(rep if isinstance(rep, tuple) else [rep])
        return out

    return {tid: (lambda fns=fns: reports(fns)) for tid, fns in _drivers().items()}


_QUICK_ALL = ("thm1", "thm2", "thm4", "finite", "llt", "prop23")


def cmd_verify(args) -> int:
    manifest = RunManifest("verify", args)
    out = _out_dir(args)
    law = _load_law(args)
    manifest.data["law_hash"] = law.law_hash()
    ctx = asy.LawContext.build(law)
    reg = _registry(ctx, args.quick)
    if args.theorem == "all":
        names = _QUICK_ALL if args.quick else tuple(reg)
    else:
        if args.theorem not in reg:
            raise ConfigError(f"unknown theorem id {args.theorem!r}; choose from {sorted(reg)} or 'all'")
        names = (args.theorem,)
    # every DP row the ids will read steps now, one run_kernel call per batch
    drivers = _drivers()
    ctx.plan(asy.declared_rows(ctx, [fn for name in names for fn in drivers[name]], args.quick))
    all_pass = True
    summaries = []
    single = args.theorem != "all"
    for name in names:
        try:
            reports = reg[name]()
        except BudgetError as exc:
            print(f"{name}: numerical budget error ({exc})", file=sys.stderr)
            summaries.append({"theorem_id": name, "passed": None, "budget_error": f"{type(exc).__name__}: {exc}"})
            continue
        except StableWalkError as exc:
            if single:
                # an explicitly requested theorem whose precondition fails is
                # a configuration error (e.g. thm6 on a C+ = inf family)
                raise ConfigError(f"{name}: {type(exc).__name__}: {exc}") from exc
            print(f"{name}: skipped ({exc})")
            summaries.append({"theorem_id": name, "passed": None, "skipped": str(exc)})
            continue
        for rep in reports:
            manifest.write_output(out / f"{rep.theorem_id}.csv", rep.to_csv())
            summaries.append(rep.summary())
            status = "PASS" if rep.passed else "FAIL"
            print(f"{rep.theorem_id}: {status} final_dev={rep.final_dev:.4f}")
            all_pass &= rep.passed
    manifest.write_output(out / "summary.json", json_text(summaries))
    manifest.write(out)
    if any("budget_error" in entry for entry in summaries):
        return EXIT_BUDGET
    return EXIT_PASS if all_pass else EXIT_FAIL


def cmd_report(args) -> int:
    manifest = RunManifest("report", args)
    out = _out_dir(args)
    rows = []
    for path in sorted(Path(args.dir or ".").glob("**/summary.json")):
        # final_dev stays the number text summary.json holds, not a reformatted float
        rows.extend(json.loads(path.read_text(), parse_float=str))
    text = csv_text(
        ("theorem_id", "passed", "final_dev"),
        [(r.get("theorem_id"), r.get("passed"), r.get("final_dev", "")) for r in rows],
    )
    path = manifest.write_output(out / "report.csv", text)
    manifest.write(out)
    print(f"aggregated {len(rows)} results into {path}")
    return EXIT_PASS


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="stablewalk", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("law", help="build a law from a config file")
    p.add_argument("--config", required=True)
    p.add_argument("--out", default=".")
    p.set_defaults(func=cmd_law)

    p = sub.add_parser("table", help="materialise kernel/potential/ladder tables")
    p.add_argument(
        "--kind",
        required=True,
        choices=("kernel", "killed", "potential", "ladder", "fp", "constants", "density"),
    )
    p.add_argument("--law")
    p.add_argument("--config")
    p.add_argument("--n", type=int, default=64)
    p.add_argument("--x", type=int, default=0)
    p.add_argument("--set", default="0")
    # a word that starts "-" and a digit or "." is a value, so `--set -3,0,1,40` reads a negative site
    p._negative_number_matcher = re.compile(r"^-[\d.]")
    p.add_argument("--window", type=int, default=None)
    p.add_argument("--x-max", type=int, default=64, dest="x_max")
    p.add_argument("--t", type=float, default=1.0)
    p.add_argument("--out", default=".")
    p.set_defaults(func=cmd_table)

    p = sub.add_parser("verify", help="run a per-theorem verification suite")
    p.add_argument("theorem")
    p.add_argument("--law")
    p.add_argument("--config")
    p.add_argument("--out", default=".")
    p.add_argument("--quick", action="store_true")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("report", help="aggregate verification summaries")
    p.add_argument("--dir", default=".")
    p.add_argument("--out", default=".")
    p.set_defaults(func=cmd_report)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except BudgetError as exc:
        print(f"numerical budget error: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except StableWalkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAIL


if __name__ == "__main__":
    sys.exit(main())

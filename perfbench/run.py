"""stablewalk benchmark: cold workloads, checked against a seed reference.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N      # every workload in turn
    python3 perfbench/run.py --workload NAME --record     # rewrite the reference

Run it from the root of a source checkout; it imports ``src/stablewalk`` from
there and nothing installed.  Each workload body runs in a fresh Python
process with ``STABLEWALK_CACHE`` removed from its environment, one process at
a time, with one BLAS/OpenMP thread.

Workloads (the reasons are in BENCHMARK.json):
  verify_sym15  `stablewalk verify all`, full grid, law sym15, no cache.
  verify_sp15   `stablewalk verify <id> --quick` for every theorem id, law
                sp15, with STABLEWALK_CACHE set to a new empty directory that
                is deleted after the run.
  oracle_bp15   law bp15: a(x) for |x| <= 2000 in one batch, u_A on that
                window, DP vs Fourier inversion at x drawn by the seed, DP vs
                Monte Carlo (seeded), and one wide DP batch.

An operation is one theorem id (verify) or one step (oracle).  It fails when
it raises an exception it did not raise at the seed, when one of its output
numbers is off the recorded seed reference by more than RTOL * |ref| + ATOL,
when a report passed at the seed and fails now, or when an oracle check
breaks (DP vs Fourier <= 1e-4 absolute, DP vs Monte Carlo within 4 standard
errors, DP conservation defect <= 1e-10, u_A summed over A equal to 1 within
1e-10).  Those failures are `failed` in the last line.  `failed_frac` also
counts reports whose verdict is FAIL as it was at the seed (sym15: cor1, comp;
sp15 at the quick grid: bulk_scaling in thm4).

With --trace 0 the last line carries the end-to-end metrics: medians of the
body repeats (another cold repeat starts while the repeats so far plus one
more fit in --seconds) and of the set-up samples (SETUP_SAMPLES extra
processes plus the body's own).  With --trace 1 the run makes one untraced
and one traced body, checks that both wrote byte-identical outputs, and the
last line carries the per-layer metrics of the traced one.  Every run writes
its result, with the machine and library record, to perfbench/out/results/.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
REFERENCE = HERE / "reference"

RUN_BUDGET_S = 170.0
SETUP_SAMPLES = 2
RTOL = 1e-6
ATOL = 1e-12
FOURIER_TOL = 1e-4
MC_SIGMAS = 4.0
DEFECT_TOL = 1e-10
U_A_SUM_TOL = 1e-10

# On 2 vCPUs a second BLAS thread saved no wall time (oracle_bp15: 19.4 s with
# two, 18.5 s with one) but doubled the run-to-run spread of cpu_s.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

# theorem ids of `stablewalk verify all`, in registry order at the seed
THEOREM_IDS = ("thm1", "thm2", "thm3", "thm4", "thm5", "thm6", "cor1", "cor2", "cor3",
               "finite", "comp", "ladder", "kest", "llt", "prop21", "prop22", "prop23")
ORACLE_OPS = ("potential_table", "u_A", "fourier_vs_dp", "mc_vs_dp", "dp_batch")
FOURIER_CANDIDATES = tuple(range(-32, 33))

WORKLOADS = {
    "verify_sym15": {"law": "sym15", "body": "verify_all"},
    "verify_sp15": {"law": "sp15", "body": "verify_each_quick", "cache": True},
    "oracle_bp15": {"law": "bp15", "body": "oracle"},
}


def oracle_inputs(seed: int, record: bool = False) -> dict:
    rng = random.Random(seed)
    xs = list(FOURIER_CANDIDATES) if record else sorted(rng.sample(FOURIER_CANDIDATES, 4))
    return {
        "x_max": 2000,
        "A": [-1, 2],
        "fourier_xs": xs,
        "fourier_ns": [16, 64, 256, 1024],
        "mc_cases": [[3, 32], [8, 64], [0, 16], [-3, 32], [5, 128], [2, 8]],
        "mc_trials": 400_000,
        "mc_seed": seed % 2**32,
        "batch_window": 512,
        "batch_steps": 16,
    }


# ---------------------------------------------------------------------------
# environment
# ---------------------------------------------------------------------------


def child_env(cache_dir: Path | None) -> dict:
    env = dict(os.environ)
    env.pop("STABLEWALK_CACHE", None)
    if cache_dir is not None:
        env["STABLEWALK_CACHE"] = str(cache_dir)
    env["PYTHONPATH"] = str(SRC)
    env.update(dict.fromkeys(THREAD_VARS, "1"))
    return env


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "stablewalk").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def git_commit() -> str | None:
    """HEAD of the checkout, or None where it is not a git repository."""
    if not (ROOT / ".git").exists():
        return None
    proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True, timeout=30)
    return proc.stdout.strip() or None


def environment(seed: int) -> dict:
    import numpy
    import scipy

    cpu = next((line.split(":", 1)[1].strip() for line in Path("/proc/cpuinfo").read_text().splitlines()
                if line.startswith("model name")), platform.processor())
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    env = child_env(None)
    return {
        "seed": seed,
        "commit": git_commit(),
        "src_sha256": source_digest(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {v: env[v] for v in THREAD_VARS},
    }


# ---------------------------------------------------------------------------
# child processes
# ---------------------------------------------------------------------------


class Budget:
    def __init__(self, seconds: float):
        self.deadline = time.monotonic() + seconds

    def left(self) -> float:
        return self.deadline - time.monotonic()


def base_job(spec: dict, inputs: dict, theorem_ids) -> dict:
    return {"law": spec["law"], "body": spec["body"], "inputs": inputs, "src": str(SRC),
            "theorem_ids": list(theorem_ids)}


def run_child(job: dict, work: Path, budget: Budget, cache_dir: Path | None = None) -> dict:
    """One workload.py process; returns its result.json, or an error record."""
    out = Path(job["out"])
    job_path = work / f"{out.name}.job.json"
    job_path.write_text(json.dumps(job) + "\n")
    try:
        proc = subprocess.run([sys.executable, str(HERE / "workload.py"), str(job_path)],
                              env=child_env(cache_dir), cwd=ROOT, capture_output=True, text=True,
                              timeout=max(budget.left(), 1.0))
    except subprocess.TimeoutExpired:
        return {"crash": f"{out.name}: no result within the run budget"}
    result_path = out / "result.json"
    if proc.returncode != 0 or not result_path.exists():
        return {"crash": f"{out.name}: exit {proc.returncode}\n{proc.stderr[-4000:]}"}
    return json.loads(result_path.read_text())


def run_body(spec: dict, job: dict, work: Path, tag: str, budget: Budget) -> dict:
    job = dict(job, out=str(work / tag))
    if not spec.get("cache"):
        return run_child(job, work, budget)
    # a cache directory of its own, empty, and never one a test run filled
    cache_dir = work / f"cache-{tag}"
    cache_dir.mkdir()
    if any(cache_dir.glob("*.npz")) or ".pytest_cache" in cache_dir.resolve().parts:
        raise SystemExit(f"cache directory {cache_dir} is not a fresh one")
    try:
        return run_child(job, work, budget, cache_dir)
    finally:
        shutil.rmtree(cache_dir, ignore_errors=True)


# ---------------------------------------------------------------------------
# output parsing and the reference
# ---------------------------------------------------------------------------


def _num(text: str) -> float:
    return float(text) if text else math.nan


def read_report(csv_path: Path) -> dict:
    """(keys, values) of a VerificationReport CSV: keys n, x, y, regime; values exact, rhs."""
    lines = csv_path.read_text().splitlines()
    cols = lines[0].split(",")
    keys, values = [], []
    for line in lines[1:]:
        row = dict(zip(cols, line.split(",")))
        keys.append([row["n"], row["x"], row["y"], row["regime"]])
        values.append([_num(row["exact"]), _num(row["rhs"])])
    return {"keys": keys, "values": values}


def verify_outcomes(spec: dict, result: dict, out: Path, theorem_ids) -> dict:
    """theorem id -> {"skip", "error", "reports": {report id: {passed, keys, values}}}."""
    ops = result["ops"]
    outcomes = {}
    if spec["body"] == "verify_all":
        op = ops["all"]
        summary_path = out / "all" / "summary.json"
        entries = json.loads(summary_path.read_text()) if summary_path.exists() else []
        skips = {e["theorem_id"]: e["skipped"] for e in entries if "skipped" in e}
        passed = {e["theorem_id"]: e["passed"] for e in entries if "skipped" not in e}
        for tid in theorem_ids:
            rec = {"skip": skips.get(tid), "error": op["error"], "reports": {}}
            rids = result["reports_by_tid"].get(tid)
            if rids is None and rec["skip"] is None and rec["error"] is None:
                rec["error"] = f"{tid}: no report and no skip in summary.json (exit {op['exit']})"
            for rid in rids or ():
                rec["reports"][rid] = dict(read_report(out / "all" / f"{rid}.csv"), passed=passed[rid])
            outcomes[tid] = rec
        return outcomes
    for tid in theorem_ids:
        op = ops.get(tid, {"exit": None, "error": f"{tid} did not run"})
        rec = {"skip": None, "error": op["error"], "reports": {}}
        if op["exit"] == 2:
            rec["skip"] = (out / f"{tid}.stderr").read_text().strip()
        elif op["exit"] in (0, 1):
            for e in json.loads((out / tid / "summary.json").read_text()):
                rec["reports"][e["theorem_id"]] = dict(
                    read_report(out / tid / f"{e['theorem_id']}.csv"), passed=e["passed"])
        elif rec["error"] is None:
            rec["error"] = f"{tid}: exit {op['exit']}: {(out / f'{tid}.stderr').read_text().strip()}"
        outcomes[tid] = rec
    return outcomes


def read_verify(spec: dict, result: dict, out: Path, theorem_ids) -> dict:
    """verify_outcomes, with unreadable outputs counted against every theorem id."""
    try:
        return verify_outcomes(spec, result, out, theorem_ids)
    except (OSError, ValueError, KeyError) as exc:
        return {tid: {"skip": None, "error": f"unreadable outputs: {exc!r}", "reports": {}} for tid in theorem_ids}


def record_verify(outcomes: dict) -> dict:
    theorems = {}
    for tid, rec in outcomes.items():
        if rec["error"]:
            raise SystemExit(f"cannot record a reference: {rec['error']}")
        theorems[tid] = {"skip": rec["skip"]} if rec["skip"] is not None else {"reports": rec["reports"]}
    return {"theorem_ids": list(outcomes), "theorems": theorems}


def read_oracle(out: Path) -> dict:
    ops = json.loads((out / "oracle.json").read_text())
    csv_path = out / "potential.csv"
    if csv_path.exists():
        ops["potential_table"]["value"] = [float(line.split(",")[2]) for line in csv_path.read_text().splitlines()[1:]]
    return ops


def record_oracle(ops: dict, inputs: dict) -> dict:
    for name, op in ops.items():
        if op["error"]:
            raise SystemExit(f"cannot record a reference: {name}: {op['error']}")
    xs, ns = inputs["fourier_xs"], inputs["fourier_ns"]
    fv = ops["fourier_vs_dp"]["value"]
    return {
        "x_max": inputs["x_max"],
        "A": inputs["A"],
        "potential": ops["potential_table"]["value"],
        "u_A": ops["u_A"]["value"],
        "fourier_ns": ns,
        "dp": {str(x): fv["dp"][i] for i, x in enumerate(xs)},
        "fourier": {str(x): [fv["fourier"][j][i] for j in range(len(ns))] for i, x in enumerate(xs)},
        "mc_dp": [[r["x"], r["n"], r["dp"]] for r in ops["mc_vs_dp"]["value"]],
        "batch_killed": ops["dp_batch"]["value"]["killed"],
    }


class Comparator:
    """Checks numbers against the reference and keeps the largest relative change."""

    def __init__(self):
        self.max_rel_change = 0.0

    def off(self, ref, cur) -> int:
        """How many entries of cur are off ref; a length mismatch counts as all."""
        if len(ref) != len(cur):
            self.max_rel_change = math.inf
            return max(len(ref), len(cur))
        bad = 0
        for r, c in zip(ref, cur):
            if math.isnan(r) and math.isnan(c):
                continue
            if math.isnan(r) or math.isnan(c):
                self.max_rel_change, bad = math.inf, bad + 1
                continue
            if r != c:
                self.max_rel_change = max(self.max_rel_change, abs(r - c) / max(abs(r), abs(c)))
            bad += not abs(r - c) <= RTOL * abs(r) + ATOL
        return bad


def judge_theorem(ref: dict, cur: dict, cmp: Comparator) -> tuple[list, bool]:
    """(reasons the operation failed against the seed, whether a report says FAIL)."""
    if cur["error"]:
        return [cur["error"].strip().splitlines()[-1]], False
    fails_now = any(not r["passed"] for r in cur["reports"].values())
    if "skip" in ref:
        if cur["skip"] is None:      # a seed skip may turn into reports
            return [], fails_now
        return ([] if cur["skip"] == ref["skip"] else [f"skip changed: {cur['skip']}"]), False
    if cur["skip"] is not None:
        return [f"new exception: {cur['skip']}"], False
    why = []
    for rid, rref in ref["reports"].items():
        rep = cur["reports"].get(rid)
        if rep is None:
            why.append(f"{rid}: report missing")
            continue
        if rref["passed"] and not rep["passed"]:
            why.append(f"{rid}: PASS at the seed, FAIL now")
        if rep["keys"] != rref["keys"]:
            why.append(f"{rid}: rows differ from the seed")
            continue
        for col, name in ((0, "exact"), (1, "rhs")):
            bad = cmp.off([v[col] for v in rref["values"]], [v[col] for v in rep["values"]])
            if bad:
                why.append(f"{rid}: {bad} {name} values off the reference")
    return why, fails_now


def judge_oracle(ref: dict, ops: dict, inputs: dict, cmp: Comparator) -> dict:
    """step -> reasons it failed."""
    why = {name: ([op["error"].strip().splitlines()[-1]] if op["error"] else []) for name, op in ops.items()}
    if not ops["potential_table"]["error"]:
        bad = cmp.off(ref["potential"], ops["potential_table"]["value"])
        if bad:
            why["potential_table"].append(f"{bad} a(x) values off the reference")
    if not ops["u_A"]["error"]:
        u = ops["u_A"]["value"]
        bad = cmp.off(ref["u_A"], u)
        if bad:
            why["u_A"].append(f"{bad} u_A values off the reference")
        on_A = sum(u[z + inputs["x_max"]] for z in inputs["A"])
        if not abs(on_A - 1.0) <= U_A_SUM_TOL:
            why["u_A"].append(f"sum of u_A over A = {on_A!r}, not 1")
    if not ops["fourier_vs_dp"]["error"]:
        fv = ops["fourier_vs_dp"]["value"]
        for i, x in enumerate(inputs["fourier_xs"]):
            four = [fv["fourier"][j][i] for j in range(len(inputs["fourier_ns"]))]
            gap = max(abs(d - f) for d, f in zip(fv["dp"][i], four))
            if not gap <= FOURIER_TOL:
                why["fourier_vs_dp"].append(f"x={x}: |DP - Fourier| = {gap:.3e}")
            if cmp.off(ref["dp"][str(x)], fv["dp"][i]) + cmp.off(ref["fourier"][str(x)], four):
                why["fourier_vs_dp"].append(f"x={x}: values off the reference")
    if not ops["mc_vs_dp"]["error"]:
        rows = ops["mc_vs_dp"]["value"]
        for r in rows:
            se = math.sqrt(max(r["dp"] * (1.0 - r["dp"]), 1e-300) / r["trials"])
            if not abs(r["mc"] - r["dp"]) <= MC_SIGMAS * se:
                why["mc_vs_dp"].append(f"x={r['x']} n={r['n']}: z = {(r['mc'] - r['dp']) / se:.2f}")
        if cmp.off([t for _, _, t in ref["mc_dp"]], [r["dp"] for r in rows]):
            why["mc_vs_dp"].append("DP values off the reference")
    if not ops["dp_batch"]["error"]:
        b = ops["dp_batch"]["value"]
        if not max(b["defect"]) <= DEFECT_TOL:
            why["dp_batch"].append(f"conservation defect {max(b['defect']):.3e}")
        if cmp.off(ref["batch_killed"], b["killed"]):
            why["dp_batch"].append("killed mass off the reference")
    return why


def check(spec: dict, ref: dict, result: dict, out: Path, inputs: dict) -> dict:
    """Operations attempted, failed against the seed, and failed incl. FAIL verdicts."""
    cmp = Comparator()
    ops = []
    if "crash" in result:
        names = ref["theorem_ids"] if "theorem_ids" in ref else ORACLE_OPS
        ops = [{"op": n, "failed": True, "verdict_fail": False, "why": [result["crash"]]} for n in names]
    elif "theorem_ids" in ref:
        outcomes = read_verify(spec, result, out, ref["theorem_ids"])
        for tid in ref["theorem_ids"]:
            why, fails_now = judge_theorem(ref["theorems"][tid], outcomes[tid], cmp)
            ops.append({"op": tid, "failed": bool(why), "verdict_fail": fails_now, "why": why})
    else:
        try:
            judged = judge_oracle(ref, read_oracle(out), inputs, cmp)
        except (OSError, ValueError, KeyError, TypeError, IndexError) as exc:
            judged = {op: [f"unreadable outputs: {exc!r}"] for op in ORACLE_OPS}
        for op, why in judged.items():
            ops.append({"op": op, "failed": bool(why), "verdict_fail": False, "why": why})
    for o in ops:
        o["body"] = out.name
    return {
        "attempted": len(ops),
        "failed": sum(o["failed"] for o in ops),
        "failed_or_fail_verdict": sum(o["failed"] or o["verdict_fail"] for o in ops),
        "max_rel_change": cmp.max_rel_change,
        "ops": ops,
    }


def differing_outputs(a: Path, b: Path) -> list:
    """Output files that differ between two body directories (manifest.json holds wall time)."""
    skip = {"manifest.json", "result.json", "spans.json"}
    files = {p.relative_to(a) for p in a.rglob("*") if p.is_file() and p.name not in skip}
    files |= {p.relative_to(b) for p in b.rglob("*") if p.is_file() and p.name not in skip}
    return sorted(str(f) for f in files
                  if not ((a / f).is_file() and (b / f).is_file() and (a / f).read_bytes() == (b / f).read_bytes()))


# ---------------------------------------------------------------------------
# one run
# ---------------------------------------------------------------------------


def flatten_trace(result: dict, declared: list) -> dict:
    m = dict(result["trace"])
    for key in ("killed_walk.step_us", "killed_walk.steps"):
        for W, v in m.pop(key).items():
            m[f"{key}.W{W}"] = v
    m["walk_model.build_s"] = result["build_s"]
    for name in declared:        # windows and theorem ids this workload does not use
        if name.startswith("killed_walk.step_us.W") or (name.startswith("asymptotics.") and name.endswith(".s")):
            m.setdefault(name, 0.0)
    return m


def run_workload(name: str, seed: int, seconds: float, trace: bool, bench: dict) -> dict:
    spec = WORKLOADS[name]
    ref = json.loads((REFERENCE / f"{name}.json").read_text())
    budget = Budget(RUN_BUDGET_S)
    work = OUT / f"{name}-seed{seed}-trace{int(trace)}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    inputs = oracle_inputs(seed) if spec["body"] == "oracle" else {}
    job = base_job(spec, inputs, ref.get("theorem_ids", ()))
    try:
        if trace:
            plain = run_body(spec, job, work, "plain", budget)
            traced = run_body(spec, dict(job, trace=True), work, "traced", budget)
            checks = [check(spec, ref, r, work / tag, inputs) for r, tag in ((plain, "plain"), (traced, "traced"))]
            differ = differing_outputs(work / "plain", work / "traced")
            problems = [f"traced outputs differ: {differ}"] if differ else []
            if "crash" not in traced:
                problems += [f"tracer missed {u}" for u in traced["unreached"]]
                t = traced["trace"]
                if t["killed_walk.run_kernel.calls"] != t["killed_walk.kernel_tables_built"]:
                    problems.append("run_kernel spans != kernel tables built")
                metrics = flatten_trace(traced, [m["name"] for m in bench["per_layer"]])
                metrics["trace.overhead_s"] = traced["wall_s"] - plain.get("wall_s", math.nan)
            else:
                metrics = {}
            units = {m["name"]: m["unit"] for m in bench["per_layer"]}
        else:
            setups = [run_child(dict(job, out=str(work / f"setup{i}"), setup_only=True), work, budget)
                      for i in range(SETUP_SAMPLES)]
            reps, checks, spent = [], [], 0.0
            while True:
                tag = f"rep{len(reps)}"
                r = run_body(spec, job, work, tag, budget)
                reps.append(r)
                checks.append(check(spec, ref, r, work / tag, inputs))
                if "crash" in r:
                    break
                spent += r["wall_s"]
                if spent + r["wall_s"] > seconds:
                    break
            problems = []
            ok = [r for r in reps if "crash" not in r]
            samples = [r["setup_s"] for r in setups + ok if "crash" not in r]
            metrics = {
                "wall_s": statistics.median(r["wall_s"] for r in ok) if ok else math.nan,
                "setup_s": statistics.median(samples) if samples else math.nan,
                "cpu_s": statistics.median(r["cpu_s"] for r in ok) if ok else math.nan,
                "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in ok) if ok else math.nan,
            }
            units = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted = sum(c["attempted"] for c in checks)
    failed = sum(c["failed"] for c in checks)
    fail_any = sum(c["failed_or_fail_verdict"] for c in checks)
    missing = [n for n in units if n not in metrics or not math.isfinite(metrics[n])]
    return {
        "workload": name,
        "trace": trace,
        "correct": failed == 0 and not problems and not missing,
        "attempted": attempted,
        "failed": failed,
        "failed_frac": fail_any / attempted if attempted else math.nan,
        "max_rel_change": max(c["max_rel_change"] for c in checks),
        "problems": problems + [f"metric {n} not measured" for n in missing],
        "metrics": {n: {"value": metrics.get(n, math.nan), "unit": u} for n, u in units.items()},
        "extra": {k: v for k, v in metrics.items() if k not in units},
        "failures": [o for c in checks for o in c["ops"] if o["failed"] or o["verdict_fail"]],
    }


def record(name: str) -> None:
    spec = WORKLOADS[name]
    work = OUT / f"{name}-record-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    inputs = oracle_inputs(0, record=True) if spec["body"] == "oracle" else {}
    job = base_job(spec, inputs, THEOREM_IDS)
    try:
        result = run_body(spec, job, work, "record", Budget(900.0))
        if "crash" in result:
            raise SystemExit(result["crash"])
        out = work / "record"
        if spec["body"] == "oracle":
            data = record_oracle(read_oracle(out), inputs)
        else:
            data = record_verify(verify_outcomes(spec, result, out, THEOREM_IDS))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    data = {"workload": name, "recorded_with": {"commit": git_commit(), "src_sha256": source_digest()}, **data}
    REFERENCE.mkdir(exist_ok=True)
    (REFERENCE / f"{name}.json").write_text(json.dumps(data, sort_keys=True) + "\n")
    print(f"recorded {REFERENCE / f'{name}.json'}")


def report(res: dict, env: dict) -> None:
    print(f"== {res['workload']} (trace {int(res['trace'])}, seed {env['seed']}, "
          f"{env['nproc']} CPUs, {env['cpu_model']}, numpy {env['numpy']})")
    for n, m in res["metrics"].items():
        print(f"{n} {m['value']:.6g} {m['unit']}")
    print(f"failed_frac {res['failed_frac']:.6g} ratio ({res['attempted']} operations)")
    print(f"max_rel_change {res['max_rel_change']:.3g} ratio")
    for f in res["failures"]:
        label = "FAILED" if f["failed"] else "FAIL verdict as at the seed"
        print(f"  {f['op']} ({f['body']}): {label} {'; '.join(f['why'])}".rstrip())
    for p in res["problems"]:
        print(f"  problem: {p}")
    print(f"correct {res['correct']}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=None)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record", action="store_true", help="rewrite the seed reference from this checkout")
    args = ap.parse_args(argv)

    if not (SRC / "stablewalk" / "__init__.py").is_file():
        print(f"no stablewalk source under {SRC}", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    if args.record:
        for name in names:
            record(name)
        return 0
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds if args.seconds is not None else bench["run_seconds"]
    env = environment(args.seed)
    results_dir = OUT / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    for name in names:
        res = run_workload(name, args.seed, seconds, bool(args.trace), bench)
        res["environment"] = env
        (results_dir / f"{name}-seed{args.seed}-trace{args.trace}.json").write_text(
            json.dumps(res, indent=2, sort_keys=True) + "\n")
        report(res, env)
        print(json.dumps({
            "correct": res["correct"],
            "attempted": res["attempted"],
            "failed": res["failed"],
            "metrics": res["metrics"],
        }), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

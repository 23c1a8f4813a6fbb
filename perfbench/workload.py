"""One cold workload process: set-up, then the workload body, then a result file.

Run as ``python3 perfbench/workload.py JOB.json`` with ``src`` on PYTHONPATH.
The job file names the workload, the output directory and the inputs that
run.py generated from the seed.  Set-up is ``import stablewalk`` (every
module) plus ``build_walk_law``; with ``"setup_only"`` the process stops
there.  The body then drives the package through its public entry points and
writes every output under the output directory; ``result.json`` records the
timings, the exit status of each operation and, with ``"trace"``, the
per-layer metrics.
"""
import time

T0 = time.perf_counter()

import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from contextlib import redirect_stderr, redirect_stdout  # noqa: E402
from pathlib import Path  # noqa: E402

LAWS = {
    "sym15": ("two_sided_pareto", 1.5, 0.5),
    "sp15": ("spectrally_positive", 1.5, 0.2),
    "bp15": ("bounded_potential", 1.5, 0.25),
}


def _cli(argv, out: Path, name: str) -> dict:
    """cli.main with its printed text captured; exceptions are recorded, not raised."""
    from stablewalk import cli

    stdout, stderr = io.StringIO(), io.StringIO()
    op = {"exit": None, "error": None}
    try:
        with redirect_stdout(stdout), redirect_stderr(stderr):
            op["exit"] = cli.main(argv)
    except Exception:  # the benchmark records the failure and goes on
        op["error"] = traceback.format_exc()
    (out / f"{name}.stdout").write_text(stdout.getvalue())
    (out / f"{name}.stderr").write_text(stderr.getvalue())
    return op


def body_verify_all(law, law_path: Path, job: dict, out: Path) -> dict:
    """`stablewalk verify all` on the full grid."""
    return {"all": _cli(["verify", "all", "--law", str(law_path), "--out", str(out / "all")], out, "all")}


def body_verify_each_quick(law, law_path: Path, job: dict, out: Path) -> dict:
    """`stablewalk verify <id> --quick` for every theorem id, one call each."""
    return {
        tid: _cli(["verify", tid, "--quick", "--law", str(law_path), "--out", str(out / tid)], out, tid)
        for tid in job["theorem_ids"]
    }


def body_oracle(law, law_path: Path, job: dict, out: Path) -> dict:
    """Whole-window a(x) and u_A tables plus the three-oracle checks."""
    from stablewalk.killed_walk import first_passage, fourier_first_passage_batch, run_kernel
    from stablewalk.montecarlo import SimConfig, estimate_first_passage
    from stablewalk.potential_theory import FiniteSetPotential, PotentialTable

    inp = job["inputs"]
    x_max = inp["x_max"]
    origin = ("set", (0,))
    state = {}

    def potential_table():
        state["pot"] = PotentialTable(law)
        (out / "potential.csv").write_text(state["pot"].to_csv(x_max))

    def u_A():
        fsp = FiniteSetPotential(state["pot"], inp["A"])
        return [fsp.u(x) for x in range(-x_max, x_max + 1)]

    def fourier_vs_dp():
        xs, ns = inp["fourier_xs"], inp["fourier_ns"]
        dp = [first_passage(law, origin, x, max(ns)).f[ns].tolist() for x in xs]
        four = [fourier_first_passage_batch(law, xs, n).tolist() for n in ns]
        return {"dp": dp, "fourier": four}

    def mc_vs_dp():
        rows = []
        for x, n in inp["mc_cases"]:
            cfg = SimConfig(trials=inp["mc_trials"], n_horizon=n, seed=inp["mc_seed"])
            est = estimate_first_passage(law, x, [n], cfg)["f"][n]
            truth = float(first_passage(law, origin, x, n).f[n])
            rows.append({"x": x, "n": n, "mc": est.point, "trials": est.trials_effective, "dp": truth})
        return rows

    def dp_batch():
        W, n = inp["batch_window"], inp["batch_steps"]
        table = run_kernel(law, origin, range(-W, W + 1), n, window=W, keep=[n])
        return {"defect": table.conservation_defect(n).tolist(), "killed": table.killed[:, n].tolist()}

    ops = {}
    for name, fn in (("potential_table", potential_table), ("u_A", u_A), ("fourier_vs_dp", fourier_vs_dp),
                     ("mc_vs_dp", mc_vs_dp), ("dp_batch", dp_batch)):
        try:
            ops[name] = {"value": fn(), "error": None}
        except Exception:  # recorded as a failed operation
            ops[name] = {"value": None, "error": traceback.format_exc()}
    (out / "oracle.json").write_text(json.dumps(ops, sort_keys=True) + "\n")
    return {k: {"error": v["error"]} for k, v in ops.items()}


BODIES = {
    "verify_all": body_verify_all,
    "verify_each_quick": body_verify_each_quick,
    "oracle": body_oracle,
}


def _registry_log(reports_by_tid: dict):
    """Wrap cli._registry so each theorem id's report ids are recorded."""
    from stablewalk import cli

    orig = cli._registry

    def registry(*args, **kwargs):
        def logged(tid, fn):
            def call():
                reps = fn()
                reports_by_tid[tid] = [r.theorem_id for r in reps]
                return reps
            return call
        return {tid: logged(tid, fn) for tid, fn in orig(*args, **kwargs).items()}

    cli._registry = registry


def main(job_path: str) -> None:
    job = json.loads(Path(job_path).read_text())
    out = Path(job["out"])
    out.mkdir(parents=True, exist_ok=True)

    import stablewalk
    import stablewalk.cli  # noqa: F401
    import stablewalk.montecarlo  # noqa: F401

    if Path(stablewalk.__file__).resolve().parent != Path(job["src"]) / "stablewalk":
        raise SystemExit(f"imported {stablewalk.__file__}, not the checkout's source")

    tracer = None
    if job.get("trace"):
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    fam, alpha, B = LAWS[job["law"]]
    law = stablewalk.build_walk_law(stablewalk.TailSpec(alpha=alpha, family=stablewalk.Family(fam), B=B))
    result = {"setup_s": time.perf_counter() - T0}
    if job.get("setup_only"):
        (out / "result.json").write_text(json.dumps(result) + "\n")
        return
    if tracer is not None:
        build = [s for s in tracer.spans if s[0] == "walk_model.build_walk_law"]
        result["build_s"] = sum(t1 - t0 for _, t0, t1, _ in build)
        tracer.reset()
    reports_by_tid = {}
    if job["body"] == "verify_all":
        _registry_log(reports_by_tid)
    law_path = out / "law.json"
    law_path.write_text(law.to_json() + "\n")

    ru0 = resource.getrusage(resource.RUSAGE_SELF)
    w0 = time.perf_counter()
    ops = BODIES[job["body"]](law, law_path, job, out)
    wall = time.perf_counter() - w0
    ru1 = resource.getrusage(resource.RUSAGE_SELF)

    result.update(
        wall_s=wall,
        cpu_s=(ru1.ru_utime - ru0.ru_utime) + (ru1.ru_stime - ru0.ru_stime),
        peak_rss_mb=ru1.ru_maxrss / 1024.0,
        ops=ops,
        reports_by_tid=reports_by_tid,
    )
    if tracer is not None:
        result["unreached"] = tracer.unreached()
        result["trace"] = tracer.metrics(wall, job.get("theorem_ids", ()))
        spans = [[n, t0 - w0, t1 - w0, p] for n, t0, t1, p in tracer.spans]
        (out / "spans.json").write_text(json.dumps(spans) + "\n")
    (out / "result.json").write_text(json.dumps(result, sort_keys=True) + "\n")


if __name__ == "__main__":
    main(sys.argv[1])

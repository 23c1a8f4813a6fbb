"""CLI contract: subcommands, exit codes, manifests, reproducibility."""
import hashlib
import json
import re
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from conftest import get_ctx, get_law
from stablewalk import asymptotics, cli, errors, killed_walk
from stablewalk.cli import _registry, main
from stablewalk.errors import StableWalkError
from stablewalk.stable_numerics import ConstantsTable


@pytest.fixture(scope="module")
def law_cfg(tmp_path_factory):
    path = tmp_path_factory.mktemp("cfg") / "law.cfg"
    path.write_text(
        "# symmetric test law\nfamily = two_sided_pareto\nalpha = 1.5\nB = 0.5\n"
        "q_plus = 0.5\nq_minus = 0.5\n"
    )
    return path


@pytest.fixture(scope="module")
def built_law(law_cfg, tmp_path_factory):
    out = tmp_path_factory.mktemp("law_out")
    assert main(["law", "--config", str(law_cfg), "--out", str(out)]) == 0
    return out / "law.json"


def test_law_build_outputs(built_law):
    out = built_law.parent
    assert built_law.exists()
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["subcommand"] == "law"
    assert str(built_law) in manifest["outputs"]
    assert (out / "tails.csv").read_text().startswith("schema_version")


def test_law_rerun_identical_hash(law_cfg, built_law, tmp_path):
    out2 = tmp_path / "rerun"
    assert main(["law", "--config", str(law_cfg), "--out", str(out2)]) == 0
    assert (out2 / "law.json").read_text() == built_law.read_text()


def test_invalid_alpha_exit_code(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("family = two_sided_pareto\nalpha = 2.1\n")
    assert main(["law", "--config", str(cfg), "--out", str(tmp_path)]) == 2


def test_bad_calibrate_value_exit_code(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("family = two_sided_pareto\nalpha = 1.5\nB = 0.5\ncalibrate = maybe\n")
    assert main(["law", "--config", str(cfg), "--out", str(tmp_path)]) == 2
    assert not (tmp_path / "law.json").exists()


def test_one_sided_q_minus_exit_code(tmp_path):
    """A q_minus the spectrally positive family would drop is a config error, not a silent sp15."""
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("family = spectrally_positive\nalpha = 1.5\nB = 0.2\nq_minus = 0.3\n")
    assert main(["law", "--config", str(cfg), "--out", str(tmp_path)]) == 2
    assert not (tmp_path / "law.json").exists()


def test_malformed_config_exit_code(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("family two_sided_pareto\n")
    assert main(["law", "--config", str(cfg), "--out", str(tmp_path)]) == 2


@pytest.mark.parametrize("text, message", [
    pytest.param("family = two_sided_pareto\nalpha = 1.5\nalpha = 1.7\n",
                 "line 3: key 'alpha' already set on line 2", id="key_twice"),
    pytest.param("family = two_sided_pareto\nalpha = 1.5\nq_plus = nan\nq_minus = 0.5\n",
                 "q_plus=nan is not finite", id="q_plus_nan"),
    pytest.param("family = two_sided_pareto\nalpha = 1.5\nB = inf\n", "B=inf is not finite", id="B_inf"),
])
def test_config_error_exit_code(text, message, tmp_path, capsys):
    """A key set twice or a non-finite number exits 2 naming it, and writes no law."""
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(text)
    assert main(["law", "--config", str(cfg), "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err == f"configuration error: {message}\n"
    assert not (tmp_path / "law.json").exists()


@pytest.mark.parametrize("edit, message", [
    pytest.param(lambda d: d["law"].__delitem__("l1"), "law.json WalkLaw lacks l1", id="missing_field"),
    pytest.param(lambda d: d["spec"].update(family="bogus"), "bad value for family: 'bogus'", id="bad_family"),
    pytest.param(lambda d: "{not json", "law.json is not JSON: ", id="not_json"),
    pytest.param(lambda d: d["law"].update(sp="abc"), "bad value for sp: 'abc'", id="sp_not_a_number"),
    pytest.param(lambda d: d["spec"].update(calibrate="maybe"), "bad value for calibrate: 'maybe'", id="bad_switch"),
    # laws the builder would reject
    pytest.param(lambda d: d["law"].update(u_plus="-0.5"), "negative repair atom", id="negative_atom"),
    pytest.param(lambda d: d["law"].update(sp="5.0"), "origin mass -", id="origin_mass"),
])
def test_bad_law_json_exit_code(edit, message, built_law, tmp_path, capsys):
    """A law.json the decoder cannot read, or whose law fails the builder's checks, exits 2 before any output.

    edit changes the parsed payload in place, or returns the file's whole text.
    """
    payload = json.loads(built_law.read_text())
    text = edit(payload)
    law = tmp_path / "edited.json"
    law.write_text(json.dumps(payload) if text is None else text)
    out = tmp_path / "v"
    assert main(["verify", "thm1", "--quick", "--law", str(law), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"configuration error: {message}") and err.count("\n") == 1
    assert list(out.iterdir()) == []


def test_table_set_may_start_with_a_negative_site(built_law, tmp_path):
    """`--set -3,0,1,40` reads the list, as `--set=-3,0,1,40` does."""
    texts = []
    for words in (["--set", "-3,0,1,40"], ["--set=-3,0,1,40"]):
        out = tmp_path / str(len(texts))
        assert main(["table", "--kind", "density", "--law", str(built_law), *words, "--out", str(out)]) == 0
        texts.append((out / "density.csv").read_text())
    assert texts[0] == texts[1]
    assert [row.split(",")[2] for row in texts[0].splitlines()[1:]] == ["-3", "0", "1", "40"]


def _exit_table() -> dict:
    """Error family -> (exit code, stderr prefix), as the table in the cli docstring gives them."""
    rows = re.findall(r'^ +(\d) +(?:.*; )?(\w+) +"(.*)\.\.\."$', cli.__doc__, re.M)
    return {family: (int(code), prefix) for code, family, prefix in rows}


_ERRORS = [c for c in vars(errors).values() if isinstance(c, type) and issubclass(c, errors.StableWalkError)]


@pytest.mark.parametrize("exc", _ERRORS, ids=lambda c: c.__name__)
def test_every_error_exits_by_its_family(exc, tmp_path, monkeypatch, capsys):
    """Each library error leaves cli.main with the exit code and stderr prefix of its nearest family."""
    table = _exit_table()
    assert set(table) == {"StableWalkError", "ConfigError", "BudgetError"}
    code, prefix = table[next(c.__name__ for c in exc.__mro__ if c.__name__ in table)]

    def raises(args):
        raise exc("stubbed")

    monkeypatch.setattr(cli, "cmd_report", raises)
    assert main(["report", "--dir", str(tmp_path), "--out", str(tmp_path)]) == code
    assert capsys.readouterr().err == f"{prefix}stubbed\n"


def test_killed_table_zero_column(built_law, tmp_path):
    assert (
        main(
            [
                "table",
                "--kind",
                "killed",
                "--law",
                str(built_law),
                "--n",
                "64",
                "--x",
                "3",
                "--set",
                "0",
                "--window",
                "512",
                "--out",
                str(tmp_path),
            ]
        )
        == 0
    )
    rows = (tmp_path / "killed_n64.csv").read_text().splitlines()[1:]
    for row in rows:
        _, n, x, y, val = row.split(",")
        if y == "0":
            assert float(val) == 0.0


def test_potential_table_origin_row(built_law, tmp_path):
    assert (
        main(
            ["table", "--kind", "potential", "--law", str(built_law), "--x-max", "6", "--out", str(tmp_path)]
        )
        == 0
    )
    rows = (tmp_path / "potential.csv").read_text().splitlines()[1:]
    vals = {int(r.split(",")[1]): float(r.split(",")[2]) for r in rows}
    assert vals[0] == 0.0
    assert vals[3] > 0


# kind -> (extra arguments, output file, header, data rows); the killed table
# lists the nonzero sites, all but the killed origin; the density sites 0 and
# 1 take the quadrature and 40 the far-tail series; constants.json holds one
# key per ConstantsTable field; the ladder table is written from _small_ladder
_TABLE_KINDS = {
    "kernel": (["--n", "8", "--window", "64"], "kernel_n8.csv", "schema_version,n,x,y,value", 129),
    "killed": (["--n", "8", "--x", "3", "--window", "64"], "killed_n8.csv", "schema_version,n,x,y,value", 128),
    "potential": (["--x-max", "6"], "potential.csv", "schema_version,x,a", 13),
    "fp": (["--n", "8", "--x", "3", "--window", "64"], "fp_x3_n8.csv", "schema_version,n,f", 8),
    "constants": ([], "constants.json", "{", None),
    "density": (["--set", "0,1,40", "--t", "1"], "density.csv", "schema_version,t,x,value,abs_error_estimate", 3),
    "ladder": (["--x-max", "3"], "ladder.csv", "schema_version,x,U_ds,V_as", 4),
}


def _small_ladder(law, x_max):
    """A LadderTables of hand-set values in place of the two-row 8192-step half-line batch."""
    x = np.arange(x_max + 1, dtype=float)
    return killed_walk.LadderTables(
        q_ds=np.array([0.5, 0.25]), q_ds_tail=0.25, q_as_tail=0.0, V_as=0.5 * x, U_ds=1.0 + x / 3.0,
        green_tail_rel=0.0,
    )


@pytest.mark.parametrize("kind", sorted(_TABLE_KINDS))
def test_table_kinds(kind, built_law, tmp_path, monkeypatch):
    extra, name, header, n_rows = _TABLE_KINDS[kind]
    monkeypatch.setattr(cli, "ladder_renewals", _small_ladder)
    assert main(["table", "--kind", kind, "--law", str(built_law), *extra, "--out", str(tmp_path)]) == 0
    path = tmp_path / name
    text = path.read_text()
    assert text.splitlines()[0] == header
    if kind == "constants":
        (entry,) = json.loads(text).values()
        assert set(entry) == {f.name for f in fields(ConstantsTable)} and entry["alpha"] == 1.5
    else:
        assert len(text.splitlines()) == 1 + n_rows
    if kind == "ladder":
        assert text.splitlines()[2] == "1,1,1.3333333333333333,0.5"
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["outputs"] == {str(path): hashlib.sha256(path.read_bytes()).hexdigest()}


def test_kernel_table_steps_from_x(built_law, tmp_path):
    """--kind kernel steps the free walk from --x: every row has that x, and the file is that run's CSV."""
    from stablewalk.walk_model import WalkLaw

    args = ["table", "--kind", "kernel", "--law", str(built_law), "--n", "8", "--window", "64", "--x", "3"]
    assert main([*args, "--out", str(tmp_path)]) == 0
    text = (tmp_path / "kernel_n8.csv").read_text()
    assert {row.split(",")[2] for row in text.splitlines()[1:]} == {"3"}
    law = WalkLaw.from_json(built_law.read_text())
    assert text == killed_walk.run_kernel(law, None, [3], 8, window=64, keep=[8]).to_csv(8)


@pytest.mark.parametrize("kind, extra", [
    ("killed", ["--set", "0,a"]),
    ("density", ["--set", "0,x"]),
    ("kernel", ["--n", "-3"]),
    ("ladder", ["--x-max", "-3"]),
    ("density", ["--t", "0"]),
    ("kernel", ["--window", "0"]),
    ("kernel", ["--window", "-5"]),
])
def test_table_rejects_malformed_options(kind, extra, built_law, tmp_path, capsys):
    """A malformed --set, --n or --x-max < 0, --window < 1 or --t <= 0 is a configuration error, before any output."""
    assert main(["table", "--kind", kind, "--law", str(built_law), *extra, "--out", str(tmp_path / "t")]) == 2
    assert capsys.readouterr().err.startswith("configuration error: --")
    assert not (tmp_path / "t").exists()


def test_verify_all_goes_on_after_a_budget_error(built_law, tmp_path, monkeypatch, capsys):
    """A budget error ends its own id only: the later ids run, both JSON files are written, and the exit is 3."""
    from stablewalk.errors import TruncationTooCoarse

    def too_coarse(ctx, quick):
        raise TruncationTooCoarse("tails above budget")

    monkeypatch.setattr(asymptotics, "verify_finite_set", too_coarse)
    out = tmp_path / "vall"
    assert main(["verify", "all", "--quick", "--law", str(built_law), "--out", str(out)]) == 3
    assert capsys.readouterr().err == "finite: numerical budget error (tails above budget)\n"
    summary = {s["theorem_id"]: s for s in json.loads((out / "summary.json").read_text())}
    assert summary["finite"] == {"theorem_id": "finite", "passed": None,
                                 "budget_error": "TruncationTooCoarse: tails above budget"}
    assert {"llt", "prop23"} <= set(summary)  # the ids after finite ran
    manifest = json.loads((out / "manifest.json").read_text())
    assert str(out / "summary.json") in manifest["outputs"]


def test_verify_all_skips_an_id_whose_precondition_fails(built_law, tmp_path, monkeypatch, capsys):
    """A failed precondition in `verify all` skips its own id only: it is listed as skipped, and the exit is 0."""
    from stablewalk.errors import InfiniteCPlus

    def needs_c_plus(ctx, quick):
        raise InfiniteCPlus("finite needs a bounded C+")

    monkeypatch.setattr(asymptotics, "verify_finite_set", needs_c_plus)
    out = tmp_path / "vall"
    assert main(["verify", "all", "--quick", "--law", str(built_law), "--out", str(out)]) == 0
    assert "finite: skipped (finite needs a bounded C+)\n" in capsys.readouterr().out
    summary = {s["theorem_id"]: s for s in json.loads((out / "summary.json").read_text())}
    assert summary["finite"] == {"theorem_id": "finite", "passed": None, "skipped": "finite needs a bounded C+"}
    assert {"llt", "prop23"} <= set(summary)


@pytest.mark.parametrize("args", [["verify", "thm1", "--quick"], ["table", "--kind", "constants"]],
                         ids=["verify", "table"])
def test_config_runs_like_its_law_json(args, law_cfg, built_law, tmp_path):
    """--config builds the law in the run: the outputs equal those of --law on the law it builds."""
    runs = {}
    for flag, path in (("--law", built_law), ("--config", law_cfg)):
        out = tmp_path / flag.strip("-")
        assert main([*args, flag, str(path), "--out", str(out)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        runs[flag] = manifest["law_hash"], {f.name: f.read_bytes() for f in out.iterdir() if f.name != "manifest.json"}
    assert runs["--config"] == runs["--law"]
    assert runs["--law"][0] == json.loads((built_law.parent / "manifest.json").read_text())["law_hash"]


def test_table_budget_error_exit_code(built_law, tmp_path, capsys):
    """A table whose start lies outside its window is a numerical budget error: exit 3."""
    args = ["table", "--kind", "kernel", "--law", str(built_law), "--x", "100", "--window", "50"]
    assert main([*args, "--out", str(tmp_path)]) == 3
    assert capsys.readouterr().err == "numerical budget error: start 100 outside window 50\n"
    assert not (tmp_path / "kernel_n64.csv").exists()


def test_verify_quick_pass_and_report(built_law, tmp_path):
    out = tmp_path / "v"
    assert main(["verify", "thm1", "--law", str(built_law), "--out", str(out), "--quick"]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary[0]["theorem_id"] == "thm1"
    assert summary[0]["passed"] is True
    rep_out = tmp_path / "agg"
    assert main(["report", "--dir", str(out), "--out", str(rep_out)]) == 0
    assert (rep_out / "report.csv").exists()


def test_verify_rerun_is_byte_identical(built_law, tmp_path, monkeypatch):
    """`verify thm1 --quick` twice, into two directories at one relative path: every file is equal.

    The first run steps its rows into a fresh artifact cache and the second
    loads them, so a cache hit writes the same bytes.  The manifests are
    equal once wall_clock_s, the one timing they hold, is dropped.
    """
    monkeypatch.setenv("STABLEWALK_CACHE", str(tmp_path / "cache"))
    stepped, real_run = [], asymptotics.run_kernel
    monkeypatch.setattr(asymptotics, "run_kernel", lambda *a, **kw: stepped.append(a) or real_run(*a, **kw))
    runs = []
    for run in ("first", "second"):
        (tmp_path / run).mkdir()
        monkeypatch.chdir(tmp_path / run)
        before = len(stepped)
        assert main(["verify", "thm1", "--law", str(built_law), "--out", "v", "--quick"]) == 0
        runs.append(({f.name: f.read_bytes() for f in Path("v").iterdir()}, len(stepped) - before))
    (first, first_steps), (second, second_steps) = runs
    assert first_steps > 0 and second_steps == 0
    assert first.keys() == second.keys() and "summary.json" in first
    manifests = [json.loads(files.pop("manifest.json")) for files in (first, second)]
    assert first == second
    for manifest in manifests:
        assert manifest.pop("wall_clock_s") >= 0.0
    assert manifests[0] == manifests[1]
    assert set(manifests[0]["outputs"]) == {str(Path("v") / name) for name in first}


def test_report_csv_bytes(tmp_path):
    """report.csv keeps final_dev as the number text summary.json holds, and a skip as blank."""
    summary = [
        {"deviations": [0.2, 0.0671], "final_dev": 0.0671, "monotone": True, "notes": {}, "passed": False,
         "theorem_id": "cor1"},
        {"passed": None, "skipped": "thm5 needs gamma = 2 - alpha", "theorem_id": "thm5"},
    ]
    (tmp_path / "v").mkdir()
    (tmp_path / "v" / "summary.json").write_text(json.dumps(summary, indent=2, sort_keys=True) + "\n")
    assert main(["report", "--dir", str(tmp_path / "v"), "--out", str(tmp_path / "agg")]) == 0
    assert (tmp_path / "agg" / "report.csv").read_bytes() == (
        b"schema_version,theorem_id,passed,final_dev\n1,cor1,False,0.0671\n1,thm5,None,\n"
    )


def test_verify_unknown_theorem(built_law, tmp_path):
    assert main(["verify", "thm99", "--law", str(built_law), "--out", str(tmp_path)]) == 2


def test_verify_thm6_on_two_sided_fails_fast(built_law, tmp_path, capsys):
    """An explicitly requested theorem with a failed precondition exits 2."""
    out = tmp_path / "v6"
    code = main(["verify", "thm6", "--law", str(built_law), "--out", str(out), "--quick"])
    assert code == 2
    assert "InfiniteCPlus" in capsys.readouterr().err


def test_verify_all_quick_writes_summary(built_law, tmp_path, monkeypatch):
    builds = []
    real_build = asymptotics.LawContext.build

    def build(law):
        builds.append(law)
        return real_build(law)

    monkeypatch.setattr(asymptotics.LawContext, "build", build)
    out = tmp_path / "vall"
    code = main(["verify", "all", "--quick", "--law", str(built_law), "--out", str(out)])
    assert code == 0
    assert len(builds) == 1  # one context shared by every theorem of the run
    summary = json.loads((out / "summary.json").read_text())
    ids = {s["theorem_id"] for s in summary}
    assert {"thm1", "llt"} <= ids
    assert all(s.get("passed") in (True, None) for s in summary)
    manifest = json.loads((out / "manifest.json").read_text())
    assert str(out / "summary.json") in manifest["outputs"]
    # a second run, with its own context, writes the same bytes
    out2 = tmp_path / "vall2"
    assert main(["verify", "all", "--quick", "--law", str(built_law), "--out", str(out2)]) == 0
    written = sorted(out.glob("*.csv")) + [out / "summary.json"]
    assert len(written) > 1
    for path in written:
        assert (out2 / path.name).read_bytes() == path.read_bytes()


def test_thm3_runs_only_the_crossover_scan():
    """thm2 writes thm2_small; thm3 must not write it a second time."""
    reports = _registry(get_ctx("spx15"), True)["thm3"]()
    assert [r.theorem_id for r in reports] == ["crossover"]


REFERENCE = Path(__file__).resolve().parents[1] / "perfbench" / "reference"


def test_registry_strings_match_the_benchmark_reference(tmp_path, monkeypatch, capsys):
    """The benchmark compares theorem ids and skip texts byte for byte with its reference."""
    sym_ref = json.loads((REFERENCE / "verify_sym15.json").read_text())
    sp_ref = json.loads((REFERENCE / "verify_sp15.json").read_text())
    reg = _registry(get_ctx("sym15"), True)
    assert list(reg) == sp_ref["theorem_ids"] == sym_ref["theorem_ids"]

    def no_dp(*args, **kwargs):
        raise AssertionError("a precondition skip ran a DP")

    monkeypatch.setattr(asymptotics, "run_kernel", no_dp)
    monkeypatch.setattr(killed_walk, "run_kernel", no_dp)
    for tid in ("thm3", "thm5", "thm6", "cor2", "ladder", "kest"):
        with pytest.raises(StableWalkError) as exc:
            reg[tid]()
        assert str(exc.value) == sym_ref["theorems"][tid]["skip"]
    monkeypatch.undo()

    law = tmp_path / "sp15.json"
    law.write_text(get_law("sp15").to_json() + "\n")
    capsys.readouterr()
    assert main(["verify", "cor1", "--quick", "--law", str(law), "--out", str(tmp_path / "c1")]) == 2
    err = capsys.readouterr().err
    assert err == "configuration error: cor1: ConfigError: cor1 power branch needs a two-sided law\n"
    assert err.strip() == sp_ref["theorems"]["cor1"]["skip"]


def _log_rows(monkeypatch) -> dict:
    """Record the rows each LawContext plans and reads, and the rows run_kernel steps, as
    (law hash, killing set, start, n, W) -> steps read (planned and read) or a list (stepped)."""
    from stablewalk.killed_walk import normalize_killing

    log = {"planned": {}, "read": {}, "stepped": []}
    hashes = {}

    def record(kind, ctx, rows):
        if id(ctx.law) not in hashes:
            hashes[id(ctx.law)] = (ctx.law.law_hash(), ctx.law.reversed().law_hash())
        for r in rows:
            key = (hashes[id(ctx.law)][r.dual], r.B, r.x, r.n, r.W)
            log[kind][key] = log[kind].get(key, set()) | set(r.steps)

    def logged(kind, real):
        def method(ctx, rows):
            record(kind, ctx, rows)
            return real(ctx, rows)
        return method

    real_run = asymptotics.run_kernel

    def run_kernel(law, B, starts, n, window=None, dual_starts=(), **kwargs):
        rows = len(starts) + len(dual_starts)
        row_hashes = [law.law_hash()] * len(starts) + [law.reversed().law_hash()] * len(dual_starts)
        sets = B if isinstance(B, list) else [B] * rows
        log["stepped"] += [(h, normalize_killing(b), x, n, window)
                           for h, b, x in zip(row_hashes, sets, [*starts, *dual_starts])]
        return real_run(law, B, starts, n, window=window, dual_starts=dual_starts, **kwargs)

    monkeypatch.setattr(asymptotics.LawContext, "plan", logged("planned", asymptotics.LawContext.plan))
    monkeypatch.setattr(asymptotics.LawContext, "read", logged("read", asymptotics.LawContext.read))
    monkeypatch.setattr(asymptotics, "run_kernel", run_kernel)
    return log


def _assert_plan_matches_reads(log: dict) -> None:
    unplanned = [key for key, steps in log["read"].items() if not steps <= log["planned"].get(key, set())]
    assert not unplanned, f"read but not planned: {unplanned}"
    unread = set(log["planned"]) - set(log["read"])
    assert not unread, f"planned but never read: {unread}"
    twice = {key for key in log["stepped"] if log["stepped"].count(key) > 1}
    assert not twice, f"stepped more than once: {twice}"


@pytest.mark.parametrize("name", ["sym15", "sp15", "bp15"])
def test_verify_all_steps_each_planned_row_once(name, tmp_path, monkeypatch):
    """Quick `verify all` plans every row its drivers read, reads every row it plans, and steps each once."""
    monkeypatch.delenv("STABLEWALK_CACHE")
    law = tmp_path / "law.json"
    law.write_text(get_law(name).to_json() + "\n")
    log = _log_rows(monkeypatch)
    assert main(["verify", "all", "--quick", "--law", str(law), "--out", str(tmp_path / "out")]) in (0, 1)
    assert log["read"]
    _assert_plan_matches_reads(log)


def test_verify_each_id_steps_each_planned_row_once(tmp_path, monkeypatch, capsys):
    """`verify <id> --quick` for every id on sp15 with one fresh artifact cache, as the benchmark runs it.

    Each id plans the rows it reads and reads the rows it plans, and no row
    is stepped twice: an id reads the rows an earlier id stepped off the
    cache.  The ladder reads no row (its half-line batch is its own), so its
    2 s DP is replaced by a budget error here.
    """
    from stablewalk.errors import TruncationTooCoarse

    def no_ladder(law, x_max):
        raise TruncationTooCoarse("ladder not stepped in this test")

    monkeypatch.setattr(asymptotics, "ladder_renewals", no_ladder)
    monkeypatch.setenv("STABLEWALK_CACHE", str(tmp_path / "cache"))
    law = tmp_path / "law.json"
    law.write_text(get_law("sp15").to_json() + "\n")
    log = _log_rows(monkeypatch)
    for tid in cli._drivers():
        main(["verify", tid, "--quick", "--law", str(law), "--out", str(tmp_path / tid)])
        _assert_plan_matches_reads(log)
        log["planned"].clear()
        log["read"].clear()
    assert log["stepped"]

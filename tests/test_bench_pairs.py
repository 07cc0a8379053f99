"""scripts/bench_pairs.py summarizes recorded pairs as BENCH_14.json records them."""

import importlib.util
import json
import os

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _bench_pairs():
    spec = importlib.util.spec_from_file_location("bench_pairs", os.path.join(ROOT, "scripts", "bench_pairs.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


with open(os.path.join(ROOT, "BENCH_14.json")) as fh:
    BENCH_14 = json.load(fh)
CELLS = [(workload, seed) for workload, seeds in BENCH_14["workloads"].items() for seed in seeds]


@pytest.mark.parametrize("workload, seed", CELLS)
def test_summary_reproduces_bench_14(workload, seed):
    recorded = BENCH_14["workloads"][workload][seed]["metrics"]
    specs = {name: {k: m[k] for k in ("unit", "better", "bound")} for name, m in recorded.items()}
    values = {side: {name: m[side]["runs"] for name, m in recorded.items()} for side in ("parent", "change")}
    got = _bench_pairs().summarize(values, specs)
    for name, want in recorded.items():
        for side in ("parent", "change"):
            assert got[name][side] == want[side], (name, side)
        assert got[name]["pair_wins"] == want["pair_wins"], name
        assert got[name]["median_gap_over_parent_iqr"] == pytest.approx(want["median_gap_over_parent_iqr"]), name
        assert got[name]["change_over_parent_median"] == pytest.approx(want["change_over_parent_median"]), name


def test_main_runs_ten_alternating_pairs_at_the_benchmark_length(tmp_path, monkeypatch):
    """Every run lasts BENCHMARK.json's run_seconds, and each workload and seed
    gets 10 pairs that alternate which side runs first."""
    module = _bench_pairs()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    calls = []

    def run_once(checkout, workload, seed, seconds):
        calls.append((checkout, seconds))
        value = (2.0 if checkout == str(tmp_path) else 1.0) + len(calls) / 1000
        return {"correct": True, "metrics": {m["name"]: {"value": value} for m in bench["end_to_end"]}}, {}

    monkeypatch.setattr(module, "run_once", run_once)
    out = str(tmp_path / "bench.json")
    module.main(["--parent", str(tmp_path), "--change", ROOT, "--out", out,
                 "--workloads", "synthetic-tables", "--seeds", "1"])
    with open(out) as fh:
        cell = json.load(fh)["workloads"]["synthetic-tables"]["seed_1"]
    assert {seconds for _, seconds in calls} == {bench["run_seconds"]} and len(calls) == 20
    assert cell["pairs"] == 10 and cell["first"] == ["parent", "change"] * 5
    assert cell["metrics"]["wall_s"]["pair_wins"] == 10 and cell["metrics"]["epochs_per_s"]["pair_wins"] == 0


@pytest.mark.parametrize("table, change_csv", [
    pytest.param("t4-synthetic", "same", id="same"),
    pytest.param("t4-synthetic", "other", id="other"),
    pytest.param("bike", "same", id="bike-same"),
    pytest.param("bike", "other", id="bike-other"),
    pytest.param("t2", "same", id="t2-same"),
    pytest.param("t3", "other", id="t3-other"),
])
def test_main_times_five_alternating_table_pairs_with_digests(tmp_path, monkeypatch, table, change_csv):
    """--tables alone runs no perfbench workload; each table and seed gets 5
    pairs that alternate which side runs first, with both sides' digests."""
    module = _bench_pairs()
    calls = []

    def run_table(checkout, table, seed):
        calls.append((checkout, table, seed))
        parent = checkout == str(tmp_path)
        csv = "same" if parent else change_csv
        return (2.0 if parent else 1.0) + len(calls) / 1000, {"exit": 0, "raw.csv": csv, "table.txt": "t"}

    def run_once(*args):
        raise AssertionError("no perfbench run expected")

    monkeypatch.setattr(module, "run_table", run_table)
    monkeypatch.setattr(module, "run_once", run_once)
    out = str(tmp_path / "bench.json")
    module.main(["--parent", str(tmp_path), "--change", ROOT, "--out", out, "--tables", table,
                 "--seeds", "9001"])
    with open(out) as fh:
        doc = json.load(fh)
    cell = doc["tables"][table]["seed_9001"]
    assert len(calls) == 10 and {call[1:] for call in calls} == {(table, 9001)}
    assert cell["command"] == " ".join(["cqrnet replicate", table, *module.TABLES[table], "--seed 9001"])
    assert "workloads" not in doc or not doc["workloads"]
    assert cell["pairs"] == 5 and cell["first"] == ["parent", "change", "parent", "change", "parent"]
    assert cell["metrics"]["wall_s"]["pair_wins"] == 5 and len(cell["metrics"]["wall_s"]["parent"]["runs"]) == 5
    assert cell["digests"]["change"]["raw.csv"] == change_csv
    assert cell["outputs_identical"] == (change_csv == "same")


def test_every_child_run_writes_no_bytecode(tmp_path, monkeypatch):
    """perfbench and replicate runs both get PYTHONDONTWRITEBYTECODE=1 (and
    replicate its checkout's src on PYTHONPATH), and the file records it."""
    module = _bench_pairs()
    envs = []

    class Done:
        returncode, stderr = 0, ""
        stdout = json.dumps({"environment": {}}) + "\n" + json.dumps({"correct": True, "metrics": {}}) + "\n"

    def run(cmd, cwd, env, **kwargs):
        envs.append((cmd, env))
        if "--out-dir" in cmd:  # replicate: write the outputs it names
            out, table = cmd[cmd.index("--out-dir") + 1], cmd[cmd.index("replicate") + 1]
            for name in module.TABLE_OUTPUTS:
                with open(os.path.join(out, f"{table}-{name}"), "w") as fh:
                    fh.write(name)
        return Done()

    monkeypatch.setattr(module.subprocess, "run", run)
    assert module.run_once(ROOT, "synthetic-tables", 1, 1)[0]["correct"]
    assert module.run_table(ROOT, "bike", 1)[1]["exit"] == 0
    assert [env["PYTHONDONTWRITEBYTECODE"] for _, env in envs] == ["1", "1"]
    assert envs[1][1]["PYTHONPATH"] == os.path.join(ROOT, "src")
    assert envs[1][0][-6:] == ["replicate", "bike", "--seed", "1", "--out-dir", envs[1][0][-1]]
    monkeypatch.setattr(module, "run_table", lambda checkout, table, seed: (1.0, {"exit": 0}))
    out = str(tmp_path / "bench.json")
    module.main(["--parent", str(tmp_path), "--change", ROOT, "--out", out, "--tables", "bike", "--seeds", "1"])
    with open(out) as fh:
        assert json.load(fh)["child_env"] == {"PYTHONDONTWRITEBYTECODE": "1"}


def test_main_times_five_alternating_tier1_pairs_with_counts(tmp_path, monkeypatch):
    """--tier1 alone runs no perfbench workload and no table: the Tier-1
    command runs in both checkouts in 5 alternating pairs, each with its
    checkout's src on PYTHONPATH and no bytecode written, and the file
    records per run the exit status and the counts of pytest's summary line."""
    module = _bench_pairs()
    calls = []
    summaries = {str(tmp_path): "380 passed, 2 xfailed in 90.01s (0:01:30)",
                 ROOT: "1 failed, 381 passed, 2 xfailed, 1 error in 80.50s (0:01:20)"}

    class Done:
        def __init__(self, checkout):
            self.returncode = 0 if checkout == str(tmp_path) else 1
            self.stdout, self.stderr = "....\n" + summaries[checkout] + "\n", ""

    def run(cmd, cwd, env, **kwargs):
        calls.append(cwd)
        assert cmd[1:] == list(module.TIER1_COMMAND)
        assert env["PYTHONPATH"] == os.path.join(cwd, "src") and env["PYTHONDONTWRITEBYTECODE"] == "1"
        return Done(cwd)

    def never(*args):
        raise AssertionError("no perfbench or replicate run expected")

    monkeypatch.setattr(module.subprocess, "run", run)
    monkeypatch.setattr(module, "run_once", never)
    monkeypatch.setattr(module, "run_table", never)
    out = str(tmp_path / "bench.json")
    module.main(["--parent", str(tmp_path), "--change", ROOT, "--out", out, "--tier1"])
    with open(out) as fh:
        doc = json.load(fh)
    assert calls == [str(tmp_path), ROOT, ROOT, str(tmp_path)] * 2 + [str(tmp_path), ROOT]
    cell = doc["tier1"]
    assert "workloads" not in doc or not doc["workloads"]
    assert cell["pairs"] == 5 and cell["first"] == ["parent", "change", "parent", "change", "parent"]
    assert cell["command"] == "PYTHONPATH=src python3 -m pytest -q --continue-on-collection-errors"
    assert cell["runs"]["parent"] == [{"exit": 0, "passed": 380, "failed": 0, "xfailed": 2, "error": 0}] * 5
    assert cell["runs"]["change"] == [{"exit": 1, "passed": 381, "failed": 1, "xfailed": 2, "error": 1}] * 5
    assert cell["verdicts_steady"] == {"parent": True, "change": True}
    assert len(cell["metrics"]["wall_s"]["change"]["runs"]) == 5


TIGHT = [1.0, 1.01, 0.99, 1.0, 1.02, 0.98, 1.0, 1.01, 0.99, 1.0]  # median 1.0, q3 - q1 0.01
WIDE = [0.5, 1.5, 0.6, 1.4, 0.7, 1.3, 0.8, 1.2, 0.9, 1.1]  # median 1.0, q3 - q1 0.55
SPLIT = [1.0, 1.6] * 5  # median 1.3, q3 - q1 0.6


@pytest.mark.parametrize("better, parent, change, verdict", [
    ("lower", TIGHT, [v - 0.2 for v in TIGHT], "gain"),
    ("higher", [100 * v for v in TIGHT], [130 * v for v in TIGHT], "gain"),
    ("lower", TIGHT, [0.8] * 8 + [1.1, 1.1], "within_bound"),  # 8 wins of 10 are no gain
    ("lower", TIGHT, [v + 0.1 for v in TIGHT], "within_bound"),  # 10% worse, inside the 25% bound
    ("lower", TIGHT, [1.5 * v for v in TIGHT], "regressed"),
    ("higher", [100 * v for v in TIGHT], [70 * v for v in TIGHT], "regressed"),
    ("lower", WIDE, [v + 0.1 for v in WIDE], "unresolved"),
    ("lower", WIDE, [v - 0.1 for v in WIDE], "unresolved"),  # better, yet not past the spread
    ("lower", SPLIT, [0.99] * 10, "within_bound"),  # as wide, but every change run beats every parent run
    ("lower", WIDE, [1.5 * v for v in WIDE], "regressed"),
], ids=["gain", "gain-higher", "eight-wins", "worse-within-bound", "regressed", "regressed-higher",
        "unresolved-worse", "unresolved-better", "wide-but-every-run-better", "regressed-wide"])
def test_summary_gives_each_metric_a_verdict(better, parent, change, verdict):
    """A gain wins 9 of 10 pairs and moves the median past the parent's
    q3 - q1; a regression moves it the wrong way past the bound; a metric
    whose parent runs spread past the bound is unresolved unless every
    change run beats every parent run; anything else is within bound."""
    spec = {"unit": "s", "better": better, "bound": 0.25}
    block = _bench_pairs().summarize({"parent": {"m": parent}, "change": {"m": change}}, {"m": spec})
    assert block["m"]["verdict"] == verdict

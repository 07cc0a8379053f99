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

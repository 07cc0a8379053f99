"""The benchmark's own tests: python3 -m pytest -q perfbench"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
sys.path.insert(0, BENCH_DIR)

import run  # noqa: E402

run._import_paths()

import cqrnet  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    SPEC = json.load(fh)


def _smoke_result(workload, trace):
    proc = subprocess.run(
        [sys.executable, os.path.join(BENCH_DIR, "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "0", "--trace", str(trace), "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=300, check=False,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_spec_names_the_workloads_and_directions():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOAD_NAMES)
    for metric in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert metric["better"] in ("higher", "lower"), metric


@pytest.mark.parametrize("workload", run.WORKLOAD_NAMES)
@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_run_emits_every_metric_with_its_unit(workload, trace):
    result = _smoke_result(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    emitted = result["metrics"]
    assert sorted(emitted) == sorted(m["name"] for m in declared)
    for metric in declared:
        value = emitted[metric["name"]]
        assert value["unit"] == metric["unit"], metric["name"]
        assert isinstance(value["value"], (int, float))
        if not trace:
            assert value["value"] > 0, metric["name"]


@pytest.mark.parametrize("workload", run.WORKLOAD_NAMES)
def test_traced_and_untraced_passes_give_identical_outputs(workload):
    bench = workloads.WORKLOADS[workload]
    inputs = bench.build(5, smoke=True)
    plain = run.run_pass(bench, inputs, traced=False)
    traced = run.run_pass(bench, inputs, traced=True)
    assert plain.error is None and traced.error is None
    assert plain.out.fingerprint and plain.signature() == traced.signature()
    assert traced.tracer.spans and not plain.tracer.spans


def _bindings():
    """Every attribute of every cqrnet module and class, by identity."""
    seen = {}
    for name, module in list(sys.modules.items()):
        if name == "cqrnet" or name.startswith("cqrnet."):
            for attr, value in vars(module).items():
                seen[(name, attr)] = value
                if isinstance(value, type) and value.__module__.startswith("cqrnet"):
                    for key, member in vars(value).items():
                        seen[(name, attr, key)] = member
    return seen


def test_restore_puts_every_original_back():
    before = _bindings()
    with tracer.Tracer(spans=True):
        during = _bindings()
    changed = [k for k in before if during[k] is not before[k]]
    # normal_cdf is bound in normal and in losses; fit in training, tobit and the package
    assert ("cqrnet.normal", "normal_cdf") in changed
    assert ("cqrnet.losses", "normal_cdf") in changed
    assert ("cqrnet.training", "fit") in changed
    assert ("cqrnet.tobit", "fit") in changed
    assert ("cqrnet", "fit") in changed
    assert ("cqrnet.experiments", "fit_with_lr_grid") in changed
    assert ("cqrnet.models", "LinearQuantileNet", "backward") in changed
    assert ("cqrnet.tobit", "TobitNet", "backward") in changed
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)


def test_super_call_is_a_child_span():
    with tracer.Tracer(spans=True) as t:
        net = cqrnet.RegularizedLinearNet(3)
        X = [[1.0, 0.5, -0.2], [1.0, -1.0, 0.3]]
        net.forward_train(X, dropout_mask=[[1.0, 1.0], [1.0, 1.0]])
        net.backward([1.0, -1.0])
    summary = t.span_summary()
    assert summary["models.RegularizedLinearNet.backward"]["calls"] == 1
    assert summary["models.LinearQuantileNet.backward"]["calls"] == 1
    names = {i: s[0] for i, s in enumerate(t.spans)}
    child = next(s for s in t.spans if s[0] == "models.LinearQuantileNet.backward")
    assert names[child[3]] == "models.RegularizedLinearNet.backward"


def _fake_pass(slowdown, epochs=100):
    """A pass of one fit: 10 ms before it, 2 ms set-up, 1 ms epochs, 10 ms after."""
    t = start = 0.0
    t += 0.010 * slowdown
    fit_start = t
    t += 0.002 * slowdown
    epoch_starts = []
    for _ in range(epochs):
        epoch_starts.append(t)
        t += 0.001 * slowdown
    fit_times = [(fit_start, t, epoch_starts, ("net",))]
    end = t + 0.010 * slowdown
    return run.Pass(False, end - start, *run.split_pass(start, end, fit_times), 0.0,
                    None, None, None)


def test_split_pass_covers_the_whole_pass():
    p = _fake_pass(1.0)
    assert len(p.stretches) == 4 and len(p.epochs[("net",)]) == 99
    assert sum(p.stretches) + p.epochs[("net",)].sum() == pytest.approx(p.wall)


def test_uncontended_time_ignores_a_pass_at_half_speed():
    fast, slow = _fake_pass(1.0), _fake_pass(2.0)
    assert run.uncontended_pass_s([slow, fast]) == pytest.approx(fast.wall)
    # passes that do not line up fall back to the median pass time
    other = _fake_pass(1.0, epochs=50)
    assert run.uncontended_pass_s([slow, other]) == pytest.approx((slow.wall + other.wall) / 2)


def test_missing_package_exits_nonzero_without_result():
    bare = os.path.join(run.OUT_DIR, f"bare-{os.getpid()}")
    shutil.copytree(BENCH_DIR, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    try:
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "cli-pipeline", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=120, check=False,
        )
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""

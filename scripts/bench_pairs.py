"""Run perfbench in a parent and a change checkout, in alternating pairs, and write BENCH_<n>.json.

    python3 scripts/bench_pairs.py --parent ../parent --change . --parent-rev 036f905 \
        --workloads synthetic-tables --seeds 1 9001 --out BENCH_15.json
    python3 scripts/bench_pairs.py --parent ../parent --change . --tables t4-synthetic \
        --seeds 0 1 9001 --out BENCH_16.json
    python3 scripts/bench_pairs.py --parent ../parent --change . --tier1 --out BENCH_21.json

Each run is `python3 perfbench/run.py --workload W --seed S --seconds N --trace 0` in its checkout,
N being BENCHMARK.json's run_seconds; the last line it prints is the result. Each workload and seed
gets 10 pairs; pair i runs the parent first when i is even and the change first when i is odd. For every end-to-end metric in the change checkout's BENCHMARK.json the file
records both sides' runs with their median and inclusive quartiles, the pairs the change wins, the
gap between the medians over the parent's interquartile range, and a verdict (`gain`, `regressed`,
`unresolved` or `within_bound`, as DEFINITIONS gives them).

`--tables` times `cqrnet replicate` runs instead (TABLES gives each table's arguments; `t2`, `t3` and
`bike` run at their defaults; perfbench workloads then run only when `--workloads` is given too).
Each table and seed gets 5 pairs, alternating in the same way, and the file records the wall time of
each run, summarized as above, with the SHA-256 of the raw CSV, the rendered table and the verdicts
each side wrote, and whether every run on both sides wrote the same bytes.

`--tier1` times the Tier-1 suite (TIER1_COMMAND, with the checkout's `src` on PYTHONPATH) in both
checkouts in 5 alternating pairs, and records per run its wall time, exit status and the passed,
failed, xfailed and error counts of pytest's summary line, so a time comes with the tests' verdicts.

Every run, perfbench's and replicate's alike, gets CHILD_ENV: with PYTHONDONTWRITEBYTECODE set no run
writes `.pyc` files, so both checkouts import cqrnet compiled from source every time and perfbench's
`setup_s` compares the same work. Files already byte-compiled are still read, so start from fresh
checkouts (`git archive`). The file records CHILD_ENV.

The file also records `src_lines`, each checkout's `wc -l src/cqrnet/*.py` (the newlines in
cqrnet's sources), so the line count comes from the checkouts that were timed.

The output file is rewritten after every pair, and entries of other workloads and seeds already in
it are kept, so workloads can be run one invocation at a time. A run that exits nonzero stops the
script with its error; the pairs finished before it stay in the file.
"""

from __future__ import annotations

import argparse
import glob
import hashlib
import json
import os
import re
import statistics
import subprocess
import sys
import tempfile
import time

SIDES = ("parent", "change")
PAIRS = 10
TABLE_PAIRS = 5
TABLES = {"t2": (), "t3": (), "t4-synthetic": ("--jobs", "2"), "bike": ()}
TIER1_COMMAND = ("-m", "pytest", "-q", "--continue-on-collection-errors")
TIER1_COUNTS = ("passed", "failed", "xfailed", "error")
CHILD_ENV = {"PYTHONDONTWRITEBYTECODE": "1"}
TABLE_OUTPUTS = ("raw.csv", "table.txt", "verdicts.json")
DEFINITIONS = {
    "quartiles": "statistics.quantiles(runs, n=4, method='inclusive')",
    "pair_wins": "pairs in which the change's value is better than the parent's (ties count for neither)",
    "median_gap_over_parent_iqr": "|change median - parent median| / (parent q3 - parent q1)",
    "verdict": "the first that holds of: 'gain', the change wins at least 9/10 of the pairs and its median is "
               "better than the parent's by more than parent q3 - parent q1; 'regressed', its median is worse "
               "than the parent's by more than bound * |parent median|; 'unresolved', parent q3 - parent q1 "
               "exceeds bound * |parent median| and not every change run is better than every parent run; "
               "'within_bound'",
}


def src_lines(checkout):
    """`wc -l src/cqrnet/*.py` in `checkout`: the newlines in cqrnet's sources."""
    total = 0
    for path in glob.glob(os.path.join(checkout, "src", "cqrnet", "*.py")):
        with open(path, "rb") as fh:
            total += fh.read().count(b"\n")
    return total


def run_once(checkout, workload, seed, seconds):
    """One untraced perfbench run in `checkout`: (result, details), the last two lines it prints."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, env=dict(os.environ, **CHILD_ENV), capture_output=True, text=True, check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise RuntimeError(f"perfbench in {checkout} ({workload}, seed {seed}) exited {proc.returncode}: "
                           f"{proc.stderr.strip()[-2000:]}")
    return json.loads(lines[-1]), json.loads(lines[-2])


def run_table(checkout, table, seed):
    """One `cqrnet replicate` run of `table` in `checkout`: (wall seconds, {output: SHA-256}), with
    the exit status among the outputs, since a table whose verdicts fail exits 1."""
    with tempfile.TemporaryDirectory() as out:
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-c", "import sys; from cqrnet.cli import main; sys.exit(main())", "replicate",
             table, *TABLES[table], "--seed", str(seed), "--out-dir", out],
            cwd=checkout, env=dict(os.environ, PYTHONPATH=os.path.join(checkout, "src"), **CHILD_ENV),
            capture_output=True, text=True, check=False)
        wall = time.perf_counter() - start
        if proc.returncode not in (0, 1):
            raise RuntimeError(f"replicate {table} in {checkout} (seed {seed}) exited {proc.returncode}: "
                               f"{proc.stderr.strip()[-2000:]}")
        digests = {"exit": proc.returncode}
        for name in TABLE_OUTPUTS:
            with open(os.path.join(out, f"{table}-{name}"), "rb") as fh:
                digests[name] = hashlib.sha256(fh.read()).hexdigest()
    return wall, digests


def run_tier1(checkout):
    """One Tier-1 run in `checkout`: (wall seconds, {"exit": status, count: n for each of
    TIER1_COUNTS}), the counts read from pytest's last line (0 where it names none)."""
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, *TIER1_COMMAND], cwd=checkout,
                          env=dict(os.environ, PYTHONPATH=os.path.join(checkout, "src"), **CHILD_ENV),
                          capture_output=True, text=True, check=False)
    wall = time.perf_counter() - start
    summary = (proc.stdout.strip().splitlines() or [""])[-1]
    counts = {kind: sum(int(n) for n in re.findall(rf"(\d+) {kind}s?\b", summary)) for kind in TIER1_COUNTS}
    return wall, {"exit": proc.returncode, **counts}


def alternating_pairs(args, run, label, pairs):
    """`pairs` pairs of `run(checkout) -> (measured, output)` on both sides, the even pairs running the
    parent first, `measured` being {metric: value} or a wall time in seconds (the metric `wall_s`);
    from the second pair on, yields (pairs run, first, {side: {metric: [value per run]}}, {side:
    [output per run]}) after each."""
    values = {side: {} for side in SIDES}
    outputs = {side: [] for side in SIDES}
    first = []
    for i in range(pairs):
        order = SIDES if i % 2 == 0 else SIDES[::-1]
        for side in order:
            measured, out = run(getattr(args, side))
            measured = measured if isinstance(measured, dict) else {"wall_s": measured}
            for name, value in measured.items():
                values[side].setdefault(name, []).append(value)
            outputs[side].append(out)
            print(f"{label} pair {i} {side}: " + " ".join(f"{k}={v:.4g}" for k, v in measured.items()),
                  file=sys.stderr)
        first.append(order[0])
        if i >= 1:
            yield i + 1, first, values, outputs


def side_stats(runs):
    q1, _, q3 = statistics.quantiles(runs, n=4, method="inclusive")
    return {"median": statistics.median(runs), "q1": q1, "q3": q3, "runs": runs}


def summarize(values, specs):
    """The metrics block of one (workload, seed). `values` maps each side to
    {metric: [value per pair]}, the pairs in the order they ran; `specs` maps
    each metric to its BENCHMARK.json entry (unit, better, bound)."""
    block = {}
    for name, spec in specs.items():
        parent, change = values["parent"][name], values["change"][name]
        sign = 1.0 if spec["better"] == "lower" else -1.0
        stats = {"parent": side_stats(parent), "change": side_stats(change)}
        iqr = stats["parent"]["q3"] - stats["parent"]["q1"]
        gain = sign * (stats["parent"]["median"] - stats["change"]["median"])  # > 0: the change's median is better
        wins = sum(sign * (c - p) < 0.0 for p, c in zip(parent, change))
        allowed = spec["bound"] * abs(stats["parent"]["median"])
        if wins >= 0.9 * len(parent) and gain > iqr:
            verdict = "gain"
        elif -gain > allowed:
            verdict = "regressed"
        elif iqr > allowed and not all(sign * (c - p) < 0.0 for p in parent for c in change):
            verdict = "unresolved"
        else:
            verdict = "within_bound"
        block[name] = {
            "unit": spec["unit"], "better": spec["better"], "bound": spec["bound"], **stats,
            "change_over_parent_median": stats["change"]["median"] / stats["parent"]["median"],
            "pair_wins": wins,
            "median_gap_over_parent_iqr": abs(gain) / iqr if iqr > 0.0 else None,
            "verdict": verdict,
        }
    return block


def _write(path, doc):
    tmp = path + ".tmp"
    with open(tmp, "w") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")
    os.replace(tmp, path)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="checkout of the parent commit")
    parser.add_argument("--change", required=True, help="checkout of the change")
    parser.add_argument("--out", required=True, help="BENCH_<n>.json to write (kept entries are updated)")
    parser.add_argument("--parent-rev", default=None, help="the parent's commit, recorded in the file")
    parser.add_argument("--workloads", nargs="+",
                        help="default: every workload of BENCHMARK.json, or none when --tables is given")
    parser.add_argument("--tables", nargs="+", choices=sorted(TABLES), default=[],
                        help="replicate tables to time")
    parser.add_argument("--tier1", action="store_true", help="time the Tier-1 suite")
    parser.add_argument("--seeds", nargs="+", type=int, default=[1, 9001])
    parser.add_argument("--claim", help="the claimed gain, recorded in the file")
    args = parser.parse_args(argv)
    with open(os.path.join(args.change, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    specs = {m["name"]: m for m in bench["end_to_end"]}
    seconds = bench["run_seconds"]
    workloads = args.workloads or ([] if args.tables or args.tier1 else [w["name"] for w in bench["workloads"]])

    doc = {}
    if os.path.exists(args.out):
        with open(args.out) as fh:
            doc = json.load(fh)
    doc.update({
        "what": "perfbench end-to-end metrics (`workloads`), `cqrnet replicate` wall times with output "
                "digests (`tables`) and Tier-1 wall times with test counts (`tier1`), parent commit vs this "
                "change, in alternating pairs (the even pairs run the parent first, the odd pairs the change "
                "first; `first` lists it per pair)",
        "command": f"python3 perfbench/run.py --workload <workload> --seed <seed> --seconds {seconds:g} --trace 0",
        "child_env": CHILD_ENV,
        **DEFINITIONS,
        "src_lines": {side: src_lines(getattr(args, side)) for side in SIDES},
    })
    for key in ("parent_rev", "claim"):
        if getattr(args, key) is not None:
            doc["parent" if key == "parent_rev" else key] = getattr(args, key)
    doc.setdefault("workloads", {})

    def perfbench_run(workload, seed):
        def run(checkout):
            result, details = run_once(checkout, workload, seed, seconds)
            doc.setdefault("environment", details.get("environment"))
            return {name: result["metrics"][name]["value"] for name in specs}, result["correct"]
        return run

    for workload in workloads:
        for seed in args.seeds:
            for pairs, first, values, correct in alternating_pairs(
                    args, perfbench_run(workload, seed), f"{workload} seed {seed}", PAIRS):
                doc["workloads"].setdefault(workload, {})[f"seed_{seed}"] = {
                    "pairs": pairs, "all_correct": all(correct["parent"] + correct["change"]), "first": first,
                    "metrics": summarize(values, specs)}
                _write(args.out, doc)

    for table in args.tables:
        for seed in args.seeds:
            for pairs, first, walls, digests in alternating_pairs(
                    args, lambda checkout: run_table(checkout, table, seed), f"{table} seed {seed}", TABLE_PAIRS):
                doc.setdefault("tables", {}).setdefault(table, {})[f"seed_{seed}"] = {
                    "command": " ".join(["cqrnet replicate", table, *TABLES[table], "--seed", str(seed)]),
                    "pairs": pairs, "first": first, "metrics": summarize(walls, {"wall_s": specs["wall_s"]}),
                    "digests": {side: digests[side][0] for side in SIDES},
                    "outputs_identical": all(d == digests["parent"][0] for side in SIDES for d in digests[side])}
                _write(args.out, doc)

    if args.tier1:
        for pairs, first, walls, runs in alternating_pairs(args, run_tier1, "tier-1", TABLE_PAIRS):
            doc["tier1"] = {
                "command": "PYTHONPATH=src python3 " + " ".join(TIER1_COMMAND), "pairs": pairs, "first": first,
                "metrics": summarize(walls, {"wall_s": specs["wall_s"]}), "runs": runs,
                "verdicts_steady": {side: all(r == runs[side][0] for r in runs[side]) for side in SIDES}}
            _write(args.out, doc)
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Run perfbench in a parent and a change checkout, in alternating pairs, and write BENCH_<n>.json.

    python3 scripts/bench_pairs.py --parent ../parent --change . --parent-rev 036f905 \
        --workloads synthetic-tables --seeds 1 9001 --out BENCH_15.json

Each run is `python3 perfbench/run.py --workload W --seed S --seconds N --trace 0` in its checkout,
N being BENCHMARK.json's run_seconds; the last line it prints is the result. Each workload and seed
gets 10 pairs; pair i runs the parent first when i is even and the change first when i is odd. For every end-to-end metric in the change checkout's BENCHMARK.json the file
records both sides' runs with their median and inclusive quartiles, the pairs the change wins and
the gap between the medians over the parent's interquartile range.

The output file is rewritten after every pair, and entries of other workloads and seeds already in
it are kept, so workloads can be run one invocation at a time. A run that exits nonzero stops the
script with its error; the pairs finished before it stay in the file.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

SIDES = ("parent", "change")
PAIRS = 10
DEFINITIONS = {
    "quartiles": "statistics.quantiles(runs, n=4, method='inclusive')",
    "pair_wins": "pairs in which the change's value is better than the parent's (ties count for neither)",
    "median_gap_over_parent_iqr": "|change median - parent median| / (parent q3 - parent q1)",
}


def run_once(checkout, workload, seed, seconds):
    """One untraced perfbench run in `checkout`: (result, details), the last two lines it prints."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True, check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise RuntimeError(f"perfbench in {checkout} ({workload}, seed {seed}) exited {proc.returncode}: "
                           f"{proc.stderr.strip()[-2000:]}")
    return json.loads(lines[-1]), json.loads(lines[-2])


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
        gap = abs(stats["change"]["median"] - stats["parent"]["median"])
        block[name] = {
            "unit": spec["unit"], "better": spec["better"], "bound": spec["bound"], **stats,
            "change_over_parent_median": stats["change"]["median"] / stats["parent"]["median"],
            "pair_wins": sum(sign * (c - p) < 0.0 for p, c in zip(parent, change)),
            "median_gap_over_parent_iqr": gap / iqr if iqr > 0.0 else None,
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
    parser.add_argument("--workloads", nargs="+", help="default: every workload of BENCHMARK.json")
    parser.add_argument("--seeds", nargs="+", type=int, default=[1, 9001])
    parser.add_argument("--claim", help="the claimed gain, recorded in the file")
    args = parser.parse_args(argv)
    with open(os.path.join(args.change, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    specs = {m["name"]: m for m in bench["end_to_end"]}
    seconds = bench["run_seconds"]
    workloads = args.workloads or [w["name"] for w in bench["workloads"]]

    doc = {}
    if os.path.exists(args.out):
        with open(args.out) as fh:
            doc = json.load(fh)
    doc.update({
        "what": "perfbench end-to-end metrics, parent commit vs this change, in alternating pairs (the even "
                "pairs run the parent first, the odd pairs the change first; `first` lists it per pair)",
        "command": f"python3 perfbench/run.py --workload <workload> --seed <seed> --seconds {seconds:g} --trace 0",
        **DEFINITIONS,
    })
    for key in ("parent_rev", "claim"):
        if getattr(args, key) is not None:
            doc["parent" if key == "parent_rev" else key] = getattr(args, key)
    doc.setdefault("workloads", {})

    for workload in workloads:
        for seed in args.seeds:
            values = {side: {name: [] for name in specs} for side in SIDES}
            first, correct = [], True
            for i in range(PAIRS):
                order = SIDES if i % 2 == 0 else SIDES[::-1]
                for side in order:
                    result, details = run_once(getattr(args, side), workload, seed, seconds)
                    correct = correct and result["correct"]
                    for name in specs:
                        values[side][name].append(result["metrics"][name]["value"])
                    doc.setdefault("environment", details.get("environment"))
                    print(f"{workload} seed {seed} pair {i} {side}: "
                          + " ".join(f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()), file=sys.stderr)
                first.append(order[0])
                if i >= 1:
                    doc["workloads"].setdefault(workload, {})[f"seed_{seed}"] = {
                        "pairs": i + 1, "all_correct": correct, "first": first,
                        "metrics": summarize(values, specs)}
                    _write(args.out, doc)
    return 0


if __name__ == "__main__":
    sys.exit(main())

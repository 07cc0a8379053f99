"""The three benchmark workloads, driven through cqrnet's public entry points.

Each workload builds its inputs from the seed (`build`) and runs one pass
over them (`run`), recording what the pass produced in a PassOutput: the
replication verdicts, the quality values and a fingerprint of every output,
which must repeat exactly from pass to pass at a fixed seed. Every workload
runs in this one process with one job.

`smoke=True` gives the minimum-size inputs used for the warm-up pass and the
benchmark's own tests.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import os
import shutil
import tempfile
from dataclasses import dataclass, field

from cqrnet import cli, experiments

ICP_TARGET = 0.9


@dataclass
class PassOutput:
    verdicts: list = field(default_factory=list)  # (check, passed)
    r2: list = field(default_factory=list)
    icp: list = field(default_factory=list)
    fingerprint: list = field(default_factory=list)
    commands: int = 0  # CLI commands run (cli-pipeline only)
    nonfinite: int = 0  # output values that are not finite numbers

    def add_table(self, run):
        """Record a TableRun's verdicts, metric columns and raw rows."""
        verdicts = [(v["check"], v["passed"]) for v in run.verdicts]
        self.verdicts += verdicts
        self.fingerprint.append((run.name, run.raw_rows, verdicts))
        cols = {name: i for i, name in enumerate(run.columns)}
        for row in run.raw_rows:
            self.add_values(
                {k: row[cols[k]] for k in ("r2", "mae", "rmse", "icp", "mil") if k in cols}
            )

    def quality(self) -> dict:
        """Mean R^2 of the point-metric rows (0 without any) and mean |ICP - 0.9|."""
        return {
            "quality.r2": sum(self.r2) / len(self.r2) if self.r2 else 0.0,
            "quality.icp_dist": (sum(abs(v - ICP_TARGET) for v in self.icp) / len(self.icp)
                                 if self.icp else 0.0),
        }

    def add_values(self, values):
        parsed = {k: _number(v) for k, v in values.items()}
        self.nonfinite += sum(not math.isfinite(v) for v in parsed.values())
        if "r2" in parsed:
            self.r2.append(parsed["r2"])
        if "icp" in parsed:
            self.icp.append(parsed["icp"])


def _number(text) -> float:
    try:
        return float(text)
    except (TypeError, ValueError):
        return math.nan


class SyntheticTables:
    """Table 2 then Table 3: n=1000 left-censored data, fixed learning rate."""

    name = "synthetic-tables"

    def build(self, seed, smoke=False):
        if smoke:
            return {"master_seed": seed, "replicates": 1, "n": 200}
        return {"master_seed": seed, "replicates": 10, "n": 1000}

    def run(self, inputs, scratch_dir, out):
        out.add_table(experiments.run_t2(**inputs))
        out.add_table(experiments.run_t3(**inputs))


class FleetLstm:
    """Table 4, all four models, on two replicates at alpha 0.2.

    Two replicates, not one: how many epochs the LSTM's lr grid runs, and
    how they split between LSTM and linear fits, varies from seed to seed,
    and a second replicate halves that spread. The smoke inputs leave the
    LSTM out: its 1500-epoch cap binds harder on shorter series, so no
    run_t4 argument makes an LSTM fit cheap.
    """

    name = "fleet-lstm"

    def build(self, seed, smoke=False):
        return {
            "master_seed": seed,
            "replicates": 1 if smoke else 2,
            "alphas": (0.2,),
            "n_days": 60 if smoke else 180,
            "models": tuple(m for m in experiments.T4_MODELS if not (smoke and m == "c-lstm")),
            "jobs": 1,
        }

    def run(self, inputs, scratch_dir, out):
        out.add_table(experiments.run_t4(**inputs))


class CliPipeline:
    """generate -> fit (default lr grid) -> evaluate through `cli.main`."""

    name = "cli-pipeline"

    def build(self, seed, smoke=False):
        rounds = 1 if smoke else 5
        n, n_days = ("200", "120") if smoke else ("1000", "730")
        pipelines = []
        for r in range(rounds):
            cli_seed = str(experiments.child_seed(seed, "cli-pipeline", r) % 2**31)
            pipelines.append({
                "generate": ["--synthetic", "heteroskedastic", "--n", n],
                "fit": ["--models", "tl-linear,c-linear,c-elu,tobit", "--thetas", "0.05,0.5,0.95"],
                "seed": cli_seed,
            })
            pipelines.append({
                "generate": ["--censor", "partial", "--gamma", "0.3", "--c1", "0.34", "--c2", "0.66",
                             "--n-days", n_days],
                "fit": ["--models", "tl-linear,c-linear", "--thetas", "0.05,0.95"],
                "seed": cli_seed,
            })
        return {"pipelines": pipelines}

    def run(self, inputs, scratch_dir, out):
        for spec in inputs["pipelines"]:
            work = tempfile.mkdtemp(prefix="cli-", dir=scratch_dir)
            try:
                self._pipeline(spec, work, out)
            finally:
                shutil.rmtree(work, ignore_errors=True)

    def _pipeline(self, spec, work, out):
        data_dir, fits_dir, eval_dir = (os.path.join(work, d) for d in ("data", "fits", "eval"))
        seed = ["--seed", spec["seed"]]
        self._command(out, ["generate", *seed, "--out-dir", data_dir, *spec["generate"]])
        data = [os.path.join(data_dir, f) for f in sorted(os.listdir(data_dir)) if f.endswith(".csv")]
        if len(data) != 1:
            raise RuntimeError(f"generate wrote {len(data)} dataset files, expected 1")
        self._command(out, ["fit", *seed, "--data", data[0], "--out-dir", fits_dir, *spec["fit"]])
        self._command(out, ["evaluate", *seed, "--data", data[0], "--fits", fits_dir,
                            "--out-dir", eval_dir])
        with open(os.path.join(eval_dir, "evaluation.csv"), newline="") as fh:
            rows = list(csv.DictReader(fh))
        with open(os.path.join(eval_dir, "evaluation.json")) as fh:
            report = json.load(fh)
        out.fingerprint.append((spec["generate"], rows, report))
        for row in rows:
            out.add_values({k: row[k] for k in ("r2", "mae", "rmse", "icp", "mil") if row[k] != ""})

    @staticmethod
    def _command(out, argv):
        out.commands += 1
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            code = cli.main(argv)
        if code != 0:
            raise RuntimeError(f"cqrnet {argv[0]} exited {code}: {sink.getvalue().strip()}")


WORKLOADS = {w.name: w for w in (SyntheticTables(), FleetLstm(), CliPipeline())}

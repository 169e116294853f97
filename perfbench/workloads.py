"""The four benchmark workloads: inputs, the timed call, and output checks.

Each workload has
  prepare(root, seed)        inputs for the run (untimed)
  setup(root, seed, timer)   config parsing and objective construction, timed
                             in a fresh interpreter by setup_child.py
  call(inputs, out_dir)      the timed work; returns what judge needs
  judge(inputs, out_dir, record, tally)   output checks, counted in fail_frac

The CLI workloads run the shipped configs unchanged, so their inputs do not
depend on the seed.  frac_smooth draws its starts from the seed; its
objectives are a fixed instance, like paper_quadratic.yaml's pinned instance
seed.  Each start's work is then about the same for every seed (197-200
iterations), so seed-to-seed spread measures the program rather than the
data draw.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from pathlib import Path

import numpy as np

import mofgd.cli as cli
import mofgd.descent as descent
from mofgd.fixtures import default_schedule, example3_objective, fixture_objectives
from mofgd.problems import ObjectiveModel

PAIR_CONFIG = "configs/example2_pair.yaml"
QUADRATIC_CONFIG = "configs/paper_quadratic.yaml"
EXAMPLE2_CONFIG = "configs/example2.yaml"

# frac_smooth: m regularized logistic losses in n variables, SAMPLES rows each.
FRAC_M, FRAC_N, FRAC_SAMPLES, FRAC_STARTS = 3, 4, 16, 1
FRAC_MU = 0.1
FRAC_DATA_SEED = 42
START_LOW, START_HIGH = 1.01, 10.0  # the shipped start range


class Tally:
    """Attempted and failed operations (solver runs and output checks)."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def check(self, name: str, ok: bool, detail: str = "") -> None:
        self.runs(name, 1, [] if ok else [detail or "failed"])

    def runs(self, name: str, attempted: int, failures) -> None:
        self.attempted += attempted
        self.failed += len(failures)
        self.failures += [f"{name}: {reason}" for reason in failures]


def file_digest(paths) -> str:
    h = hashlib.sha256()
    for path in paths:
        h.update(Path(path).read_bytes())
    return h.hexdigest()


def _normalized(path: Path) -> bytes:
    """File bytes without wall-clock fields: comparison.csv's wall_seconds
    column and summary.json's wall_seconds, timestamp and the timing-derived
    fractional_wall_wins."""
    if path.name == "summary.json":
        doc = json.loads(path.read_text())
        doc.pop("wall_seconds", None)
        doc.pop("timestamp", None)
        doc.get("compare", {}).pop("fractional_wall_wins", None)
        return json.dumps(doc, sort_keys=True).encode()
    if path.name == "comparison.csv":
        rows = list(csv.reader(path.read_text().splitlines()))
        drop = rows[0].index("wall_seconds")
        return "\n".join(",".join(r[:drop] + r[drop + 1:]) for r in rows).encode()
    return path.read_bytes()


def artifact_digest(out_dir: Path) -> str:
    """Digest of every artifact under out_dir, timing fields excluded."""
    h = hashlib.sha256()
    for path in sorted(p for p in out_dir.rglob("*") if p.is_file()):
        h.update(str(path.relative_to(out_dir)).encode() + b"\0")
        h.update(_normalized(path) + b"\0")
    return h.hexdigest()


def run_cli(argv: list[str], out_dir: Path) -> int:
    return cli.main(argv + ["--out", str(out_dir), "--force", "--jobs", "1"])


def _summary(out_dir: Path) -> dict:
    return json.loads((out_dir / "summary.json").read_text())


class ParetoPair:
    name = "pareto_pair"
    cli_artifacts = True

    def prepare(self, root: Path, seed: int) -> dict:
        spec, solver, _ = cli.parse_config(root / PAIR_CONFIG)
        return {"key": file_digest([root / PAIR_CONFIG]),
                "starts": spec.start_grid[2], "tolerance": solver.tolerance}

    def setup(self, root: Path, seed: int, timer) -> None:
        with timer("parse_config_s"):
            spec, _, _ = cli.parse_config(root / PAIR_CONFIG)
        with timer("build_s", "fixtures_build_s"):
            spec.objectives()

    def call(self, inputs: dict, out_dir: Path) -> dict:
        return {"pareto": run_cli(["pareto", "--config", PAIR_CONFIG], out_dir)}

    def judge(self, inputs: dict, out_dir: Path, record: dict, tally: Tally) -> None:
        tally.check("pareto.exit_code", record["pareto"] == 0, f"exit {record['pareto']}")
        payload = _summary(out_dir)["pareto"]
        # Both fronts (moaocfgd and the mogd baseline) run every start.
        tally.runs("pareto.start", 2 * inputs["starts"],
                   [f"start {f['start_index']}: {f['reason']}" for f in payload["failed_starts"]])
        bound = 10 * inputs["tolerance"]
        tally.check("pareto.norm_d", payload["max_norm_d"] < bound,
                    f"max norm_d {payload['max_norm_d']} >= {bound}")
        scores = [payload.get("adrs", {}).get(k) for k in ("moaocfgd", "mogd")]
        tally.check("pareto.adrs_finite",
                    all(isinstance(v, float) and math.isfinite(v) for v in scores),
                    f"adrs {scores}")


class CompareN100:
    name = "compare_n100"
    cli_artifacts = True

    def prepare(self, root: Path, seed: int) -> dict:
        spec, _, _ = cli.parse_config(root / QUADRATIC_CONFIG)
        return {"key": file_digest([root / QUADRATIC_CONFIG]),
                "rows": 2 * len(spec.gamma_values)}

    def setup(self, root: Path, seed: int, timer) -> None:
        with timer("parse_config_s"):
            spec, _, _ = cli.parse_config(root / QUADRATIC_CONFIG)
        with timer("build_s"):
            spec.objectives()

    def call(self, inputs: dict, out_dir: Path) -> dict:
        return {"compare": run_cli(["compare", "--config", QUADRATIC_CONFIG], out_dir)}

    def judge(self, inputs: dict, out_dir: Path, record: dict, tally: Tally) -> None:
        tally.check("compare.exit_code", record["compare"] == 0, f"exit {record['compare']}")
        with open(out_dir / "comparison.csv") as fh:
            rows = list(csv.DictReader(fh))
        tally.runs("compare.row", inputs["rows"],
                   [f"missing {inputs['rows'] - len(rows)} rows"] if len(rows) != inputs["rows"] else [])
        for row in rows:
            where = f"gamma {row['gamma']} {row['method']}"
            tally.check("compare.condition_finite", math.isfinite(float(row["condition_number"])),
                        where)
            if row["method"] == "moaocfgd":
                tally.check("compare.final_error", float(row["final_error"]) <= 1e-3,
                            f"{where}: final_error {row['final_error']}")


def logistic_objective(features: np.ndarray, labels: np.ndarray, mu: float) -> ObjectiveModel:
    """Regularized logistic loss, vectorized over the last axis of x.

    f(x) = mean_i log(1 + exp(-y_i a_i^T x)) + mu/2 ||x||^2
    """
    samples, n = features.shape

    def margins(x):
        return -labels * (np.asarray(x, dtype=float) @ features.T)

    def prob(x):
        return 0.5 * (1.0 + np.tanh(0.5 * margins(x)))

    def value(x):
        x = np.asarray(x, dtype=float)
        return np.logaddexp(0.0, margins(x)).mean(axis=-1) + 0.5 * mu * (x * x).sum(axis=-1)

    def gradient(x):
        return -(prob(x) * labels) @ features / samples + mu * np.asarray(x, dtype=float)

    def hessian(x):
        p = prob(x)
        weights = p * (1.0 - p) / samples
        return (features.T * weights[..., None, :]) @ features + mu * np.eye(n)

    return ObjectiveModel(value, gradient, hessian, kind="smooth", dim=n)


class FracSmooth:
    name = "frac_smooth"
    cli_artifacts = False

    def prepare(self, root: Path, seed: int) -> dict:
        rng = np.random.default_rng(FRAC_DATA_SEED)
        data = []
        for _ in range(FRAC_M):
            features = rng.normal(size=(FRAC_SAMPLES, FRAC_N))
            truth = rng.normal(size=FRAC_N)
            noise = 0.5 * rng.normal(size=FRAC_SAMPLES)
            data.append((features, np.where(features @ truth + noise >= 0.0, 1.0, -1.0)))
        starts = np.random.default_rng(seed).uniform(START_LOW, START_HIGH,
                                                     size=(FRAC_STARTS, FRAC_N))
        h = hashlib.sha256(starts.tobytes())
        for features, labels in data:
            h.update(features.tobytes() + labels.tobytes())
        return {"key": h.hexdigest(), "data": data, "starts": starts}

    def setup(self, root: Path, seed: int, timer) -> None:
        with timer("build_s"):
            self.objectives(self.prepare(root, seed))

    @staticmethod
    def objectives(inputs: dict) -> list[ObjectiveModel]:
        return [logistic_objective(f, y, FRAC_MU) for f, y in inputs["data"]]

    def call(self, inputs: dict, out_dir: Path) -> dict:
        # Objectives are built inside the call so traced runs count their
        # evaluations (the tracer wraps ObjectiveModels as they are built), and
        # run_adaptive is looked up at call time so the traced one runs.
        objectives = self.objectives(inputs)
        schedule = default_schedule(terminal=np.zeros(FRAC_N))
        out_dir.mkdir(parents=True, exist_ok=True)
        traces = []
        for i, x0 in enumerate(inputs["starts"]):
            try:
                trace = descent.run_adaptive(objectives, x0, descent.SolverConfig(), schedule)
                trace.to_csv(out_dir / f"trace_{i}.csv")
            except Exception as exc:  # a failed start is counted, not fatal
                trace = exc
            traces.append(trace)
        return {"traces": traces}

    def judge(self, inputs: dict, out_dir: Path, record: dict, tally: Tally) -> None:
        traces = record["traces"]
        tally.runs("frac.start", len(traces), [
            f"start {i}: {t!r}" if isinstance(t, Exception) else f"start {i}: {t.error}"
            for i, t in enumerate(traces)
            if isinstance(t, Exception) or t.termination == "error"])
        for i, trace in enumerate(traces):
            if isinstance(trace, Exception) or not trace.records:
                continue
            f = np.array([r.f_values for r in trace.records])
            rises = np.nonzero(np.any(np.diff(f, axis=0) > 0.0, axis=1))[0]
            tally.check("frac.monotone", rises.size == 0,
                        f"start {i}: f rises after iteration {rises[:5].tolist()}")


class TheoryChecks:
    name = "theory_checks"
    cli_artifacts = True
    configs = (QUADRATIC_CONFIG, EXAMPLE2_CONFIG)
    commands = (
        ("fixtures", []),
        ("verify-t5", ["--config", QUADRATIC_CONFIG]),
        ("verify-t6", ["--config", QUADRATIC_CONFIG]),
        ("solve", ["--config", EXAMPLE2_CONFIG]),
    )

    def prepare(self, root: Path, seed: int) -> dict:
        return {"key": file_digest([root / c for c in self.configs])}

    def setup(self, root: Path, seed: int, timer) -> None:
        with timer("parse_config_s"):
            specs = [cli.parse_config(root / c)[0] for c in self.configs]
        with timer("build_s"):
            specs[0].objectives()
            with timer("fixtures_build_s"):
                specs[1].objectives()
                fixture_objectives("example1")
                example3_objective()

    def call(self, inputs: dict, out_dir: Path) -> dict:
        return {command: run_cli([command] + args, out_dir / command)
                for command, args in self.commands}

    def judge(self, inputs: dict, out_dir: Path, record: dict, tally: Tally) -> None:
        for command, code in record.items():
            tally.check(f"{command}.exit_code", code == 0, f"exit {code}")
        fixtures = _summary(out_dir / "fixtures")["fixtures"]
        for example, verdict in fixtures.items():
            tally.check(f"fixtures.{example}", verdict["ok"] is True, json.dumps(verdict))
        t5 = _summary(out_dir / "verify-t5")["verify_t5"]
        tally.check("verify-t5.monotone_geometric", t5["monotone_geometric"] is True)
        tally.check("verify-t5.rate_violation", t5["rate_violation"] is False)
        t6 = _summary(out_dir / "verify-t6")["verify_t6"]
        for verdict in ("recursion_ok", "lipschitz_ok", "bound_ok"):
            tally.check(f"verify-t6.{verdict}", t6[verdict] is True)
        tally.check("verify-t6.final_bound_ok", t6["final_bound_ok"] in (True, None))
        solve = _summary(out_dir / "solve")["solve"]
        tally.check("solve.termination", solve["termination"] != "error", str(solve["error"]))


WORKLOADS = {w.name: w for w in (ParetoPair(), CompareN100(), FracSmooth(), TheoryChecks())}

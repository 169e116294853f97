#!/usr/bin/env python3
"""mofgd benchmark: end-to-end metrics per workload, or a traced per-layer run.

Usage, from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see perfbench/README.md): pareto_pair, compare_n100, frac_smooth,
theory_checks.  One run:

1. times set-up SETUP_REPEATS times, each in a fresh interpreter;
2. runs the --jobs determinism probe once (`pareto --jobs 1` against
   `--jobs 2` on perfbench/probe_pair.yaml) and reports it as a named check;
3. repeats the workload's timed call until --seconds have passed (at least
   once), checking the outputs of every call and that artifacts repeat;
   wall_s is the median call time scaled to a nominal machine speed by a
   reference kernel timed during the calls (speed.py);
4. with --trace 1, makes one more call with the tracer installed and reports
   the per-layer metrics of that call.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  Artifacts, reports and spans go to
.perfbench_runs/ under the current directory.
"""

from __future__ import annotations

import os

# Pin BLAS threads before numpy is imported, here and in every child process.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import ctypes  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
WORKLOAD_NAMES = ("pareto_pair", "compare_n100", "frac_smooth", "theory_checks")
SETUP_REPEATS = 5
PROBE_CONFIG = "perfbench/probe_pair.yaml"
PROBE_FRONTS = ("front_moaocfgd.csv", "front_mogd.csv")
RUNS_DIR = ".perfbench_runs"


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def source_digest(root: Path) -> str:
    """Digest of the program and benchmark sources, keying cross-run records."""
    h = hashlib.sha256()
    for path in sorted((root / "src" / "mofgd").rglob("*.py")) + sorted(HERE.glob("*.py")):
        h.update(path.read_bytes())
    return h.hexdigest()


def blas_record(np) -> dict:
    """The BLAS numpy was built with and the thread count each loaded
    OpenBLAS reports (read through its own get_num_threads)."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = {}
    with open("/proc/self/maps") as fh:
        libs = sorted({line.split()[-1] for line in fh if "openblas" in line and ".so" in line})
    for lib_path in libs:
        lib = ctypes.CDLL(lib_path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                threads[Path(lib_path).name] = fn()
                break
    return {"name": blas.get("name"), "version": blas.get("version"),
            "threads_pinned": int(BLAS_THREADS), "threads_reported": threads}


def git_commit(root: Path):
    if not (root / ".git").exists():
        return None
    done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                          capture_output=True, text=True, check=False)
    return done.stdout.strip() or None


def environment(root: Path, args) -> dict:
    import numpy as np
    import scipy
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(), "numpy": np.__version__,
        "scipy": scipy.__version__, "blas": blas_record(np),
        "git_commit": git_commit(root), "source_sha256": source_digest(root),
    }


def time_setup(root: Path, args) -> list[dict]:
    """Set-up timings from SETUP_REPEATS fresh interpreters."""
    runs = []
    for _ in range(SETUP_REPEATS):
        done = subprocess.run([sys.executable, str(HERE / "setup_child.py"),
                               args.workload, str(args.seed)],
                              cwd=root, capture_output=True, text=True, check=False)
        if done.returncode != 0:
            raise RuntimeError(f"set-up failed:\n{done.stderr}")
        runs.append(json.loads(done.stdout.splitlines()[-1]))
    return runs


def jobs_probe(runs_dir: Path) -> tuple[bool, str]:
    """Run the 8-start pareto probe with --jobs 1 and 2; compare the fronts."""
    import mofgd.cli as cli

    outs = {}
    for jobs in (1, 2):
        out = runs_dir / "probe" / f"jobs{jobs}"
        code = cli.main(
            ["pareto", "--config", PROBE_CONFIG, "--out", str(out), "--force",
             "--jobs", str(jobs)])
        outs[jobs] = (code, {name: (out / name).read_bytes() if (out / name).exists() else None
                             for name in PROBE_FRONTS})
    differ = [name for name in PROBE_FRONTS
              if outs[1][1][name] is None or outs[1][1][name] != outs[2][1][name]]
    detail = (f"exit codes {outs[1][0]}/{outs[2][0]}; "
              + (f"{', '.join(differ)} differ between --jobs 1 and --jobs 2" if differ
                 else "fronts byte-identical"))
    return not differ, detail


def load_records(path: Path) -> dict:
    return json.loads(path.read_text()) if path.exists() else {}


def save_records(path: Path, records: dict) -> None:
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(records, indent=1, sort_keys=True))
    os.replace(tmp, path)


def timed_call(workload, inputs, out_dir: Path, tally):
    """One call of the workload; returns (start, end, artifact digest)."""
    from workloads import artifact_digest

    out_dir.mkdir(parents=True)
    start = time.perf_counter()
    try:
        record = workload.call(inputs, out_dir)
    except Exception as exc:  # the program failed: count it, keep measuring
        end = time.perf_counter()
        tally.check(f"{workload.name}.call", False, repr(exc))
        return start, end, None
    end = time.perf_counter()
    try:
        workload.judge(inputs, out_dir, record, tally)
    except Exception as exc:  # missing or malformed artifacts
        tally.check(f"{workload.name}.outputs", False, repr(exc))
    return start, end, artifact_digest(out_dir)


def measure(workload, inputs, work_dir: Path, seconds: float, tally):
    """Repeat the timed call until `seconds` have passed (at least once).

    Returns the raw and speed-scaled seconds of each call and the first
    call's artifact digest.
    """
    from speed import Sampler

    raw, scaled, digests = [], [], []
    started = time.perf_counter()
    with Sampler() as sampler:
        while not raw or time.perf_counter() - started < seconds:
            start, end, digest = timed_call(workload, inputs, work_dir / f"call{len(raw)}", tally)
            call_raw, call_scaled = sampler.scale(start, end)
            raw.append(call_raw)
            scaled.append(call_scaled)
            digests.append(digest)
    for k, digest in enumerate(digests[1:], start=1):
        tally.check("artifacts.repeat", digest == digests[0],
                    f"call {k} artifacts differ from call 0")
    return raw, scaled, digests[0]


def traced_layers(workload, inputs, work_dir: Path, spans_path: Path, tally,
                  untraced: dict, known: dict) -> tuple[dict, list[str]]:
    """One traced call: its per-layer metrics and the names of missing layers.

    untraced holds the untraced raw median wall and artifact digest; known is
    this input's cross-run record, which gains the counts of the first
    traced run and checks those of later ones.
    """
    from tracer import Tracer

    tracer = Tracer()
    tracer.install()
    try:
        start, end, digest = timed_call(workload, inputs, work_dir / "traced", tally)
    finally:
        tracer.uninstall()
    tracer.write_spans(spans_path, start)
    wall = end - start
    layers = tracer.metrics(wall)

    tally.check("trace.same_artifacts", digest == untraced["digest"],
                "traced call wrote different artifacts than the untraced calls")
    counts = {k: v for k, (v, unit) in layers.items() if unit == "count"}
    if "counts" in known:
        changed = sorted(k for k in counts if counts[k] != known["counts"].get(k))
        tally.check("trace.counts_repeat", not changed, f"counts changed: {changed}")
    else:
        known["counts"] = counts
    returned = tracer.calls["descent.armijo"] - tracer.errors["descent.armijo"]
    iterations = tracer.counts["descent.iterations_backtracking"]
    tally.check("trace.armijo_equals_iterations", returned == iterations,
                f"{returned} Armijo line searches vs {iterations} backtracking iterations")

    artifacts = ([p for p in (work_dir / "traced").rglob("*") if p.is_file()]
                 if workload.cli_artifacts else [])
    layers.update({
        "cli.artifact.files": (len(artifacts), "count"),
        "cli.artifact.bytes": (sum(p.stat().st_size for p in artifacts), "bytes"),
        "trace.wall_s": (wall, "s"),
        "trace.overhead_s": (wall - untraced["raw_wall_s"], "s"),
    })
    return layers, tracer.missing


def fmt(value) -> str:
    return repr(value) if isinstance(value, float) else str(value)


def main(argv=None) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "mofgd" / "cli.py").is_file():
        print(f"error: {root} has no src/mofgd/cli.py; run from the repository root",
              file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))
    from workloads import WORKLOADS, Tally

    workload = WORKLOADS[args.workload]
    runs_dir = root / RUNS_DIR
    work_dir = runs_dir / args.workload
    shutil.rmtree(work_dir, ignore_errors=True)
    work_dir.mkdir(parents=True)

    env = environment(root, args)
    setups = time_setup(root, args)
    probe_ok, probe_detail = jobs_probe(runs_dir)
    checks = {"jobs_determinism": (probe_ok, probe_detail)}
    inputs = workload.prepare(root, args.seed)

    tally = Tally()
    raw_walls, walls, digest = measure(workload, inputs, work_dir, args.seconds, tally)

    records_path = runs_dir / "records.json"
    records = load_records(records_path)
    known = records.setdefault(f"{args.workload}:{inputs['key']}:{env['source_sha256']}", {})
    if "artifacts" in known:
        tally.check("artifacts.repeat_across_runs", digest == known["artifacts"],
                    "artifacts differ from an earlier run with the same inputs")
    else:
        known["artifacts"] = digest

    def setup_median(key):
        return statistics.median(s[key] for s in setups)

    if args.trace:
        metrics, missing = traced_layers(
            workload, inputs, work_dir, runs_dir / f"spans-{args.workload}.csv", tally,
            {"raw_wall_s": statistics.median(raw_walls), "digest": digest}, known)
        metrics.update({
            "cli.import_s": (setup_median("import_s"), "s"),
            "cli.parse_config.s": (setup_median("parse_config_s"), "s"),
            "fixtures.build.s": (setup_median("fixtures_build_s"), "s"),
            "check.jobs_identical": (int(probe_ok), "bool"),
        })
        checks["missing_layers"] = (not missing, ", ".join(missing) or "none")
    else:
        metrics = {
            "wall_s": (statistics.median(walls), "s"),
            "setup_s": (setup_median("setup_s"), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }
    save_records(records_path, records)

    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    fail_frac = tally.failed / tally.attempted
    report = dict(result, env=env, calls_raw_s=raw_walls, calls_scaled_s=walls,
                  setup_runs=setups, fail_frac=fail_frac,
                  failures=tally.failures,
                  checks={name: {"ok": ok, "detail": detail}
                          for name, (ok, detail) in checks.items()})
    (runs_dir / f"report-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(report, indent=1))

    print("env " + json.dumps(env, sort_keys=True))
    for name, (ok, detail) in checks.items():
        print(f"check {name}: {'pass' if ok else 'FAIL'} ({detail})")
    for failure in tally.failures[:20]:
        print(f"failed {failure}")
    print(f"calls {len(walls)}: raw " + " ".join(f"{w:.4f}" for w in raw_walls)
          + " s; scaled " + " ".join(f"{w:.4f}" for w in walls) + " s")
    print(f"raw median wall {statistics.median(raw_walls)!r} s")
    print(f"fail_frac {fail_frac!r} ({tally.failed} of {tally.attempted} operations)")
    for name, (value, unit) in metrics.items():
        print(f"metric {name} {fmt(value)} {unit}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""asmlab benchmark: one workload, one run, every metric by name and unit.

    python3 asmbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. Set-up makes the workload's input files from
the seed; a fresh worker process then runs the closed loop (worker.py);
afterwards every operation's output is checked. The last line of standard
output is one JSON object: end-to-end metrics with ``--trace 0``,
per-layer metrics with ``--trace 1``. The full record of the run (metrics,
environment, per-operation timings and sha256 digests, and for traced runs
the spans, in worker.json) is left in ``.bench_build/asmbench/<workload>/``.

Exits 2 when the program's sources (``src/asmlab``) are missing.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
IMPORT_SAMPLES = 3  # fresh interpreters timed per run for setup_s
WORKER_TIMEOUT_S = 150


class ProgramMissing(Exception):
    pass


def load_program() -> None:
    """Import asmlab from this checkout's sources, never from elsewhere.
    Importing the CLI here also compiles the bytecode that setup_s reuses."""
    if not (SRC / "asmlab" / "__init__.py").is_file():
        raise ProgramMissing(f"no asmlab sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import asmlab
    import asmlab.cli  # noqa: F401

    if Path(asmlab.__file__).resolve().parent != SRC / "asmlab":
        raise ProgramMissing(f"asmlab imported from {asmlab.__file__}, not {SRC}")


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def _loadavg() -> str:
    try:
        return Path("/proc/loadavg").read_text().strip()
    except OSError:
        return "unavailable"


def calibration_s() -> float:
    """Median seconds of a fixed pure-Python loop: the machine's speed at the
    time of the run, recorded so that drift between runs can be told apart
    from changes in the program."""
    def loop() -> float:
        t0 = time.perf_counter()
        total, seen = 0, {}
        for i in range(200_000):
            total += i * i % 7
            seen[i & 4095] = total
        return time.perf_counter() - t0
    return statistics.median(loop() for _ in range(5))


def _git_sha() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def environment() -> dict:
    import numpy
    import scipy

    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "git_sha": _git_sha(),
            "nproc": len(os.sched_getaffinity(0)), "cpu_count": os.cpu_count()}


def import_times(env: dict) -> list[float]:
    """Wall seconds for fresh interpreters to start and ``import asmlab.cli``."""
    times = []
    for _ in range(IMPORT_SAMPLES):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import asmlab.cli"], cwd=ROOT, env=env,
                       check=True, timeout=60)
        times.append(time.perf_counter() - t0)
    return times


def tail_percentile(values: list[float]) -> tuple[int, float] | None:
    """The highest percentile with at least ten samples beyond it."""
    ordered = sorted(values)
    for p in (99, 95, 90, 75, 50):
        beyond = len(ordered) * (100 - p) / 100
        if beyond >= 10:
            cut = statistics.quantiles(ordered, n=100, method="inclusive")[p - 1]
            return p, cut
    return None


def failures(ops: list[dict], problem: str | None) -> list[str]:
    """One line per failed operation: nonzero exit, exception, a digest
    other than the first operation's, or output that fails the check."""
    first, last = ops[0]["digest"], ops[-1]["digest"]
    out = []
    for op in ops:
        if op["error"] or any(op["codes"]):
            out.append(f"op {op['op']}: exit codes {op['codes']} {op['error'] or ''}".strip())
        elif op["digest"] != first:
            out.append(f"op {op['op']}: digest {op['digest']} differs from op 0")
        elif problem and op["digest"] == last:
            out.append(f"op {op['op']}: {problem}")
    return out


def run_workload(name: str, seed: int, seconds: float, trace: bool, work: Path,
                 sizes: dict | None = None) -> dict:
    """Set up, run and check one workload; return the run's record."""
    import spans
    import workloads

    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    env = _env()
    record = {"workload": name, "seed": seed, "seconds": seconds, "trace": trace,
              "env": environment(), "loadavg_before": _loadavg(),
              "calibration_s_before": calibration_s()}

    t0 = time.perf_counter()
    op = workloads.WORKLOADS[name](work, seed, **(sizes or {}))
    record["inputs_s"] = time.perf_counter() - t0
    setup = [] if trace else import_times(env)

    job_path, result_path = work / "job.json", work / "worker.json"
    job_path.write_text(json.dumps({"calls": op.calls, "artifacts": op.artifacts,
                                    "seconds": seconds, "trace": trace}))
    with open(work / "worker.log", "w") as log:
        subprocess.run([sys.executable, str(BENCH / "worker.py"), str(job_path),
                        str(result_path)], cwd=ROOT, env=env, stdout=subprocess.DEVNULL,
                       stderr=log, check=True, timeout=WORKER_TIMEOUT_S)
    result = json.loads(result_path.read_text())
    record["loadavg_after"] = _loadavg()
    record["calibration_s_after"] = calibration_s()

    ops = result["ops"]
    try:
        problem = op.check()
    except OSError as exc:
        problem = f"cannot read the output: {exc}"
    failed = failures(ops, problem)
    record.update(ops=ops, check=problem or "ok", failed=failed,
                  digests=sorted({o["digest"] for o in ops}))
    walls = [o["wall_s"] for o in ops]
    if not trace:
        record["metrics"] = {
            "op_s": (statistics.median(walls), "s"),
            "cpu_s": (statistics.median(o["cpu_s"] for o in ops), "s"),
            "peak_rss_mb": (result["peak_rss_kb"] / 1024, "MB"),
            "setup_s": (statistics.median(setup), "s"),
            "ok_ratio": ((len(ops) - len(failed)) / len(ops), "ratio"),
        }
        record["setup_samples"] = setup
        record["tail"] = tail_percentile(walls)
        return record

    traced = [o["wall_s"] for o in ops if o["kind"] == "traced"]
    untraced = [o["wall_s"] for o in ops if o["kind"] == "untraced"]
    layers = spans.layer_metrics(result["spans"], result["tallies"])
    metrics = {m: (v, spans.unit_of(m)) for m, v in layers.items()}
    metrics["trace.overhead"] = (statistics.median(traced) / statistics.median(untraced),
                                 "ratio")
    record["metrics"] = metrics
    record["absent"] = spans.absent_metrics(set(result["absent"]))
    # the self times of each traced operation must add up to its wall time
    sums = [sum(spans.self_times(group))
            for _, group in sorted(spans.split_operations(result["spans"]).items())]
    record["self_time_sums"] = sums
    record["self_time_ok"] = all(abs(s - w) < 1e-3 for s, w in zip(sums, traced))
    return record


def report_lines(record: dict) -> list[str]:
    ops = record["ops"]
    lines = [
        f"workload {record['workload']} seed {record['seed']} trace {int(record['trace'])}: "
        f"{len(ops)} operations, {len(record['failed'])} failed, "
        f"inputs made in {record['inputs_s']:.2f} s",
        "env " + " ".join(f"{k}={v}" for k, v in record["env"].items()),
        f"loadavg before {record['loadavg_before']} / after {record['loadavg_after']}",
        f"calibration loop before {record['calibration_s_before']:.4f} s"
        f" / after {record['calibration_s_after']:.4f} s",
    ]
    absent = set(record.get("absent", ()))
    for metric, (value, unit) in record["metrics"].items():
        note = " (absent: its wrapped functions no longer exist)" if metric in absent else ""
        lines.append(f"metric {metric} {value:.6g} {unit}{note}")
    if not record["trace"]:
        tail = record["tail"]
        lines.append(f"op_s over {len(ops)} samples: " + (
            f"p{tail[0]} {tail[1]:.4f} s" if tail
            else "no percentile above the median has ten samples beyond it"))
    else:
        lines.append("traced self-time sums per op (s): "
                     + " ".join(f"{s:.4f}" for s in record["self_time_sums"])
                     + f"; trace overhead {record['metrics']['trace.overhead'][0]:.4f}")
    lines += [f"digest {d}" for d in record["digests"]]
    lines.append(f"check {record['check']}")
    lines += [f"failed {f}" for f in record["failed"]]
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        load_program()
    except (ProgramMissing, ImportError) as exc:
        print(f"error: cannot load the program under test: {exc}", file=sys.stderr)
        return 2
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    work = ROOT / ".bench_build" / "asmbench" / args.workload
    try:
        record = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), work)
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}; see {work}", file=sys.stderr)
        return 1
    (work / "record.json").write_text(json.dumps(record, indent=1))
    print("\n".join(report_lines(record)))
    correct = not record["failed"] and record.get("self_time_ok", True)
    print(json.dumps({
        "correct": correct,
        "attempted": len(record["ops"]),
        "failed": len(record["failed"]),
        "metrics": {m: {"value": v, "unit": u} for m, (v, u) in record["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

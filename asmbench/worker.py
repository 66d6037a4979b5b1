"""Closed-loop worker: one client, one operation at a time, no extra
threads. Each operation calls ``asmlab.cli.main`` in this process. The
loop starts another operation while it would end no more than half an
operation past the run's seconds, so a run measures about that long.

Untraced runs time every operation. Traced runs start with one untimed
operation, then time pairs on the same input: the operation untraced, then
traced, so the ratio of the two is the tracing overhead. Results, spans
included, are written once at the end.

Usage: python3 worker.py JOB.json RESULT.json
"""

from __future__ import annotations

import hashlib
import json
import resource
import sys
import time
import traceback
from pathlib import Path

import spans


def digest(paths: list[str]) -> str:
    """sha256 over the names and bytes of the files under ``paths``."""
    h = hashlib.sha256()
    for top in map(Path, paths):
        files = sorted(p for p in top.rglob("*") if p.is_file()) if top.is_dir() else [top]
        for f in files:
            h.update(f.relative_to(top.parent).as_posix().encode() + b"\0")
            h.update(f.read_bytes() if f.exists() else b"<missing>")
    return h.hexdigest()


def _cpu() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def run_op(cli_main, job: dict, op: int, kind: str, recorder=None) -> dict:
    error, codes = None, []
    cpu0, t0 = _cpu(), time.perf_counter()
    try:
        if recorder is None:
            codes = [cli_main(list(call)) for call in job["calls"]]
        else:
            with recorder.operation(op):
                codes = [cli_main(list(call)) for call in job["calls"]]
    except (Exception, SystemExit) as exc:  # a failed operation is counted, not fatal
        traceback.print_exc()
        error = f"{type(exc).__name__}: {exc}"
    wall, cpu = time.perf_counter() - t0, _cpu() - cpu0
    return {"op": op, "kind": kind, "wall_s": wall, "cpu_s": cpu,
            "codes": codes, "error": error, "digest": digest(job["artifacts"])}


def main(job_path: str, result_path: str) -> int:
    job = json.loads(Path(job_path).read_text())
    from asmlab.cli import main as cli_main

    recorder = spans.Recorder(time.perf_counter) if job["trace"] else None
    absent: set[str] = set()
    ops: list[dict] = []
    if recorder is not None:
        # an untimed first operation, so neither side of the first pair runs cold
        ops.append(run_op(cli_main, job, 0, "warmup"))
    start = time.perf_counter()
    while True:
        begun = time.perf_counter()
        ops.append(run_op(cli_main, job, len(ops), "untraced"))
        if recorder is not None:
            restore, absent = spans.install(recorder)
            try:
                ops.append(run_op(cli_main, job, len(ops), "traced", recorder))
            finally:
                spans.uninstall(restore)
        now = time.perf_counter()
        # stop unless the next round would end within half a round of the deadline
        if now - start + (now - begun) / 2 >= job["seconds"]:
            break
    result = {"ops": ops, "absent": sorted(absent),
              "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}
    if recorder is not None:
        result.update(recorder.to_json())
    Path(result_path).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:]))

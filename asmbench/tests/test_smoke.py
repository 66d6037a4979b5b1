"""Tiny-size runs of the whole harness: set-up, worker, checks, metrics."""

import json
import shutil
import subprocess
import sys

import pytest

import run

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())

TINY = {
    "stage2-paired": {"core_length": 600, "coverage": 20},
    "reads-100k": {"genome_length": 5000, "num_reads": 2000},
    "cppwalk-dense": {"genome_length": 150, "read_length": 20, "k": 4},
}


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("workload", sorted(TINY))
def test_tiny_run_is_correct_and_reports_every_metric(workload, trace, tmp_path):
    run.load_program()
    record = run.run_workload(workload, 3, 0.2, trace, tmp_path, TINY[workload])
    assert record["failed"] == [] and record["check"] == "ok"
    assert len(record["digests"]) == 1
    kind = "per_layer" if trace else "end_to_end"
    assert set(record["metrics"]) == {m["name"] for m in BENCHMARK[kind]}
    for metric in BENCHMARK[kind]:
        assert record["metrics"][metric["name"]][1] == metric["unit"]
    if trace:
        assert record["self_time_ok"] and record["absent"] == []
    else:
        assert record["metrics"]["op_s"][0] > 0


def test_same_seed_gives_same_inputs(tmp_path):
    run.load_program()
    import workloads

    made = []
    for name in ("a", "b"):
        (tmp_path / name).mkdir()
        workloads.reads_100k(tmp_path / name, 5, **TINY["reads-100k"])
        made.append((tmp_path / name / "reads.fasta").read_bytes())
    assert made[0] == made[1]


def test_fails_without_the_program(tmp_path):
    shutil.copytree(run.BENCH, tmp_path / run.BENCH.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, f"{run.BENCH.name}/run.py", "--workload", "reads-100k",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert done.stdout == ""

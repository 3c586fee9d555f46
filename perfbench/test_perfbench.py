"""Smoke tests for the benchmark harness.

Run from the repository root:  python3 -m pytest perfbench -q
Each smoke run uses tiny inputs, one pass and one set-up spawn.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run

ROOT = Path(__file__).resolve().parent.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(*args, cwd=ROOT, script=ROOT / "perfbench" / "run.py"):
    proc = subprocess.run([sys.executable, str(script), *args], cwd=cwd,
                          capture_output=True, text=True, timeout=300)
    return proc


def _result(proc):
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    return result


@pytest.mark.parametrize("workload", run.WORKLOADS)
@pytest.mark.parametrize("trace", ["0", "1"])
def test_smoke_run_reports_every_declared_metric(workload, trace):
    result = _result(_run("--workload", workload, "--seed", "3", "--smoke",
                          "--trace", trace))
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = BENCH["per_layer"] if trace == "1" else BENCH["end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        name: m["unit"] for name, m in result["metrics"].items()}
    record = json.loads((ROOT / ".perfbench" /
                         f"{workload}-seed3-trace{trace}.json").read_text())
    env = record["environment"]
    assert env["seed"] == 3 and env["nproc"] >= 1 and env["numpy"]
    assert set(env["thread_env"]) == set(run.THREAD_VARS)
    assert env["blas_threads"] in (None, 1)  # None: no OpenBLAS to ask


def test_known_defect_is_counted_as_failed():
    result = _result(_run("--workload", "conditions", "--seed", "3", "--smoke",
                          "--known-defects"))
    assert result["failed"] == 1 and not result["correct"]
    record = json.loads((ROOT / ".perfbench" / "conditions-seed3-trace0.json").read_text())
    assert record["end_to_end"]["failed_frac"] == 1 / result["attempted"]
    assert record["errors"][0].startswith("CheckFailed: exit status 2: quadrature error")


def test_refuses_to_run_without_sources():
    bare = ROOT / ".perfbench" / "bare-checkout"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(ROOT / "perfbench", bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        proc = _run("--workload", "estimate", "--seed", "1", "--seconds", "1",
                    "--trace", "0", cwd=bare, script=bare / "perfbench" / "run.py")
        assert proc.returncode != 0
        assert proc.stdout.strip() == ""
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def test_tail_percentile_keeps_ten_samples_beyond():
    assert run.tail_percentile(39) == 50
    assert run.tail_percentile(40) == 75
    assert run.tail_percentile(100) == 90
    values = sorted(range(40))
    tail, beyond = run.nearest_rank(values, 75)
    assert tail == 29 and beyond == 10


def test_failed_job_ranks_slower_than_every_completed_job():
    records = [{"kind": "a", "slot": 0, "seconds": 1.0, "error": None, "estimates": [2.0]},
               {"kind": "b", "slot": 1, "seconds": 0.1, "error": "boom", "estimates": []},
               {"kind": "c", "slot": 2, "seconds": 3.0, "error": None, "estimates": [8.0]}]
    e2e, detail = run.summarize(records, wall=5.0, q_tail=50)
    assert e2e["failed_frac"] == pytest.approx(1 / 3)
    assert e2e["job_s_p50"] == 3.0  # sorted: 1.0, 3.0, 5.0 (the failure)
    assert e2e["jobs_per_s"] == pytest.approx(2 / 4.1)
    assert e2e["bound_gmean"] == pytest.approx(4.0)
    assert detail["attempted"] == 3 and detail["failed"] == 1


def test_metrics_use_each_slots_median_over_passes():
    # two slots, three passes; one slow spell in pass 1
    times = [(0.1, 1.0), (0.5, 3.0), (0.1, 1.0)]
    records = [{"kind": k, "slot": slot, "seconds": t, "error": None, "estimates": []}
               for row in times for slot, (k, t) in enumerate(zip("ab", row))]
    e2e, detail = run.summarize(records, wall=5.7, q_tail=75)
    assert e2e["jobs_per_s"] == pytest.approx(2 / 1.1)
    assert e2e["job_s_p50"] == pytest.approx(0.55)  # three of 0.1, three of 1.0
    assert e2e["job_s_tail"] == 1.0
    assert detail["wall_jobs_per_s"] == pytest.approx(6 / 5.7)
    assert detail["wall_job_s_tail"] == 1.0


def test_estimate_check_rejects_a_bound_below_max_abs():
    run.import_schurkit()
    import jobs

    rows = [{"p": "4", "N": 4, "estimate": 0.5}]  # max|m| of triangular is 1
    with pytest.raises(jobs.CheckFailed):
        jobs._check_rows("triangular", 0, ["4"], ["4"], rows, growth=False)
    rows = [{"p": "2", "N": 4, "estimate": 1.01}]  # p = 2 must equal max|m|
    with pytest.raises(jobs.CheckFailed):
        jobs._check_rows("triangular", 0, ["2"], ["4"], rows, growth=False)
    rows = [{"p": "4", "N": 4, "estimate": 1.2}, {"p": "4", "N": 8, "estimate": 1.1}]
    with pytest.raises(jobs.CheckFailed):
        jobs._check_rows("triangular", 0, ["4"], ["4", "8"], rows, growth=True)

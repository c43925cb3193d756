"""Self-test of the repository benchmark, at tiny scale.

Run from the root of a checkout::

    python -m pytest -q perfbench/tests

Each workload must run and print every metric named in BENCHMARK.json with
its unit, and a wrong golden result must make the run count as failed, which
proves the correctness check can fail.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1]
ROOT = PERFBENCH.parent
#: Tiny sizes: in-process job count and distinct service packs.
TINY = ["--jobs", "200", "--packs", "4"]

sys.path.insert(0, str(PERFBENCH))
import run  # noqa: E402
import workloads  # noqa: E402


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


def reject_constant(token: str):
    raise ValueError(f"not strict JSON: {token}")


def result_of(proc: subprocess.CompletedProcess) -> dict:
    """The result line, parsed as strict JSON (no NaN or Infinity)."""
    return json.loads(proc.stdout.strip().splitlines()[-1], parse_constant=reject_constant)


def declared(kind: str) -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {metric["name"]: metric["unit"] for metric in spec[kind]}


def test_declared_metrics_match_the_code():
    assert declared("end_to_end") == run.END_TO_END
    assert declared("per_layer") == run.PER_LAYER
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_every_workload_prints_every_metric(workload, trace):
    proc = bench("--workload", workload, "--seed", "1", "--seconds", "1",
                 "--trace", str(trace), *TINY)
    assert proc.returncode == 0, proc.stderr
    result = result_of(proc)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    units = declared("per_layer" if trace else "end_to_end")
    assert {name: m["unit"] for name, m in result["metrics"].items()} == units
    for name, metric in result["metrics"].items():
        assert isinstance(metric["value"], (int, float)), name
        if not trace:
            assert metric["value"] > 0, name
    assert proc.stdout.startswith("# machine ")


def copy_of_the_benchmark(tmp_path: Path) -> Path:
    """A checkout in ``tmp_path``: BENCHMARK.json and a copy of perfbench/."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(PERFBENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    return tmp_path


def with_wrong_golden(tmp_path: Path) -> Path:
    """A checkout whose golden.json holds a wrong fingerprint and digest."""
    checkout = copy_of_the_benchmark(tmp_path)
    (checkout / "src").symlink_to(ROOT / "src", target_is_directory=True)
    path = checkout / "perfbench" / "golden.json"
    golden = json.loads(path.read_text())
    golden["wlcg_dispatch"].update(jobs=200, fingerprint="0" * 64)
    golden["service_sessions"].update(packs=4, digest="0" * 64)
    path.write_text(json.dumps(golden))
    return checkout


@pytest.mark.parametrize("workload", ["wlcg_dispatch", "service_sessions"])
def test_a_wrong_golden_result_fails_the_run(workload, tmp_path):
    proc = bench("--workload", workload, "--seed", str(workloads.DEFAULT_SEED),
                 "--seconds", "1", "--trace", "0", *TINY, cwd=with_wrong_golden(tmp_path))
    assert proc.returncode == 1
    result = result_of(proc)
    assert result["correct"] is False
    assert result["failed"] >= 1
    if workload == "wlcg_dispatch":
        assert result["failed"] == result["attempted"]
        # Every repeat was wrong, so each counts as the failed-session latency.
        assert result["metrics"]["session_p50_ms"]["value"] == run.FAILED_LATENCY_S * 1e3
    assert "MISMATCH" in proc.stdout


def test_without_the_program_it_fails_without_a_result(tmp_path):
    proc = bench("--workload", "wlcg_dispatch", "--seed", "1", "--seconds", "1",
                 "--trace", "0", cwd=copy_of_the_benchmark(tmp_path))
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout

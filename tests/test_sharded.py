"""Tests for the sharded-clock parallel engine (repro.des.sharded).

The engine's contract is *metric equality with the single-clock kernel*:
for shard-eligible workloads (pinned placement, no cross-site data flows)
the merged result must be bit-identical to a scalar run, for any shard
count, any hash seed and with fault injection active.  The suite pins:

* the deterministic, job-count-balanced shard plan;
* every :func:`check_shardable` refusal, and the two failure paths of a run
  (a region that raises, a configuration that cannot be shipped);
* metric equality (via the checkpoint differ) at 2 and 3 shards, with and
  without failures/retries, under a simulated-time deadline, and through
  ``verify=True``;
* hash-seed independence, by recomputing fingerprints under different
  ``PYTHONHASHSEED`` values in subprocesses, on workloads drawn from two
  bundled scenario packs;
* the CLI surface (``repro run --shards`` / ``--shards-verify``).
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.config.execution import ExecutionConfig, MonitoringConfig, StopConfig
from repro.config.generators import generate_grid
from repro.core.simulator import Simulator
from repro.des.sharded import (
    check_shardable,
    comparable_metrics,
    plan_shards,
    run_sharded,
)
from repro.faults.models import JobFailureModel
from repro.state.protocol import diff_states
from repro.utils.errors import SimulationError
from repro.workload.generator import SyntheticWorkloadGenerator

REPO_ROOT = Path(__file__).resolve().parent.parent


def follow_trace_execution(**overrides) -> ExecutionConfig:
    """Shard-eligible execution config (muted monitoring, pinned policy)."""
    settings = dict(
        plugin="follow_trace",
        monitoring=MonitoringConfig(enable_events=False, snapshot_interval=0.0),
    )
    settings.update(overrides)
    return ExecutionConfig(**settings)


def make_workload(sites: int = 4, jobs: int = 120, seed: int = 2):
    infrastructure, topology = generate_grid(sites, seed=1)
    workload = SyntheticWorkloadGenerator(infrastructure, seed=seed).generate(jobs)
    return infrastructure, topology, workload


def single_clock_fingerprint(
    infrastructure, topology, jobs, execution_overrides=None, **simulator_kwargs
) -> dict:
    execution = follow_trace_execution(**(execution_overrides or {}))
    simulator = Simulator(infrastructure, topology, execution, **simulator_kwargs)
    result = simulator.run([job.copy_for_replay() for job in jobs])
    return comparable_metrics(result.jobs)


class TestShardPlan:
    def test_balanced_largest_first_ties_by_name(self):
        # 9 goes first, then the 5s by name: alpha to the empty region,
        # charlie to the lighter one; delta joins whichever is lightest.
        regions = plan_shards({"delta": 1, "charlie": 5, "alpha": 5, "bravo": 9}, 2)
        assert regions == (("bravo", "delta"), ("alpha", "charlie"))

        # The speed-test workload: round-robin split it 1,323/2,677.
        _, _, jobs = make_workload(sites=4, jobs=4000, seed=5)
        counts: dict = {}
        for job in jobs:
            counts[job.target_site] = counts.get(job.target_site, 0) + 1
        loads = sorted(
            sum(counts[name] for name in names) for names in plan_shards(counts, 2)
        )
        assert loads == [1999, 2001]

    def test_more_shards_than_sites_drops_empty_regions(self):
        regions = plan_shards({"b": 0, "a": 0}, 8)
        assert regions == (("a",), ("b",))

    def test_zero_shards_rejected(self):
        with pytest.raises(SimulationError):
            plan_shards({"a": 1}, 0)


class TestCheckShardable:
    def test_eligible_workload_has_no_problems(self):
        infrastructure, topology, jobs = make_workload()
        simulator = Simulator(infrastructure, topology, follow_trace_execution(shards=2))
        assert check_shardable(simulator, jobs) == []

    def test_single_site_refused(self):
        infrastructure, topology, jobs = make_workload(sites=1)
        simulator = Simulator(infrastructure, topology, follow_trace_execution(shards=2))
        assert any("at least 2 sites" in p for p in check_shardable(simulator, jobs))

    def test_non_pinning_policy_refused(self):
        infrastructure, topology, jobs = make_workload()
        execution = follow_trace_execution(plugin="least_loaded", shards=2)
        simulator = Simulator(infrastructure, topology, execution)
        assert any("not pinning" in p for p in check_shardable(simulator, jobs))

    def test_data_transfers_refused(self):
        infrastructure, topology, jobs = make_workload()
        simulator = Simulator(
            infrastructure, topology, follow_trace_execution(shards=2),
            enable_data_transfers=True,
        )
        assert any("data transfers" in p for p in check_shardable(simulator, jobs))

    def test_build_hooks_refused(self):
        infrastructure, topology, jobs = make_workload()
        simulator = Simulator(infrastructure, topology, follow_trace_execution(shards=2))
        simulator.on_build(lambda sim: None)
        assert any("on_build hooks" in p for p in check_shardable(simulator, jobs))

    def test_stop_conditions_refused(self):
        infrastructure, topology, jobs = make_workload()
        execution = follow_trace_execution(shards=2, stop=StopConfig(max_failed_jobs=1))
        simulator = Simulator(infrastructure, topology, execution)
        assert any("stop conditions" in p for p in check_shardable(simulator, jobs))

    def test_configured_output_refused(self, tmp_path):
        from repro.config.execution import OutputConfig

        infrastructure, topology, jobs = make_workload()
        execution = follow_trace_execution(
            shards=2, output=OutputConfig(sqlite_path=str(tmp_path / "out.sqlite"))
        )
        simulator = Simulator(infrastructure, topology, execution)
        assert any("outputs" in p for p in check_shardable(simulator, jobs))

    def test_unpinned_jobs_refused(self):
        infrastructure, topology, jobs = make_workload()
        jobs[0].target_site = None
        jobs[1].target_site = "no-such-site"
        simulator = Simulator(infrastructure, topology, follow_trace_execution(shards=2))
        assert any("2 job(s) lack a target_site" in p for p in check_shardable(simulator, jobs))

    def test_too_wide_jobs_refused(self):
        infrastructure, topology, jobs = make_workload()
        jobs[0].cores = 10_000
        simulator = Simulator(infrastructure, topology, follow_trace_execution(shards=2))
        assert any("widest host" in p for p in check_shardable(simulator, jobs))

    def test_run_sharded_raises_with_joined_reasons(self):
        infrastructure, topology, jobs = make_workload()
        execution = follow_trace_execution(plugin="least_loaded", shards=2)
        simulator = Simulator(infrastructure, topology, execution)
        with pytest.raises(SimulationError, match="not shard-eligible.*not pinning"):
            run_sharded(simulator, jobs)

    def test_run_sharded_requires_two_shards(self):
        infrastructure, topology, jobs = make_workload()
        simulator = Simulator(infrastructure, topology, follow_trace_execution(shards=1))
        with pytest.raises(SimulationError, match="shards >= 2"):
            run_sharded(simulator, jobs)


class TestMetricEquality:
    """Merged sharded metrics must equal the single-clock engine's, bit-for-bit."""

    @pytest.mark.parametrize("shards", [2, 3])
    def test_sharded_equals_single_clock(self, shards):
        infrastructure, topology, jobs = make_workload(sites=4, jobs=150)
        expected = single_clock_fingerprint(infrastructure, topology, jobs)

        simulator = Simulator(infrastructure, topology, follow_trace_execution(shards=shards))
        result = simulator.run([job.copy_for_replay() for job in jobs])
        assert diff_states(expected, comparable_metrics(result.jobs)) == []
        assert result.metrics.finished_jobs + result.metrics.failed_jobs == len(jobs)

    def test_equality_survives_failures_and_retries(self):
        infrastructure, topology, jobs = make_workload(sites=5, jobs=200, seed=11)
        model = JobFailureModel(default_rate=0.2, seed=7)
        execution = follow_trace_execution(shards=2, max_retries=2)
        expected = single_clock_fingerprint(
            infrastructure, topology, jobs,
            execution_overrides={"max_retries": 2},
            failure_model=model,
        )

        simulator = Simulator(infrastructure, topology, execution, failure_model=model)
        result = simulator.run([job.copy_for_replay() for job in jobs])
        assert len(result.jobs) > len(jobs)  # retries actually happened
        assert diff_states(expected, comparable_metrics(result.jobs)) == []

    def test_retry_ids_never_collide_across_regions(self):
        infrastructure, topology, jobs = make_workload(sites=4, jobs=150, seed=11)
        model = JobFailureModel(default_rate=0.3, seed=3)
        execution = follow_trace_execution(shards=3, max_retries=2)
        simulator = Simulator(infrastructure, topology, execution, failure_model=model)
        result = simulator.run([job.copy_for_replay() for job in jobs])
        ids = [job.job_id for job in result.jobs]
        assert len(ids) == len(set(ids))

    def test_verify_mode_passes_on_eligible_workload(self):
        infrastructure, topology, jobs = make_workload(sites=4, jobs=100)
        simulator = Simulator(infrastructure, topology, follow_trace_execution(shards=3))
        result = run_sharded(simulator, jobs, verify=True)
        assert result.metrics.finished_jobs == 100

    @pytest.mark.parametrize("deadline", [5_000.0, 40_000.0, 1e7])
    def test_deadline_matches_single_clock(self, deadline):
        infrastructure, topology, jobs = make_workload(sites=4, jobs=150)
        overrides = {"max_simulation_time": deadline}
        single = Simulator(infrastructure, topology, follow_trace_execution(**overrides))
        expected = single.run([job.copy_for_replay() for job in jobs])

        execution = follow_trace_execution(shards=2, **overrides)
        result = Simulator(infrastructure, topology, execution).run(
            [job.copy_for_replay() for job in jobs]
        )
        assert result.simulated_time == expected.simulated_time
        assert result.pending_jobs == expected.pending_jobs
        assert diff_states(
            comparable_metrics(expected.jobs), comparable_metrics(result.jobs)
        ) == []


class TestRunFailures:
    def test_failing_region_surfaces_traceback(self, monkeypatch):
        import multiprocessing

        coordinator = os.getpid()
        original = Simulator.from_config_payload

        def explode(cls, payload):
            # Only the forked worker fails: its traceback must cross the pipe.
            if os.getpid() != coordinator:
                raise RuntimeError("region exploded")
            return original(payload)

        monkeypatch.setattr(Simulator, "from_config_payload", classmethod(explode))
        infrastructure, topology, jobs = make_workload(sites=4, jobs=40)
        simulator = Simulator(infrastructure, topology, follow_trace_execution(shards=2))
        with pytest.raises(SimulationError) as excinfo:
            simulator.run(jobs)
        message = str(excinfo.value)
        assert "shard worker failed" in message
        assert "Traceback" in message and "region exploded" in message
        assert multiprocessing.active_children() == []

    def test_unpicklable_config_refused(self):
        infrastructure, topology, jobs = make_workload(sites=4, jobs=40)
        model = JobFailureModel(default_rate=0.1, seed=1)
        model.on_failure = lambda job: None  # lambdas do not pickle
        simulator = Simulator(
            infrastructure, topology, follow_trace_execution(shards=2), failure_model=model
        )
        with pytest.raises(SimulationError, match="cannot be shipped to shard workers"):
            simulator.run(jobs)


#: Fingerprint script run under different PYTHONHASHSEED values: builds the
#: grid and workload of a bundled scenario pack, pins every job to a site
#: (round-robin over the sorted names), and prints the canonical metrics of
#: a scalar and a 2-shard run as JSON.
_HASHSEED_SCRIPT = """
import json, sys
from repro.config.execution import ExecutionConfig, MonitoringConfig
from repro.core.simulator import Simulator
from repro.des.sharded import comparable_metrics
from repro.scenarios import get_scenario_pack

pack = get_scenario_pack(sys.argv[1])
infrastructure, topology = pack.grid.build(None)
jobs = pack.workload.build(infrastructure, None)[:120]
site_names = sorted(infrastructure.site_names)
widest = {s.name: max(s.cores_per_host()) for s in infrastructure.sites}
for index, job in enumerate(jobs):
    job.target_site = site_names[index % len(site_names)]
    job.cores = min(job.cores, widest[job.target_site])

def run(shards):
    execution = ExecutionConfig(
        plugin="follow_trace", shards=shards,
        monitoring=MonitoringConfig(enable_events=False, snapshot_interval=0.0),
    )
    simulator = Simulator(infrastructure, topology, execution)
    result = simulator.run([job.copy_for_replay() for job in jobs])
    return comparable_metrics(result.jobs)

print(json.dumps({"single": run(1), "sharded": run(2)}, sort_keys=True))
"""


@pytest.mark.parametrize("pack_name", ["wlcg-baseline", "heavy-tail-stress"])
def test_hashseed_independence_on_bundled_packs(pack_name):
    """Scalar and sharded metrics agree, and are hash-seed independent.

    Two bundled packs' grids/workloads (pinned for shard eligibility), each
    fingerprinted under PYTHONHASHSEED=0 and =1 in fresh interpreters: all
    four fingerprints must be identical -- no set/dict iteration order may
    leak into either engine's arithmetic.
    """
    fingerprints = []
    for hashseed in ("0", "1"):
        env = dict(os.environ)
        env["PYTHONHASHSEED"] = hashseed
        env["PYTHONPATH"] = str(REPO_ROOT / "src") + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.run(
            [sys.executable, "-c", _HASHSEED_SCRIPT, pack_name],
            capture_output=True,
            text=True,
            env=env,
            timeout=600,
        )
        assert proc.returncode == 0, proc.stderr
        fingerprints.append(json.loads(proc.stdout))
    for payload in fingerprints:
        assert diff_states(payload["single"], payload["sharded"]) == []
    assert fingerprints[0] == fingerprints[1]


@pytest.mark.skipif((os.cpu_count() or 1) < 2, reason="needs >= 2 CPUs for a wall-clock win")
def test_sharded_wall_clock_speedup():
    """With real parallel hardware, 2 shards must beat the single clock.

    The acceptance bar is >1x on a million-job workload; this scaled-down
    version (guarded to multi-core machines) checks the engine actually
    overlaps region execution rather than serializing windows.
    """
    import time

    infrastructure, topology, jobs = make_workload(sites=4, jobs=4000, seed=5)

    started = time.perf_counter()
    Simulator(infrastructure, topology, follow_trace_execution()).run(
        [job.copy_for_replay() for job in jobs]
    )
    single_clock = time.perf_counter() - started

    started = time.perf_counter()
    Simulator(infrastructure, topology, follow_trace_execution(shards=2)).run(
        [job.copy_for_replay() for job in jobs]
    )
    sharded = time.perf_counter() - started
    assert sharded < single_clock * 1.5  # generous: CI boxes are noisy


class TestShardedCLI:
    def _write_configs(self, tmp_path):
        from repro.config.loaders import (
            save_execution,
            save_infrastructure,
            save_topology,
        )
        from repro.workload.trace import save_trace

        infrastructure, topology, jobs = make_workload(sites=4, jobs=60)
        paths = {
            "--infrastructure": tmp_path / "infrastructure.json",
            "--topology": tmp_path / "topology.json",
            "--execution": tmp_path / "execution.json",
            "--trace": tmp_path / "trace.csv",
        }
        save_infrastructure(infrastructure, paths["--infrastructure"])
        save_topology(topology, paths["--topology"])
        save_execution(follow_trace_execution(), paths["--execution"])
        save_trace(jobs, paths["--trace"])
        return [arg for flag, path in paths.items() for arg in (flag, str(path))]

    def _run_cli(self, *argv):
        from repro.cli import main

        return main([str(arg) for arg in argv])

    def test_run_with_shards_and_verify(self, tmp_path, capsys):
        base = self._write_configs(tmp_path)
        code = self._run_cli("run", *base, "--shards", "2", "--shards-verify")
        captured = capsys.readouterr()
        assert code == 0
        assert "verified against the single-clock engine" in captured.err
        assert "finished" in captured.out

    def test_verify_without_shards_errors(self, tmp_path, capsys):
        base = self._write_configs(tmp_path)
        code = self._run_cli("run", *base, "--shards-verify")
        assert code == 1
        assert "--shards-verify requires --shards > 1" in capsys.readouterr().err

    def test_sharded_run_rejects_session_flags(self, tmp_path, capsys):
        base = self._write_configs(tmp_path)
        code = self._run_cli("run", *base, "--shards", "2", "--until", "100")
        assert code == 1
        assert "single-clock session" in capsys.readouterr().err

"""Dispatch cost and the free-core counters behind it.

Each site keeps a free-core counter next to its hosts' core pools, and the
main server hands every policy call one live resource view.  These tests
pin the counter to the pools it summarises on every engine path, guard the
cost of a dispatch by counting reads (so they mean the same on any machine),
and record the known scalar/macro divergence of view-reading policies.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.config.execution import ExecutionConfig, MonitoringConfig
from repro.config.infrastructure import InfrastructureConfig, SiteConfig
from repro.core.data_manager import DataManager
from repro.core.simulator import Simulator
from repro.faults.models import JobFailureModel, OutageWindow
from repro.platform.host import Host
from repro.platform.zone import NetZone
from repro.scenarios import ScenarioPack, apply_overrides, get_scenario_pack
from repro.scenarios.runner import _build_simulator
from repro.state import fingerprint_result
from repro.utils.errors import CheckpointError
from repro.workload.generator import SyntheticWorkloadGenerator, WorkloadSpec
from repro.workload.job import Job


def _host_free(site) -> int:
    return sum(host.core_pool.available for host in site.zone.hosts)


# -- the counter equals the pools it summarises ----------------------------------


def _invariant_simulator(macro: bool, staging: str) -> Simulator:
    """A small grid with injected failures, retries and an outage window."""
    infrastructure = InfrastructureConfig(
        sites=[
            SiteConfig(name="A", cores=8, core_speed=1e10, hosts=2),
            SiteConfig(name="B", cores=6, core_speed=5e9, hosts=3),
            SiteConfig(name="C", cores=4, core_speed=8e9, hosts=1),
        ]
    )
    execution = ExecutionConfig(
        plugin="least_loaded",
        macro_batch=macro,
        max_retries=2,
        pending_retry_interval=30.0,
        monitoring=MonitoringConfig(snapshot_interval=0.0),
    )
    simulator = Simulator(
        infrastructure,
        execution=execution,
        enable_data_transfers=staging != "none",
        streaming_io=staging == "streaming",
        failure_model=JobFailureModel(default_rate=0.25, seed=3),
        outages=[OutageWindow(site="A", start=200.0, end=900.0)],
    )
    if staging != "none":
        simulator.on_build(
            lambda sim: sim.data_manager.register_replica("input", "C", 2e9)
        )
    return simulator


def _invariant_jobs(staging: str) -> list:
    infrastructure = InfrastructureConfig(
        sites=[SiteConfig(name=name, cores=4, core_speed=1e10) for name in "ABC"]
    )
    spec = WorkloadSpec(walltime_median=300.0, walltime_sigma=0.5)
    jobs = SyntheticWorkloadGenerator(infrastructure, spec=spec, seed=9).generate(60)
    for job in jobs:
        job.cores = min(job.cores, 3)
        job.target_site = None
        if staging != "none":
            job.input_size = 2e8
            job.attributes["dataset"] = "input"
    return jobs


@pytest.mark.parametrize(
    "macro, staging",
    [
        (False, "none"),
        (True, "none"),  # the macro fast path: completions on the shared lane
        (False, "staged"),
        (False, "streaming"),
        (True, "staged"),
    ],
)
def test_free_core_counter_matches_host_pools_after_every_step(macro, staging):
    simulator = _invariant_simulator(macro, staging)
    session = simulator.session(_invariant_jobs(staging))
    sites = list(simulator.sites.values())
    busiest = {site.name: site.available_cores for site in sites}
    steps = 0
    while session.step():
        steps += 1
        for site in sites:
            assert site.available_cores == _host_free(site), (site.name, session.now)
            busiest[site.name] = min(busiest[site.name], site.available_cores)
    assert steps > 0 and session.done
    # The paths under test were taken: cores were held, jobs failed and were
    # retried, and the outage was served.
    assert all(busiest[site.name] < site.total_cores for site in sites)
    assert simulator.server.retry_jobs
    assert simulator.sites["A"].downtime_seconds > 0
    for site in sites:
        assert site.available_cores == site.total_cores
        assert site.running_jobs == 0


def test_site_snapshot_records_counter_and_host_sum():
    simulator = _invariant_simulator(macro=False, staging="none")
    session = simulator.session(_invariant_jobs("none"))
    session.advance_until(150.0)
    site = simulator.sites["A"]
    state = site.snapshot()
    assert state["available_cores"] == state["host_available_cores"] == _host_free(site)
    assert state["available_cores"] < site.total_cores
    site.restore(state)  # a matching replay passes
    for key in ("available_cores", "host_available_cores"):
        with pytest.raises(CheckpointError, match=key):
            site.restore(dict(state, **{key: state[key] + 1}))


# -- dispatch cost, counted ------------------------------------------------------


def _count_property(monkeypatch, owner: type, attr: str, counts: dict) -> None:
    fget = owner.__dict__[attr].fget
    counts[owner.__name__] = 0

    def getter(obj):
        counts[owner.__name__] += 1
        return fget(obj)

    monkeypatch.setattr(owner, attr, property(getter))


def _run_with_hosts(hosts: int, monkeypatch) -> tuple:
    """Free-core property reads of one run on a grid with ``hosts`` per site."""
    infrastructure = InfrastructureConfig(
        sites=[
            SiteConfig(name=f"S{k}", cores=16 * hosts, core_speed=1e10, hosts=hosts)
            for k in range(6)
        ]
    )
    jobs = SyntheticWorkloadGenerator(
        infrastructure, spec=WorkloadSpec(walltime_median=900.0), seed=4
    ).generate(400)
    execution = ExecutionConfig(
        plugin="least_loaded", monitoring=MonitoringConfig(snapshot_interval=60.0)
    )
    session = Simulator(infrastructure, execution=execution).session(jobs)
    counts: dict = {}
    with monkeypatch.context() as patch:
        # Counted from the first event on: building the platform reads every
        # host once, which is set-up, not dispatch.
        _count_property(patch, Host, "available_cores", counts)
        _count_property(patch, NetZone, "available_cores", counts)
        result = session.advance_to_completion().finalize()
    assert result.metrics.finished_jobs == len(jobs)
    return counts, len(result.assignments)


def test_free_core_reads_per_dispatch_do_not_grow_with_hosts(monkeypatch):
    """Doubling hosts per site leaves host and zone free-core reads unchanged."""
    narrow, dispatched = _run_with_hosts(2, monkeypatch)
    wide, _ = _run_with_hosts(4, monkeypatch)
    assert wide == narrow
    for reads in narrow.values():
        assert reads / dispatched <= 1.0


def _datasets_at_calls(policy: str, monkeypatch) -> int:
    data = get_scenario_pack("cache-ablation").to_dict()
    data.pop("sweep", None)
    data = apply_overrides(data, {"workload.jobs": 80, "execution.plugin": policy})
    simulator, jobs = _build_simulator(ScenarioPack.from_dict(data))
    calls = []
    original = DataManager.datasets_at

    def counting(self, site):
        calls.append(site)
        return original(self, site)

    with monkeypatch.context() as patch:
        patch.setattr(DataManager, "datasets_at", counting)
        simulator.run(jobs)
    return len(calls)


def test_resident_data_is_read_only_by_policies_that_use_it(monkeypatch):
    assert _datasets_at_calls("least_loaded", monkeypatch) == 0
    assert _datasets_at_calls("data_aware", monkeypatch) > 0


# -- the live view ----------------------------------------------------------------


def test_live_view_reads_site_counters_and_keeps_its_identity(small_infrastructure):
    execution = ExecutionConfig(
        plugin="least_loaded", monitoring=MonitoringConfig(snapshot_interval=0.0)
    )
    simulator = Simulator(small_infrastructure, execution=execution)
    session = simulator.session([Job(work=1e13, cores=4) for _ in range(3)])
    view = simulator.server.resource_view()
    session.advance_until(10.0)
    assert simulator.server.resource_view() is view
    assert view.time == 10.0
    for name, site in simulator.sites.items():
        status = view.site(name)
        assert status.available_cores == site.available_cores
        assert status.running_jobs == site.running_jobs
        assert status.assigned_jobs == site.backlog
        assert status.pending_jobs == site.queued_jobs
        assert status.resident_data == frozenset()
    assert view.total_available_cores() == sum(s.available_cores for s in simulator.sites.values())
    assert view.total_available_cores() == 112 - 12


# -- known divergence ---------------------------------------------------------------


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason=(
        "macro lanes diverge from the scalar path under policies that read "
        "running_jobs: the macro fast path counts a job as running when it is "
        "admitted, the scalar path only once its _execute process first runs, "
        "so the next dispatch at the same instant sees a different backlog "
        "(wlcg-baseline at t=0, job 2: BNL running 1 vs 0). Diverges under "
        "panda_dispatcher and backfill from 50 jobs, least_loaded from 200"
    ),
)
def test_macro_lanes_match_scalar_under_panda_dispatcher():
    data = get_scenario_pack("wlcg-baseline").to_dict()
    data.pop("sweep", None)
    data = apply_overrides(data, {"workload.jobs": 50, "execution.plugin": "panda_dispatcher"})
    scalar, jobs = _build_simulator(ScenarioPack.from_dict(data))
    macro = scalar.clone()
    macro.execution = dataclasses.replace(scalar.execution, macro_batch=True)
    fingerprints = [
        fingerprint_result(simulator.run([job.copy_for_replay() for job in jobs]))
        for simulator in (scalar, macro)
    ]
    assert fingerprints[0] == fingerprints[1]

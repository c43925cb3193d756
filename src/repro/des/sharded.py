"""Sharded-clock parallel engine: independent site regions, run and merged.

The single-clock kernel processes every event of the grid on one calendar.
For workloads whose jobs are pinned to sites *a priori* (trace replays under
the ``follow_trace`` policy -- the paper's calibration workloads -- and the
synthetic generators, which stamp every job's ``target_site``), the event
graph decomposes cleanly: nothing that happens at one site can influence
another site's timeline.  This module exploits that structure by
partitioning the sites into ``execution.shards`` *regions*, simulating each
region on its own :class:`~repro.des.core.Environment` in a separate worker
process, and merging the per-region outputs into one
:class:`~repro.core.simulator.SimulationResult`.

Partition, run, merge
---------------------
For every workload :func:`check_shardable` accepts, no event crosses
regions: there is no channel between them, so in conservative parallel
discrete-event terms (Chandy--Misra; Fujimoto, *Parallel and Distributed
Simulation Systems*) the lookahead is infinite and the regions need no
synchronization at all.  A run therefore has three phases:

1. **partition** -- :func:`plan_shards` balances the sites over the
   regions by job count (largest site first, each to the lightest region),
   and each region's configuration is pickled once into a payload;
2. **run** -- each region runs in its own forked worker, which inherits
   its jobs (the coordinator runs the first region itself, on its own job
   objects), pinned to a CPU of its own where there are several: it
   unpickles its payload, advances one session to completion -- which
   honours the ``execution.max_simulation_time`` deadline -- without
   computing metrics, sends back one result and exits;
3. **merge** -- a worker sends back, per workload job, only what the run
   changed (state, site, history, timestamps), plus its retry attempts; the
   coordinator writes those onto its own workload jobs -- which, as in a
   single-clock run, are the caller's ``CREATED`` jobs -- appends the retry
   attempts in canonical order and computes the metrics once, from the
   merged jobs.

Region *k* of *N* mints retry ids ``base+k, base+k+N, ...``: disjoint
congruence classes, so merged outputs never collide.  A region that raises
is reported as ``("error", traceback)`` and surfaces as
:class:`~repro.utils.errors.SimulationError` carrying that traceback.

When shards cannot help
-----------------------
:func:`check_shardable` refuses (with an explanation per problem) whenever
region independence cannot be guaranteed:

* the allocation policy is not pinning (anything but ``follow_trace``), or a
  job lacks a ``target_site`` -- placement would depend on global state;
* a job's core count exceeds its target site's widest host -- the
  single-clock engine parks or fails such jobs against the *global* pending
  machinery;
* data transfers (or streaming I/O / caches) are enabled -- stage-ins share
  WAN links across regions;
* declarative stop conditions are configured -- "first condition to fire"
  is a global race;
* output files are configured -- regions would race on the same paths;
* build hooks are registered -- they cannot be shipped to workers.

Verification
------------
``run_sharded(..., verify=True)`` (surfaced as ``repro run --shards-verify``)
re-runs the workload on a pristine single-clock clone and compares the two
metric sets bit-for-bit via :func:`repro.state.protocol.diff_states`, after
re-ordering both job lists into a canonical engine-independent order (wave
jobs by id, retry attempts by ``(original id, attempt)``).  Any divergence
raises :class:`~repro.utils.errors.SimulationError` listing the differing
fields.
"""

from __future__ import annotations

import gc
import multiprocessing
import os
import pickle
import time as _wallclock
import traceback
from dataclasses import replace
from typing import TYPE_CHECKING, Dict, List, Mapping, Optional, Tuple

from repro.utils.errors import SimulationError

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.simulator import SimulationResult, Simulator
    from repro.workload.job import Job

__all__ = [
    "plan_shards",
    "check_shardable",
    "run_sharded",
]


def plan_shards(
    jobs_per_site: Mapping[str, int], shards: int
) -> Tuple[Tuple[str, ...], ...]:
    """Partition sites into at most ``shards`` regions balanced by job count.

    Sites are placed largest job count first (ties by name), each into the
    region holding the fewest jobs so far (ties: fewer sites, then lower
    index).  The plan depends only on the site-to-count mapping -- never
    on declaration order or hash seeds.  With more shards than sites, the
    empty regions are dropped.
    """
    if shards < 1:
        raise SimulationError(f"shards must be >= 1, got {shards}")
    ordered = sorted(jobs_per_site, key=lambda name: (-jobs_per_site[name], name))
    regions: List[List[str]] = [[] for _ in range(min(shards, len(ordered)))]
    loads = [0] * len(regions)
    for name in ordered:
        k = min(range(len(regions)), key=lambda i: (loads[i], len(regions[i]), i))
        regions[k].append(name)
        loads[k] += jobs_per_site[name]
    return tuple(tuple(sorted(region)) for region in regions)


def check_shardable(simulator: "Simulator", jobs: List["Job"]) -> List[str]:
    """Explain everything that makes this run ineligible for sharding.

    Returns an empty list when the workload decomposes into independent
    regions (see the module docstring for the rules); otherwise one
    human-readable reason per problem.  :func:`run_sharded` raises with the
    joined reasons, so callers can pre-flight eligibility cheaply.
    """
    from repro.plugins.bundled import FollowTracePolicy

    problems: List[str] = []
    site_names = set(simulator.infrastructure.site_names)
    if len(site_names) < 2:
        problems.append("sharding needs at least 2 sites")
    if not isinstance(simulator.policy, FollowTracePolicy):
        problems.append(
            f"policy {simulator.policy.name!r} is not pinning; only "
            "'follow_trace' (jobs pre-assigned to their target_site) "
            "guarantees region independence"
        )
    if simulator.enable_data_transfers:
        problems.append(
            "data transfers share WAN links across regions; disable "
            "enable_data_transfers (and caches/streaming) to shard"
        )
    if simulator._build_hooks:
        problems.append("on_build hooks cannot be shipped to shard workers")
    execution = simulator.execution
    if execution.stop is not None and execution.stop.enabled():
        problems.append(
            "declarative stop conditions race globally; remove execution.stop"
        )
    output = execution.output
    if output.sqlite_path or output.csv_directory or output.ml_dataset:
        problems.append(
            "configured outputs would be written by every region; disable "
            "execution.output for sharded runs"
        )
    widest: Dict[str, int] = {
        site.name: max(site.cores_per_host()) for site in simulator.infrastructure.sites
    }
    unpinned = 0
    too_wide = 0
    for job in jobs:
        target = job.target_site
        if target is None or target not in site_names:
            unpinned += 1
        elif int(job.cores) > widest[target]:
            too_wide += 1
    if unpinned:
        problems.append(
            f"{unpinned} job(s) lack a target_site naming a known site; "
            "placement would depend on global grid state"
        )
    if too_wide:
        problems.append(
            f"{too_wide} job(s) need more cores than their target site's "
            "widest host; their pending/unplaceable handling is global"
        )
    return problems


def _region_execution(execution):
    """The execution config a region worker runs under.

    Single-clock (``shards=1``), no output files, and monitoring muted: the
    merged result recomputes its metrics purely from the jobs, so per-region
    transition rows would be discarded anyway.
    """
    from repro.config.execution import MonitoringConfig, OutputConfig

    return replace(
        execution,
        shards=1,
        monitoring=MonitoringConfig(enable_events=False, snapshot_interval=0.0),
        output=OutputConfig(),
        stop=None,
    )


def _region_payload(
    simulator: "Simulator",
    region_sites: Tuple[str, ...],
    region_index: int,
    shards: int,
    id_base: int,
) -> bytes:
    """One region's configuration, pickled once.

    The bytes double as the shippability check and as the region's private
    copy of its configuration, whichever process runs it.  The region's
    jobs travel separately (see :func:`run_sharded`).
    """
    from repro.config.infrastructure import InfrastructureConfig
    from repro.config.topology import TopologyConfig

    region = set(region_sites)
    topology = simulator.topology
    endpoints = region | {topology.server_zone}
    config = {
        "infrastructure": InfrastructureConfig(
            sites=[
                site
                for site in simulator.infrastructure.sites
                if site.name in region
            ]
        ),
        "topology": TopologyConfig(
            links=[
                link
                for link in topology.links
                if link.source in endpoints and link.destination in endpoints
            ],
            server_zone=topology.server_zone,
            server_bandwidth=topology.server_bandwidth,
            server_latency=topology.server_latency,
            routing_weight=topology.routing_weight,
        ),
        "execution": _region_execution(simulator.execution),
        "policy": None if simulator._policy_spec is not None else simulator.policy,
        "enable_data_transfers": False,
        "data_cache": None,
        "streaming_io": False,
        "parallel_efficiency": simulator.parallel_efficiency,
        "failure_model": simulator.failure_model,
        "outages": [w for w in simulator.outages if w.site in region],
        "policy_initial": simulator._policy_initial,
    }
    payload = {
        "config": config,
        "region_index": region_index,
        "shards": shards,
        "id_base": id_base,
    }
    try:
        return pickle.dumps(payload, protocol=4)
    except Exception as exc:
        raise SimulationError(
            "simulator configuration cannot be shipped to shard workers "
            f"(not picklable: {exc})"
        ) from exc


def _run_region(blob: bytes, jobs: List["Job"], ship: bool) -> Tuple[str, object]:
    """Run one region's ``jobs`` to completion from its pickled payload.

    The jobs run in place.  A worker's region (``ship=True``) runs its own
    copy of them and reports their :func:`_outcome` tuples; the
    coordinator's own region runs the coordinator's objects and reports no
    outcomes (``None``).

    Returns ``("result", data)``, or ``("error", traceback)`` when anything
    raises, so a failing region is reported the same way in the
    coordinator and in a worker process.
    """
    try:
        from repro.core.simulator import Simulator

        payload = pickle.loads(blob)
        simulator = Simulator.from_config_payload(payload["config"])

        def _pin_allocator(sim: "Simulator") -> None:
            # Region k of N mints ids base+k, base+k+N, ... (disjoint classes).
            sim.job_ids.reset(payload["id_base"] + payload["region_index"])
            sim.job_ids.step = payload["shards"]

        simulator.on_build(_pin_allocator)
        # No finalize(): the coordinator computes the metrics of the merge.
        session = simulator.session(jobs).advance_to_completion()
        server = simulator.server
        return (
            "result",
            {
                "outcomes": [_outcome(job) for job in session.jobs] if ship else None,
                "retries": server.retry_jobs,
                "simulated_time": session.now,
                "pending_jobs": len(server.pending),
                "assignments": server.assignments,
            },
        )
    except Exception:
        return ("error", traceback.format_exc())


def _outcome(job: "Job") -> tuple:
    """What a run changed on one workload job, in plain values.

    Shipping these tuples instead of whole :class:`~repro.workload.job.Job`
    objects keeps a region's reply small; :func:`_apply_outcome` writes them
    onto the coordinator's own copy of the job.
    """
    return (
        job.state.value,
        job.assigned_site,
        [(time, state.value) for time, state in job.state_history],
        job.assigned_time,
        job.start_time,
        job.end_time,
        job.failure_reason,
        job.attributes,
    )


def _apply_outcome(job: "Job", outcome: tuple, states: Mapping[str, object]) -> None:
    """Write a region's :func:`_outcome` for ``job`` onto ``job``."""
    (
        state,
        job.assigned_site,
        history,
        job.assigned_time,
        job.start_time,
        job.end_time,
        job.failure_reason,
        job.attributes,
    ) = outcome
    job.state = states[state]
    job.state_history = [(time, states[value]) for time, value in history]


def _region_cpus(count: int) -> List[Optional[int]]:
    """The CPU each region is pinned to, or ``None`` for no pinning.

    Round-robin over the CPUs this process may use.  Left alone, the
    scheduler can keep a freshly forked worker on its parent's CPU for the
    whole of a short run (observed on a 2-vCPU KVM guest), so two regions
    time-share one core while the other idles; explicit placement spreads
    them.
    """
    cpus = sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else []
    if len(cpus) < 2:
        return [None] * count
    return [cpus[k % len(cpus)] for k in range(count)]


def _region_worker(blob: bytes, jobs: List["Job"], conn, cpu: Optional[int]) -> None:
    """Worker-process entry point: run one region, send its outcome, exit."""
    if cpu is not None:
        os.sched_setaffinity(0, {cpu})
    try:
        conn.send(_run_region(blob, jobs, ship=True))
    finally:
        conn.close()


def _receive(conn) -> Tuple[str, object]:
    """One worker's outcome; a worker that died silently counts as an error."""
    try:
        return conn.recv()
    except EOFError:
        return ("error", "shard worker exited without sending a result")


def _unwrap(outcome: Tuple[str, object]) -> dict:
    """A region's result data, or :class:`SimulationError` with its traceback."""
    kind, data = outcome
    if kind == "error":
        raise SimulationError(f"shard worker failed:\n{data}")
    return data


def _canonical_order(jobs: List["Job"]) -> List["Job"]:
    """Engine-independent job order: by (original id, attempt).

    Retry attempts carry ``retry_of``/``attempt`` attributes and sort right
    after their original; runtime-minted attempt ids differ between the
    single-clock and sharded engines (and between shard counts), so ids
    alone cannot anchor a cross-engine comparison.
    """
    return sorted(
        jobs,
        key=lambda job: (
            int(job.attributes.get("retry_of", job.job_id)),
            int(job.attributes.get("attempt", 1)),
        ),
    )


def comparable_metrics(jobs: List["Job"]) -> dict:
    """Metrics dict for cross-engine comparison (canonical job order).

    Re-derives the metrics from the jobs alone -- no collector, so the
    ``transitions`` summary (which sharded runs do not retain) never
    contributes -- after canonical re-ordering, making the floating-point
    reductions bit-identical whenever the underlying jobs are.
    """
    from repro.core.metrics import compute_metrics

    data = compute_metrics(_canonical_order(jobs)).to_dict()
    data.pop("transitions", None)
    return data


def run_sharded(
    simulator: "Simulator",
    jobs: List["Job"],
    verify: bool = False,
) -> "SimulationResult":
    """Run ``jobs`` across ``execution.shards`` clock regions and merge.

    The entry point behind ``Simulator.run()`` when ``execution.shards > 1``
    (and ``repro run --shards``).  Raises
    :class:`~repro.utils.errors.SimulationError` with every eligibility
    problem when the workload cannot be sharded (see
    :func:`check_shardable`).  With ``verify=True`` the merged metrics are
    additionally cross-checked bit-for-bit against a pristine single-clock
    run of the same workload.
    """
    from repro.workload.job import JobState

    started = _wallclock.perf_counter()
    execution = simulator.execution
    shards = int(execution.shards)
    if shards < 2:
        raise SimulationError("run_sharded needs execution.shards >= 2")
    problems = check_shardable(simulator, jobs)
    if problems:
        raise SimulationError(
            "workload is not shard-eligible: " + "; ".join(problems)
        )
    # Mirror the session contract: terminal inputs are replayed as copies.
    jobs = [
        job if job.state is JobState.CREATED else job.copy_for_replay()
        for job in jobs
    ]
    jobs_per_site = dict.fromkeys(simulator.infrastructure.site_names, 0)
    for job in jobs:
        jobs_per_site[job.target_site] += 1
    regions = plan_shards(jobs_per_site, shards)
    if len(regions) < shards:
        simulator.logger.info(
            "sharded",
            f"only {len(regions)} region(s) for {shards} shards "
            f"({len(jobs_per_site)} sites)",
        )

    region_of = {site: k for k, names in enumerate(regions) for site in names}
    region_jobs: List[List["Job"]] = [[] for _ in regions]
    for job in jobs:
        region_jobs[region_of[job.target_site]].append(job)
    id_base = max((int(job.job_id) for job in jobs), default=0) + 1
    blobs = [
        _region_payload(simulator, names, k, len(regions), id_base)
        for k, names in enumerate(regions)
    ]

    methods = multiprocessing.get_all_start_methods()
    context = multiprocessing.get_context("fork" if "fork" in methods else "spawn")
    cpus = _region_cpus(len(blobs))
    allowed = os.sched_getaffinity(0) if cpus[0] is not None else None
    # Move every live object out of the collector's reach until the merged
    # result is built: children then never touch (and copy) the parent's
    # pages on a gc pass, and the coordinator's own collections during the
    # run and the merge scan only what this call allocated.
    gc.freeze()
    try:
        workers = []
        try:
            # A forked worker inherits its jobs (a private copy-on-write copy);
            # under spawn the arguments are pickled.
            for blob, region, cpu in zip(blobs[1:], region_jobs[1:], cpus[1:]):
                receiver, sender = context.Pipe(duplex=False)
                process = context.Process(
                    target=_region_worker, args=(blob, region, sender, cpu), daemon=True
                )
                process.start()
                sender.close()
                workers.append((process, receiver))
            if allowed is not None:
                os.sched_setaffinity(0, {cpus[0]})
            outcomes = [_run_region(blobs[0], region_jobs[0], ship=False)]
            outcomes.extend(_receive(conn) for _, conn in workers)
        finally:
            for process, conn in workers:
                conn.close()
                process.join(timeout=10)
                if process.is_alive():  # pragma: no cover - crash cleanup
                    process.terminate()
                    process.join()
            if allowed is not None:
                os.sched_setaffinity(0, allowed)
        result = _merge(simulator, jobs, region_jobs, outcomes, started)
    finally:
        gc.unfreeze()
    if verify:
        _verify_against_single_clock(simulator, jobs, result)
    return result


def _merge(
    simulator: "Simulator",
    jobs: List["Job"],
    region_jobs: List[List["Job"]],
    outcomes: List[Tuple[str, object]],
    started: float,
) -> "SimulationResult":
    """One result from the regions' outcomes (see the module docstring)."""
    from repro.core.metrics import compute_metrics
    from repro.core.simulator import SimulationResult
    from repro.des import Environment
    from repro.monitoring.collector import MonitoringCollector
    from repro.platform.builder import build_platform
    from repro.workload.job import JobState

    region_results = [_unwrap(outcome) for outcome in outcomes]
    states = {state.value: state for state in JobState}
    retries: List["Job"] = []
    assignments: Dict[int, str] = {}
    pending_jobs = 0
    simulated_time = 0.0
    for region, data in zip(region_jobs, region_results):
        for job, outcome in zip(region, data["outcomes"] or ()):
            _apply_outcome(job, outcome, states)
        retries.extend(data["retries"])
        assignments.update(data["assignments"])
        pending_jobs += int(data["pending_jobs"])
        simulated_time = max(simulated_time, float(data["simulated_time"]))
    all_jobs = jobs + _canonical_order(retries)

    metrics = compute_metrics(all_jobs)
    platform = build_platform(Environment(), simulator.infrastructure, simulator.topology)
    return SimulationResult(
        jobs=all_jobs,
        metrics=metrics,
        collector=MonitoringCollector(),
        platform=platform,
        simulated_time=simulated_time,
        wallclock_seconds=_wallclock.perf_counter() - started,
        pending_jobs=pending_jobs,
        assignments=assignments,
        stopped_reason=None,
    )


def _verify_against_single_clock(
    simulator: "Simulator", jobs: List["Job"], result: "SimulationResult"
) -> None:
    """Assert the merged metrics equal a pristine single-clock run's.

    Uses the checkpoint machinery's :func:`~repro.state.protocol.diff_states`
    for the comparison, so a mismatch reports every divergent field (exactly
    as a failed checkpoint replay would).
    """
    from repro.state.protocol import diff_states

    reference = simulator.clone()
    reference.execution = _region_execution(simulator.execution)
    reference_result = reference.run([job.copy_for_replay() for job in jobs])
    expected = comparable_metrics(reference_result.jobs)
    actual = comparable_metrics(result.jobs)
    diffs = diff_states(expected, actual)
    if diffs:
        raise SimulationError(
            "sharded run diverged from the single-clock engine: "
            + "; ".join(diffs)
        )

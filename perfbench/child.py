"""Fresh-process factory: import the program once, run each request in a fork.

``run.py`` starts this script and writes one JSON request per line to its
standard input.  For each request the script forks; the forked child runs
one pack and sends back one JSON report, which the script prints as one
line on its standard output, with the child's wall time added.

Every run therefore gets a process of its own whose program state is the
state right after import: no job was ever built in the parent.  That
matters because auto-assigned job ids come from a process-global counter,
so a second build in one process shifts them, and the result fingerprint
with them (see README.md).  Forking also keeps the interpreter start and
the program's import, about two seconds, out of every repeat.

A request names a workload and either a seed and a job count (in-process
workloads) or a pack index (service packs).  With ``"trace": 1`` the child
wraps the layer entry points first (``spans.py``) and reports their span
totals.  With ``"checkpoint": 1`` it instead times
``SimulationSession.checkpoint()`` at the service's cadence.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import traceback
from time import perf_counter
from typing import Callable, Optional

import workloads
from spans import Tracer

# The program is imported here, in the parent, before any fork.
import repro.service  # noqa: F401  (service packs are built from its tiny_pack)
from repro.scenarios import ScenarioPack
from repro.scenarios.runner import _build_simulator
from repro.state import fingerprint_result


def _stats(result, simulator) -> dict:
    """The simulated statistics a speed-only change must leave identical."""
    manager = simulator.data_manager
    caches = list(manager.cache_stats().values()) if manager is not None else []
    metrics = result.metrics
    return {
        "finished_jobs": metrics.finished_jobs,
        "failed_jobs": metrics.failed_jobs,
        "makespan": metrics.makespan,
        "cache_hits": sum(stats.hits for stats in caches),
        "cache_misses": sum(stats.misses for stats in caches),
        "cache_evictions": sum(stats.evictions for stats in caches),
    }


def run_pack(load: Callable[[], ScenarioPack], tracer: Optional[Tracer]) -> dict:
    """Load, build and run one pack; return its timings, fingerprint and stats."""
    started = perf_counter()
    pack = load()
    loaded = perf_counter()
    simulator, jobs = _build_simulator(pack)
    if tracer is not None:
        tracer.wrap(type(simulator.policy), "assign_job", "plugins.assign_job")
    built = perf_counter()
    session = simulator.session(jobs)
    ready = perf_counter()

    def drive():
        return session.advance_to_completion().finalize()

    result = tracer.call("des", drive) if tracer is not None else drive()
    finished = perf_counter()
    return {
        "fingerprint": fingerprint_result(result),
        "stats": _stats(result, simulator),
        "jobs": len(jobs),
        "load_s": loaded - started,
        "build_s": built - loaded,
        "session_s": ready - built,
        "setup_s": ready - started,
        "run_s": finished - ready,
    }


def checkpoint_costs(load: Callable[[], ScenarioPack]) -> dict:
    """Seconds and bytes of each ``checkpoint()`` at the service's cadence.

    Mirrors the service worker's loop: advance one chunk, and checkpoint
    unless the workload drained inside it.
    """
    pack = load()
    extra = {"scenario_pack": pack.to_dict(), "service_session": "perfbench"}
    simulator, jobs = _build_simulator(pack)
    session = simulator.session(jobs)
    seconds, sizes = [], []
    while True:
        session.advance_for(workloads.CHECKPOINT_EVERY)
        if session.done:
            break
        started = perf_counter()
        blob = session.checkpoint(extra=extra)
        seconds.append(perf_counter() - started)
        sizes.append(len(blob))
    return {"checkpoint_s": seconds, "checkpoint_bytes": sizes}


def handle(request: dict) -> dict:
    """Run one request (in the forked child) and return its report."""
    workload = request["workload"]

    def load() -> ScenarioPack:
        if workload == workloads.SERVICE:
            return ScenarioPack.from_dict(workloads.service_pack(int(request["pack"])))
        data = workloads.in_process_pack(workload, int(request["seed"]), int(request["jobs"]))
        return ScenarioPack.from_dict(data)

    if request.get("checkpoint"):
        return checkpoint_costs(load)
    tracer = None
    if request.get("trace"):
        tracer = Tracer()
        tracer.install()
    report = run_pack(load, tracer)
    if tracer is not None:
        report["trace"] = tracer.raw()
    # ru_maxrss is in KiB on Linux.
    report["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return report


def fork_and_run(request: dict) -> dict:
    """Run ``request`` in a forked child; return its report plus wall time."""
    read_fd, write_fd = os.pipe()
    started = perf_counter()
    pid = os.fork()
    if pid == 0:
        os.close(read_fd)
        code = 0
        try:
            payload = json.dumps(handle(request))
        except BaseException:  # the child must report, then exit
            payload = json.dumps({"error": traceback.format_exc()})
            code = 1
        with os.fdopen(write_fd, "w") as pipe:
            pipe.write(payload)
        os._exit(code)
    os.close(write_fd)
    with os.fdopen(read_fd) as pipe:
        payload = pipe.read()
    os.waitpid(pid, 0)
    report = json.loads(payload) if payload else {"error": "child died without a report"}
    report["wall_s"] = perf_counter() - started
    return report


def main() -> int:
    for line in sys.stdin:
        if line.strip():
            print(json.dumps(fork_and_run(json.loads(line))), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

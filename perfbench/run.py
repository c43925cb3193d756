#!/usr/bin/env python3
"""CGSim repository benchmark: full-stack throughput and latency, checked.

Run from the root of a checkout::

    python3 perfbench/run.py --workload wlcg_dispatch --seed 0 --seconds 30 --trace 0

Workloads (README.md says why each was chosen):

* ``wlcg_dispatch`` -- the ``wlcg-baseline`` pack, one run, dispatch-bound;
* ``data_cache`` -- the ``cache-ablation`` pack, one LRU run, data-bound;
* ``service_sessions`` -- a closed loop of tiny packs through ``repro.service``.

Every in-process repeat runs in a fresh child process (``child.py``).  The
service runs in its own process (``serve.py``).  With ``--trace 0`` the last
line of standard output is a JSON object holding every end-to-end metric;
with ``--trace 1`` it holds every per-layer metric instead.  Every result is
checked: against ``golden.json`` at the default seed, otherwise against the
other repeats of the same run.  A mismatch counts as a failed operation and
the exit code is 1.  Earlier lines are a human-readable account, starting
with the machine facts; the full record, raw samples included, is also
written to ``.perfbench/results/``.
"""

from __future__ import annotations

import argparse
import hashlib
import http.client
import itertools
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"

sys.path.insert(0, str(HERE))
import workloads  # noqa: E402

END_TO_END = {
    "jobs_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "sessions_per_s": "1/s",
    "session_p50_ms": "ms",
    "session_p90_ms": "ms",
}
PER_LAYER = {
    "core.server.resource_view.calls": "count",
    "core.server.resource_view.self_us_per_job": "us",
    "platform.zone.available_cores.calls_per_job": "calls/job",
    "plugins.assign_job.self_us_per_job": "us",
    "core.data_manager.datasets_at.calls": "count",
    "core.data_manager.datasets_at.self_us_per_job": "us",
    "core.data_manager.stage_in.calls": "count",
    "core.data_manager.stage_out.calls": "count",
    "platform.network.transfer.calls": "count",
    "platform.network.transfer.self_us_per_call": "us",
    "data.cache.hits": "count",
    "data.cache.misses": "count",
    "data.cache.evictions": "count",
    "monitoring.record_transition.calls": "count",
    "monitoring.record_transition.self_us_per_job": "us",
    "core.session.finalize_ms": "ms",
    "scenarios.load_ms": "ms",
    "scenarios.build_ms": "ms",
    "core.simulator.build_ms": "ms",
    "des.self_us_per_job": "us",
    "service.submit_ms": "ms",
    "service.queue_wait_ms": "ms",
    "service.run_ms": "ms",
    "service.checkpoints_per_session": "count",
    "service.attempts_per_session": "count",
    "service.store_bytes_per_session": "bytes",
    "state.checkpoint_ms": "ms",
    "state.blob_bytes": "bytes",
    "trace.overhead": "ratio",
    "trace.base_jobs_per_s": "1/s",
}

#: Untraced repeats of an in-process run, at the least.
MIN_REPEATS = 3
#: Untraced and traced repeats each of a traced in-process run, at the least.
MIN_TRACED = 2
#: Service lifetimes per run: set-up is timed once per lifetime.
SERVICE_SEGMENTS = 3
#: Latency samples of an untraced service run, at the least: the nearest-rank
#: p90 of 100 samples has ten samples beyond it.
MIN_LATENCY_SAMPLES = 100
#: Service packs run traced, each in its own fork, for the per-layer figures.
TRACED_PACKS = 64
#: Upper bound on any one child process or request, in seconds.
CHILD_TIMEOUT = 120.0
#: Latency of a session that failed or gave a wrong result: the request
#: timeout, so that it misses every latency limit and stays a finite number.
FAILED_LATENCY_S = CHILD_TIMEOUT


class BenchError(RuntimeError):
    """The benchmark could not run (as opposed to a wrong result)."""


# -- helpers -------------------------------------------------------------------


def nearest_rank(values: List[float], q: float) -> float:
    """The nearest-rank ``q`` quantile (an observed value, never interpolated)."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def median_or_zero(values) -> float:
    """The median, or 0 when there is nothing to take it of."""
    values = list(values)
    return statistics.median(values) if values else 0.0


def child_env() -> Dict[str, str]:
    """Environment of every process the benchmark starts: program from ``src``."""
    tmp = WORK / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(SRC), str(HERE)])
    env["TMPDIR"] = str(tmp)
    return env


class Zygote:
    """A ``child.py`` process: each request runs in a fresh fork of it."""

    def __init__(self) -> None:
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "child.py")],
            env=child_env(), stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )

    def run(self, request: dict) -> dict:
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise BenchError(f"child.py exited ({self.proc.wait()}) on {request}")
        report = json.loads(line)
        if "error" in report:
            raise BenchError(f"run {request} failed:\n{report['error']}")
        return report

    def close(self) -> None:
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=CHILD_TIMEOUT)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()


def on_zygotes(count: int, work: Callable[[int, Zygote], None]) -> None:
    """Call ``work(k, zygote)`` for ``count`` zygotes, each in a thread of its own."""
    zygotes = [Zygote() for _ in range(count)]
    errors: List[BaseException] = []

    def target(k: int) -> None:
        try:
            work(k, zygotes[k])
        except Exception as exc:  # re-raised below, in the calling thread
            errors.append(exc)

    threads = [threading.Thread(target=target, args=(k,)) for k in range(count)]
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
    finally:
        for zygote in zygotes:
            zygote.close()
    if errors:
        raise errors[0]


def run_parallel(requests: List[dict]) -> List[dict]:
    """Run requests on one zygote per CPU the service would use; keep order."""
    reports: List[Optional[dict]] = [None] * len(requests)

    def work(k: int, zygote: Zygote) -> None:
        for index in range(k, len(requests), workloads.SERVICE_WORKERS):
            reports[index] = zygote.run(requests[index])

    on_zygotes(workloads.SERVICE_WORKERS, work)
    return reports


def result_key(report: dict) -> dict:
    """What two runs of the same inputs must agree on."""
    return {"fingerprint": report["fingerprint"], **report["stats"]}


def results_digest(reports: List[dict]) -> str:
    """One sha256 over the result keys of many runs, in order."""
    canonical = json.dumps([result_key(report) for report in reports], sort_keys=True)
    return hashlib.sha256(canonical.encode()).hexdigest()


def layer_metrics(reports: List[dict]) -> Dict[str, float]:
    """Per-layer figures summed over traced runs; counts are per run."""
    spans: Dict[str, List[float]] = {}
    counts: Dict[str, int] = {}
    for report in reports:
        for name, values in report["trace"]["spans"].items():
            total = spans.setdefault(name, [0, 0.0, 0.0])
            for k, value in enumerate(values):
                total[k] += value
        for name, count in report["trace"]["counts"].items():
            counts[name] = counts.get(name, 0) + count
    runs = len(reports)
    jobs = sum(report["jobs"] for report in reports)
    stats = reports[0]["stats"]

    def per_run_ms(key: str) -> float:
        return sum(report[key] for report in reports) / runs * 1e3

    def calls(name: str) -> float:
        return spans.get(name, [0, 0.0, 0.0])[0] / runs

    def self_us_per_job(name: str) -> float:
        return spans.get(name, [0, 0.0, 0.0])[1] / jobs * 1e6

    transfer = spans.get("platform.network.transfer", [0, 0.0, 0.0])
    finalize = spans.get("core.session.finalize", [0, 0.0, 0.0])
    return {
        "core.server.resource_view.calls": calls("core.server.resource_view"),
        "core.server.resource_view.self_us_per_job": self_us_per_job("core.server.resource_view"),
        "platform.zone.available_cores.calls_per_job":
            counts.get("platform.zone.available_cores", 0) / jobs,
        "plugins.assign_job.self_us_per_job": self_us_per_job("plugins.assign_job"),
        "core.data_manager.datasets_at.calls": calls("core.data_manager.datasets_at"),
        "core.data_manager.datasets_at.self_us_per_job":
            self_us_per_job("core.data_manager.datasets_at"),
        "core.data_manager.stage_in.calls": calls("core.data_manager.stage_in"),
        "core.data_manager.stage_out.calls": calls("core.data_manager.stage_out"),
        "platform.network.transfer.calls": transfer[0] / runs,
        "platform.network.transfer.self_us_per_call":
            transfer[1] / transfer[0] * 1e6 if transfer[0] else 0.0,
        "data.cache.hits": stats["cache_hits"],
        "data.cache.misses": stats["cache_misses"],
        "data.cache.evictions": stats["cache_evictions"],
        "monitoring.record_transition.calls": calls("monitoring.record_transition"),
        "monitoring.record_transition.self_us_per_job":
            self_us_per_job("monitoring.record_transition"),
        "core.session.finalize_ms": finalize[2] / runs * 1e3,
        "scenarios.load_ms": per_run_ms("load_s"),
        "scenarios.build_ms": per_run_ms("build_s"),
        "core.simulator.build_ms": per_run_ms("session_s"),
        "des.self_us_per_job": self_us_per_job("des"),
    }


def machine_facts() -> dict:
    """Where the figures were measured; stored with every result."""
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "commit": git_commit(),
    }


def git_commit() -> str:
    """HEAD of the checkout, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.is_file():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


class Outcome:
    """What one run measured: metrics, operation counts and raw samples."""

    def __init__(self) -> None:
        self.end_to_end: Dict[str, float] = {}
        self.layers: Dict[str, float] = {}
        self.attempted = 0
        self.failed = 0
        self.notes: List[str] = []
        self.samples: Dict[str, object] = {}

    def check(self, what: str, got, want) -> None:
        self.attempted += 1
        if got != want:
            self.failed += 1
            self.notes.append(f"MISMATCH {what}: got {got}, want {want}")


# -- in-process workloads -------------------------------------------------------


def run_in_process(args: argparse.Namespace, golden: dict) -> Outcome:
    jobs = args.jobs or workloads.IN_PROCESS[args.workload][1]
    request = {"workload": args.workload, "seed": args.seed, "jobs": jobs}
    min_plain = MIN_TRACED if args.trace else MIN_REPEATS
    plain: List[dict] = []
    traced: List[dict] = []
    lock = threading.Lock()

    def client(k: int, zygote: Zygote) -> None:
        done = {False: 0, True: 0}  # this client's untraced and traced repeats
        while True:
            with lock:
                if (time.perf_counter() >= deadline and len(plain) >= min_plain
                        and (not args.trace or len(traced) >= MIN_TRACED)):
                    return
            # A traced run alternates untraced and traced repeats.
            trace_this = bool(args.trace) and done[True] < done[False]
            report = zygote.run({**request, "trace": int(trace_this)})
            report["ended_s"] = time.perf_counter()
            done[trace_this] += 1
            with lock:
                (traced if trace_this else plain).append(report)

    deadline = time.perf_counter() + args.seconds
    on_zygotes(workloads.BATCH_CLIENTS, client)

    outcome = Outcome()
    entry = golden.get(args.workload, {})
    if args.seed == workloads.DEFAULT_SEED and entry.get("jobs") == jobs:
        reference = {key: value for key, value in entry.items() if key != "jobs"}
        against = "golden"
    else:
        reference = result_key(plain[0])
        against = "first repeat"
    for index, report in enumerate(plain + traced):
        outcome.check(f"repeat {index} vs {against}", result_key(report), reference)
    ok = [result_key(report) == reference for report in plain]

    throughput = [report["jobs"] / report["run_s"] for report in plain]
    # From the first repeat's fork to the last one's report, so that the
    # zygotes' start-up is not counted.
    reports = plain + traced
    loop_s = (max(report["ended_s"] for report in reports)
              - min(report["ended_s"] - report["wall_s"] for report in reports))
    # A session that gave a wrong result misses every latency limit.
    walls = [report["wall_s"] if good else FAILED_LATENCY_S for report, good in zip(plain, ok)]
    outcome.end_to_end = {
        "jobs_per_s": statistics.median(throughput),
        "setup_s": statistics.median(report["setup_s"] for report in plain),
        "peak_rss_mb": statistics.median(report["peak_rss_mb"] for report in plain),
        "sessions_per_s": (len(reports) - outcome.failed) / loop_s,
        "session_p50_ms": statistics.median(walls) * 1e3,
        "session_p90_ms": nearest_rank(walls, 0.9) * 1e3,
    }
    outcome.notes.append(
        f"{len(plain)} untraced repeats of {jobs} jobs from {workloads.BATCH_CLIENTS} "
        f"closed-loop clients; session latency = one repeat's wall time in its "
        f"forked process, n={len(walls)}"
    )
    outcome.notes.append(f"result {result_key(plain[0])}")
    if args.trace:
        per_repeat = [layer_metrics([report]) for report in traced]
        outcome.layers = {
            name: statistics.median(layers[name] for layers in per_repeat)
            for name in per_repeat[0]
        }
        # Layers this workload does not exercise.
        for name in PER_LAYER:
            if name.startswith(("service.", "state.")):
                outcome.layers[name] = 0.0
        traced_throughput = statistics.median(
            report["jobs"] / report["run_s"] for report in traced
        )
        outcome.layers["trace.overhead"] = outcome.end_to_end["jobs_per_s"] / traced_throughput
        outcome.layers["trace.base_jobs_per_s"] = outcome.end_to_end["jobs_per_s"]
        outcome.notes.append(f"{len(traced)} traced repeats")
    outcome.samples = {"plain": plain, "traced": traced}
    return outcome


# -- service workload --------------------------------------------------------------


def one_session(client, pack: dict, expected: str, traced: bool) -> dict:
    """Submit one pack, wait for its terminal state, check its result."""
    from repro.service.models import ServiceError

    sample = {"ok": False, "latency_s": FAILED_LATENCY_S, "jobs": pack["workload"]["jobs"]}
    started = time.perf_counter()
    try:
        view = client.submit(pack)
        submitted = time.perf_counter()
        if traced:
            client.wait(view["id"], "running,terminal", timeout=CHILD_TIMEOUT)
            running = time.perf_counter()
        final = client.wait(view["id"], "terminal", timeout=CHILD_TIMEOUT)
        done = time.perf_counter()
    except (ServiceError, OSError, http.client.HTTPException) as exc:
        sample["error"] = f"{type(exc).__name__}: {exc}"
        return sample
    sample.update(
        state=final["state"],
        fingerprint=final["fingerprint"],
        attempts=final["attempts"],
        checkpoints=final["checkpoints"],
    )
    sample["ok"] = (
        final["state"] == "done"
        and final["fingerprint"] == expected
        and final["attempts"] == 1
    )
    if sample["ok"]:
        sample["latency_s"] = done - started
    if traced:
        sample.update(
            submit_s=submitted - started,
            queue_wait_s=running - submitted,
            run_s=done - running,
        )
    return sample


def closed_loop(client, packs: List[dict], expected: List[str], order,
                seconds: float, traced: bool, min_samples: int) -> dict:
    """Each client thread submits a pack and waits for it, until time is up.

    ``order`` yields pack indices and is shared by every service lifetime of
    the run, so the clients go on where the last lifetime stopped.
    """
    lock = threading.Lock()
    samples: List[dict] = []
    deadline = time.perf_counter() + seconds

    def next_pack() -> Optional[int]:
        with lock:
            if time.perf_counter() >= deadline and len(samples) >= min_samples:
                return None
            return next(order)

    def client_loop() -> None:
        while True:
            index = next_pack()
            if index is None:
                return
            sample = one_session(client, packs[index], expected[index], traced)
            sample["pack"] = index
            with lock:
                samples.append(sample)

    threads = [
        threading.Thread(target=client_loop, daemon=True)
        for _ in range(workloads.SERVICE_CLIENTS)
    ]
    started = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(seconds + 2 * CHILD_TIMEOUT)
        if thread.is_alive():
            raise BenchError("a client thread did not finish")
    return {"samples": samples, "loop_s": time.perf_counter() - started, "traced": traced}


def stop_server(proc: subprocess.Popen) -> str:
    """Close the service's standard input, wait for it to drain and exit.

    ``serve.py`` stops at end of input, so it also stops if this process
    dies.  Returns the service's standard output.
    """
    try:
        stdout, _ = proc.communicate(timeout=CHILD_TIMEOUT)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError("the service did not shut down") from None
    return stdout


def service_segment(index: int, packs: List[dict], expected: List[str], order,
                    seconds: float, traced: bool, min_samples: int) -> dict:
    """One service lifetime: start it, time set-up, run the loop, stop it."""
    from repro.service import ServiceClient

    store = WORK / "store" / str(index)
    shutil.rmtree(store, ignore_errors=True)
    started = time.perf_counter()
    proc = subprocess.Popen(
        [
            sys.executable, str(HERE / "serve.py"),
            "--workers", str(workloads.SERVICE_WORKERS),
            "--checkpoint-every", str(workloads.CHECKPOINT_EVERY),
            "--store-root", str(store),
        ],
        env=child_env(), stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
    )
    try:
        line = proc.stdout.readline().split()
        if len(line) != 2 or line[0] != "ready":
            raise BenchError(f"the service did not start (said {line!r})")
        setup_s = time.perf_counter() - started
        client = ServiceClient("127.0.0.1", int(line[1]), timeout=CHILD_TIMEOUT)
        segment = closed_loop(client, packs, expected, order, seconds, traced, min_samples)
    finally:
        stdout = stop_server(proc)
    if proc.returncode != 0:
        raise BenchError(f"the service exited with {proc.returncode}")
    report = json.loads(stdout.strip().splitlines()[-1])
    segment.update(
        setup_s=setup_s,
        peak_rss_mb=report["worker_peak_rss_mb"],
        sessions=report["sessions"],
        store_bytes=sum(f.stat().st_size for f in store.rglob("*") if f.is_file()),
    )
    shutil.rmtree(store, ignore_errors=True)
    return segment


def run_service(args: argparse.Namespace, golden: dict) -> Outcome:
    outcome = Outcome()
    count = args.packs or workloads.SERVICE_PACKS
    packs = [workloads.service_pack(index) for index in range(count)]
    requests = [{"workload": workloads.SERVICE, "pack": index} for index in range(count)]
    # Each pack run directly, each in a fresh process, is the reference.
    direct = run_parallel(requests)
    expected = [report["fingerprint"] for report in direct]
    entry = golden.get(workloads.SERVICE, {})
    if entry.get("packs") == count:
        outcome.check("digest of the direct runs vs golden",
                      results_digest(direct), entry["digest"])
    else:
        outcome.notes.append(f"no golden digest for {count} packs")
    tracers: List[dict] = []
    checkpoints: List[dict] = []
    if args.trace:
        # Checkpoints are timed in forks of their own, so that every build
        # starts from job id 1, as in the service's workers.
        chosen = requests[:TRACED_PACKS]
        reports = run_parallel([{**request, "trace": 1} for request in chosen]
                               + [{**request, "checkpoint": 1} for request in chosen])
        tracers, checkpoints = reports[:len(chosen)], reports[len(chosen):]
        for index, report in enumerate(tracers):
            outcome.check(f"traced run of pack {index} vs direct run",
                          result_key(report), result_key(direct[index]))

    order = itertools.cycle(workloads.service_order(args.seed, count))
    segments = []
    for index in range(SERVICE_SEGMENTS):
        # A traced run measures its untraced base in the first lifetime.
        traced = bool(args.trace) and index > 0
        collected = sum(len(segment["samples"]) for segment in segments)
        last = index == SERVICE_SEGMENTS - 1
        min_samples = MIN_LATENCY_SAMPLES - collected if last and not args.trace else 0
        segments.append(service_segment(
            index, packs, expected, order, args.seconds / SERVICE_SEGMENTS,
            traced, min_samples,
        ))
    for segment in segments:
        for sample in segment["samples"]:
            outcome.attempted += 1
            if not sample["ok"]:
                outcome.failed += 1
                outcome.notes.append(f"FAILED session {sample}")

    def throughput(group: List[dict]) -> Dict[str, float]:
        ok = [s for segment in group for s in segment["samples"] if s["ok"]]
        loop_s = sum(segment["loop_s"] for segment in group)
        return {"sessions_per_s": len(ok) / loop_s,
                "jobs_per_s": sum(s["jobs"] for s in ok) / loop_s}

    plain = [segment for segment in segments if not segment["traced"]]
    latencies = [s["latency_s"] for segment in plain for s in segment["samples"]]
    outcome.end_to_end = {
        **throughput(plain),
        "setup_s": statistics.median(segment["setup_s"] for segment in segments),
        "peak_rss_mb": statistics.median(segment["peak_rss_mb"] for segment in segments),
        "session_p50_ms": statistics.median(latencies) * 1e3,
        "session_p90_ms": nearest_rank(latencies, 0.9) * 1e3,
    }
    outcome.notes.append(
        f"{len(latencies)} untraced sessions over {len(plain)} service lifetime(s); "
        f"{workloads.SERVICE_CLIENTS} closed-loop clients, {workloads.SERVICE_WORKERS} workers"
    )
    if args.trace:
        traced_segments = [segment for segment in segments if segment["traced"]]
        # Every traced session that reached a terminal state, failed ones
        # too, so that a retried session shows in attempts_per_session.
        samples = [s for segment in traced_segments for s in segment["samples"]
                   if "state" in s]
        outcome.layers = layer_metrics(tracers)
        checkpoint_s = [t for report in checkpoints for t in report["checkpoint_s"]]
        checkpoint_bytes = [b for report in checkpoints for b in report["checkpoint_bytes"]]
        base = outcome.end_to_end["jobs_per_s"]
        traced_rate = throughput(traced_segments)["jobs_per_s"]
        sessions = sum(segment["sessions"] for segment in traced_segments)
        outcome.layers.update({
            "service.submit_ms": median_or_zero(s["submit_s"] for s in samples) * 1e3,
            "service.queue_wait_ms": median_or_zero(s["queue_wait_s"] for s in samples) * 1e3,
            "service.run_ms": median_or_zero(s["run_s"] for s in samples) * 1e3,
            "service.checkpoints_per_session":
                statistics.mean(s["checkpoints"] for s in samples) if samples else 0.0,
            "service.attempts_per_session":
                statistics.mean(s["attempts"] for s in samples) if samples else 0.0,
            "service.store_bytes_per_session":
                sum(segment["store_bytes"] for segment in traced_segments) / sessions
                if sessions else 0.0,
            "state.checkpoint_ms": median_or_zero(checkpoint_s) * 1e3,
            "state.blob_bytes": median_or_zero(checkpoint_bytes),
            "trace.overhead": base / traced_rate if traced_rate else 0.0,
            "trace.base_jobs_per_s": base,
        })
    outcome.samples = {"direct": direct, "tracers": tracers, "checkpoints": checkpoints,
                       "segments": segments}
    return outcome


# -- entry point -------------------------------------------------------------------


def parse_args(argv: Optional[List[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True,
                        help="how long one run measures (at least the minimum repeats)")
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True,
                        help="1: report per-layer metrics from a traced run")
    parser.add_argument("--jobs", type=int, default=0,
                        help="job count of an in-process workload (default: its own)")
    parser.add_argument("--packs", type=int, default=0,
                        help="distinct service packs (default: %d)" % workloads.SERVICE_PACKS)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if args.jobs < 0 or args.packs < 0:
        parser.error("--jobs and --packs must not be negative")
    return args


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    # Turn SIGTERM into SystemExit so every ``finally`` stops its processes.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no program sources at {SRC}/repro: run from a checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    WORK.mkdir(exist_ok=True)
    facts = machine_facts()
    print("# machine " + json.dumps(facts), flush=True)
    golden = json.loads((HERE / "golden.json").read_text())
    try:
        if args.workload == workloads.SERVICE:
            outcome = run_service(args, golden)
        else:
            outcome = run_in_process(args, golden)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(WORK / "tmp", ignore_errors=True)

    for note in outcome.notes:
        print(f"# {note}")
    for name, value in outcome.end_to_end.items():
        print(f"# e2e {name} = {value:.6g} {END_TO_END[name]}")
    units = PER_LAYER if args.trace else END_TO_END
    values = outcome.layers if args.trace else outcome.end_to_end
    result = {
        "correct": outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }
    record = {"machine": facts, "args": {k: str(v) for k, v in vars(args).items()},
              "result": result, "end_to_end": outcome.end_to_end,
              "samples": outcome.samples}
    results = WORK / "results"
    results.mkdir(exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (results / name).write_text(json.dumps(record, indent=1, default=str))
    # Strict JSON: every value is a finite number.
    print(json.dumps(result, allow_nan=False), flush=True)
    return 0 if outcome.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())

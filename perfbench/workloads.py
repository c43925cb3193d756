"""Workload definitions shared by ``run.py`` and its child processes.

Nothing here imports :mod:`repro` at module level: ``run.py`` imports this
file before it has checked that the program's sources are present.
"""

from __future__ import annotations

import random
from typing import Dict, List, Tuple

#: The seed at which results are checked against ``golden.json``.  Seed 0
#: leaves every pack seed at its bundled value; any other seed shifts them.
DEFAULT_SEED = 0

#: In-process batch workloads: bundled pack name and job count.  The counts
#: make one run last a few seconds on a 2-CPU Xeon box.
IN_PROCESS: Dict[str, Tuple[str, int]] = {
    "wlcg_dispatch": ("wlcg-baseline", 8000),
    "data_cache": ("cache-ablation", 3000),
}
#: Clients of a batch workload.  Each runs repeats back to back, so a run
#: holds twice the repeats of one client, one client per CPU of the 2-CPU
#: reference box, and its medians vary less from run to run.
BATCH_CLIENTS = 2

SERVICE = "service_sessions"
WORKLOADS = tuple(IN_PROCESS) + (SERVICE,)

#: Closed-loop shape of the service workload.
SERVICE_WORKERS = 2
SERVICE_CLIENTS = 2
#: Distinct packs in the service workload's population.
SERVICE_PACKS = 128
#: Checkpoint cadence in simulated seconds; a tiny pack runs for tens of
#: thousands of them, so each session writes a handful of checkpoints.
CHECKPOINT_EVERY = 10_000.0


def shifted(base: int, seed: int) -> int:
    """The pack seed used at benchmark ``seed`` (``base`` itself at seed 0)."""
    return (int(base) + int(seed)) % (2**31 - 1)


def in_process_pack(workload: str, seed: int, jobs: int) -> dict:
    """The sweep-free pack dict of an in-process workload at ``seed``.

    The sweep is dropped so the pack is one run under its default policy;
    the workload (and data-placement) seeds are shifted by ``seed``.
    """
    from repro.scenarios import apply_overrides, get_scenario_pack

    data = get_scenario_pack(IN_PROCESS[workload][0]).to_dict()
    data.pop("sweep", None)
    overrides = {
        "workload.jobs": int(jobs),
        "workload.seed": shifted(data["workload"]["seed"], seed),
    }
    if data.get("data") is not None:
        overrides["data.seed"] = shifted(data["data"]["seed"], seed)
    return apply_overrides(data, overrides)


def service_pack(index: int) -> dict:
    """Pack ``index`` of the service workload's population.

    Even and odd indices are the two tiny shapes that
    ``benchmarks/bench_service_throughput.py`` alternates, so adjacent
    sessions do different work and a cross-session result mix-up shows as a
    fingerprint mismatch.  Each index has its own workload seed.
    """
    from repro.service import tiny_pack

    if index % 2 == 0:
        pack = tiny_pack("bench-a")
    else:
        pack = tiny_pack("bench-b", jobs=5, seed=11)
    pack["workload"]["seed"] = shifted(pack["workload"]["seed"], index // 2)
    return pack


def service_order(seed: int, count: int) -> List[int]:
    """The order in which the clients submit the ``count`` packs at ``seed``.

    The seed permutes a fixed population instead of drawing new packs.  A
    tiny pack's run length follows the largest of a handful of heavy-tailed
    walltimes, and a session's service cost (one checkpoint per 10,000
    simulated seconds) grows with it: with 256 packs drawn afresh per seed,
    sessions/s moved by 27% (quartile spread over five seeds) with the pack
    mix alone.
    """
    order = list(range(count))
    random.Random(seed).shuffle(order)
    return order

"""Run the session service as ``cgsim serve`` does, and say when it is ready.

``cgsim serve`` prints its address as soon as the socket is bound, while
its spawned workers are still importing.  This launcher builds the same
:class:`repro.service.ServiceServer` from the same settings, but prints
``ready <port>`` only once every worker is idle, so the benchmark can time
set-up up to that point.  At the end of its standard input (or on SIGINT
or SIGTERM) it drains, reaps the workers and prints one JSON line: the peak
resident memory of the largest worker and the number of sessions served.
Stopping at end of input means the service also stops when the benchmark
that started it dies.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import resource
import signal
import sys
import threading

from repro.service import ServiceConfig, ServiceServer


async def serve(config: ServiceConfig) -> dict:
    server = ServiceServer(config)
    await server.start()
    stop = asyncio.Event()
    loop = asyncio.get_running_loop()
    for signum in (signal.SIGINT, signal.SIGTERM):
        loop.add_signal_handler(signum, stop.set)

    def stop_at_end_of_input() -> None:
        sys.stdin.read()
        loop.call_soon_threadsafe(stop.set)

    threading.Thread(target=stop_at_end_of_input, daemon=True).start()
    try:
        if not await server.wait_for_idle_workers(config.workers, timeout=120.0):
            raise RuntimeError(f"{config.workers} idle workers never materialised")
        print(f"ready {server.port}", flush=True)
        await stop.wait()
    finally:
        await server.shutdown(drain=True)
    # The workers are joined by now; RUSAGE_CHILDREN holds the largest one.
    peak_kib = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return {"worker_peak_rss_mb": peak_kib / 1024.0, "sessions": len(server.records)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workers", type=int, required=True)
    parser.add_argument("--checkpoint-every", type=float, required=True)
    parser.add_argument("--store-root", required=True)
    args = parser.parse_args(argv)
    config = ServiceConfig(
        port=0,
        workers=args.workers,
        store_root=args.store_root,
        checkpoint_every=args.checkpoint_every,
    )
    print(json.dumps(asyncio.run(serve(config))), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

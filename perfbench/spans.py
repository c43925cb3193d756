"""Outside-in layer tracing: spans and counters wrapped around public entry points.

The traced run patches the program's classes from here, so no program file
changes.  Every wrapped call is a span; a span's *self* time is its duration
minus the time of the wrapped spans it called.  The benchmark's own run span
(``des``) encloses the whole run, so its self time is what no wrapped layer
accounts for: the DES kernel plus unwrapped glue.
"""

from __future__ import annotations

import copy
import functools
import importlib
from time import perf_counter
from typing import Any, Callable, Dict, List

#: (module, class, attribute, span name) of every wrapped method.
SPANS = [
    ("repro.core.server", "MainServer", "resource_view", "core.server.resource_view"),
    ("repro.core.data_manager", "DataManager", "datasets_at", "core.data_manager.datasets_at"),
    ("repro.core.data_manager", "DataManager", "stage_in", "core.data_manager.stage_in"),
    ("repro.core.data_manager", "DataManager", "stage_out", "core.data_manager.stage_out"),
    ("repro.platform.network", "NetworkModel", "transfer", "platform.network.transfer"),
    ("repro.monitoring.collector", "MonitoringCollector", "record_transition",
     "monitoring.record_transition"),
    ("repro.core.session", "SimulationSession", "finalize", "core.session.finalize"),
]
#: (module, class, property, counter name) of every counted property.  Only
#: counted, not timed: it is called ~20 times per dispatch, inside
#: ``resource_view``, whose self time already holds its cost.
COUNTERS = [
    ("repro.platform.zone", "NetZone", "available_cores", "platform.zone.available_cores"),
]


class Tracer:
    """In-memory span and counter totals for one process."""

    def __init__(self) -> None:
        #: span name -> [calls, self seconds, total seconds]
        self.spans: Dict[str, List[float]] = {}
        self.counts: Dict[str, int] = {}
        # One frame per open span: the time its child spans took so far.
        self._stack: List[List[float]] = [[0.0]]

    def call(self, name: str, fn: Callable, *args: Any, **kwargs: Any) -> Any:
        """Run ``fn`` as span ``name``."""
        frame = [0.0]
        self._stack.append(frame)
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            elapsed = perf_counter() - start
            self._stack.pop()
            self._stack[-1][0] += elapsed
            record = self.spans.setdefault(name, [0, 0.0, 0.0])
            record[0] += 1
            record[1] += elapsed - frame[0]
            record[2] += elapsed

    def wrap(self, owner: type, attr: str, name: str) -> None:
        """Make every call of ``owner.attr`` a span."""
        original = getattr(owner, attr)

        @functools.wraps(original)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            return self.call(name, original, *args, **kwargs)

        setattr(owner, attr, wrapper)

    def count_property(self, owner: type, attr: str, name: str) -> None:
        """Count every read of the property ``owner.attr``."""
        fget = owner.__dict__[attr].fget
        counts = self.counts
        counts.setdefault(name, 0)

        def getter(obj: Any) -> Any:
            counts[name] += 1
            return fget(obj)

        setattr(owner, attr, property(getter, doc=fget.__doc__))

    def install(self) -> None:
        """Wrap every entry point in :data:`SPANS` and :data:`COUNTERS`."""
        for module, cls, attr, name in SPANS:
            self.wrap(getattr(importlib.import_module(module), cls), attr, name)
        for module, cls, attr, name in COUNTERS:
            owner = getattr(importlib.import_module(module), cls)
            self.count_property(owner, attr, name)

    def raw(self) -> dict:
        """A JSON-ready copy of the totals so far."""
        return copy.deepcopy({"spans": self.spans, "counts": self.counts})

"""Event types for the discrete-event kernel.

An :class:`Event` moves through three states: *pending* (created, not yet
scheduled), *triggered* (given a value and placed on the environment's event
calendar) and *processed* (its callbacks have run).  Processes are themselves
events -- a :class:`Process` triggers when its underlying generator finishes
-- which is what makes ``yield env.process(...)`` and condition events
compose naturally.

Hot-path notes
--------------
Every class here declares ``__slots__``: simulations churn through millions
of :class:`Timeout` and :class:`Event` instances, and slotted attribute
storage removes the per-instance ``__dict__`` allocation and speeds up every
attribute access in :meth:`Process._resume` and :meth:`Environment.step`.
:meth:`Process._resume` additionally caches the generator's bound
``send``/``throw`` methods and tests event state through direct attribute
reads (``callbacks is None``) instead of properties.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Generator, Iterable, List, Optional

from repro.utils.errors import SimulationError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.des.core import Environment

__all__ = ["Event", "Timeout", "Process", "Interrupt", "Condition", "AllOf", "AnyOf"]

#: Sentinel distinguishing "no value yet" from a legitimate ``None`` value.
_PENDING = object()


class Interrupt(Exception):
    """Exception thrown into a process when another process interrupts it.

    The interrupting cause is available as :attr:`cause`.
    """

    def __init__(self, cause: Any = None) -> None:
        super().__init__(cause)
        self.cause = cause


class Event:
    """A happening at a point in simulated time that processes can wait on.

    Parameters
    ----------
    env:
        The environment the event belongs to.

    Notes
    -----
    * ``succeed(value)`` triggers the event successfully; waiting processes
      receive ``value`` as the result of their ``yield``.
    * ``fail(exception)`` triggers the event as failed; waiting processes see
      the exception re-raised at their ``yield`` statement.  A failed event
      that nobody waits on raises at the environment level when processed,
      so errors never pass silently.
    """

    __slots__ = ("env", "callbacks", "_value", "_ok", "defused")

    def __init__(self, env: "Environment") -> None:
        self.env = env
        self.callbacks: Optional[List[Callable[["Event"], None]]] = []
        self._value: Any = _PENDING
        self._ok: Optional[bool] = None
        #: Set to True by a callback (or the kernel) when a failure was handled.
        self.defused = False

    # -- state inspection --------------------------------------------------
    @property
    def triggered(self) -> bool:
        """True once the event has been given a value and scheduled."""
        return self._value is not _PENDING

    @property
    def processed(self) -> bool:
        """True once the event's callbacks have been executed."""
        return self.callbacks is None

    @property
    def ok(self) -> bool:
        """True if the event triggered successfully (only valid once triggered)."""
        if self._ok is None:
            raise SimulationError("event value not yet available")
        return self._ok

    @property
    def value(self) -> Any:
        """The value the event triggered with (or the failure exception)."""
        if self._value is _PENDING:
            raise SimulationError("event value not yet available")
        return self._value

    # -- triggering --------------------------------------------------------
    def succeed(self, value: Any = None) -> "Event":
        """Trigger the event successfully with ``value`` and schedule it."""
        if self._value is not _PENDING:
            raise SimulationError(f"{self!r} has already been triggered")
        self._ok = True
        self._value = value
        self.env.schedule(self)
        return self

    def fail(self, exception: BaseException) -> "Event":
        """Trigger the event as failed with ``exception`` and schedule it."""
        if not isinstance(exception, BaseException):
            raise SimulationError(f"fail() needs an exception, got {exception!r}")
        if self._value is not _PENDING:
            raise SimulationError(f"{self!r} has already been triggered")
        self._ok = False
        self._value = exception
        self.env.schedule(self)
        return self

    def trigger(self, event: "Event") -> None:
        """Copy the outcome of another (already triggered) event onto this one."""
        if event._ok:
            self.succeed(event._value)
        else:
            self.fail(event._value)

    # -- composition -------------------------------------------------------
    def __and__(self, other: "Event") -> "Condition":
        return Condition(self.env, Condition.all_events, [self, other])

    def __or__(self, other: "Event") -> "Condition":
        return Condition(self.env, Condition.any_event, [self, other])

    def __repr__(self) -> str:
        state = "processed" if self.processed else ("triggered" if self.triggered else "pending")
        return f"<{type(self).__name__} {state} at {id(self):#x}>"


class Timeout(Event):
    """An event that triggers automatically after ``delay`` simulated seconds.

    ``Environment.timeout()`` is the preferred constructor: it recycles
    processed ``Timeout`` objects from a per-environment pool and schedules
    them without going through the generic :meth:`Environment.schedule`
    indirection.  Direct construction stays supported and behaves
    identically.
    """

    __slots__ = ("delay",)

    def __init__(self, env: "Environment", delay: float, value: Any = None) -> None:
        if delay < 0:
            raise SimulationError(f"negative timeout delay {delay!r}")
        super().__init__(env)
        self.delay = float(delay)
        self._ok = True
        self._value = value
        env.schedule(self, delay=self.delay)

    def __repr__(self) -> str:
        return f"<Timeout delay={self.delay}>"


class Initialize(Event):
    """Internal event used to start a freshly created process."""

    __slots__ = ()

    def __init__(self, env: "Environment", process: "Process") -> None:
        super().__init__(env)
        self._ok = True
        self._value = None
        self.callbacks = [process._resume_cb]
        env.schedule(self, priority=0)


class Process(Event):
    """A running process: wraps a generator and is itself a waitable event.

    The wrapped generator yields :class:`Event` instances; each time one of
    the yielded events is processed the generator is resumed with that
    event's value (or the failure exception is thrown into it).  When the
    generator returns, the process event succeeds with the return value.
    """

    __slots__ = ("_generator", "_target", "_send", "_throw", "_resume_cb")

    def __init__(self, env: "Environment", generator: Generator) -> None:
        if not hasattr(generator, "send") or not hasattr(generator, "throw"):
            raise SimulationError(f"process target must be a generator, got {generator!r}")
        super().__init__(env)
        self._generator = generator
        self._target: Optional[Event] = None
        # Bound methods cached once; _resume runs once per event processed
        # and would otherwise allocate a fresh method object per registration.
        self._send = generator.send
        self._throw = generator.throw
        self._resume_cb = self._resume
        Initialize(env, self)

    @property
    def target(self) -> Optional[Event]:
        """The event this process is currently waiting on (``None`` if running)."""
        return self._target

    @property
    def is_alive(self) -> bool:
        """True while the underlying generator has not finished."""
        return not self.triggered

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` into the process at its current ``yield``.

        Interrupting a finished process is an error; interrupting a process
        that is waiting on an event detaches it from that event first.
        """
        if self.triggered:
            raise SimulationError("cannot interrupt a finished process")
        # Detach from whatever we were waiting for so the original target does
        # not resume us a second time, then resume immediately with the
        # interrupt as the outcome.
        if self._target is not None and self._target.callbacks is not None:
            try:
                self._target.callbacks.remove(self._resume_cb)
            except ValueError:
                pass
        self._target = None
        interrupt_event = Event(self.env)
        interrupt_event._ok = False
        interrupt_event._value = Interrupt(cause)
        interrupt_event.defused = True
        interrupt_event.callbacks = [self._resume_cb]
        self.env.schedule(interrupt_event, priority=0)

    def _resume(self, event: Event) -> None:
        """Advance the generator with the outcome of ``event``."""
        env = self.env
        env._active_process = self
        send = self._send
        while True:
            try:
                if event._ok:
                    next_event = send(event._value)
                else:
                    # The exception is considered handled once thrown into
                    # the waiting process.
                    event.defused = True
                    next_event = self._throw(event._value)
            except StopIteration as stop:
                self._finish()
                self.succeed(stop.value)
                return
            except BaseException as exc:  # noqa: BLE001 - propagate via event
                self._finish()
                self.fail(exc)
                return

            if not isinstance(next_event, Event):
                env._active_process = None
                raise SimulationError(
                    f"process yielded a non-event: {next_event!r}"
                )
            if next_event.env is not env:
                env._active_process = None
                raise SimulationError("cannot wait on an event from another environment")

            waiters = next_event.callbacks
            if waiters is None:
                # Already processed: loop immediately with its outcome.
                event = next_event
                continue
            # Not yet processed: register ourselves and go to sleep.
            self._target = next_event
            waiters.append(self._resume_cb)
            break
        env._active_process = None

    def _finish(self) -> None:
        """Detach a process whose generator has returned or raised.

        Dropping the cached bound method breaks the process's only
        reference cycle, so a finished process is freed by reference
        counting instead of waiting for the cycle collector.
        """
        self._target = None
        self._resume_cb = None
        self.env._active_process = None

    def __repr__(self) -> str:
        name = getattr(self._generator, "__name__", str(self._generator))
        return f"<Process({name}) {'done' if self.triggered else 'alive'}>"


class Condition(Event):
    """An event that triggers when a boolean combination of events triggers.

    Used through :class:`AllOf` / :class:`AnyOf` or the ``&`` / ``|``
    operators on events.  The condition's value is a dict mapping each
    *triggered* constituent event to its value.
    """

    __slots__ = ("_evaluate", "_events", "_count")

    def __init__(
        self,
        env: "Environment",
        evaluate: Callable[[List[Event], int], bool],
        events: Iterable[Event],
    ) -> None:
        super().__init__(env)
        self._evaluate = evaluate
        self._events = list(events)
        self._count = 0
        for event in self._events:
            if event.env is not env:
                raise SimulationError("all condition events must share one environment")
        if not self._events:
            self.succeed({})
            return
        for event in self._events:
            if event.processed:
                self._check(event)
            else:
                event.callbacks.append(self._check)

    @staticmethod
    def all_events(events: List[Event], count: int) -> bool:
        """Evaluator for :class:`AllOf`: every event has triggered."""
        return len(events) == count

    @staticmethod
    def any_event(events: List[Event], count: int) -> bool:
        """Evaluator for :class:`AnyOf`: at least one event has triggered."""
        return count > 0 or not events

    def _collect_values(self) -> dict:
        # Only events that have actually been processed count as "happened";
        # a Timeout is *triggered* at creation but has not occurred yet.
        return {event: event._value for event in self._events if event.processed}

    def _check(self, event: Event) -> None:
        if self.triggered:
            return
        self._count += 1
        if not event._ok:
            event.defused = True
            self.fail(event._value)
        elif self._evaluate(self._events, self._count):
            self.succeed(self._collect_values())


class AllOf(Condition):
    """Condition that triggers once *all* of ``events`` have triggered."""

    __slots__ = ()

    def __init__(self, env: "Environment", events: Iterable[Event]) -> None:
        super().__init__(env, Condition.all_events, events)


class AnyOf(Condition):
    """Condition that triggers once *any* of ``events`` has triggered."""

    __slots__ = ()

    def __init__(self, env: "Environment", events: Iterable[Event]) -> None:
        super().__init__(env, Condition.any_event, events)

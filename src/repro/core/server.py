"""Main server: the sender actor and central controller of the simulation.

The main server reproduces the workflow described in the paper (Section 3.2):
on an engine run it receives workload from the job manager, consults the
allocation policy (the user plugin) for every job, and sends the job to the
assigned site's queue.  If no suitable resource is found, the job goes to a
*pending list*; whenever a resource on the grid becomes available (a job
finishes) -- or periodically as a fallback -- the pending list is revisited.
The simulation finishes once every job has been assigned and executed.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Dict, List, Optional

from repro.des import Environment, Event, Store
from repro.plugins.base import AllocationPolicy, ResourceView, SiteStatus
from repro.utils.errors import SchedulingError
from repro.utils.logging import NullLogger, SimLogger
from repro.workload.job import Job, JobState, allocate_job_id

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.data_manager import DataManager
    from repro.core.site import SiteRuntime
    from repro.monitoring.collector import MonitoringCollector

__all__ = ["MainServer"]


class _LiveSiteStatus(SiteStatus):
    """The :class:`SiteStatus` of one site, reading the site's live counters.

    The static fields (name, total cores, core speed, properties) are set
    once; every dynamic field is a property over the
    :class:`~repro.core.site.SiteRuntime`, so the main server never rebuilds
    a status.  ``resident_data`` asks the data manager only when a policy
    reads it.
    """

    def __init__(self, site: "SiteRuntime", data_manager: Optional["DataManager"]) -> None:
        self.name = site.name
        self.total_cores = site.total_cores
        self.core_speed = site.config.core_speed
        self.properties = dict(site.config.properties)
        self._site = site
        self._data_manager = data_manager

    @property
    def available_cores(self) -> int:
        return self._site.available_cores

    @property
    def pending_jobs(self) -> int:
        return self._site.queued_jobs

    @property
    def running_jobs(self) -> int:
        return self._site.running_jobs

    @property
    def assigned_jobs(self) -> int:
        return self._site.backlog

    @property
    def finished_jobs(self) -> int:
        return self._site.finished_jobs

    @property
    def failed_jobs(self) -> int:
        return self._site.failed_jobs

    @property
    def resident_data(self) -> frozenset:
        if self._data_manager is None:
            return frozenset()
        return frozenset(self._data_manager.datasets_at(self.name))


class MainServer:
    """The sender actor: dispatches workload to site queues via the policy plugin.

    Parameters
    ----------
    env:
        Discrete-event environment.
    sites:
        Site runtimes keyed by name.
    policy:
        The allocation policy plugin.
    inbox:
        Store the job manager feeds (shared with :class:`JobManager`).
    total_jobs:
        Total number of jobs expected; the :attr:`all_done` event fires when
        that many jobs have reached a terminal state.
    collector:
        Optional monitoring collector.
    data_manager:
        Optional data manager (only used to expose resident datasets to
        data-aware policies).
    scheduling_overhead:
        Simulated seconds consumed per dispatched job (workload-management
        latency).
    pending_retry_interval:
        Period of the fallback pending-list sweep.
    max_retries:
        Automatic resubmissions of failed jobs (0 disables retries).  Each
        retry is a fresh attempt with the same static job record; the failed
        attempt stays in the output (so the failure-rate metric reflects
        attempts, as in production monitoring).
    id_allocator:
        Callable handing out ids for runtime-created jobs (retry attempts).
        The simulator passes its scoped
        :class:`~repro.workload.job.JobIdAllocator` so retry ids depend only
        on the run's inputs; defaults to the process-global
        :func:`~repro.workload.job.allocate_job_id` shim.
    """

    def __init__(
        self,
        env: Environment,
        sites: Dict[str, "SiteRuntime"],
        policy: AllocationPolicy,
        inbox: Store,
        total_jobs: int,
        collector: Optional["MonitoringCollector"] = None,
        data_manager: Optional["DataManager"] = None,
        scheduling_overhead: float = 0.0,
        pending_retry_interval: float = 60.0,
        max_retries: int = 0,
        platform_description: Optional[dict] = None,
        id_allocator: Optional[Callable[[], int]] = None,
        logger: Optional[SimLogger] = None,
    ) -> None:
        if total_jobs < 0:
            raise SchedulingError("total_jobs must be >= 0")
        if max_retries < 0:
            raise SchedulingError("max_retries must be >= 0")
        self.env = env
        self.sites = dict(sites)
        self.policy = policy
        self.inbox = inbox
        self.total_jobs = int(total_jobs)
        self.collector = collector
        self.data_manager = data_manager
        self.scheduling_overhead = float(scheduling_overhead)
        self.pending_retry_interval = float(pending_retry_interval)
        self.max_retries = int(max_retries)
        self._allocate_id = id_allocator if id_allocator is not None else allocate_job_id
        self.logger = logger or NullLogger()

        #: Jobs the policy could not place yet, in arrival order.
        self.pending: List[Job] = []
        #: Jobs that reached a terminal state.
        self.completed: List[Job] = []
        #: Dispatch decisions made (job_id -> site), for analysis.
        self.assignments: Dict[int, str] = {}
        #: Retry attempts created for failed jobs (included in the run output).
        self.retry_jobs: List[Job] = []
        #: Observers called with each job after its completion bookkeeping
        #: (retries, pending revisits, all_done accounting) has run; the seam
        #: sessions use for progress counters and early-stop predicates.
        self.completion_listeners: List = []
        #: Callables invoked whenever :meth:`expect` re-arms a completed run
        #: (fresh ``all_done``); the simulator uses this to restart its
        #: snapshot loop for the new wave.
        self.rearm_listeners: List = []
        #: Attempts consumed per original job id.
        self._attempts: Dict[int, int] = {}
        #: Event fired once every expected job is terminal.
        self.all_done: Event = env.event()
        if self.total_jobs == 0:
            self.all_done.succeed()

        #: Widest host on the grid: a wider job can never be placed.
        self._widest_host = max(
            (site.max_host_cores() for site in self.sites.values()), default=0
        )
        #: The one resource view every dispatch hands the policy.
        self._view = ResourceView(
            {name: _LiveSiteStatus(site, data_manager) for name, site in self.sites.items()}
        )

        self.policy.initialize(platform_description or {})
        for site in self.sites.values():
            site.completion_callbacks.append(self._on_job_completed)

        self._sender_process = env.process(self._sender())
        self._retry_process = env.process(self._pending_sweeper())

    # -- resource view ------------------------------------------------------------
    def resource_view(self) -> ResourceView:
        """The live resource view handed to the policy, stamped with the time.

        One view is built with the server; its site statuses read the sites'
        counters on access, so a dispatch only sets ``time``.  The view is
        valid for one :meth:`~repro.plugins.base.AllocationPolicy.assign_job`
        call.
        """
        self._view.time = self.env.now
        return self._view

    # -- lifecycle -----------------------------------------------------------------
    def expect(self, count: int) -> None:
        """Announce ``count`` additional jobs joining the workload mid-run.

        Raises :attr:`total_jobs` so the completion accounting waits for the
        newcomers.  If the run had already completed (:attr:`all_done`
        triggered), a *fresh* ``all_done`` event is armed and the pending-list
        sweeper restarted, so a finished session becomes runnable again --
        the open-workload contract behind
        :meth:`repro.core.session.SimulationSession.submit`.
        """
        count = int(count)
        if count < 0:
            raise SchedulingError("expect() count must be >= 0")
        if count == 0:
            return
        self.total_jobs += count
        if self.all_done.triggered:
            self.all_done = self.env.event()
            # The sweeper exits only when it *wakes* to a triggered all_done;
            # if the old one is still parked on its next timeout it re-reads
            # the fresh event and keeps serving -- spawning another here
            # would leak one perpetual sweeper per re-arm.
            if self._retry_process.triggered:
                self._retry_process = self.env.process(self._pending_sweeper())
            for listener in self.rearm_listeners:
                listener()

    # -- actors --------------------------------------------------------------------
    def _sender(self):
        """Main dispatch loop: take jobs from the inbox and place them.

        Runs for the lifetime of the simulation (the workload is open-ended:
        :meth:`expect` can raise the job count at any time), parking forever
        on an empty inbox; a blocked process holds no calendar events, so it
        never keeps the run loop alive on its own.
        """
        while True:
            job = yield self.inbox.get()
            if self.scheduling_overhead > 0:
                yield self.env.timeout(self.scheduling_overhead)
            self._dispatch(job)

    def _dispatch(self, job: Job) -> None:
        """Consult the policy for one job; queue it or park it as pending."""
        view = self.resource_view()
        site_name = self.policy.assign_job(job, view)
        if site_name is None:
            self._park(job)
            return
        if site_name not in self.sites:
            raise SchedulingError(
                f"policy {self.policy.name!r} assigned job {job.job_id} to unknown site "
                f"{site_name!r}"
            )
        site = self.sites[site_name]
        if job.cores > site.max_host_cores():
            # The policy picked a site that can never run the job; treat it as
            # unplaceable rather than failing the whole simulation.
            self._park(job)
            return
        job.advance(JobState.ASSIGNED, self.env.now, site=site_name)
        self.assignments[int(job.job_id)] = site_name
        self._record(job, JobState.ASSIGNED, site_name)
        site.submit(job)

    def _park(self, job: Job) -> None:
        """Put a job on the pending list (or fail it if it can never be placed)."""
        widest = self._widest_host
        if job.cores > widest:
            self._fail_unplaceable(
                job, f"no site has a host with {job.cores} cores (widest host: {widest})"
            )
            return
        if job.state is JobState.CREATED:
            job.advance(JobState.PENDING, self.env.now)
        self.pending.append(job)
        self._record(job, JobState.PENDING, "")
        self.logger.debug("server", f"job {job.job_id} pending", pending=len(self.pending))

    def _fail_unplaceable(self, job: Job, reason: str) -> None:
        """Terminate a job the grid can never run, so the simulation still ends."""
        job.attributes["no_retry"] = True  # resubmitting an unplaceable job cannot help
        job.advance(JobState.FAILED, self.env.now, reason=reason)
        self._record(job, JobState.FAILED, "")
        self.logger.warning("server", f"job {job.job_id} unplaceable", reason=reason)
        self._on_job_completed(job)

    def _retry_pending(self) -> None:
        """Re-run the policy over the pending list (oldest first)."""
        if not self.pending:
            return
        still_pending: List[Job] = []
        for job in self.pending:
            view = self.resource_view()
            site_name = self.policy.assign_job(job, view)
            if site_name is None or site_name not in self.sites:
                still_pending.append(job)
                continue
            site = self.sites[site_name]
            if job.cores > site.max_host_cores():
                still_pending.append(job)
                continue
            job.advance(JobState.ASSIGNED, self.env.now, site=site_name)
            self.assignments[int(job.job_id)] = site_name
            self._record(job, JobState.ASSIGNED, site_name)
            site.submit(job)
        self.pending = still_pending

    def _pending_sweeper(self):
        """Fallback periodic sweep of the pending list."""
        while not self.all_done.triggered:
            yield self.env.timeout(self.pending_retry_interval)
            self._retry_pending()

    # -- completion handling ----------------------------------------------------------
    def _on_job_completed(self, job: Job) -> None:
        """Called by site runtimes whenever a job reaches a terminal state."""
        self.completed.append(job)
        self.policy.on_job_finished(job)
        if job.state is JobState.FAILED:
            self._maybe_retry(job)
        # A resource has become available: revisit the pending list now.
        self._retry_pending()
        if len(self.completed) >= self.total_jobs and not self.all_done.triggered:
            self.policy.finalize()
            self.all_done.succeed(len(self.completed))
        for listener in self.completion_listeners:
            listener(job)

    def _maybe_retry(self, job: Job) -> None:
        """Resubmit a failed job as a fresh attempt while retries remain."""
        if self.max_retries <= 0 or job.attributes.get("no_retry"):
            return
        original_id = int(job.attributes.get("retry_of", job.job_id))
        attempts = self._attempts.get(original_id, 0)
        if attempts >= self.max_retries:
            return
        self._attempts[original_id] = attempts + 1
        attempt = job.copy_for_replay()
        attempt.job_id = self._allocate_id()  # every attempt is distinguishable downstream
        attempt.attributes["retry_of"] = original_id
        attempt.attributes["attempt"] = attempts + 2  # first attempt was #1
        # Resubmission happens "now": the retry enters the dispatch path at
        # the current simulated time, not at the original submission time.
        attempt.submission_time = self.env.now
        self.retry_jobs.append(attempt)
        self.total_jobs += 1
        self.logger.info(
            "server",
            f"retrying job {original_id}",
            attempt=attempts + 2,
        )
        self._dispatch(attempt)

    # -- checkpoint support ------------------------------------------------------------
    # cgsim: lint-ignore[snap-field-coverage] the retry sweeper process is rebuilt by replay
    def snapshot(self) -> dict:
        """Capture the dispatch state: totals, pending ids, assignments, retries.

        Part of the :class:`repro.state.Snapshottable` protocol.  Everything
        here is replay-derived (the sender/sweeper processes rebuild it when
        the session re-executes its op log), so the snapshot serves as the
        verification record a restore is checked against -- job ids in the
        pending list keep arrival order, which replay must reproduce exactly.
        """
        return {
            "total_jobs": self.total_jobs,
            "completed": len(self.completed),
            "pending": [int(job.job_id) for job in self.pending],
            "assignments": {int(k): v for k, v in self.assignments.items()},
            "attempts": {int(k): int(v) for k, v in self._attempts.items()},
            "retry_jobs": [int(job.job_id) for job in self.retry_jobs],
            "all_done": bool(self.all_done.triggered),
        }

    def restore(self, state: dict) -> None:
        """Verify the replayed server matches a snapshot (replay-derived state).

        Raises :class:`~repro.utils.errors.CheckpointError` listing every
        divergent field; a clean pass means the replay reproduced dispatch
        decisions, pending order, retry accounting and completion state
        bit-identically.
        """
        from repro.state.protocol import diff_states
        from repro.utils.errors import CheckpointError

        diffs = diff_states(state, self.snapshot())
        if diffs:
            raise CheckpointError(
                "main server diverged during replay: " + "; ".join(diffs)
            )

    # -- monitoring --------------------------------------------------------------------
    def _record(self, job: Job, state: JobState, site_name: str) -> None:
        if self.collector is None:
            return
        if site_name and site_name in self.sites:
            site = self.sites[site_name]
            self.collector.record_transition(
                job,
                state,
                time=self.env.now,
                site=site_name,
                available_cores=site.available_cores,
                pending_jobs=len(self.pending),
                assigned_jobs=site.backlog,
            )
        else:
            self.collector.record_transition(
                job,
                state,
                time=self.env.now,
                site="",
                available_cores=sum(s.available_cores for s in self.sites.values()),
                pending_jobs=len(self.pending),
                assigned_jobs=sum(s.backlog for s in self.sites.values()),
            )

    def __repr__(self) -> str:
        return (
            f"<MainServer jobs={self.total_jobs} completed={len(self.completed)} "
            f"pending={len(self.pending)}>"
        )

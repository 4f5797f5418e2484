"""Request-level discrete-event serving simulator.

Layers continuous batching over the per-token Hermes engine using the
*existing* event calendar (:class:`repro.sim.Simulator` — no second event
loop).  Each machine is one simulation process; it brackets engine work in
Acquire/Release of a per-machine :class:`repro.sim.Resource` that marks the
serialisation point for future intra-machine concurrency (e.g. chunked
prefill as a separate process) — with the single process per machine today
the resource is never contended.  Each round of a machine's loop
(:class:`_MachineLoop`) runs these phases:

1. fault/degrade: park through a crash, renegotiate after a degrade;
2. admission: ingest arrivals, (cluster only) evict a low-priority
   resident when a queued higher-priority prefill would otherwise miss
   its deadline, then admit in policy order while the effective batch
   cap (``min(max_batch, policy.batch_limit)``) has room, charging each
   admission's prefill on the machine;
3. decode: run a *span* of iterations for the whole resident batch
   (every request gains one token per iteration; the engine sees the
   batch's mean context), then retire finished requests — or, with
   nothing resident,
4. idle: sleep until the next arrival, or exit.

**One decode body.**  Between two batch-composition changes the loop
is a straight-line token run — same batch, context growing by exactly
one per step — so the machine computes the *horizon* its composition
is provably fixed for (the earliest deterministic completion, the next
arrival, the preemptor's conservative trigger bound, fault boundaries)
and runs it as one :meth:`ServingBackend.decode_span` call, then
replays the per-token event pattern at the span's boundary times
(simultaneous events resolve by push order, and identical machines tie
on exact boundary times constantly).  Per-token timestamps are
back-filled from the span's sequentially-accumulated cost array.
``ServingConfig.macro_step=False`` caps every horizon at one step, as
do a straggler slowdown and an opaque preemptor: the same body then
runs one-step spans, and the span contract (fused == sequential steps)
makes records, busy accounting, queue samples and every scheduling
decision bit-for-bit independent of the horizon — pinned by the
equivalence tests and golden files.  ``fidelity="fast"`` swaps the
span for one closed-form ``span_estimate`` under the same horizon;
when the cluster layer pre-routes every arrival, the horizon's arrival
bound is the machine's own next arrival (``_RunState.span_bounds``).

Prefill blocks decode on the same machine (no chunked prefill), which is
what creates the classic TTFT-vs-TBT tension the policies trade off.

The loop itself is machine-count-agnostic: :class:`ServingSimulator` runs
every machine against one *shared* queue (work-stealing semantics), while
:class:`repro.cluster.ClusterSimulator` subclasses it with per-machine
queues fed by a router, priority-aware admission order, and a preemptor —
all through the small override points this module exposes
(``_build_state`` / ``_admission_policy`` / ``_preemptor`` /
``_make_report``).
"""

from __future__ import annotations

import dataclasses
import math
import typing
import warnings

from ..core import HermesConfig
from ..hardware import Machine
from ..models import ModelSpec, get_model
from ..sim import (
    Acquire,
    Release,
    Resource,
    Signal,
    Simulator,
    Timeout,
    WaitSignal,
    WaitUntil,
)
from ..sparsity import ActivationTrace
from ..telemetry.events import (
    DecodeStep,
    MachineDegraded,
    MachineDown,
    MachineHealth,
    MachineUp,
    PrefillEnded,
    PrefillStarted,
    QueueDepth,
    RequestAdmitted,
    RequestCompleted,
    RequestMigrated,
    RequestPreempted,
    RequestResumed,
    RequestRouted,
    RunEnded,
    RunStarted,
)
from ..telemetry.tracer import NULL_TRACER, Tracer
from .backends import MachineGroup, ServingBackend, make_backend
from .executor import MachineExecutor, default_serving_trace
from .faults import FaultSchedule
from .metrics import RequestRecord, ServingReport
from .policies import BatchingPolicy, get_policy
from .workload import Request


@dataclasses.dataclass(frozen=True)
class ServingConfig:
    """Cluster-level serving knobs."""

    max_batch: int = 16
    num_machines: int = 1
    #: fuse straight-line token runs into one engine span (see the
    #: module docstring); ``False`` caps every span at one step — same
    #: body, same results, which the equivalence tests pin
    macro_step: bool = True
    #: deterministic fault timeline (crashes/stragglers/partitions) the
    #: run executes against; ``None`` keeps every fault branch
    #: short-circuited and the run bit-identical to a fault-free build
    faults: FaultSchedule | None = None
    #: cost model fidelity: ``"exact"`` replays every token boundary
    #: (the reference, pinned bit-for-bit by goldens), ``"fast"``
    #: aggregates whole decode spans through one closed-form
    #: ``span_estimate`` call with uniform token spacing — validated
    #: against exact by distribution-level tolerances, not equality
    fidelity: str = "exact"

    def __post_init__(self) -> None:
        if self.max_batch < 1:
            raise ValueError("max_batch must be >= 1")
        if self.num_machines < 1:
            raise ValueError("num_machines must be >= 1")
        if self.fidelity not in ("exact", "fast"):
            raise ValueError(
                f"fidelity must be 'exact' or 'fast', got {self.fidelity!r}")


@dataclasses.dataclass(slots=True)
class ActiveEntry:
    """A request resident in some machine's running batch."""

    request: Request
    record: RequestRecord
    #: simulation time this entry (last) joined the batch — preemption
    #: victims are chosen newest-first among the lowest priority class
    admitted_at: float = 0.0

    @property
    def next_context(self) -> int:
        """KV length its next token attends over (prompt + generated + 1)."""
        return self.request.prompt_len + len(self.record.token_times) + 1


class Preemptor(typing.Protocol):
    """Decides whether a resident request must yield its batch slot.

    ``next_trigger`` is the macro-stepping hook: a conservative lower
    bound on the first time ``victim`` could return non-``None`` while
    the queue and resident batch stay unchanged (``None`` = never under
    the current state).  A preemptor without it still works — the
    simulator falls back to checking at every token boundary (one-step
    spans).
    """

    def victim(
        self,
        now: float,
        queue: list[Request],
        active: list[ActiveEntry],
        executor: ServingBackend,
    ) -> ActiveEntry | None:
        """The entry to evict so the queue head can admit, or ``None``."""
        ...  # pragma: no cover - protocol

    def next_trigger(
        self,
        now: float,
        queue: list[Request],
        active: list[ActiveEntry],
        executor: ServingBackend,
    ) -> float | None:
        """Earliest time ``victim`` could fire, given unchanged state."""
        ...  # pragma: no cover - protocol


class _FaultHorizon:
    """Memoised per-machine view of the fault timeline's next boundaries.

    Every value a machine's scheduling loop asks of the
    :class:`FaultSchedule` — am I down, my degrade state, my slowdown
    factor, my next crash, my next exec transition, the fleet's next
    disruption — is piecewise-constant between two instants: the
    machine's own next exec transition and the fleet's next disruption
    start.  One refresh at or past ``min`` of those re-derives all six
    with the same calls the loop used to make per span, so the cached
    values are *identical* to direct queries (bit-equality and goldens
    are untouched) while the steady-state cost per span drops from six
    bisects to one float compare.
    """

    __slots__ = ("_faults", "_machine", "_until", "down_now", "degrade",
                 "slowdown", "next_down", "exec_transition",
                 "any_disruption")

    def __init__(self, faults: FaultSchedule, machine: int) -> None:
        self._faults = faults
        self._machine = machine
        self._until = -math.inf

    def at(self, now: float) -> "_FaultHorizon":
        if now >= self._until:
            faults = self._faults
            m = self._machine
            self.down_now = faults.is_down(m, now)
            self.degrade = faults.degrade_state(m, now)
            self.slowdown = faults.slowdown_at(m, now)
            self.next_down = faults.next_down(m, now)
            self.exec_transition = faults.next_exec_transition(m, now)
            self.any_disruption = faults.next_any_disruption(now)
            bounds = [b for b in (self.exec_transition, self.any_disruption)
                      if b is not None]
            self._until = min(bounds) if bounds else math.inf
        return self


class _RunState:
    """Mutable state shared by the machine processes of one run.

    ``num_queues == 1`` is the shared-queue (work-stealing) mode the
    single-cluster :class:`ServingSimulator` uses; with one queue per
    machine, ``assign`` routes each arrival to its machine at ingest time
    (the cluster layer passes a router here).
    """

    def __init__(
        self,
        workload: list[Request],
        num_machines: int = 1,
        *,
        num_queues: int = 1,
        assign: typing.Callable[[Request, float], int] | None = None,
    ) -> None:
        self.workload = sorted(workload, key=lambda r: (r.arrival, r.req_id))
        ids = [r.req_id for r in self.workload]
        if len(set(ids)) != len(ids):
            raise ValueError("workload req_ids must be unique")
        self.records = {
            r.req_id: RequestRecord(request=r) for r in self.workload
        }
        self.next_arrival_idx = 0
        self.queues: list[list[Request]] = [[] for _ in range(num_queues)]
        #: one queue per machine, fed by ``assign`` (else one shared)
        self.routed = num_queues > 1
        #: running total of queued requests across every queue — kept
        #: incrementally at each enqueue/dequeue so ``note_queue`` stays
        #: O(1) instead of summing 1000 per-machine queues per sample
        self.queued_count = 0
        self.assign = assign
        #: telemetry sink; every emission site guards on ``.enabled``
        self.tracer: Tracer = NULL_TRACER
        self.total_active = 0
        #: the per-machine load that routers read through :meth:`loads`:
        #: resident requests plus, in routed mode, the machine's own
        #: queue — kept current at every join, leave, enqueue and
        #: dequeue, so a routing call costs O(1) in fleet size
        self.machine_loads = [0] * num_machines
        self.queue_samples: list[tuple[float, float]] = []
        self.batch_samples: list[tuple[float, float]] = []
        self.machine_gpu_busy = [0.0] * num_machines
        self.machine_dimm_busy = [0.0] * num_machines
        #: machines whose policy returned a batch limit < 1 (clamped)
        self.batch_limit_clamps = 0
        self._clamp_noted = [False] * num_machines
        #: per-machine interruptible-wait channels: a crashing peer
        #: fires the destination's signal when it migrates work over, so
        #: an idle machine picks the work up immediately instead of
        #: sleeping through it (fault runs only — fault-free idle sleeps
        #: never block on these)
        self.wake_signals = [Signal(f"wake-{i}") for i in range(num_machines)]
        #: the live simulator, bound by ``run()`` (fault migration needs
        #: to fire wake signals at the current simulation time)
        self.sim: Simulator | None = None
        #: target-aware fast-fidelity span bounds: when the cluster
        #: layer pre-routes every arrival (a load-oblivious router in
        #: fast mode), each machine's sorted own-arrival instants —
        #: spans and idle parks then end only where admission can
        #: actually happen, instead of at every fleet-global arrival
        #: (a bound that degenerates to single-step spans at
        #: 1000-machine aggregate rates).  ``None`` means "targets
        #: unknown, bound globally".
        self.span_bounds: list[list[float]] | None = None
        self._span_bound_idx = [0] * num_machines
        #: health-monitor hook ``(machine, step_seconds, batch)`` called
        #: at every decode boundary when health-aware routing is on
        self.observe_step: typing.Callable[[int, float, int], None] | None = (
            None
        )
        #: degrade hook ``(machine)`` called right after a machine
        #: renegotiates over partially failed hardware — the cluster
        #: layer rebinds throughput-weighted routers and rebaselines the
        #: health monitor here
        self.on_degrade: typing.Callable[[int], None] | None = None

    def note_clamp(
        self, m: int, policy: "BatchingPolicy", raw_limit: int
    ) -> None:
        """Record (once per machine) a batch limit clamped up to 1.

        A limit below 1 is a policy bug — the simulator clamps so the
        machine keeps making progress, but silently repairing it would
        hide the bug, so it is surfaced as a warning and counted in the
        report.  The limit is constant while the batch composition is
        unchanged, so one note per machine is exact (and independent
        of the span horizon).
        """
        if self._clamp_noted[m]:
            return
        self._clamp_noted[m] = True
        self.batch_limit_clamps += 1
        warnings.warn(
            f"batching policy {policy.name!r} returned batch_limit "
            f"{raw_limit} on machine {m}; clamped to 1 so the machine "
            "keeps serving — fix the policy",
            RuntimeWarning, stacklevel=2)

    # ------------------------------------------------------------------
    def queue_of(self, m: int) -> list[Request]:
        """Machine ``m``'s admission queue (the shared one if only one)."""
        return self.queues[m] if self.routed else self.queues[0]

    def loads(self) -> list[float]:
        """Per-machine load proxy (queued + resident) routers consult.

        In routed mode this is the live :attr:`machine_loads` list, not
        a copy — routers must treat it as read-only.  A request whose
        admission prefill is running counts in neither its queue nor
        the batch.
        """
        if not self.routed:
            # shared queue: the backlog belongs to no machine yet
            return [float(c) for c in self.machine_loads]
        return self.machine_loads

    def _enqueue(self, m: int, request: Request) -> None:
        self.queue_of(m).append(request)
        self.queued_count += 1
        if self.routed:
            self.machine_loads[m] += 1

    def dequeued(self, m: int, count: int) -> None:
        """Account ``count`` requests just taken off ``m``'s queue."""
        self.queued_count -= count
        if self.routed:
            self.machine_loads[m] -= count

    def queued_total(self) -> int:
        return self.queued_count

    def next_span_bound(self, m: int, now: float) -> float | None:
        """Machine ``m``'s first own-arrival instant strictly past
        ``now`` (fast mode with pre-routed targets).

        Simulation time is nondecreasing across the event loop and each
        machine only probes its own list, so a monotone per-machine
        cursor is exact.
        """
        bounds = self.span_bounds[m]
        i = self._span_bound_idx[m]
        while i < len(bounds) and bounds[i] <= now:
            i += 1
        self._span_bound_idx[m] = i
        return bounds[i] if i < len(bounds) else None

    # ------------------------------------------------------------------
    def ingest(self, now: float) -> bool:
        """Move every request with ``arrival <= now`` into its queue.

        Returns whether anything arrived (admission order may change).
        """
        moved = False
        tracer = self.tracer
        while (self.next_arrival_idx < len(self.workload)
               and self.workload[self.next_arrival_idx].arrival <= now):
            request = self.workload[self.next_arrival_idx]
            target = 0 if self.assign is None else self.assign(request, now)
            self._enqueue(target, request)
            self.next_arrival_idx += 1
            moved = True
            if tracer.enabled:
                tracer.emit(RequestAdmitted(
                    time=now,
                    req_id=request.req_id,
                    tenant=request.tenant,
                    class_name=request.class_name,
                    arrival=request.arrival,
                    prompt_len=request.prompt_len,
                    output_len=request.output_len,
                ))
                if self.assign is not None:
                    tracer.emit(RequestRouted(
                        time=now, req_id=request.req_id, machine=target
                    ))
        if moved:
            self.note_queue(now)
        return moved

    def requeue(self, m: int, request: Request, now: float) -> None:
        """Return a preempted request to machine ``m``'s queue."""
        self._enqueue(m, request)
        self.note_queue(now)

    def migrate(self, request: Request, from_machine: int, now: float) -> None:
        """Evacuate ``request`` off a crashed machine.

        Generated tokens survive (they were already streamed to the
        client) but the KV cache does not: the record is flagged for
        re-prefill over ``prompt_len + generated`` on re-admission — the
        honest migration cost.  In routed mode the request is re-routed
        against current loads and health; in shared-queue mode it
        returns to the common backlog.  The destination's wake signal
        fires so an idle machine picks the refugee up immediately.
        """
        record = self.records[request.req_id]
        record.needs_prefill = True
        record.migrations += 1
        routed = self.routed
        if routed and self.assign is not None:
            target = self.assign(request, now)
        else:
            target = 0
        self._enqueue(target, request)
        if self.tracer.enabled:
            self.tracer.emit(RequestMigrated(
                time=now,
                req_id=request.req_id,
                from_machine=from_machine,
                to_machine=target if routed else -1,
                generated=len(record.token_times),
            ))
            if routed:
                self.tracer.emit(RequestRouted(
                    time=now, req_id=request.req_id, machine=target
                ))
        self.note_queue(now)
        if self.sim is not None:
            if routed:
                self.sim.fire(self.wake_signals[target])
            else:
                for signal in self.wake_signals:
                    self.sim.fire(signal)

    def next_arrival(self) -> float | None:
        if self.next_arrival_idx >= len(self.workload):
            return None
        return self.workload[self.next_arrival_idx].arrival

    def note_queue(self, now: float) -> None:
        depth = self.queued_total()
        self.queue_samples.append((now, float(depth)))
        if self.tracer.enabled:
            self.tracer.emit(QueueDepth(time=now, depth=depth))

    def note_batch(self, now: float) -> None:
        self.batch_samples.append((now, float(self.total_active)))


class ServingSimulator:
    """A fleet of serving machines behind one request queue.

    Homogeneous by default (``config.num_machines`` identical Hermes
    machines); pass ``fleet=[MachineGroup(...), ...]`` for a
    heterogeneous fleet mixing backends, machine specs, or models —
    ``num_machines`` is then derived from the group counts, and a
    single all-default hermes group reproduces the homogeneous fleet
    exactly.
    """

    def __init__(
        self,
        model: ModelSpec | str,
        policy: BatchingPolicy | str = "fcfs",
        config: ServingConfig | None = None,
        *,
        machine: Machine | None = None,
        hermes_config: HermesConfig | None = None,
        trace: ActivationTrace | None = None,
        granularity: int = 64,
        seed: int = 7,
        fleet: typing.Sequence[MachineGroup] | None = None,
    ) -> None:
        self.model = get_model(model) if isinstance(model, str) else model
        self.policy = get_policy(policy)
        self.config = config or ServingConfig()
        machine = machine or Machine()
        if trace is None:
            trace = default_serving_trace(
                self.model, granularity=granularity, seed=seed
            )
        # Each machine gets its own backend (own online engine state)
        # over the shared activation trace.  For Hermes machines the
        # offline partition is solved once — it is deterministic in
        # (trace, batch, config) — and every machine receives its *own
        # clone* from the per-trace cache: window scheduling remaps
        # ``dimm_of`` in place, and a machine's live DIMM mapping is its
        # own hardware state, not something a sibling's migrations may
        # mutate mid-flight.
        nominal_batch = max(2, self.config.max_batch // 2)
        if fleet is None:
            self.fleet: tuple[MachineGroup, ...] = (
                MachineGroup(count=self.config.num_machines),
            )
            self.executors: list[ServingBackend] = [
                MachineExecutor(
                    machine,
                    self.model,
                    hermes_config,
                    trace=trace,
                    nominal_batch=nominal_batch,
                )
                for _ in range(self.config.num_machines)
            ]
        else:
            if not fleet:
                raise ValueError("fleet needs at least one machine group")
            self.fleet = tuple(fleet)
            self.executors = []
            for group in self.fleet:
                group_model = (
                    get_model(group.model)
                    if group.model is not None
                    else self.model
                )
                # a group serving the simulator's model shares its
                # trace; an overriding group gets the deterministic
                # default trace for its own model
                group_trace = trace if group_model is self.model else None
                backend_name = group.backend.lower()
                group_machine = (
                    group.machine if group.machine is not None else machine
                )
                group_batch = (
                    group.nominal_batch
                    if group.nominal_batch is not None
                    else nominal_batch
                )
                self.executors.extend(
                    make_backend(
                        backend_name,
                        group_machine,
                        group_model,
                        hermes_config=(
                            hermes_config
                            if backend_name == "hermes"
                            else None
                        ),
                        trace=group_trace,
                        nominal_batch=group_batch,
                        granularity=granularity,
                        seed=seed,
                    )
                    for _ in range(group.count)
                )
            self.config = dataclasses.replace(
                self.config, num_machines=len(self.executors)
            )

    @property
    def machine_backends(self) -> list[str]:
        """Per-machine backend names (index = machine id)."""
        return [getattr(e, "name", "hermes") for e in self.executors]

    # ---- override points for the cluster layer -----------------------
    def _build_state(self, workload: list[Request]) -> _RunState:
        """Run state: one shared queue every machine admits from."""
        return _RunState(workload, self.config.num_machines)

    def _admission_policy(self) -> BatchingPolicy:
        """The policy whose ``order`` ranks admission each round."""
        return self.policy

    def _preemptor(self) -> Preemptor | None:
        """Preemptive-admission hook; the base simulator has none."""
        return None

    def _run_started_event(self) -> RunStarted:
        """The run-configuration event an enabled tracer sees first."""
        return RunStarted(
            time=0.0,
            model=self.model.name,
            policy=self.policy.name,
            num_machines=self.config.num_machines,
            backends=tuple(self.machine_backends),
            domains=self._declared_domains(),
        )

    def _declared_domains(self) -> tuple[tuple[str, tuple[int, ...]], ...]:
        """``(name, members)`` pairs of the fault schedule's domains."""
        faults = self.config.faults
        if faults is None or not faults.domains:
            return ()
        return tuple((d.name, d.machines) for d in faults.domains)

    def _fault_fields(self, makespan: float) -> dict:
        """Downtime/recovery report fields derived from the schedule."""
        faults = self.config.faults
        if faults is None:
            return {}
        return {
            "machine_downtime": [
                faults.downtime_within(m, makespan)
                for m in range(self.config.num_machines)
            ],
            "recoveries": faults.recoveries_within(makespan),
        }

    def _make_report(self, state: _RunState, makespan: float) -> ServingReport:
        return ServingReport(
            policy=self.policy.name,
            num_machines=self.config.num_machines,
            records=list(state.records.values()),
            makespan=makespan,
            queue_samples=state.queue_samples,
            batch_samples=state.batch_samples,
            machine_gpu_busy=state.machine_gpu_busy,
            machine_dimm_busy=state.machine_dimm_busy,
            batch_limit_clamps=state.batch_limit_clamps,
            **self._fault_fields(makespan),
        )

    # ------------------------------------------------------------------
    def run(
        self,
        workload: list[Request],
        *,
        tracer: Tracer | None = None,
    ) -> ServingReport:
        """Serve ``workload`` to completion; returns the metrics report.

        ``tracer`` receives the run's lifecycle event stream (see
        :mod:`repro.telemetry`); the default :data:`NULL_TRACER` makes
        every emission site a single attribute check.  Tracing never
        perturbs the simulation: the report (and the stream itself) is
        identical for any tracer and for any span horizon
        (``macro_step`` on or off).
        """
        if not workload:
            raise ValueError("workload must be non-empty")
        if self.config.faults is not None:
            self.config.faults.validate_fleet(self.config.num_machines)
        sim = Simulator()
        state = self._build_state(workload)
        state.sim = sim
        state.tracer = tracer if tracer is not None else NULL_TRACER
        if state.tracer.enabled:
            state.tracer.emit(self._run_started_event())
        for m, executor in enumerate(self.executors):
            resource = Resource(f"machine-{m}")
            sim.process(
                self._machine_proc(sim, state, m, executor, resource),
                name=f"machine-{m}",
            )
        makespan = sim.run()
        if state.tracer.enabled:
            state.tracer.emit(RunEnded(time=makespan, makespan=makespan))
        return self._make_report(state, makespan)

    # ------------------------------------------------------------------
    def _machine_proc(self, sim: Simulator, state: _RunState, m: int,
                      executor: ServingBackend, resource: Resource):
        """Generator process for one machine's scheduling loop."""
        return _MachineLoop(self, sim, state, m, executor, resource).run()


class _MachineLoop:
    """One machine's scheduling loop, split into explicit phases.

    Each round runs fault/degrade handling, admission (preemption plus
    prefills), then decode — an exact span or a fast estimate — or the
    idle park.  Phases that wait on the calendar are generators driven
    by :meth:`run` through ``yield from`` and add no calendar events.
    """

    __slots__ = ("sim", "state", "m", "executor", "resource", "max_batch",
                 "macro", "fast", "policy", "preemptor", "trigger_fn",
                 "tracer", "tracing", "observe", "faults", "fh",
                 "has_degrades", "applied_degrade", "last_health",
                 "active", "aborted")

    def __init__(self, owner: ServingSimulator, sim: Simulator,
                 state: _RunState, m: int, executor: ServingBackend,
                 resource: Resource) -> None:
        cfg = owner.config
        faults = cfg.faults
        self.sim, self.state, self.m = sim, state, m
        self.executor, self.resource = executor, resource
        self.max_batch = cfg.max_batch
        self.macro = cfg.macro_step
        self.fast = cfg.fidelity == "fast"
        self.policy = owner._admission_policy()
        self.preemptor = owner._preemptor()
        self.trigger_fn = getattr(self.preemptor, "next_trigger", None)
        self.tracer = state.tracer
        self.tracing = state.tracer.enabled
        self.observe = state.observe_step
        #: the fault timeline, or None — every fault branch guards on it,
        #: so the fault-free hot path is untouched
        self.faults = faults
        self.fh = _FaultHorizon(faults, m) if faults is not None else None
        self.has_degrades = faults is not None and bool(faults.degrades)
        #: the cumulative degrade state already applied to the backend
        self.applied_degrade = (1.0, 1.0)
        self.last_health: str | None = None
        self.active: list[ActiveEntry] = []
        #: a request whose admission prefill the crash cut short; the
        #: crash handler evacuates it with the residents
        self.aborted: Request | None = None

    def run(self):
        """The machine's process: phases until no work can arrive."""
        sim = self.sim
        faults = self.faults
        while True:
            if faults is not None:
                if self.fh.at(sim.now).down_now:
                    if not (yield from self._crash()):
                        return
                    continue
                if (self.has_degrades and self.fh.at(sim.now).degrade
                        != self.applied_degrade):
                    self._degrade()
                if self.tracing:
                    self._note_health()
            limit = self._preempt()
            if limit:
                yield from self._admit(limit)
            # a crash that landed during an admission prefill parks the
            # machine before it touches the (now stale) decode state
            if faults is not None and faults.is_down(self.m, sim.now):
                continue
            if self.active:
                if self.fast:
                    yield from self._decode_fast()
                else:
                    yield from self._decode_exact()
            elif not (yield from self._idle()):
                return

    def _leave(self, count: int) -> None:
        """Account ``count`` entries just removed from the batch."""
        state = self.state
        state.total_active -= count
        state.machine_loads[self.m] -= count
        state.note_batch(self.sim.now)

    # ---- fault / degrade ----------------------------------------------
    def _crash(self):
        """Kill residents, migrate them and the backlog, park until the
        restart.  Returns ``False`` when the machine never restarts."""
        state = self.state
        tracer = self.tracer
        m = self.m
        now = self.sim.now
        if self.tracing:
            tracer.emit(MachineDown(time=now, machine=m, reason="crash"))
            tracer.emit(MachineHealth(
                time=now, machine=m, state="down", slowdown=1.0))
            self.last_health = "down"
        # snapshot the backlog *before* migrating residents: a resident
        # re-routed back onto this dead machine must not be swept up and
        # counted as a second migration.  In routed mode the backlog is
        # re-routed too (the frontend still holds it).
        pending: list[Request] = []
        if state.routed:
            pending = list(state.queue_of(m))
            state.queue_of(m).clear()
            state.dequeued(m, len(pending))
        if self.aborted is not None:
            state.migrate(self.aborted, m, now)
            self.aborted = None
        if self.active:
            residents, self.active = self.active, []
            self._leave(len(residents))
            for entry in residents:
                state.migrate(entry.request, m, now)
        for request in pending:
            state.migrate(request, m, now)
        up = self.faults.up_time(m, now)
        if up is None:
            # never restarts; unserved work stays queued and is
            # reported honestly as unfinished
            return False
        yield WaitUntil(up)
        self.executor.reset()
        if self.tracing:
            tracer.emit(MachineUp(time=self.sim.now, machine=m,
                                  warmup=self.faults.restart_warmup))
        return True

    def _degrade(self) -> None:
        """Renegotiate over partially failed hardware; evict KV overflow.

        A degrade is a *state change at an instant*: it applies at the
        first loop top at or past the instant (spans are bounded there
        via the exec transitions), whatever the span horizon.
        """
        state = self.state
        m = self.m
        now = self.sim.now
        degrade = self.applied_degrade = self.fh.at(now).degrade
        self.executor.degrade(*degrade)
        capacity = self.executor.kv_capacity_tokens()
        routed = state.routed
        # keep the admission-order prefix that still fits the shrunken
        # KV pool; the overflow is re-queued on this same machine (it
        # did not die — renegotiation, not migration) and re-prefills
        resident = 0.0
        kept: list[ActiveEntry] = []
        overflow: list[ActiveEntry] = []
        for entry in self.active:
            tokens = entry.next_context - 1
            if resident + tokens <= capacity:
                resident += tokens
                kept.append(entry)
            else:
                overflow.append(entry)
        if overflow:
            self.active = kept
            self._leave(len(overflow))
            for entry in overflow:
                entry.record.needs_prefill = True
                entry.record.migrations += 1
                state.requeue(m, entry.request, now)
                if self.tracing:
                    # the same KV-losing hop as a crash evacuation
                    self.tracer.emit(RequestMigrated(
                        time=now,
                        req_id=entry.request.req_id,
                        from_machine=m,
                        to_machine=m if routed else -1,
                        generated=len(entry.record.token_times),
                    ))
            if not routed:
                # shared queue: wake parked siblings to steal the work
                for signal in state.wake_signals:
                    self.sim.fire(signal)
        if self.tracing:
            self.tracer.emit(MachineDegraded(
                time=now,
                machine=m,
                surviving_dimm_fraction=degrade[0],
                bandwidth_factor=degrade[1],
                evicted=len(overflow),
            ))
        if state.on_degrade is not None:
            state.on_degrade(m)

    def _note_health(self) -> None:
        """Emit a ``MachineHealth`` event when the health state moved."""
        now = self.sim.now
        health = self.faults.health_state(self.m, now)
        if health != self.last_health:
            self.last_health = health
            self.tracer.emit(MachineHealth(
                time=now, machine=self.m, state=health,
                slowdown=self.faults.slowdown_at(self.m, now)))

    # ---- admission ----------------------------------------------------
    def _preempt(self) -> int:
        """Ingest arrivals and evict a resident for a deadline-threatened
        queue head; returns the round's batch cap when queued work has
        room to admit, else 0."""
        now = self.sim.now
        state = self.state
        m = self.m
        policy = self.policy
        active = self.active
        state.ingest(now)
        queue = state.queue_of(m)
        # clamped to >= 1: a policy returning 0 would otherwise wedge
        # the machine — the clamp is warned about and counted
        raw_limit = policy.batch_limit(self.executor, self.max_batch)
        if raw_limit < 1:
            state.note_clamp(m, policy, raw_limit)
        limit = max(1, min(self.max_batch, raw_limit))
        if self.preemptor is not None and queue and len(active) >= limit:
            victim = self.preemptor.victim(now, queue, active, self.executor)
            if victim is not None:
                active.remove(victim)
                victim.record.preemptions += 1
                self._leave(1)
                if self.tracing:
                    self.tracer.emit(RequestPreempted(
                        time=now, req_id=victim.request.req_id, machine=m))
                state.requeue(m, victim.request, now)
        return limit if queue and len(active) < limit else 0

    def _admit(self, limit: int):
        """Fill the batch in policy order, charging each prefill."""
        sim = self.sim
        state = self.state
        m = self.m
        executor = self.executor
        policy = self.policy
        tracer = self.tracer
        tracing = self.tracing
        resource = self.resource
        active = self.active
        queue = state.queue_of(m)
        # re-rank each admission: the queue changes under us while this
        # machine yields (new arrivals, siblings admitting from a shared
        # queue)
        while len(active) < limit and queue:
            request = queue.pop(policy.select(queue))
            state.dequeued(m, 1)
            state.note_queue(sim.now)
            record = state.records[request.req_id]
            record.machine = m
            if record.prefill_start is None or record.needs_prefill:
                # a migrated request re-prefills prompt + generated
                # tokens: the tokens survive (already streamed) but the
                # KV died with the crashed machine
                replay = (len(record.token_times)
                          if record.needs_prefill else 0)
                record.needs_prefill = False
                if record.prefill_start is None:
                    record.prefill_start = sim.now
                if tracing:
                    tracer.emit(PrefillStarted(
                        time=sim.now, req_id=request.req_id, machine=m))
                yield Acquire(resource)
                compute, transfer = executor.prefill_cost(
                    request.prompt_len + replay)
                if self.faults is not None:
                    h = self.fh.at(sim.now)
                    compute *= h.slowdown
                    transfer *= h.slowdown
                    crash = h.next_down
                    if (crash is not None
                            and sim.now + (compute + transfer) >= crash):
                        # the crash lands mid-prefill: abort (no cost
                        # charged, KV lost); the crash handler, next at
                        # this instant, migrates the request after its
                        # backlog snapshot, so a re-route back onto this
                        # machine is not swept up as a second migration
                        yield WaitUntil(crash)
                        yield Release(resource)
                        self.aborted = request
                        return
                yield Timeout(compute + transfer)
                yield Release(resource)
                # only the compute part occupies the GPU; the KV push is
                # PCIe time (kept out of utilization, like decode's syncs)
                state.machine_gpu_busy[m] += compute
                if tracing:
                    tracer.emit(PrefillEnded(
                        time=sim.now, req_id=request.req_id, machine=m,
                        compute=compute, transfer=transfer))
            elif tracing:
                # a preempted request re-joins with its KV still
                # resident, so re-admission is free
                tracer.emit(RequestResumed(
                    time=sim.now, req_id=request.req_id, machine=m))
            active.append(ActiveEntry(request, record, admitted_at=sim.now))
            state.total_active += 1
            state.machine_loads[m] += 1
            state.note_batch(sim.now)
            # arrivals during this prefill are admissible right away
            state.ingest(sim.now)

    # ---- decode -------------------------------------------------------
    def _next_arrival(self, now: float) -> float | None:
        """The next arrival this machine must wake for: with pre-routed
        targets (see :attr:`_RunState.span_bounds`) only its own — a
        foreign arrival can never join this batch — otherwise any."""
        state = self.state
        if state.span_bounds is None:
            return state.next_arrival()
        return state.next_span_bound(self.m, now)

    def _span_horizon(self, now: float) -> tuple[int, float | None]:
        """``(steps, until)``: how long the resident batch stays fixed.

        The composition is provably fixed until the earliest
        deterministic completion (``steps``).  Admission, routing and
        preemption can additionally change only at the next arrival (it
        can admit, shift a preemption verdict, and must be *routed*
        against its arrival boundary's loads), the preemptor's trigger
        bound, and fault boundaries: our own crash, slowdown and degrade
        instants, and any machine's crash or degrade, which may drop
        work into our queue.  A span ends at its first boundary reaching
        ``until``; an opaque preemptor caps it at one step.
        """
        active = self.active
        steps = min(a.request.output_len - len(a.record.token_times)
                    for a in active)
        until = None
        queue = (self.state.queue_of(self.m)
                 if self.preemptor is not None else None)
        if queue:
            if self.trigger_fn is None:
                steps = 1
            else:
                until = self.trigger_fn(now, queue, active, self.executor)
        upcoming = self._next_arrival(now)
        if upcoming is not None and (until is None or upcoming < until):
            until = upcoming
        if self.faults is not None:
            h = self.fh.at(now)
            for bound in (h.exec_transition, h.any_disruption):
                if bound is not None and (until is None or bound < until):
                    until = bound
        return steps, until

    def _retire(self) -> None:
        """Drop finished requests from the batch and report them."""
        finished = [a for a in self.active if a.record.finished]
        if not finished:
            return
        self.active = [a for a in self.active if not a.record.finished]
        self._leave(len(finished))
        if self.tracing:
            now = self.sim.now
            for entry in finished:
                self.tracer.emit(RequestCompleted(
                    time=now, req_id=entry.request.req_id, machine=self.m,
                    tokens=len(entry.record.token_times)))

    def _decode_exact(self):
        """One engine span over the resident batch, replayed per token.

        The horizon is one step with macro-stepping off, under a
        straggler slowdown (fusion resumes when the window ends), and
        for an opaque preemptor; otherwise :meth:`_span_horizon`.
        Contexts form an arithmetic ramp: every resident request gains
        exactly one token per iteration.
        """
        sim = self.sim
        executor = self.executor
        resource = self.resource
        active = self.active
        m = self.m
        start = sim.now
        factor = 1.0
        crash = None
        if self.faults is not None:
            h = self.fh.at(start)
            factor = h.slowdown
            crash = h.next_down
        if not self.macro or factor != 1.0:
            steps, until = 1, None
        else:
            steps, until = self._span_horizon(start)
            # size the ramp from the recent step time: an undersized span
            # ends at a no-op boundary and a fresh one continues, so this
            # never affects outcomes
            est = executor.last_step_seconds if until is not None else 0.0
            if est > 0.0:
                steps = max(1, min(steps, int((until - start) / est) + 2))
        batch = len(active)
        ctx_sum = sum(a.next_context for a in active)
        contexts = [max(1, round((ctx_sum + i * batch) / batch))
                    for i in range(steps)]
        span = executor.decode_span(
            batch, contexts, start_time=start, until=until)
        seconds = span.seconds.tolist()
        gpu_costs = span.gpu_busy.tolist()
        dimm_costs = span.dimm_busy.tolist()
        if factor == 1.0:
            times = span.end_times.tolist()
        else:
            # a straggler stretches its one-step span, quoted at the
            # step's start (a step straddling the window's end completes
            # at its quoted cost, like one straddling an arrival)
            seconds = [seconds[0] * factor]
            gpu_costs = [gpu_costs[0] * factor]
            dimm_costs = [dimm_costs[0] * factor]
            times = [start + seconds[0]]
        # Replay the per-step event pattern (Acquire -> sleep to the
        # boundary -> Release): machines resolve *simultaneous* events
        # by push order and identical machines tie on exact boundaries,
        # so one big sleep would flip tie-breaks.  WaitUntil lands each
        # wake-up on the bit-exact boundary, and each boundary's
        # DecodeStep is emitted between its Release and the next
        # Acquire.  Intermediate boundaries provably admit, ingest and
        # preempt nothing, so the event stream is horizon-independent.
        tracing = self.tracing
        observe = self.observe
        req_ids = tuple(a.request.req_id for a in active) if tracing else ()
        granted = len(times)
        for i, boundary in enumerate(times):
            yield Acquire(resource)
            if crash is not None and boundary >= crash:
                # the crash lands inside this step: no tokens or busy
                # time past this point (the restart resets the engine
                # state the span overshot)
                yield WaitUntil(crash)
                yield Release(resource)
                granted = i
                break
            yield WaitUntil(boundary)
            yield Release(resource)
            if observe is not None:
                observe(m, seconds[i], batch)
            if tracing:
                cost = span.step(i)
                self.tracer.emit(DecodeStep(
                    time=boundary, machine=m, batch=batch,
                    seconds=seconds[i], gpu_busy=gpu_costs[i],
                    dimm_busy=dimm_costs[i], swap_bytes=cost.swap_bytes,
                    resident_bytes=cost.resident_bytes, req_ids=req_ids))
        gpu_busy = self.state.machine_gpu_busy
        dimm_busy = self.state.machine_dimm_busy
        for g, d in zip(gpu_costs[:granted], dimm_costs[:granted]):
            gpu_busy[m] += g
            dimm_busy[m] += d
        if granted != len(times):
            times = times[:granted]
        for entry in active:
            entry.record.token_times.extend(times)
        self._retire()

    def _decode_fast(self):
        """Fast fidelity: one closed-form estimate per span.

        One engine estimate and three calendar events per span, with
        uniform token spacing — distributionally close to exact (pinned
        by tolerance tests), never bit-equal to it.  Spans are bounded
        by :meth:`_span_horizon`, as in exact mode.
        """
        executor = self.executor
        active = self.active
        m = self.m
        start = self.sim.now
        k, until = self._span_horizon(start)
        factor = 1.0
        crash = None
        if self.faults is not None:
            h = self.fh.at(start)
            factor = h.slowdown
            crash = h.next_down
        batch = len(active)
        start_context = sum(a.next_context for a in active) / batch
        seconds, gpu_cost, dimm_cost = executor.span_estimate(
            batch, start_context, k)
        if until is not None and k > 1 and start + seconds * factor > until:
            # truncate to the first step whose completion reaches the
            # bound — the straddling step still runs, as in exact mode
            mean_step = seconds * factor / k
            k = max(1, min(k, int((until - start) / mean_step) + 1))
            seconds, gpu_cost, dimm_cost = executor.span_estimate(
                batch, start_context, k)
        if factor != 1.0:
            seconds *= factor
            gpu_cost *= factor
            dimm_cost *= factor
        mean_step = seconds / k
        end = start + seconds
        granted = k
        if crash is not None and end >= crash:
            # only tokens completing before the crash are granted; the
            # machine parks at the crash instant
            granted = min(k, int(max(0.0, crash - start) / mean_step))
            while granted > 0 and start + mean_step * granted >= crash:
                granted -= 1
            end = crash
        yield Acquire(self.resource)
        yield WaitUntil(end)
        yield Release(self.resource)
        if granted:
            frac = granted / k
            self.state.machine_gpu_busy[m] += gpu_cost * frac
            self.state.machine_dimm_busy[m] += dimm_cost * frac
            times = [start + mean_step * (i + 1) for i in range(granted)]
            for entry in active:
                entry.record.token_times.extend(times)
            if self.observe is not None:
                self.observe(m, mean_step, batch)
            if self.tracing:
                # one aggregate DecodeStep per span, by design
                self.tracer.emit(DecodeStep(
                    time=times[-1], machine=m, batch=batch,
                    seconds=mean_step * granted, gpu_busy=gpu_cost * frac,
                    dimm_busy=dimm_cost * frac, swap_bytes=0.0,
                    resident_bytes=0.0,
                    req_ids=tuple(a.request.req_id for a in active)))
        self._retire()

    # ---- idle ---------------------------------------------------------
    def _idle(self):
        """Sleep until work can arrive; ``False`` when none ever can.

        The queue is empty here: with no resident batch the admission
        phase drains it first.  With pre-routed targets an idle machine
        wakes only for its own arrivals, which removes the idle fleet's
        thundering herd at every arrival.
        """
        sim = self.sim
        state = self.state
        faults = self.faults
        upcoming = self._next_arrival(sim.now)
        if faults is None:
            if upcoming is None:
                return False
            # absolute wake: ``Timeout(upcoming - now)`` re-rounds, so
            # the wake time would depend on the hops taken to get here;
            # ``WaitUntil`` lands on the arrival instant exactly
            yield WaitUntil(upcoming)
            return True
        # Under faults, idle sleeps are interruptible (a crashing peer
        # fires our wake signal when it migrates work over) and bounded
        # by the fleet's next disruption — the only fault event that can
        # create work for an idle machine.  With no arrivals, no work
        # left anywhere and none of our *own* transitions outstanding,
        # park unboundedly instead, so trailing fault windows elsewhere
        # don't stretch the calendar.  (Our own future crash keeps the
        # park bounded so the restart is witnessed whether or not the
        # fleet is idle.)
        wake = state.wake_signals[self.m]
        if (upcoming is None and state.total_active == 0
                and state.queued_total() == 0
                and faults.next_exec_transition(self.m, sim.now) is None):
            yield WaitSignal(wake)
            return True
        boundary = faults.next_any_disruption(sim.now, strict=True)
        bounds = [b for b in (upcoming, boundary) if b is not None]
        yield WaitSignal(wake, until=min(bounds) if bounds else None)
        return True

"""Benchmark-side tracing: spans around the public calls into each layer.

:class:`SpanRecorder` replaces each target function (a method on one of
the repository's classes, or a module-level function) by a wrapper that
records one span -- name, start, end, enclosing span and request id --
and restores every original on exit from :meth:`SpanRecorder.installed`,
so an untraced run never executes a wrapper.  Spans stay in memory until
:meth:`SpanRecorder.save`.  The program itself is not modified.

Layer of a span is its name up to the last dot (``engine.predictor`` for
``engine.predictor.predict_all``).  A span's *self* time is its duration
minus the durations of its direct children; summed over every span it
equals the summed duration of the root spans, so self times plus the
time outside any span account for the traced wall time.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import importlib
import inspect
import json
import pathlib
import sys
import time
import typing

import numpy as np


@dataclasses.dataclass(frozen=True)
class Target:
    """One function to wrap: ``module[.owner].attr`` as span ``span``."""

    module: str
    owner: str | None
    attr: str
    span: str
    #: maps the call's positional arguments to a request id (or None)
    rid: typing.Callable[[tuple], int | None] | None = None
    #: ``(args, kwargs, result) -> int`` added to ``tallies[span]``
    tally: typing.Callable[[tuple, dict, typing.Any], int] | None = None


#: attribute marking a function as one of this module's wrappers
MARK = "__simbench_span__"


def _request_arg(args: tuple) -> int | None:
    """Request id of a ``route(request, loads)`` call."""
    return getattr(args[1], "req_id", None) if len(args) > 1 else None


def _event_arg(args: tuple) -> int | None:
    """Request id of an ``emit(event)`` call, when the event has one."""
    return getattr(args[1], "req_id", None) if len(args) > 1 else None


def _span_length(args: tuple, kwargs: dict, result) -> int:
    """Decode steps a ``decode_span`` call returned."""
    return len(result)


def _probes(args: tuple, kwargs: dict, result) -> int:
    """Cost probes a Hermes ``span_estimate(batch, context, steps)``
    requests: one for a single step, the two ramp ends otherwise."""
    steps = args[3] if len(args) > 3 else kwargs.get("steps")
    return 1 if steps == 1 else 2


def _methods(module: str, owners: typing.Iterable[str],
             attrs: typing.Iterable[str], prefix: str, rid=None) -> list:
    return [Target(module, owner, attr, f"{prefix}.{attr}", rid)
            for owner in owners for attr in attrs]


_ROUTERS = ("RoundRobinRouter", "LeastLoadedRouter", "SessionAffinityRouter",
            "PowerOfTwoRouter", "ThroughputLeastLoadedRouter",
            "HealthAwareRouter")
_BACKEND_CALLS = {"decode_span": "span", "decode_step": "step",
                  "prefill_cost": "prefill", "span_estimate": "estimate",
                  "reset": "reset", "degrade": "degrade"}
_PREDICTOR = ("predict_all", "observe_all", "span_scores", "span_deltas",
              "span_states", "span_predictions", "sync_states",
              "record_span")
_GPU = ("matmul_time", "matmul_time_batch", "attention_time",
        "prefill_time")
_NDP = ("gemv_time", "gemv_time_batch", "attention_time",
        "attention_time_span")


def _backend_targets() -> list[Target]:
    out = []
    for module, owner in (("repro.serving.executor", "MachineExecutor"),
                          ("repro.serving.backends", "SteppableBackend"),
                          ("repro.serving.backends", "DenseGPUBackend"),
                          ("repro.serving.backends", "DejaVuBackend")):
        for attr, call in _BACKEND_CALLS.items():
            tally = None
            if attr == "decode_span":
                tally = _span_length
            elif attr == "span_estimate" and owner == "MachineExecutor":
                tally = _probes
            out.append(Target(module, owner, attr, f"backend.{call}",
                              tally=tally))
    return out


#: every layer boundary the traced run records (missing ones are skipped:
#: not every class defines every method)
TARGETS: tuple[Target, ...] = tuple(
    [
        Target("repro.scenarios.spec", "Scenario", "build_workload",
               "workload.build"),
        Target("repro.scenarios.spec", "Scenario", "build_simulator",
               "executors.build"),
        Target("repro.core.engine", None, "solve_partition",
               "partition.solve"),
        Target("repro.sim.engine", "Simulator", "run", "loop.run"),
        Target("repro.serving.policies", "BatchingPolicy", "select",
               "admission.select"),
    ]
    + _methods("repro.cluster.routers", _ROUTERS, ("route",), "router",
               _request_arg)
    + _methods("repro.serving.policies",
               ("BatchingPolicy", "NoBatchPolicy", "HermesUnionPolicy"),
               ("batch_limit",), "admission")
    + _methods("repro.cluster.slo", ("PriorityOrderedPolicy",),
               ("batch_limit",), "admission")
    + _methods("repro.cluster.slo", ("DeadlinePreemptor",),
               ("victim", "next_trigger"), "preemptor")
    + _backend_targets()
    + _methods("repro.core.engine", ("HermesSession",),
               ("decode_step", "decode_steps", "prefill_cost"), "engine")
    + _methods("repro.core.predictor", ("ActivationPredictor",),
               _PREDICTOR, "engine.predictor")
    + _methods("repro.core.mapper", ("NeuronMapper",), ("adjust",),
               "engine.mapper")
    + _methods("repro.core.scheduling", ("WindowScheduler",),
               ("observe_token", "rebalance_all", "reset_window"),
               "engine.scheduler")
    + _methods("repro.hardware.gpu", ("GPUSpec",), _GPU, "engine.hw")
    + _methods("repro.hardware.dimm", ("NDPDIMM",),
               _NDP + ("migration_time",), "engine.hw")
    + _methods("repro.ndp.core", ("NDPCore",), _NDP + ("merge_time",),
               "engine.hw")
)

#: the telemetry boundary, traced in its own run (see ``run.py``)
TELEMETRY_TARGETS: tuple[Target, ...] = (
    Target("repro.telemetry.tracer", "RecordingTracer", "emit",
           "telemetry.emit", _event_arg),
)


def fault_targets() -> list[Target]:
    """Every public method of ``FaultSchedule`` (resolved at install)."""
    from repro.serving.faults import FaultSchedule

    return [
        Target("repro.serving.faults", "FaultSchedule", name,
               f"faults.{name}")
        for name, value in vars(FaultSchedule).items()
        if not name.startswith("_") and inspect.isfunction(value)
    ]


class _Counted:
    """Iterator proxy counting ``next()`` calls on a process generator."""

    __slots__ = ("_gen", "_counter")

    def __init__(self, gen, counter: list[int]) -> None:
        self._gen = gen
        self._counter = counter

    def __iter__(self):
        return self

    def __next__(self):
        self._counter[0] += 1
        return next(self._gen)


class SpanRecorder:
    """In-memory span log plus the wrappers that feed it."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        #: one row per span: (name id, start, end, parent row, request id)
        self.rows: list[tuple | None] = []
        self._stack: list[int] = []
        #: generator resumes of processes registered with the simulator
        self.resumes = [0]
        #: (owner, attr, original) of every installed wrapper
        self._saved: list[tuple[typing.Any, str, typing.Any]] = []
        #: span name -> summed ``Target.tally`` of its calls
        self.tallies: dict[str, int] = {}
        #: targets that do not exist in this version of the program
        self.missing: list[str] = []

    # ---- recording ---------------------------------------------------
    def _name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def _open(self) -> tuple[int, int, float]:
        """Start a span: (row index, parent row, start time)."""
        index = len(self.rows)
        self.rows.append(None)
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(index)
        return index, parent, time.perf_counter()

    def _close(self, nid: int, index: int, parent: int, start: float,
               rid: int | None) -> None:
        end = time.perf_counter()
        self._stack.pop()
        self.rows[index] = (nid, start, end, parent,
                            -1 if rid is None else rid)

    @contextlib.contextmanager
    def span(self, name: str):
        """Record one span (no request id) around the ``with`` body."""
        nid = self._name_id(name)
        opened = self._open()
        try:
            yield
        finally:
            self._close(nid, *opened, None)

    def _wrap(self, fn, name: str, rid_of, tally):
        rows, stack, clock = self.rows, self._stack, time.perf_counter
        tallies = self.tallies
        nid = self._name_id(name)

        # _open/_close inlined: this runs on every wrapped call, and two
        # extra method calls per span doubled the tracing overhead
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(rows)
            rows.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
                if tally is not None:
                    tallies[name] = (tallies.get(name, 0)
                                     + tally(args, kwargs, result))
                return result
            finally:
                end = clock()
                stack.pop()
                rid = rid_of(args) if rid_of is not None else None
                rows[index] = (nid, start, end, parent,
                               -1 if rid is None else rid)

        setattr(wrapper, MARK, name)
        return wrapper

    # ---- installing ----------------------------------------------------
    def _install(self, target: Target) -> None:
        module = importlib.import_module(target.module)
        owner = (module if target.owner is None
                 else getattr(module, target.owner, None))
        original = (None if owner is None
                    else vars(owner).get(target.attr))
        if not inspect.isfunction(original):
            # a subclass that inherits the method is covered by its base;
            # only a boundary that no longer exists at all is reported
            if owner is None or not hasattr(owner, target.attr):
                self.missing.append(
                    f"{target.module}.{target.owner or ''}.{target.attr}")
            return
        setattr(owner, target.attr, self._wrap(original, target.span,
                                               target.rid, target.tally))
        self._saved.append((owner, target.attr, original))

    def _install_resume_counter(self) -> None:
        from repro.sim.engine import Simulator

        original = vars(Simulator)["process"]
        counter = self.resumes

        @functools.wraps(original)
        def process(self, generator, *args, **kwargs):
            return original(self, _Counted(generator, counter),
                            *args, **kwargs)

        setattr(process, MARK, "loop.process")
        Simulator.process = process
        self._saved.append((Simulator, "process", original))

    @contextlib.contextmanager
    def installed(self, targets: typing.Iterable[Target],
                  count_resumes: bool = False):
        """Wrap ``targets`` for the ``with`` body; always restores."""
        try:
            for target in targets:
                self._install(target)
            if count_resumes:
                self._install_resume_counter()
            yield self
        finally:
            for owner, attr, original in reversed(self._saved):
                setattr(owner, attr, original)
            self._saved.clear()

    # ---- analysis ------------------------------------------------------
    def arrays(self) -> dict[str, np.ndarray]:
        """The span log as columns (unfinished spans are dropped)."""
        rows = [r for r in self.rows if r is not None]
        if len(rows) != len(self.rows):
            raise RuntimeError("span log holds unfinished spans")
        table = np.array(rows, dtype=np.float64).reshape(-1, 5)
        return {
            "name": table[:, 0].astype(np.int32),
            "start": table[:, 1],
            "end": table[:, 2],
            "parent": table[:, 3].astype(np.int64),
            "rid": table[:, 4].astype(np.int64),
        }

    def save(self, path: pathlib.Path) -> None:
        """Write the span log (``.npz`` columns plus the name table)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        cols = self.arrays()
        np.savez(path, names=np.array(json.dumps(self.names)), **cols)


def layer_of(name: str) -> str:
    return name.rsplit(".", 1)[0]


@dataclasses.dataclass
class SpanSummary:
    """Per-name and per-layer aggregates of one span log."""

    #: span name -> (calls, inclusive s, self s), outermost calls only
    #: for calls and inclusive time (see :func:`summarise`)
    by_name: dict[str, tuple[int, float, float]]
    #: layer -> (outermost calls, inclusive s, self s)
    by_layer: dict[str, tuple[int, float, float]]
    self_total: float
    root_total: float
    #: ``engine.decode_step`` spans nested inside ``backend.estimate``
    engine_steps_in_estimates: int


def _nested_in(parent: np.ndarray, match) -> np.ndarray:
    """For every span, whether some ancestor satisfies ``match``.

    ``match(spans, ancestors)`` compares index arrays elementwise.
    """
    nested = np.zeros(len(parent), dtype=bool)
    ancestor = parent.copy()
    while True:
        live = ancestor >= 0
        if not live.any():
            return nested
        idx = np.nonzero(live)[0]
        nested[idx] |= match(idx, ancestor[idx])
        ancestor[idx] = parent[ancestor[idx]]


def summarise(recorder: SpanRecorder) -> SpanSummary:
    """Counts, inclusive and self times per span name and per layer.

    Inclusive time and call counts take only *outermost* spans -- those
    with no ancestor of the same name (per name) or of the same layer
    (per layer) -- so a call that re-enters its own layer is not counted
    twice.  Self time sums over every span.
    """
    cols = recorder.arrays()
    names = recorder.names
    name, parent = cols["name"], cols["parent"]
    dur = cols["end"] - cols["start"]
    has_parent = parent >= 0
    child = np.bincount(parent[has_parent], weights=dur[has_parent],
                        minlength=len(dur))
    self_s = dur - child
    layers = [layer_of(n) for n in names]
    layer_ids = {lay: i for i, lay in enumerate(sorted(set(layers)))}
    layer = np.array([layer_ids[layers[n]] for n in range(len(names))],
                     dtype=np.int32)[name] if len(names) else name
    same_name = _nested_in(parent, lambda i, a: name[a] == name[i])
    same_layer = _nested_in(parent, lambda i, a: layer[a] == layer[i])
    by_name = {}
    for nid, n in enumerate(names):
        mine = name == nid
        outer = mine & ~same_name
        by_name[n] = (int(outer.sum()), float(dur[outer].sum()),
                      float(self_s[mine].sum()))
    by_layer = {}
    for lay, lid in layer_ids.items():
        mine = layer == lid
        outer = mine & ~same_layer
        by_layer[lay] = (int(outer.sum()), float(dur[outer].sum()),
                         float(self_s[mine].sum()))
    estimate = recorder._ids.get("backend.estimate", -1)
    step = recorder._ids.get("engine.decode_step", -1)
    in_estimate = _nested_in(parent, lambda i, a: name[a] == estimate)
    return SpanSummary(
        by_name=by_name,
        by_layer=by_layer,
        self_total=float(self_s.sum()),
        root_total=float(dur[~has_parent].sum()),
        engine_steps_in_estimates=int((in_estimate & (name == step)).sum()),
    )


def wrapped_now(targets: typing.Iterable[Target]) -> list[str]:
    """Targets (and ``Simulator.process``) whose current function is one
    of this module's wrappers; empty outside
    :meth:`SpanRecorder.installed`."""
    places = [(t.module, t.owner, t.attr) for t in targets]
    places.append(("repro.sim.engine", "Simulator", "process"))
    out = []
    for module_name, owner_name, attr in places:
        module = sys.modules.get(module_name)
        if module is None:
            continue
        owner = (module if owner_name is None
                 else getattr(module, owner_name, None))
        fn = None if owner is None else vars(owner).get(attr)
        if fn is not None and hasattr(fn, MARK):
            out.append(f"{module_name}.{owner_name or ''}.{attr}")
    return out

"""Unit + property tests for the discrete-event engine and pipelines."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import (
    Acquire,
    Process,
    Release,
    Resource,
    Signal,
    Simulator,
    Timeout,
    WaitSignal,
    WaitUntil,
    overlap_two_stage,
    pipeline_makespan,
)
from repro.sim.engine import _SignalWait


class TestEngine:
    def test_single_timeout(self):
        sim = Simulator()

        def proc():
            yield Timeout(2.5)

        sim.process(proc())
        assert sim.run() == 2.5

    def test_sequential_timeouts_accumulate(self):
        sim = Simulator()

        def proc():
            yield Timeout(1.0)
            yield Timeout(2.0)

        sim.process(proc())
        assert sim.run() == 3.0

    def test_parallel_processes_overlap(self):
        sim = Simulator()

        def proc(d):
            yield Timeout(d)

        sim.process(proc(3.0))
        sim.process(proc(1.0))
        assert sim.run() == 3.0

    def test_start_delay(self):
        sim = Simulator()

        def proc():
            yield Timeout(1.0)

        sim.process(proc(), delay=2.0)
        assert sim.run() == 3.0

    def test_resource_serialises(self):
        sim = Simulator()
        r = Resource("dev")
        ends = []

        def proc():
            yield Acquire(r)
            yield Timeout(1.0)
            yield Release(r)
            ends.append(sim.now)

        sim.process(proc())
        sim.process(proc())
        sim.run()
        assert ends == [1.0, 2.0]

    def test_join_waits_for_completion(self):
        sim = Simulator()
        order = []

        def worker():
            yield Timeout(5.0)
            order.append(("worker", sim.now))

        def waiter(w):
            yield w
            order.append(("waiter", sim.now))

        w = sim.process(worker())
        sim.process(waiter(w))
        sim.run()
        assert order == [("worker", 5.0), ("waiter", 5.0)]

    def test_join_finished_process_is_immediate(self):
        sim = Simulator()

        def worker():
            yield Timeout(1.0)

        w = sim.process(worker())
        sim.run()

        def waiter():
            yield w
            yield Timeout(1.0)

        sim.process(waiter())
        assert sim.run() == 2.0

    def test_release_without_hold_raises(self):
        sim = Simulator()
        r = Resource("dev")

        def proc():
            yield Release(r)

        sim.process(proc())
        with pytest.raises(RuntimeError):
            sim.run()

    def test_bad_yield_type_raises(self):
        sim = Simulator()

        def proc():
            yield 42

        sim.process(proc())
        with pytest.raises(TypeError):
            sim.run()

    def test_negative_timeout_rejected(self):
        with pytest.raises(ValueError):
            Timeout(-1.0)

    def test_fifo_waiters(self):
        sim = Simulator()
        r = Resource("dev")
        order = []

        def proc(name):
            yield Acquire(r)
            order.append(name)
            yield Timeout(1.0)
            yield Release(r)

        for name in "abc":
            sim.process(proc(name))
        sim.run()
        assert order == ["a", "b", "c"]


class AlwaysPush(Simulator):
    """Reference scheduler: every ready process goes through the heap.

    One yield per calendar pop, dispatched exactly as a scheduler with
    no inline resume would; shares the heap, the pop loop, ``fire`` and
    ``_finish`` with :class:`Simulator`.
    """

    def _resume(self, proc: Process) -> None:
        try:
            item = next(proc.generator)
        except StopIteration:
            self._finish(proc)
            return
        now = self.now
        if isinstance(item, Timeout):
            self._push(now + item.delay, proc)
        elif isinstance(item, WaitUntil):
            self._push(item.time if item.time > now else now, proc)
        elif isinstance(item, WaitSignal):
            token = _SignalWait(item.signal, proc)
            item.signal._waiters.append(token)
            if item.until is not None:
                self._push(item.until if item.until > now else now, token)
        elif isinstance(item, Acquire):
            resource = item.resource
            if resource._holder is None:
                resource._holder = proc
                self._push(now, proc)
            else:
                resource._waiters.append(proc)
        elif isinstance(item, Release):
            resource = item.resource
            if resource._holder is not proc:
                raise RuntimeError(f"{proc.name} released {resource.name}")
            resource._holder = None
            if resource._waiters:
                waiter = resource._waiters.pop(0)
                resource._holder = waiter
                self._push(now, waiter)
            self._push(now, proc)
        elif isinstance(item, Process):
            if item.finished:
                self._push(now, proc)
            else:
                item._joiners.append(proc)
        else:
            raise TypeError(f"process {proc.name} yielded {item!r}")


#: small, repeating durations so processes tie on exact instants
_DURATIONS = st.sampled_from([0.0, 0.0, 0.25, 0.5, 1.0])
_OP = st.one_of(
    st.tuples(st.just("timeout"), _DURATIONS),
    # past, present and future absolute targets
    st.tuples(st.just("until"), st.sampled_from([-1.0, 0.0, 0.25, 1.0])),
    # resource 0 is shared by every process; "own" is private
    st.tuples(st.just("hold"), st.sampled_from([0, "own"]), _DURATIONS),
    st.tuples(st.just("fire"), st.integers(0, 1)),
    st.tuples(st.just("wait"), st.integers(0, 1),
              st.sampled_from([None, -0.5, 0.0, 0.25, 1.5])),
    st.tuples(st.just("join"), st.integers(0, 3)),
)
_PROGRAMS = st.lists(
    st.tuples(_DURATIONS, st.lists(_OP, max_size=6)),
    min_size=1, max_size=4,
)


def _run_program(sim: Simulator, programs) -> tuple[list, float]:
    """Run ``programs`` on ``sim``; ``(resume log, final time)``."""
    log: list[tuple[int, float]] = []
    shared = Resource("shared")
    signals = [Signal("s0"), Signal("s1")]
    handles: list[Process] = []

    def body(index: int, ops):
        own = Resource(f"own-{index}")
        log.append((index, sim.now))
        for op in ops:
            kind = op[0]
            if kind == "timeout":
                yield Timeout(op[1])
            elif kind == "until":
                yield WaitUntil(sim.now + op[1])
            elif kind == "hold":
                resource = own if op[1] == "own" else shared
                yield Acquire(resource)
                log.append((index, sim.now))
                yield Timeout(op[2])
                yield Release(resource)
            elif kind == "fire":
                sim.fire(signals[op[1]])
                continue
            elif kind == "wait":
                until = None if op[2] is None else sim.now + op[2]
                yield WaitSignal(signals[op[1]], until)
            else:
                yield handles[op[1] % len(handles)]
            log.append((index, sim.now))

    for index, (delay, ops) in enumerate(programs):
        handles.append(sim.process(body(index, ops), f"p{index}", delay))
    return log, sim.run()


class TestInlineResume:
    """Inline resume is invisible: same resume order, same clock."""

    @given(_PROGRAMS)
    @settings(max_examples=300, deadline=None)
    def test_matches_always_push_scheduler(self, programs):
        inline, reference = Simulator(), AlwaysPush()
        assert _run_program(inline, programs) == _run_program(
            reference, programs)
        assert inline._seq <= reference._seq

    def test_release_hands_off_to_waiter_first(self):
        """A release with a waiter queues the waiter ahead of the
        releasing process at the same instant, and the two alternate
        through the heap from there on."""
        results = []
        for sim in (Simulator(), AlwaysPush()):
            r = Resource("dev")
            order = []

            def holder():
                yield Acquire(r)
                yield Timeout(1.0)
                yield Release(r)
                order.append(("holder", sim.now))
                yield Timeout(0.0)
                order.append(("holder", sim.now))

            def waiter():
                yield Acquire(r)
                order.append(("waiter", sim.now))
                yield Release(r)
                order.append(("waiter", sim.now))

            sim.process(holder())
            sim.process(waiter())
            sim.run()
            results.append(order)
        assert results[0] == results[1] == [
            ("waiter", 1.0), ("holder", 1.0),
            ("waiter", 1.0), ("holder", 1.0),
        ]

    def test_stale_signal_token_at_now_is_skipped(self):
        """A fired wait leaves its deadline entry in the calendar; a
        process yielding at that same instant still queues behind it,
        and the stale entry wakes nobody."""
        results = []
        for sim in (Simulator(), AlwaysPush()):
            wake = Signal()
            order = []

            def late():
                yield WaitUntil(1.0)
                order.append(("late", sim.now))
                yield Timeout(0.0)
                order.append(("late", sim.now))

            def sleeper():
                yield WaitSignal(wake, until=1.0)
                order.append(("sleeper", sim.now))

            def firer():
                yield Timeout(0.5)
                sim.fire(wake)

            sim.process(late())
            sim.process(sleeper())
            sim.process(firer())
            sim.run()
            results.append((order, sim._queue))
        assert results[0] == results[1] == (
            [("sleeper", 0.5), ("late", 1.0), ("late", 1.0)], [])

    def test_inline_resume_skips_the_heap(self):
        """A lone process never pushes past its start."""
        sim = Simulator()
        r = Resource("dev")

        def proc():
            for _ in range(10):
                yield Acquire(r)
                yield Timeout(1.0)
                yield WaitUntil(sim.now + 1.0)
                yield Release(r)

        sim.process(proc())
        assert sim.run() == 20.0
        assert sim._seq == 1


class TestPipeline:
    def test_empty(self):
        assert pipeline_makespan([]) == 0.0

    def test_single_item(self):
        assert pipeline_makespan([[1.0, 2.0, 3.0]]) == 6.0

    def test_classic_two_stage(self):
        # transfer 1s each, compute 2s each: last compute ends at 1+3*2
        assert pipeline_makespan([[1, 2]] * 3) == 7.0

    def test_bottleneck_stage_dominates(self):
        n = 5
        span = pipeline_makespan([[1, 10]] * n)
        assert span == pytest.approx(1 + n * 10)

    def test_ragged_rows_rejected(self):
        with pytest.raises(ValueError):
            pipeline_makespan([[1, 2], [1]])

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            pipeline_makespan([[1, -2]])
        with pytest.raises(ValueError):
            overlap_two_stage([1], [-1])

    def test_closed_form_matches_des(self):
        transfer = [0.5, 2.0, 0.1, 1.0]
        compute = [1.0, 0.2, 3.0, 0.5]
        des = pipeline_makespan(list(map(list, zip(transfer, compute))))
        assert overlap_two_stage(transfer, compute) == pytest.approx(des)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            overlap_two_stage([1, 2], [1])

    @given(st.lists(st.tuples(st.floats(0, 10), st.floats(0, 10)),
                    min_size=1, max_size=12))
    @settings(max_examples=60, deadline=None)
    def test_property_closed_form_equals_des(self, pairs):
        """The prefetch recurrence and the event engine agree exactly."""
        transfer = [t for t, _ in pairs]
        compute = [c for _, c in pairs]
        des = pipeline_makespan([[t, c] for t, c in pairs])
        assert overlap_two_stage(transfer, compute) == pytest.approx(
            des, abs=1e-9
        )

    @given(st.lists(st.tuples(st.floats(0, 5), st.floats(0, 5)),
                    min_size=1, max_size=10))
    @settings(max_examples=40, deadline=None)
    def test_property_overlap_bounds(self, pairs):
        """Makespan is bounded by serial sum and below by each stage."""
        transfer = [t for t, _ in pairs]
        compute = [c for _, c in pairs]
        span = overlap_two_stage(transfer, compute)
        assert span <= sum(transfer) + sum(compute) + 1e-9
        assert span >= max(sum(transfer), sum(compute)) - 1e-9

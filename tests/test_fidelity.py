"""Distribution-level validation of ``fidelity: fast``.

Fast fidelity replaces per-token event replay with one closed-form span
estimate per admitted batch (uniform token spacing within the span), so
it is *not* bit-equal to exact mode — individual token timestamps move
within a span.  What must survive is the distribution: the metrics a
study actually reports.  The contract pinned here, for fixed seeds:

* latency percentiles (TTFT, E2E at p50/p95/p99), makespan, goodput
  and tokens/sec within **5 %** relative (plus a 1 ms absolute floor
  for near-zero percentiles);
* SLO attainment fractions within **0.05** absolute;
* request completion counts and migration counts exactly equal (fast
  mode changes token *timing*, never scheduling outcomes at this
  granularity envelope).

The budget is calibrated against an exhaustive sweep of this grid
(rate × max_batch × seed): the measured worst case is ~2.9 % on tail
percentiles at max_batch=2 under 600 req/s overload — long spans with
tiny batches are where uniform spacing diverges most from the exact
context ramp — while moderate loads sit near ~1e-3 and the crash
drill near ~3e-4.  Goodput's deltas are additionally discrete (a
request flipping across the SLO boundary moves it by its whole token
count).

With a load-oblivious router (round-robin, session-affinity) fast mode
pre-routes every arrival and bounds each machine's spans at its own
arrivals.  Pinned below: such runs are deterministic, stay inside the
same budget, keep exact mode's machine assignment when fault-free, and
do not wake idle machines for arrivals routed elsewhere; a load-aware
router, a health-aware wrapper or a router partition keeps live routing.
"""

from __future__ import annotations

import dataclasses
import math

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.cluster import ClusterConfig, ClusterSimulator
from repro.cluster.routers import RoundRobinRouter
from repro.cluster.slo import PriorityClass, SLOPolicy
from repro.serving import WorkloadConfig, generate_workload
from repro.serving.faults import CrashSpec, FaultSchedule, PartitionSpec
from repro.serving.workload import merge_workloads
from repro.sim import Simulator
from repro.telemetry.events import (
    RequestCompleted,
    RequestRouted,
    RunEnded,
    RunStarted,
)
from repro.telemetry.tracer import RecordingTracer

MODEL = "tiny-test"
REL_TOL = 0.05
ABS_FLOOR = 1e-3
ATTAINMENT_TOL = 0.05

SLO = SLOPolicy(classes=(
    PriorityClass(name="default", priority=0, ttft_slo=0.3, tbt_slo=0.01),
))

CRASHES = FaultSchedule(crashes=(
    CrashSpec(machine=1, at=0.2, restart_after=0.3),
    CrashSpec(machine=3, at=0.5, restart_after=0.4),
))

#: (router, faults) grid of the pre-routed fast path
PREROUTED = [
    (router, faults)
    for router in ("round-robin", "session-affinity")
    for faults in (None, CRASHES)
]


def _workload(per, rate, seed):
    return merge_workloads(*[
        generate_workload(
            WorkloadConfig(num_requests=per, rate=rate),
            seed=seed + i,
            tenant=f"t{i}",
        )
        for i in range(4)
    ])


def _pair(base, workload):
    """(exact report, fast report) for the same scenario."""
    reports = []
    for fid in ("exact", "fast"):
        cfg = dataclasses.replace(base, fidelity=fid)
        sim = ClusterSimulator(MODEL, "fcfs", cfg, slo=SLO)
        reports.append(sim.run(list(workload)))
    return reports


def _close(exact, fast):
    if math.isnan(exact):
        return math.isnan(fast)
    return abs(fast - exact) <= max(REL_TOL * abs(exact), ABS_FLOOR)


def _assert_distributions_close(exact, fast):
    assert len(fast.records) == len(exact.records)
    assert len(fast.completed) == len(exact.completed)
    assert (sum(r.migrations for r in fast.records)
            == sum(r.migrations for r in exact.records))
    assert _close(exact.makespan, fast.makespan)
    for p in (50, 95, 99):
        assert _close(exact.ttft_percentile(p), fast.ttft_percentile(p)), (
            f"ttft p{p}: exact={exact.ttft_percentile(p)} "
            f"fast={fast.ttft_percentile(p)}")
        assert _close(exact.e2e_percentile(p), fast.e2e_percentile(p)), (
            f"e2e p{p}: exact={exact.e2e_percentile(p)} "
            f"fast={fast.e2e_percentile(p)}")
    ea = exact.slo_attainment("default")
    fa = fast.slo_attainment("default")
    for key in ("ttft", "tbt", "joint"):
        assert abs(fa[key] - ea[key]) <= ATTAINMENT_TOL, (
            f"attainment[{key}]: exact={ea[key]} fast={fa[key]}")
    assert _close(exact.goodput, fast.goodput), (
        f"goodput: exact={exact.goodput} fast={fast.goodput}")
    assert _close(exact.tokens_per_second, fast.tokens_per_second)


class TestFastFidelityTolerance:
    @settings(
        max_examples=6,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        rate=st.sampled_from([8.0, 200.0, 600.0]),
        max_batch=st.sampled_from([2, 4, 8]),
        seed=st.integers(min_value=0, max_value=3),
    )
    def test_fault_free(self, rate, max_batch, seed):
        """Percentiles/attainment/goodput within budget across loads."""
        base = ClusterConfig(num_machines=4, router="round-robin",
                             max_batch=max_batch)
        exact, fast = _pair(base, _workload(30, rate, 11 + seed))
        _assert_distributions_close(exact, fast)

    def test_under_crash_faults(self):
        """Crash-truncated spans stay within the same budget."""
        base = ClusterConfig(num_machines=4, router="session-affinity",
                             max_batch=4, faults=CRASHES)
        exact, fast = _pair(base, _workload(60, 300.0, 5))
        assert sum(r.migrations for r in exact.records) > 0
        _assert_distributions_close(exact, fast)

    def test_fast_prerouted_deterministic(self):
        """Pre-routed fast runs are identical run-to-run."""
        workload = _workload(20, 100.0, 29)
        for router, faults in PREROUTED:
            cfg = ClusterConfig(num_machines=4, router=router, max_batch=4,
                                fidelity="fast", faults=faults)
            a, b = (
                ClusterSimulator(MODEL, "fcfs", cfg, slo=SLO).run(
                    list(workload))
                for _ in range(2)
            )
            assert a.makespan == b.makespan, (router, faults)
            assert a.machine_gpu_busy == b.machine_gpu_busy
            assert a.queue_samples == b.queue_samples
            for ra, rb in zip(a.records, b.records):
                assert ra.token_times == rb.token_times
                assert ra.machine == rb.machine
                assert ra.migrations == rb.migrations

    def test_fast_prerouted_within_tolerance_of_exact(self):
        """Pre-routed fast mode stays inside the tolerance envelope.

        Bounding spans at a machine's own arrivals instead of every
        arrival changes the uniform-spacing windows, not the admission
        instants, so fault-free every request lands on the machine
        exact mode routes it to.
        """
        workload = _workload(60, 300.0, 5)
        for router, faults in PREROUTED:
            base = ClusterConfig(num_machines=4, router=router,
                                 max_batch=4, faults=faults)
            exact, fast = _pair(base, workload)
            if faults is not None:
                assert exact.migrations > 0
            _assert_distributions_close(exact, fast)
            if faults is None:
                assert [r.machine for r in fast.records] == [
                    r.machine for r in exact.records
                ], router

    def test_idle_machines_do_not_wake_for_foreign_arrivals(
        self, monkeypatch
    ):
        """A pre-routed machine parks until its own next arrival.

        The same round-robin decisions routed live wake every idle
        machine at every arrival in the fleet, so the machines' loops
        resume about once per machine per request; pre-routed, a
        handful of times per request.  Resumes, not calendar pushes,
        are counted: an inline resume costs the loop a step but no push.
        """
        resumes: list[list[int]] = []

        class Counted:
            def __init__(self, generator, counter: list[int]) -> None:
                self.generator, self.counter = generator, counter

            def __iter__(self):
                return self

            def __next__(self):
                self.counter[0] += 1
                return next(self.generator)

        class CountingSimulator(Simulator):
            def __init__(self) -> None:
                super().__init__()
                self.counter = [0]
                resumes.append(self.counter)

            def process(self, generator, *args, **kwargs):
                return super().process(Counted(generator, self.counter),
                                       *args, **kwargs)

        class LiveRoundRobin(RoundRobinRouter):
            load_oblivious = False

        monkeypatch.setattr("repro.serving.simulator.Simulator",
                            CountingSimulator)
        workload = _workload(25, 100.0, 3)
        cfg = ClusterConfig(num_machines=64, router="round-robin",
                            max_batch=4, fidelity="fast")
        prerouted = ClusterSimulator(MODEL, "fcfs", cfg, slo=SLO).run(
            list(workload))
        live = ClusterSimulator(MODEL, "fcfs", cfg, slo=SLO,
                                router=LiveRoundRobin()).run(list(workload))
        assert [r.machine for r in prerouted.records] == [
            r.machine for r in live.records
        ]
        (resumes_prerouted,), (resumes_live,) = resumes
        n = len(workload)
        assert resumes_prerouted < 12 * n
        assert resumes_live > 50 * n

    def test_prerouted_stream_is_complete(self):
        """Tracing a pre-routed run does not perturb it, and the stream
        still routes every arrival to the machine that served it."""
        workload = _workload(10, 100.0, 7)
        cfg = ClusterConfig(num_machines=4, router="round-robin",
                            max_batch=4, fidelity="fast")
        plain = ClusterSimulator(MODEL, "fcfs", cfg, slo=SLO).run(
            list(workload))
        tracer = RecordingTracer()
        traced = ClusterSimulator(MODEL, "fcfs", cfg, slo=SLO).run(
            list(workload), tracer=tracer)
        assert traced.makespan == plain.makespan
        assert ([r.token_times for r in traced.records]
                == [r.token_times for r in plain.records])
        events = tracer.events
        assert isinstance(events[0], RunStarted)
        assert isinstance(events[-1], RunEnded)
        routed = {e.req_id: e.machine for e in events
                  if isinstance(e, RequestRouted)}
        assert routed == {r.request.req_id: r.machine
                          for r in traced.records}
        completed = [e for e in events if isinstance(e, RequestCompleted)]
        assert len(completed) == len(traced.completed) == len(workload)


def _prerouted(config):
    """Whether a run under ``config`` pre-routes its arrivals."""
    sim = ClusterSimulator(MODEL, "fcfs", config, slo=SLO)
    return sim._build_state(_workload(2, 100.0, 1)).span_bounds is not None


class TestPreRoutingRule:
    def test_fast_load_oblivious_routers_preroute(self):
        for router, faults in PREROUTED:
            cfg = ClusterConfig(num_machines=4, router=router,
                                fidelity="fast", faults=faults)
            assert _prerouted(cfg)
            assert not _prerouted(dataclasses.replace(cfg,
                                                      fidelity="exact"))

    def test_load_dependent_router_routes_live(self):
        for router in ("least-loaded", "power-of-two",
                       "throughput-least-loaded"):
            cfg = ClusterConfig(num_machines=4, router=router,
                                fidelity="fast")
            assert not _prerouted(cfg)

    def test_health_aware_routes_live(self):
        cfg = ClusterConfig(num_machines=4, fidelity="fast",
                            health_aware=True, faults=CRASHES)
        assert not _prerouted(cfg)

    def test_partitions_route_live(self):
        faults = FaultSchedule(partitions=(
            PartitionSpec(machine=0, start=1.0, end=2.0),
        ))
        cfg = ClusterConfig(num_machines=4, fidelity="fast",
                            faults=faults)
        assert not _prerouted(cfg)

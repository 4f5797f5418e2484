"""Tests for the cluster layer (routers, SLO classes, preemption)."""

from __future__ import annotations

import dataclasses
import math

import pytest

from repro.cluster import (
    ClusterConfig,
    ClusterReport,
    ClusterSimulator,
    PriorityClass,
    PriorityOrderedPolicy,
    SLOPolicy,
    get_router,
)
from repro.cluster.routers import Router
from repro.experiments.cluster_eval import SCENARIO_DIR
from repro.hardware import Machine
from repro.models import get_model
from repro.scenarios import load_scenario
from repro.serving import (
    CrashSpec,
    FaultSchedule,
    LengthDistribution,
    Request,
    RequestRecord,
    ServingConfig,
    ServingSimulator,
    WorkloadConfig,
    generate_workload,
    get_policy,
    merge_workloads,
)
from repro.serving.executor import MachineExecutor
from repro.serving.simulator import _MachineLoop, _RunState
from repro.telemetry import RecordingTracer


# ----------------------------------------------------------------------
# routers
# ----------------------------------------------------------------------
def _req(i, tenant="default"):
    return Request(
        req_id=i, arrival=float(i), prompt_len=8, output_len=8, tenant=tenant
    )


class TestRouters:
    def test_round_robin_cycles(self):
        router = get_router("round-robin")
        loads = [0.0, 0.0, 0.0]
        assert [router.route(_req(i), loads) for i in range(6)] \
            == [0, 1, 2, 0, 1, 2]

    def test_least_loaded_picks_min_with_low_index_ties(self):
        router = get_router("least-loaded")
        assert router.route(_req(0), [3.0, 1.0, 2.0]) == 1
        assert router.route(_req(1), [2.0, 2.0, 2.0]) == 0

    def test_session_affinity_stable_and_spread(self):
        router = get_router("session-affinity")
        loads = [0.0] * 4
        for tenant in ("alpha", "bravo", "charlie"):
            targets = {router.route(_req(i, tenant), loads) for i in range(5)}
            assert len(targets) == 1  # every request of a tenant pins
        # the mapping must not depend on Python's randomised str hash
        assert get_router("session-affinity").route(
            _req(0, "alpha"), loads) == router.route(_req(1, "alpha"), loads)

    def test_power_of_two_prefers_less_loaded_probe(self):
        router = get_router("power-of-two", seed=3)
        # with one machine there is only one choice
        assert router.route(_req(0), [9.0]) == 0
        # over many draws, the heavily-loaded machine is mostly avoided
        loads = [100.0, 0.0, 0.0, 0.0]
        picks = [router.route(_req(i), loads) for i in range(40)]
        assert picks.count(0) < 5

    def test_power_of_two_deterministic_per_seed(self):
        loads = [1.0, 2.0, 3.0, 4.0]
        a = get_router("power-of-two", seed=11)
        b = get_router("power-of-two", seed=11)
        assert [a.route(_req(i), loads) for i in range(16)] \
            == [b.route(_req(i), loads) for i in range(16)]

    def test_unknown_router(self):
        with pytest.raises(KeyError):
            get_router("carrier-pigeon")

    def test_instance_passthrough(self):
        router = get_router("round-robin")
        assert get_router(router) is router


# ----------------------------------------------------------------------
# SLO policy + priority ordering
# ----------------------------------------------------------------------
class TestSLOPolicy:
    def test_class_resolution_and_errors(self):
        slo = SLOPolicy(
            classes=(PriorityClass("a", priority=1), PriorityClass("b"))
        )
        assert slo.class_of(
            Request(req_id=0, arrival=0.0, prompt_len=1, output_len=1,
                    class_name="a")).priority == 1
        with pytest.raises(KeyError):
            slo.class_of(Request(req_id=1, arrival=0.0, prompt_len=1,
                                 output_len=1, class_name="zz"))

    def test_validation(self):
        for bad in (0.0, float("nan"), float("inf")):
            with pytest.raises(ValueError, match="ttft_slo"):
                PriorityClass(name="x", ttft_slo=bad)
            with pytest.raises(ValueError, match="tbt_slo"):
                PriorityClass(name="x", tbt_slo=bad)
        with pytest.raises(ValueError):
            PriorityClass(name="")
        with pytest.raises(ValueError):
            SLOPolicy(classes=())
        with pytest.raises(ValueError):
            SLOPolicy(classes=(PriorityClass("a"), PriorityClass("a")))
        with pytest.raises(ValueError):
            SLOPolicy(headroom=1.5)

    def test_priority_order_wraps_base_policy(self):
        slo = SLOPolicy(classes=(PriorityClass("hi", priority=2),
                                 PriorityClass("lo", priority=0)))
        queue = [
            Request(req_id=0, arrival=0.0, prompt_len=8, output_len=8,
                    class_name="lo"),
            Request(req_id=1, arrival=1.0, prompt_len=8, output_len=8,
                    class_name="hi"),
            Request(req_id=2, arrival=2.0, prompt_len=8, output_len=8,
                    class_name="hi"),
        ]
        wrapped = PriorityOrderedPolicy(get_policy("fcfs"), slo)
        assert [r.req_id for r in wrapped.order(queue)] == [1, 2, 0]
        # single class: exactly the base policy's order (stable sort)
        flat = SLOPolicy()
        queue = [_req(2), _req(0), _req(1)]
        wrapped = PriorityOrderedPolicy(get_policy("fcfs"), flat)
        assert wrapped.order(queue) == get_policy("fcfs").order(queue)

    def test_empty_queue_order(self):
        wrapped = PriorityOrderedPolicy(get_policy("fcfs"), SLOPolicy())
        assert wrapped.order([]) == []


# ----------------------------------------------------------------------
# cluster simulation end to end
# ----------------------------------------------------------------------
TWO_CLASS_SLO = SLOPolicy(
    classes=(PriorityClass("interactive", priority=2, ttft_slo=0.002,
                           tbt_slo=0.004),
             PriorityClass("batch", priority=0, ttft_slo=0.05)),
    preemptive=True, headroom=0.8)


def _mixed_workload():
    hi = generate_workload(
        WorkloadConfig(rate=4000.0, num_requests=32,
                       prompt_lens=LengthDistribution(mean=24),
                       output_lens=LengthDistribution(kind="uniform",
                                                      mean=12, low=8,
                                                      high=16)),
        seed=1, tenant="chat", class_name="interactive")
    lo = generate_workload(
        WorkloadConfig(arrival="bursty", rate=20000.0, num_requests=96,
                       prompt_lens=LengthDistribution(mean=64),
                       output_lens=LengthDistribution(kind="uniform",
                                                      mean=40, low=24,
                                                      high=56)),
        seed=2, tenant="analytics", class_name="batch")
    return merge_workloads(hi, lo)


def _cluster_run(tiny_trace, *, preemptive, router="least-loaded", machines=2):
    slo = SLOPolicy(
        classes=TWO_CLASS_SLO.classes,
        preemptive=preemptive,
        headroom=TWO_CLASS_SLO.headroom,
    )
    simulator = ClusterSimulator(
        "tiny-test",
        "fcfs",
        ClusterConfig(max_batch=8, num_machines=machines, router=router),
        slo=slo,
        trace=tiny_trace,
    )
    return simulator.run(_mixed_workload())


class TestClusterSimulator:
    @pytest.fixture(scope="class")
    def preemptive_report(self, tiny_trace):
        return _cluster_run(tiny_trace, preemptive=True)

    @pytest.fixture(scope="class")
    def plain_report(self, tiny_trace):
        return _cluster_run(tiny_trace, preemptive=False)

    def test_all_complete_across_machines(self, preemptive_report):
        report = preemptive_report
        assert len(report.completed) == len(report.records) == 128
        assert {r.machine for r in report.completed} == {0, 1}
        for record in report.records:
            assert len(record.token_times) == record.request.output_len

    def test_preemption_happens_and_is_recorded(
        self, preemptive_report, plain_report
    ):
        assert preemptive_report.preemptions > 0
        assert plain_report.preemptions == 0
        preempted = [r for r in preemptive_report.records if r.preemptions > 0]
        assert preempted
        # victims are only ever lower-priority (batch) requests
        assert all(r.request.class_name == "batch" for r in preempted)
        # a preempted request still finishes its full output
        assert all(r.finished for r in preempted)

    def test_preemption_protects_interactive_ttft(
        self, preemptive_report, plain_report
    ):
        cls = "interactive"
        assert preemptive_report.class_ttft_percentile(cls, 99) < \
            0.5 * plain_report.class_ttft_percentile(cls, 99)
        assert preemptive_report.slo_attainment(cls)["ttft"] > \
            plain_report.slo_attainment(cls)["ttft"]

    def test_per_machine_utilization_consistent(self, preemptive_report):
        report = preemptive_report
        assert len(report.machine_dimm_busy) == 2
        assert report.gpu_busy == pytest.approx(sum(report.machine_gpu_busy))
        assert report.dimm_utilization == pytest.approx(
            sum(report.machine_dimm_utilization) / 2
        )
        assert all(u > 0 for u in report.machine_gpu_utilization)

    def test_deterministic(self, tiny_trace):
        a = _cluster_run(tiny_trace, preemptive=True)
        b = _cluster_run(tiny_trace, preemptive=True)
        assert a.makespan == b.makespan
        assert [r.token_times for r in a.records] == \
            [r.token_times for r in b.records]
        assert a.preemptions == b.preemptions

    def test_routers_all_serve_everything(self, tiny_trace):
        for router in ("round-robin", "session-affinity", "power-of-two"):
            report = _cluster_run(tiny_trace, preemptive=False, router=router)
            assert len(report.completed) == 128
            assert report.router == router

    def test_fairness_index_bounds(self, preemptive_report):
        assert 0.0 < preemptive_report.fairness_index() <= 1.0
        assert 0.0 < preemptive_report.fairness_index(by="class") <= 1.0
        with pytest.raises(ValueError):
            preemptive_report.fairness_index(by="machine")

    def test_single_class_never_preempts(self, tiny_trace):
        workload = generate_workload(
            WorkloadConfig(rate=20000.0, num_requests=48,
                           prompt_lens=LengthDistribution(mean=16),
                           output_lens=LengthDistribution(mean=8)),
            seed=4)
        simulator = ClusterSimulator(
            "tiny-test",
            "fcfs",
            ClusterConfig(max_batch=8, num_machines=2),
            slo=SLOPolicy(preemptive=True),
            trace=tiny_trace,
        )
        report = simulator.run(workload)
        assert report.preemptions == 0
        assert len(report.completed) == 48


def _tenant_workload(per, seed, n_tenants=6, rate=8.0):
    return merge_workloads(*[
        generate_workload(
            WorkloadConfig(num_requests=per, rate=rate),
            seed=seed + i,
            tenant=f"t{i}",
        )
        for i in range(n_tenants)
    ])


def _affinity_crash_run(crashes, workload):
    config = ClusterConfig(
        num_machines=4,
        router="session-affinity",
        max_batch=4,
        faults=FaultSchedule(crashes=crashes),
    )
    return ClusterSimulator("tiny-test", "fcfs", config).run(list(workload))


class TestClusterCrashes:
    def test_crash_migrations_actually_happen(self):
        """Routed crashes migrate real work: refugees are re-routed,
        keep their streamed tokens and finish their output once the
        fleet restarts."""
        report = _affinity_crash_run(
            (CrashSpec(machine=1, at=0.9, restart_after=0.7),
             CrashSpec(machine=3, at=1.9, restart_after=0.6)),
            _tenant_workload(per=40, seed=5),
        )
        moved = [r for r in report.records if r.migrations]
        assert moved
        assert all(r.finished for r in report.records)
        for record in moved:
            times = record.token_times
            assert all(a < b for a, b in zip(times, times[1:]))
            assert len(times) == record.request.output_len

    def test_prefill_abort_routed_back_migrates_once(self):
        """A crash that cuts an admission prefill short migrates that
        request once, even when it is re-routed back onto the crashed
        machine (session affinity) — the crash's backlog sweep must not
        count it again.  Request 55 arrives just before machine 0's
        crash and is mid-prefill when it lands."""
        report = _affinity_crash_run(
            (CrashSpec(machine=0, at=0.9738089614290752,
                       restart_after=0.5),),
            _tenant_workload(per=25, seed=18),
        )
        record = next(r for r in report.records if r.request.req_id == 55)
        assert record.machine == 0
        assert record.migrations == 1

    def test_two_runs_identical(self):
        """Exact multi-tenant runs are identical run-to-run, fault-free
        and under crashes: every record, busy time and batch sample."""
        workload = _tenant_workload(per=15, seed=31)
        crashes = FaultSchedule(crashes=(
            CrashSpec(machine=1, at=0.9, restart_after=0.7),
        ))
        for router in ("round-robin", "session-affinity"):
            for faults in (None, crashes):
                config = ClusterConfig(num_machines=4, router=router,
                                       max_batch=4, faults=faults)
                a, b = (
                    ClusterSimulator("tiny-test", "fcfs", config).run(
                        list(workload))
                    for _ in range(2)
                )
                assert a.makespan == b.makespan, (router, faults)
                assert a.machine_gpu_busy == b.machine_gpu_busy
                assert a.machine_dimm_busy == b.machine_dimm_busy
                assert a.batch_samples == b.batch_samples
                assert len(a.records) == len(b.records) == len(workload)
                for ra, rb in zip(a.records, b.records):
                    assert ra.request.req_id == rb.request.req_id
                    assert ra.machine == rb.machine
                    assert ra.prefill_start == rb.prefill_start
                    assert ra.token_times == rb.token_times
                    assert ra.preemptions == rb.preemptions
                    assert ra.migrations == rb.migrations


# ----------------------------------------------------------------------
# report math on hand-built records
# ----------------------------------------------------------------------
class TestClusterReport:
    def _report(self):
        slo = SLOPolicy(classes=(PriorityClass("a", priority=1,
                                               ttft_slo=1.0, tbt_slo=0.5),
                                 PriorityClass("b"),))
        records = [
            # ttft 0.5 (ok), gaps 0.25 (ok)
            RequestRecord(
                request=Request(req_id=0, arrival=0.0, prompt_len=4,
                                output_len=3, tenant="t0", class_name="a"),
                machine=0, prefill_start=0.2,
                token_times=[0.5, 0.75, 1.0]),
            # ttft 2.0 (miss), gaps 0.25 (ok)
            RequestRecord(
                request=Request(req_id=1, arrival=0.0, prompt_len=4,
                                output_len=2, tenant="t1", class_name="a"),
                machine=1, prefill_start=1.5, token_times=[2.0, 2.25]),
            # class b: no SLOs -> vacuously attained
            RequestRecord(
                request=Request(req_id=2, arrival=0.0, prompt_len=4,
                                output_len=1, tenant="t0", class_name="b"),
                machine=0, prefill_start=0.0, token_times=[3.0]),
        ]
        return ClusterReport(
            policy="fcfs",
            num_machines=2,
            records=records,
            makespan=4.0,
            queue_samples=[],
            batch_samples=[],
            machine_gpu_busy=[1.0, 0.5],
            machine_dimm_busy=[0.4, 0.2],
            router="round-robin",
            slo=slo,
        )

    def test_class_names_priority_ordered(self):
        assert self._report().class_names == ["a", "b"]

    def test_attainment_hand_computed(self):
        report = self._report()
        assert report.slo_attainment("a") == {
            "ttft": 0.5, "tbt": 1.0, "joint": 0.5
        }
        assert report.slo_attainment("b") == {
            "ttft": 1.0, "tbt": 1.0, "joint": 1.0
        }
        with pytest.raises(KeyError):
            report.class_of("zz")

    def test_class_percentiles(self):
        report = self._report()
        assert report.class_ttft_percentile("a", 0) == pytest.approx(0.5)
        assert report.class_ttft_percentile("a", 100) == pytest.approx(2.0)
        # single token: no gaps -> "no data", not an exception
        assert math.isnan(report.class_tbt_percentile("b", 50))

    def test_fairness_hand_computed(self):
        report = self._report()
        # t0: 4 tokens / (1.0 + 3.0)s = 1.0; t1: 2 tokens / 2.25s
        x = [1.0, 2 / 2.25]
        want = sum(x) ** 2 / (2 * sum(v * v for v in x))
        assert report.fairness_index() == pytest.approx(want)

    def test_busy_aggregates(self):
        report = self._report()
        assert report.gpu_busy == pytest.approx(1.5)
        assert report.machine_gpu_utilization == pytest.approx([0.25, 0.125])


# ----------------------------------------------------------------------
# 1-machine cluster == single-machine simulator (exact), non-property
# ----------------------------------------------------------------------
def test_one_machine_round_robin_matches_serving(tiny_trace):
    workload = generate_workload(
        WorkloadConfig(rate=2000.0, num_requests=40,
                       prompt_lens=LengthDistribution(mean=32),
                       output_lens=LengthDistribution(kind="uniform",
                                                      mean=24, low=8,
                                                      high=40)),
        seed=3)
    base = ServingSimulator("tiny-test", "fcfs",
                            ServingConfig(max_batch=8),
                            trace=tiny_trace).run(workload)
    clustered = ClusterSimulator(
        "tiny-test", "fcfs",
        ClusterConfig(max_batch=8, num_machines=1, router="round-robin"),
        trace=tiny_trace).run(workload)
    assert clustered.makespan == base.makespan
    assert [r.token_times for r in clustered.records] == \
        [r.token_times for r in base.records]
    assert clustered.queue_samples == base.queue_samples
    assert clustered.batch_samples == base.batch_samples
    assert clustered.machine_gpu_busy == base.machine_gpu_busy
    assert clustered.machine_dimm_busy == base.machine_dimm_busy


# ----------------------------------------------------------------------
# incremental router loads and shared fast-mode probe tables
# ----------------------------------------------------------------------
class TestIncrementalLoads:
    @pytest.mark.parametrize("name", ["chaos_domains_tiny", "mixed_slo_tiny"])
    def test_loads_are_fresh_at_every_routing_call(self, name, monkeypatch):
        """The incrementally kept loads equal ``len(queue) + resident``
        recounted from scratch at every live routing call — through
        crashes, a rack crash, degrade evictions, migrations and
        preemptions."""
        loops: list[_MachineLoop] = []
        states: list[_RunState] = []
        calls = [0]
        loop_init = _MachineLoop.__init__
        build_state = ClusterSimulator._build_state
        make_router = ClusterSimulator._make_router

        def init(self, *args, **kwargs):
            loop_init(self, *args, **kwargs)
            loops.append(self)

        def capture_state(self, workload):
            state = build_state(self, workload)
            states.append(state)
            return state

        class Checking(Router):
            def __init__(self, inner: Router) -> None:
                self.inner, self.name = inner, inner.name

            @property
            def needs_throughputs(self):
                return self.inner.needs_throughputs

            def bind_fleet(self, tokens_per_second):
                self.inner.bind_fleet(tokens_per_second)

            def route(self, request, loads):
                state = states[-1]
                fresh = [len(state.queues[loop.m]) + len(loop.active)
                         for loop in loops]
                assert list(loads) == fresh
                calls[0] += 1
                return self.inner.route(request, loads)

        scenario = load_scenario(SCENARIO_DIR / f"{name}.json")
        if name == "chaos_domains_tiny":
            # DIMMs of ~1.6 MB hold only a few hundred resident tokens on
            # half the pool, so machine 3's degrade evicts residents
            base = Machine()
            dimm = dataclasses.replace(base.dimm, geometry=dataclasses.replace(
                base.dimm.geometry, capacity_bytes=1_613_824))
            scenario = dataclasses.replace(
                scenario, machine=dataclasses.replace(base, dimm=dimm))
        plain = scenario.run()
        monkeypatch.setattr(_MachineLoop, "__init__", init)
        monkeypatch.setattr(ClusterSimulator, "_build_state", capture_state)
        monkeypatch.setattr(ClusterSimulator, "_make_router",
                            lambda self: Checking(make_router(self)))
        tracer = RecordingTracer()
        checked = scenario.run(tracer=tracer)
        assert [r.token_times for r in checked.records] == [
            r.token_times for r in plain.records]
        assert calls[0] >= len(checked.records)
        kinds = {type(e).__name__ for e in tracer.events}
        if name == "chaos_domains_tiny":
            # crash refugees are routed again, live
            assert calls[0] > len(checked.records)
            assert checked.migrations > 0
            assert "MachineDown" in kinds
            assert any(getattr(e, "evicted", 0) > 0 for e in tracer.events)
        else:
            assert "RequestPreempted" in kinds


class TestSharedProbeTables:
    def test_group_shares_one_table_and_degrade_rebinds(self, tiny_trace):
        """Two executors of one (machine, model, config, nominal_batch)
        group probe through one table; a degraded executor moves to the
        table of its renegotiated machine."""
        a, b = (MachineExecutor(Machine(), get_model("tiny-test"),
                                trace=tiny_trace, nominal_batch=3)
                for _ in range(2))
        first = a.span_estimate(2, 20.0, 4)
        assert b.span_estimate(2, 20.0, 4) == first
        assert a._span_probes is b._span_probes
        assert set(a._span_probes) == {(2, 20), (2, 23)}
        a.degrade(0.5, 1.0)
        a.span_estimate(2, 20.0, 4)
        assert a._span_probes is not b._span_probes
        assert a.machine != b.machine

"""Equivalence guarantees for the macro-stepped (fused) decode path.

The fused serving loop is a pure wall-clock optimisation: every simulated
quantity must be bit-for-bit what the step-at-a-time reference produces.
Three layers of pinning:

* engine — ``decode_steps`` over arbitrary chunkings equals the same
  number of sequential ``decode_step`` calls: per-step costs *and* the
  full control-plane state (predictor table + accuracy counters, hot/cold
  residency, DIMM mapping, RunResult accumulators), swept over
  hypothesis-generated batch/context schedules;
* serving — a multi-machine shared-queue simulation with
  ``macro_step=True`` (horizon-K spans) equals ``macro_step=False``
  (one-step spans through the same decode body) record-for-record;
* cluster — the preemptive SLO smoke scenario (routers + priority
  classes + deadline preemption) equals its stepped run, including
  preemption counts and per-token timestamps.

Every span ends no later than the machine's first token boundary past
the next arrival, so even the ingest boundaries — and with them
``queue_samples`` — match the stepped loop exactly; the report
comparisons below include them.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import HermesConfig, HermesSystem
from repro.hardware import Machine
from repro.models import get_model
from repro.scenarios import load_scenario
from repro.serving import (
    BACKENDS,
    LengthDistribution,
    MachineExecutor,
    MachineGroup,
    ServingConfig,
    ServingSimulator,
    WorkloadConfig,
    generate_workload,
    make_backend,
)
from repro.sparsity import TraceConfig, generate_trace

#: module-level trace: hypothesis examples must not rebuild it
_TRACE = None


def _trace():
    global _TRACE
    if _TRACE is None:
        _TRACE = generate_trace(
            get_model("tiny-test"),
            TraceConfig(prompt_len=16, decode_len=24, granularity=8),
            seed=11,
        )
    return _TRACE


def _session(config=None, batch=2):
    system = HermesSystem(Machine(), get_model("tiny-test"), config)
    return system.session(_trace(), batch, wrap=True)


def _session_state(session):
    """Everything a decode step may have mutated, snapshot for equality."""
    return {
        "steps_done": session.steps_done,
        "decode_time": session.decode_time,
        "breakdown": dict(session.result.breakdown),
        "states": session.predictor.state_matrix.copy(),
        "stats": dataclasses.asdict(session.predictor.stats),
        "resident": session.mapper.resident_matrix.copy(),
        "resident_bytes": session.mapper.resident_bytes,
        "dimm_of": session.partition.dimm_of_matrix.copy(),
        "swap_bytes": session._swap_bytes_total,
        "remap_bytes": session._remap_bytes_total,
        "remap_groups": session._remap_groups_total,
    }


def _assert_state_equal(a, b):
    for key in a:
        if isinstance(a[key], np.ndarray):
            assert np.array_equal(a[key], b[key]), key
        else:
            assert a[key] == b[key], key


# ----------------------------------------------------------------------
# engine: fused spans == sequential steps
# ----------------------------------------------------------------------
_CONFIGS = {
    "default": HermesConfig(),
    "oracle": HermesConfig(oracle=True),
    "token-only": HermesConfig(layer_prediction=False),
    "layer-only": HermesConfig(token_prediction=False),
}


class TestDecodeStepsEquivalence:
    @settings(
        max_examples=12,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        config_name=st.sampled_from(sorted(_CONFIGS)),
        batch=st.integers(min_value=1, max_value=6),
        contexts=st.lists(st.integers(min_value=1, max_value=200),
                          min_size=1, max_size=30),
        data=st.data(),
    )
    def test_fused_equals_sequential(self, config_name, batch, contexts, data):
        """K fused steps == K sequential steps, over random chunkings."""
        config = _CONFIGS[config_name]
        ref = _session(config, batch)
        fused = _session(config, batch)
        steps = [ref.decode_step(batch, c) for c in contexts]
        pos = 0
        fused_steps = []
        while pos < len(contexts):
            size = data.draw(
                st.integers(min_value=1, max_value=len(contexts) - pos),
                label="chunk",
            )
            span = fused.decode_steps(batch, contexts[pos:pos + size])
            assert len(span) == size
            fused_steps.extend(span.step(i) for i in range(size))
            pos += size
        assert [s.seconds for s in steps] == [s.seconds for s in fused_steps]
        assert [s.gpu_busy for s in steps] == [
            s.gpu_busy for s in fused_steps
        ]
        assert [s.dimm_busy for s in steps] == [
            s.dimm_busy for s in fused_steps
        ]
        _assert_state_equal(_session_state(ref), _session_state(fused))

    def test_until_truncates_at_crossing_step(self):
        """A time budget stops the span exactly where the stepped loop
        would next re-check its queue: after the step that crosses."""
        ref = _session(batch=2)
        fused = _session(batch=2)
        contexts = list(range(20, 30))
        steps = [ref.decode_step(2, c) for c in contexts]
        start = 3.0
        boundaries = []
        running = start
        for s in steps:
            running += s.seconds
            boundaries.append(running)
        span = fused.decode_steps(
            2, contexts, start_time=start, until=boundaries[3]
        )
        assert len(span) == 4
        assert span.end_times.tolist() == boundaries[:4]
        # remaining steps continue bit-identically in a fresh span
        rest = fused.decode_steps(
            2, contexts[4:], start_time=span.end_times[-1]
        )
        assert rest.end_times.tolist() == boundaries[4:]
        _assert_state_equal(_session_state(ref), _session_state(fused))

    def test_until_in_past_still_runs_one_step(self):
        session = _session(batch=1)
        span = session.decode_steps(1, [30, 31, 32], until=-1.0)
        assert len(span) == 1

    def test_default_contexts_match_trace_cursor(self):
        ref = _session(batch=1)
        fused = _session(batch=1)
        steps = [ref.decode_step() for _ in range(6)]
        span = fused.decode_steps(max_steps=6)
        assert [s.seconds for s in steps] == span.seconds.tolist()

    def test_exhaustion_still_raises_without_wrap(self):
        system = HermesSystem(Machine(), get_model("tiny-test"))
        session = system.session(_trace(), 1)
        n = _trace().n_decode_tokens
        session.decode_steps(max_steps=n)
        with pytest.raises(RuntimeError):
            session.decode_step()
        session2 = system.session(_trace(), 1)
        with pytest.raises(RuntimeError):
            session2.decode_steps(max_steps=n + 1)


# ----------------------------------------------------------------------
# backends: decode_span == sequential decode_step for every registry entry
# ----------------------------------------------------------------------
def _backend(name, batch):
    return make_backend(
        name,
        Machine(),
        get_model("tiny-test"),
        trace=_trace(),
        nominal_batch=batch,
    )


class TestBackendSpanEquivalence:
    """The macro-stepped loop fuses through ``decode_span`` on whatever
    backend a machine runs, so the span contract must hold for every
    registry entry — hermes natively (``decode_steps``), dense/dejavu via
    the generic sequential fallback."""

    @settings(
        max_examples=8,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        name=st.sampled_from(sorted(BACKENDS)),
        batch=st.integers(min_value=1, max_value=4),
        contexts=st.lists(st.integers(min_value=1, max_value=200),
                          min_size=1, max_size=20),
        data=st.data(),
    )
    def test_fused_equals_sequential(self, name, batch, contexts, data):
        ref = _backend(name, batch)
        fused = _backend(name, batch)
        steps = [ref.decode_step(batch, c) for c in contexts]
        boundaries = []
        running = 0.0
        for s in steps:
            running += s.seconds
            boundaries.append(running)
        pos = 0
        fused_steps = []
        while pos < len(contexts):
            size = data.draw(
                st.integers(min_value=1, max_value=len(contexts) - pos),
                label="chunk",
            )
            start = boundaries[pos - 1] if pos else 0.0
            span = fused.decode_span(
                batch, contexts[pos:pos + size], start_time=start
            )
            assert len(span) == size
            assert span.end_times.tolist() == boundaries[pos:pos + size]
            fused_steps.extend(span.step(i) for i in range(size))
            pos += size
        assert [s.seconds for s in steps] == [s.seconds for s in fused_steps]
        assert [s.gpu_busy for s in steps] == [
            s.gpu_busy for s in fused_steps
        ]
        assert [s.dimm_busy for s in steps] == [
            s.dimm_busy for s in fused_steps
        ]

    @pytest.mark.parametrize("name", sorted(BACKENDS))
    def test_until_truncates_after_crossing_step(self, name):
        ref = _backend(name, 2)
        fused = _backend(name, 2)
        contexts = list(range(20, 30))
        steps = [ref.decode_step(2, c) for c in contexts]
        start = 3.0
        boundaries = []
        running = start
        for s in steps:
            running += s.seconds
            boundaries.append(running)
        span = fused.decode_span(
            2, contexts, start_time=start, until=boundaries[3]
        )
        assert len(span) == 4
        assert span.end_times.tolist() == boundaries[:4]
        rest = fused.decode_span(
            2, contexts[4:], start_time=span.end_times[-1]
        )
        assert rest.end_times.tolist() == boundaries[4:]


# ----------------------------------------------------------------------
# serving / cluster: macro_step on == off
# ----------------------------------------------------------------------
def _record_view(record):
    return (
        record.request.req_id,
        record.machine,
        record.prefill_start,
        record.token_times,
        record.preemptions,
    )


def _assert_reports_equal(fused, stepped):
    assert fused.makespan == stepped.makespan
    assert fused.machine_gpu_busy == stepped.machine_gpu_busy
    assert fused.machine_dimm_busy == stepped.machine_dimm_busy
    assert fused.batch_samples == stepped.batch_samples
    assert fused.queue_samples == stepped.queue_samples
    assert ([_record_view(r) for r in fused.records]
            == [_record_view(r) for r in stepped.records])


class TestServingMacroEquivalence:
    @pytest.mark.parametrize("policy", ["fcfs", "sjf", "hermes-union"])
    @pytest.mark.parametrize("machines", [1, 3])
    def test_shared_queue_fused_equals_stepped(self, policy, machines):
        """Work-stealing machines over one queue: both modes identical."""
        workload = generate_workload(
            WorkloadConfig(rate=2000.0, num_requests=36,
                           prompt_lens=LengthDistribution(mean=24),
                           output_lens=LengthDistribution(
                               kind="uniform", mean=12, low=4, high=20)),
            seed=9)
        reports = {}
        for macro in (True, False):
            simulator = ServingSimulator(
                "tiny-test", policy,
                ServingConfig(max_batch=6, num_machines=machines,
                              macro_step=macro),
                trace=_trace())
            reports[macro] = simulator.run(list(workload))
        _assert_reports_equal(reports[True], reports[False])

    def test_heterogeneous_shared_queue_fused_equals_stepped(self):
        """Work-stealing over a mixed hermes/dense/dejavu fleet: the
        fused loop must agree with the stepped one even when machines
        disagree wildly on step latency (spans of different machines
        interleave at very different granularities)."""
        workload = generate_workload(
            WorkloadConfig(rate=2000.0, num_requests=30,
                           prompt_lens=LengthDistribution(mean=24),
                           output_lens=LengthDistribution(
                               kind="uniform", mean=12, low=4, high=20)),
            seed=13)
        fleet = [MachineGroup(count=1, backend=b)
                 for b in ("hermes", "dense", "dejavu")]
        reports = {}
        for macro in (True, False):
            simulator = ServingSimulator(
                "tiny-test",
                "fcfs",
                ServingConfig(max_batch=6, macro_step=macro),
                trace=_trace(),
                fleet=fleet,
            )
            reports[macro] = simulator.run(list(workload))
        _assert_reports_equal(reports[True], reports[False])

    def test_mixed_fleet_routed_cluster_fused_equals_stepped(self):
        """The acceptance pin: the backend-shootout scenario's mixed
        fleet — three backends behind the throughput-weighted router
        with priority classes — is bit-identical stepped."""
        scenario = load_scenario("scenarios/backend_shootout_tiny.json")
        trace = scenario.build_trace()
        fused = scenario.run(trace)
        stepped_scenario = dataclasses.replace(
            scenario,
            config=dataclasses.replace(scenario.config, macro_step=False),
        )
        _assert_reports_equal(fused, stepped_scenario.run(trace))

    def test_routed_nonpreemptive_cluster_fused_equals_stepped(self):
        """Regression: load-sensitive routing must see the same load
        snapshot at every arrival.  A full machine with no preemptor
        used to sleep through arrivals, so a sibling's retirement could
        land *before* the (late) ingest and the power-of-two router
        picked a different machine than the stepped loop; the span
        horizon now always stops at the next arrival when queues are
        router-fed."""
        scenario = load_scenario("scenarios/p2c_burst_storm_tiny.json")
        trace = scenario.build_trace()
        fused = scenario.run(trace)
        stepped_scenario = dataclasses.replace(
            scenario,
            config=dataclasses.replace(scenario.config, macro_step=False),
        )
        _assert_reports_equal(fused, stepped_scenario.run(trace))

    def test_cluster_preemption_fused_equals_stepped(self):
        """The preemptive SLO smoke scenario — routing, priority
        admission and deadline preemption — is bit-identical stepped."""
        scenario = load_scenario("scenarios/mixed_slo_tiny.json")
        trace = scenario.build_trace()
        fused = scenario.run(trace)
        stepped_scenario = dataclasses.replace(
            scenario,
            config=dataclasses.replace(scenario.config, macro_step=False),
        )
        stepped = stepped_scenario.run(trace)
        assert fused.preemptions == stepped.preemptions
        assert fused.preemptions > 0  # the scenario must exercise it
        _assert_reports_equal(fused, stepped)


class _SpyBackend:
    """Delegating backend proxy recording the decode entry points."""

    def __init__(self, inner):
        self._inner = inner
        self.step_calls = 0
        #: (contexts requested, steps executed) per ``decode_span`` call
        self.spans = []

    def decode_step(self, batch, context):
        self.step_calls += 1
        return self._inner.decode_step(batch, context)

    def decode_span(self, batch, contexts, **kwargs):
        span = self._inner.decode_span(batch, contexts, **kwargs)
        self.spans.append((len(contexts), len(span)))
        return span

    def __getattr__(self, name):
        return getattr(self._inner, name)


class TestSingleDecodePrimitive:
    """The exact loop decodes only through ``decode_span``; turning
    macro-stepping off caps every span at one step."""

    @pytest.mark.parametrize("straggler", [False, True])
    def test_exact_loop_decodes_only_through_spans(self, straggler):
        from repro.serving.faults import FaultSchedule, StragglerSpec

        faults = (
            FaultSchedule(stragglers=(StragglerSpec(0, 0.004, 0.008, 2.0),))
            if straggler else None
        )
        workload = generate_workload(
            WorkloadConfig(rate=2000.0, num_requests=24,
                           prompt_lens=LengthDistribution(mean=24),
                           output_lens=LengthDistribution(
                               kind="uniform", mean=12, low=4, high=20)),
            seed=9)
        reports = {}
        spans = {}
        for macro in (True, False):
            simulator = ServingSimulator(
                "tiny-test", "fcfs",
                ServingConfig(max_batch=6, num_machines=2,
                              macro_step=macro, faults=faults),
                trace=_trace())
            spies = [_SpyBackend(e) for e in simulator.executors]
            simulator.executors = spies
            reports[macro] = simulator.run(list(workload))
            assert all(spy.step_calls == 0 for spy in spies)
            spans[macro] = [span for spy in spies for span in spy.spans]
        assert spans[False] and set(spans[False]) == {(1, 1)}
        assert max(steps for _, steps in spans[True]) > 1
        # the same decode iterations, fused or one at a time
        assert len(spans[False]) == sum(steps for _, steps in spans[True])
        _assert_reports_equal(reports[True], reports[False])


# ----------------------------------------------------------------------
# satellite pins: select(), vectorized mean_union, partition cache
# ----------------------------------------------------------------------
class TestPolicySelect:
    def test_select_matches_order_head(self):
        from repro.cluster.slo import (
            PriorityClass,
            PriorityOrderedPolicy,
            SLOPolicy,
        )
        from repro.serving import get_policy
        rng = np.random.default_rng(5)
        slo = SLOPolicy(classes=(
            PriorityClass(name="default"),
            PriorityClass(name="hi", priority=3, ttft_slo=0.1),
        ))
        base_policies = [
            get_policy(n) for n in ("fcfs", "sjf", "hermes-union")
        ]
        policies = base_policies + [
            PriorityOrderedPolicy(base, slo) for base in base_policies
        ]
        for trial in range(20):
            n = int(rng.integers(1, 12))
            queue = [
                generate_workload(
                    WorkloadConfig(rate=50.0, num_requests=1),
                    seed=100 * trial + i,
                    class_name="hi" if rng.random() < 0.4 else "default",
                )[0]
                for i in range(n)
            ]
            queue = [
                dataclasses.replace(r, req_id=i) for i, r in enumerate(queue)
            ]
            for policy in policies:
                head = policy.order(queue)[0]
                assert queue[policy.select(queue)] is head

    def test_mean_union_matches_per_layer_loop(self):
        executor = MachineExecutor(
            Machine(), get_model("tiny-test"), trace=_trace()
        )
        session = executor.session
        layers = range(get_model("tiny-test").num_layers)
        for batch in (1, 2, 5, 8):
            reference = float(np.mean(
                [session.union_factor(layer, batch) for layer in layers]))
            assert executor.mean_union(batch) == reference

    def test_partition_cache_reuses_solution_across_runs(self):
        trace = generate_trace(
            get_model("tiny-test"),
            TraceConfig(prompt_len=16, decode_len=24, granularity=8),
            seed=23,
        )
        a = MachineExecutor(Machine(), get_model("tiny-test"), trace=trace)
        b = MachineExecutor(Machine(), get_model("tiny-test"), trace=trace)
        pa, pb = a.session.partition, b.session.partition
        # distinct objects (window scheduling mutates them per run) with
        # identical solved contents
        assert pa is not pb
        assert all(
            np.array_equal(x, y) for x, y in zip(pa.hot_masks, pb.hot_masks)
        )
        assert np.array_equal(pa.dimm_of_matrix, pb.dimm_of_matrix)

"""Integration tests for the end-to-end Hermes engine."""

import dataclasses

import pytest

from repro.core import HermesConfig, HermesSystem, batch_union_factor
from repro.hardware import Machine, TESLA_T4
from repro.models import get_model
from repro.sparsity import TraceConfig, generate_trace

import numpy as np


@pytest.fixture(scope="module")
def hermes_result(machine, tiny_model, tiny_trace):
    return HermesSystem(machine, tiny_model).run(tiny_trace, batch=1)


class TestUnionFactor:
    def test_batch_one_is_identity(self):
        assert batch_union_factor(np.array([0.5, 0.1]), 1) == 1.0

    def test_grows_with_batch(self):
        freq = np.array([0.3, 0.1, 0.05])
        factors = [batch_union_factor(freq, b) for b in (1, 2, 4, 8)]
        assert all(a < b for a, b in zip(factors, factors[1:]))

    def test_saturated_neurons_do_not_inflate(self):
        assert batch_union_factor(np.ones(5), 16) == pytest.approx(1.0)

    def test_bounded_by_inverse_density(self):
        freq = np.full(10, 0.1)
        assert batch_union_factor(freq, 1000) <= 10.0 + 1e-9

    def test_validation(self):
        with pytest.raises(ValueError):
            batch_union_factor(np.array([0.1]), 0)


class TestHermesRun:
    def test_produces_positive_throughput(self, hermes_result):
        assert hermes_result.tokens_per_second > 0

    def test_breakdown_covers_major_categories(self, hermes_result):
        for key in ("fc", "attention", "projection", "prefill", "predictor"):
            assert hermes_result.breakdown.get(key, 0) > 0

    def test_decode_time_close_to_breakdown_sum(self, hermes_result):
        accounted = sum(v for k, v in hermes_result.breakdown.items()
                        if k not in ("prefill",))
        total = (hermes_result.decode_time
                 + hermes_result.breakdown.get("communication", 0))
        assert accounted == pytest.approx(total, rel=0.15)

    def test_predictor_accuracy_reported(self, hermes_result):
        assert hermes_result.metadata["predictor_accuracy"] > 0.85

    def test_rejects_foreign_trace(self, machine, tiny_trace):
        other = get_model("LLaMA-7B")
        with pytest.raises(ValueError):
            HermesSystem(machine, other).run(tiny_trace)

    def test_rejects_bad_batch(self, machine, tiny_model, tiny_trace):
        with pytest.raises(ValueError):
            HermesSystem(machine, tiny_model).run(tiny_trace, batch=0)

    def test_rejects_model_too_big_for_pool(self, tiny_model):
        small = Machine(num_dimms=1)
        tiny_dimm = dataclasses.replace(
            small.dimm,
            geometry=dataclasses.replace(small.dimm.geometry,
                                         capacity_bytes=2**20))
        machine = dataclasses.replace(small, dimm=tiny_dimm)
        with pytest.raises(ValueError, match="DIMM"):
            HermesSystem(machine, tiny_model)

    def test_deterministic(self, machine, tiny_model, tiny_trace):
        a = HermesSystem(machine, tiny_model).run(tiny_trace)
        b = HermesSystem(machine, tiny_model).run(tiny_trace)
        assert a.decode_time == b.decode_time


class TestBatching:
    def test_throughput_improves_with_batch(
        self, machine, tiny_model, tiny_trace
    ):
        system = HermesSystem(machine, tiny_model)
        t1 = system.run(tiny_trace, batch=1).tokens_per_second
        t8 = system.run(tiny_trace, batch=8).tokens_per_second
        assert t8 > 1.5 * t1

    def test_latency_grows_with_batch(self, machine, tiny_model, tiny_trace):
        system = HermesSystem(machine, tiny_model)
        l1 = system.run(tiny_trace, batch=1).decode_latency_per_token
        l16 = system.run(tiny_trace, batch=16).decode_latency_per_token
        assert l16 > l1


class TestConfigurationSpace:
    def test_oracle_not_slower_than_fixed_partition(
        self, machine, tiny_model, tiny_trace
    ):
        fixed = HermesConfig(online_adjustment=False, window_scheduling=False)
        oracle = HermesConfig(
            online_adjustment=False, window_scheduling=False, oracle=True
        )
        t_fixed = HermesSystem(machine, tiny_model, fixed).run(
            tiny_trace).decode_latency_per_token
        t_oracle = HermesSystem(machine, tiny_model, oracle).run(
            tiny_trace).decode_latency_per_token
        assert t_oracle <= t_fixed * 1.05

    def test_all_fig13_variants_run(self, machine, tiny_model, tiny_trace):
        from repro.experiments.fig13_ablation import VARIANTS
        for name, config in VARIANTS.items():
            result = HermesSystem(machine, tiny_model, config).run(tiny_trace)
            assert result.tokens_per_second > 0, name

    def test_more_dimms_never_hurt_much(self, tiny_model, tiny_trace):
        t2 = HermesSystem(Machine(num_dimms=2), tiny_model).run(
            tiny_trace).decode_latency_per_token
        t8 = HermesSystem(Machine(num_dimms=8), tiny_model).run(
            tiny_trace).decode_latency_per_token
        assert t8 <= t2 * 1.10

    def test_faster_gpu_not_slower(self, tiny_model, tiny_trace):
        fast = HermesSystem(Machine(), tiny_model).run(
            tiny_trace).decode_latency_per_token
        slow = HermesSystem(Machine(gpu=TESLA_T4), tiny_model).run(
            tiny_trace).decode_latency_per_token
        assert fast <= slow * 1.05

    def test_window_scheduling_tracks_migrations(
        self, machine, tiny_model, tiny_trace
    ):
        result = HermesSystem(machine, tiny_model).run(tiny_trace)
        assert result.metadata["remap_groups"] >= 0
        assert result.metadata["remap_bytes"] >= 0

    def test_invalid_config(self):
        with pytest.raises(ValueError):
            HermesConfig(window=0)
        with pytest.raises(ValueError):
            HermesConfig(gpu_reserve_bytes=-1)


#: odd trace dimensions, so no layout- or machine-sized array shares them
_TABLE_TRACE = TraceConfig(prompt_len=23, decode_len=37, granularity=4)

#: default, token-only, layer-only and oracle Hermes
_PREDICTOR_MODES = (
    HermesConfig(),
    HermesConfig(layer_prediction=False),
    HermesConfig(token_prediction=False),
    HermesConfig(oracle=True),
)


def _arrays(value):
    """Every ndarray in ``value``, looking one container level deep."""
    if isinstance(value, np.ndarray):
        return [value]
    if isinstance(value, dict):
        value = list(value.values())
    if isinstance(value, (list, tuple)):
        return [v for v in value if isinstance(v, np.ndarray)]
    return []


class TestTraceTables:
    """The predictor's trace-only inputs are tabled once per trace."""

    def test_sessions_share_one_table_set_per_key(self, machine, tiny_model):
        trace = generate_trace(tiny_model, _TABLE_TRACE, seed=5)
        sessions = []
        partition = None
        for i in range(100):
            config = _PREDICTOR_MODES[i % 2]
            session = HermesSystem(machine, tiny_model, config).session(
                trace, wrap=True, partition=partition)
            partition = session.partition
            session.decode_step()
            sessions.append(session)
        cache = trace._predictor_tables
        assert len(cache) == 2  # default and token-only
        for i, session in enumerate(sessions):
            assert session.predictor.tables is sessions[i % 2].predictor.tables
            assert any(t is session.predictor.tables for t in cache.values())
        sized = {trace.n_tokens, trace.n_decode_tokens}
        for session in sessions:
            for owner in (session, session.predictor, session.mapper,
                          session.scheduler):
                for name, value in vars(owner).items():
                    for array in _arrays(value):
                        assert not sized & set(array.shape), name

    def test_interleaved_modes_match_fresh_traces(self, machine, tiny_model):
        shared = generate_trace(tiny_model, _TABLE_TRACE, seed=5)

        def open_session(config, trace):
            return HermesSystem(machine, tiny_model, config).session(
                trace, batch=2, wrap=True)

        mixed = [open_session(c, shared) for c in _PREDICTOR_MODES]
        alone = [open_session(c, generate_trace(tiny_model, _TABLE_TRACE,
                                                seed=5))
                 for c in _PREDICTOR_MODES]
        costs = {id(s): [] for s in mixed + alone}

        def step(session, round_):
            if round_ % 3 == 0:
                cost = session.decode_step(batch=1 + round_ % 4)
                costs[id(session)].append(
                    (cost.seconds, cost.gpu_busy, cost.dimm_busy,
                     cost.swap_bytes, cost.resident_bytes))
            else:
                span = session.decode_steps(
                    batch=2, max_steps=5, start_time=1.0,
                    until=1.0 + 2.5 * session.last_step_seconds)
                for i in range(len(span)):
                    costs[id(session)].append(
                        (span.seconds[i], span.end_times[i],
                         span.swap_bytes[i], span.resident_bytes[i]))

        # round-robin over the shared trace; well past the decode region,
        # so the token cursor wraps
        for round_ in range(40):
            for session in mixed:
                step(session, round_)
        for session in alone:
            for round_ in range(40):
                step(session, round_)
        for a, b in zip(mixed, alone):
            assert a.steps_done == b.steps_done > shared.n_decode_tokens
            assert costs[id(a)] == costs[id(b)]
            assert np.array_equal(a.predictor.state_matrix,
                                  b.predictor.state_matrix)
            assert a.predictor.stats == b.predictor.stats
            assert a.finish().breakdown == b.finish().breakdown


class TestRealisticScale:
    """Slower sanity checks on a real model geometry."""

    def test_opt13b_headline_shape(self, machine, small_opt_trace):
        model = get_model("OPT-13B")
        result = HermesSystem(machine, model).run(small_opt_trace)
        # paper: 135.64 tokens/s; shape tolerance: same order of magnitude
        assert 30 < result.tokens_per_second < 400
        assert result.metadata["predictor_accuracy"] > 0.90

    def test_opt13b_batch16_scales(self, machine, small_opt_trace):
        model = get_model("OPT-13B")
        system = HermesSystem(machine, model)
        t1 = system.run(small_opt_trace, batch=1).tokens_per_second
        t16 = system.run(small_opt_trace, batch=16).tokens_per_second
        assert 2.0 < t16 / t1 < 16.0

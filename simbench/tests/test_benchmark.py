"""Tests of the benchmark itself: inputs, checks and tracing.

Run from the repository root with ``python3 -m pytest simbench/tests``.
Each test shrinks a workload to a few dozen requests so the suite takes
seconds.
"""

from __future__ import annotations

import copy

import pytest

from simbench import checks, run, tracing, workloads


def _small(name: str, seed: int = 1) -> dict:
    """Workload ``name`` cut to a few dozen requests (same structure)."""
    spec = workloads.scenario(name, seed)
    for tenant in spec["tenants"]:
        tenant["num_requests"] = 24
    if "num_machines" in spec["cluster"]:
        spec["cluster"]["num_machines"] = min(
            spec["cluster"]["num_machines"], 8)
    return spec


def _run(spec: dict):
    from repro.scenarios import parse_scenario

    scenario = parse_scenario(spec)
    return scenario, scenario.run(scenario.build_trace())


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_specs_are_deterministic_in_seed(name):
    from repro.scenarios import parse_scenario

    first = workloads.scenario(name, 5)
    assert first == workloads.scenario(name, 5)
    assert first != workloads.scenario(name, 6)
    other = workloads.scenario(name, 6)
    seeds = [t["seed"] for t in first["tenants"]]
    assert seeds != [t["seed"] for t in other["tenants"]]
    assert first["cluster"]["router_seed"] == 5
    parse_scenario(copy.deepcopy(first))


def test_chaos_faults_have_fixed_counts_across_seeds():
    for seed in range(1, 8):
        faults = workloads.scenario("chaos_mixed", seed)["faults"]
        assert len(faults["domain_crashes"]) == 2
        assert len(faults["crashes"]) == 48
        assert len(faults["stragglers"]) == 12
        assert len(faults["degrades"]) == 1


def test_unknown_workload_is_rejected():
    with pytest.raises(ValueError, match="unknown workload"):
        workloads.scenario("nope", 1)


@pytest.fixture(scope="module")
def chaos_run():
    spec = _small("chaos_mixed")
    scenario, report = _run(spec)
    return len(scenario.build_workload()), report


def test_check_accepts_a_sound_report(chaos_run):
    offered, report = chaos_run
    assert checks.check_report(report, offered) == []
    assert checks.check_report(report, offered, len(report.completed)) == []


def _doctored(report, **changes):
    clone = copy.deepcopy(report)
    for key, value in changes.items():
        setattr(clone, key, value)
    return clone


def test_check_rejects_doctored_reports(chaos_run):
    offered, report = chaos_run
    done = next(i for i, r in enumerate(report.records) if r.finished
                and len(r.token_times) > 2)

    def edit(fn):
        clone = copy.deepcopy(report)
        fn(clone.records[done])
        return clone

    reversed_times = edit(lambda r: r.token_times.reverse())
    assert any("decreasing" in p
               for p in checks.check_report(reversed_times, offered))
    early = edit(lambda r: r.token_times.__setitem__(
        0, r.request.arrival - 1.0))
    assert any("before arrival" in p
               for p in checks.check_report(early, offered))
    extra = edit(lambda r: r.token_times.append(r.token_times[-1]))
    assert any("output_len" in p
               for p in checks.check_report(extra, offered))
    dropped = _doctored(report, records=report.records[1:])
    assert checks.check_report(dropped, offered)
    busy = list(report.machine_gpu_busy)
    busy[0] = report.makespan * 2
    assert any("gpu busy" in p for p in checks.check_report(
        _doctored(report, machine_gpu_busy=busy), offered))
    assert any("RequestCompleted" in p for p in checks.check_report(
        report, offered, len(report.completed) - 1))


def test_model_metric_differences_are_reported(chaos_run):
    _, report = chaos_run
    metrics = checks.model_metrics(report)
    assert checks.differences(metrics, dict(metrics)) == []
    moved = dict(metrics, model_tok_s=metrics["model_tok_s"] * 1.001)
    assert checks.differences(metrics, moved)


def test_ledger_counts_a_failing_run_as_all_failed(chaos_run):
    offered, report = chaos_run
    ledger = run.Ledger(offered)
    metrics = checks.model_metrics(report)
    ledger.check("good", report, metrics)
    ledger.check("doctored", _doctored(report, records=report.records[1:]),
                 metrics)
    assert ledger.attempted == 2 * offered
    assert ledger.failed == metrics["model.unfinished"] + offered
    assert ledger.failures


@pytest.fixture(scope="module")
def traced_session():
    spec = _small("slo_exact")
    targets = tracing.TARGETS + tuple(tracing.fault_targets())
    originals = {
        (t.module, t.owner, t.attr): _current(t) for t in targets
    }
    recorder = tracing.SpanRecorder()
    with recorder.installed(targets, count_resumes=True):
        wall, report, metrics, _ = run.cold_session(spec, recorder)
    return recorder, wall, targets, originals, report


def _current(target):
    import importlib

    module = importlib.import_module(target.module)
    owner = module if target.owner is None else getattr(module, target.owner)
    return vars(owner).get(target.attr)


def test_self_times_account_for_traced_wall_time(traced_session):
    recorder, wall, *_ = traced_session
    summary = tracing.summarise(recorder)
    remainder = wall - summary.root_total
    assert remainder >= 0.0
    assert summary.self_total + remainder == pytest.approx(wall, rel=1e-9)
    cols = recorder.arrays()
    dur = cols["end"] - cols["start"]
    assert (dur >= 0).all()
    assert summary.by_name["loop.run"][0] == 1
    assert summary.by_layer["engine"][0] > 0
    assert recorder.resumes[0] > 0


def test_spans_nest_inside_their_parents(traced_session):
    recorder, *_ = traced_session
    cols = recorder.arrays()
    child = cols["parent"] >= 0
    parent = cols["parent"][child]
    assert (cols["start"][child] >= cols["start"][parent]).all()
    assert (cols["end"][child] <= cols["end"][parent]).all()
    names = recorder.names
    routed = cols["name"] == names.index("router.route")
    assert (cols["rid"][routed] >= 0).all()


def test_wrappers_are_removed_after_the_traced_run(traced_session):
    recorder, _, targets, originals, _ = traced_session
    assert tracing.wrapped_now(targets) == []
    for target in targets:
        assert _current(target) is originals[
            (target.module, target.owner, target.attr)]
    assert not recorder.missing


def test_traced_run_matches_untraced_model_metrics(traced_session):
    *_, report = traced_session
    _, plain = _run(_small("slo_exact"))
    assert checks.differences(checks.model_metrics(plain),
                              checks.model_metrics(report)) == []


def test_wrappers_are_removed_when_the_run_raises():
    targets = tracing.TARGETS
    recorder = tracing.SpanRecorder()
    with pytest.raises(RuntimeError):
        with recorder.installed(targets, count_resumes=True):
            raise RuntimeError("boom")
    assert tracing.wrapped_now(targets) == []


def test_summary_keeps_outermost_calls_only():
    recorder = tracing.SpanRecorder()
    with recorder.span("router.route"):
        with recorder.span("router.route"):
            pass
        with recorder.span("faults.is_down"):
            pass
    summary = tracing.summarise(recorder)
    assert summary.by_name["router.route"][0] == 1
    assert summary.by_layer["router"][0] == 1
    assert summary.by_layer["faults"][0] == 1

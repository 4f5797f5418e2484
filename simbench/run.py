"""Simulator performance ledger: run one workload, print one JSON line.

Usage, from the repository root::

    python3 simbench/run.py --workload slo_exact --seed 1 --seconds 35 --trace 0

``--trace 0`` measures the end-to-end metrics with nothing wrapped:
cold set-up in fresh interpreters (``setup_s``), then, for ``--seconds``,
warm ``Scenario.run`` calls alternating with the same run under a
``RecordingTracer`` (``run_s``, ``run_telemetry_s``).  Every set-up and
run sits between two calibration samples and is normalised by them
(see ``calibrate.py``); each metric is the median over the invocation.  ``--trace 1`` runs cold
sessions -- parse, trace, first simulator, first run, report -- in pairs,
once untraced and once with every layer boundary wrapped, and reports
the per-layer metrics; the span logs go to ``.simbench_out/``.

Every run's report is checked (``checks.py``).  The last line of standard
output is ``{"correct", "attempted", "failed", "metrics"}``; the exit code
is 1 when a check failed and 2 when the repository is not there.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import os
import pathlib
import resource
import statistics
import subprocess
import sys
import time

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".simbench_out"

#: one thread everywhere, and a fixed string hash so set iteration order
#: cannot differ between invocations
_PINNED = {
    "PYTHONHASHSEED": "0",
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
}
#: fresh-interpreter set-ups per invocation (``setup_s`` is their median)
SETUP_REPS = 5
#: fewest timed repetitions, even when ``--seconds`` runs out first
MIN_REPS = 3

END_TO_END_UNITS = {
    "setup_s": "s",
    "run_s": "s",
    "run_telemetry_s": "s",
    "peak_rss_mb": "MB",
    "model_tok_s": "sim_tok/s",
    "model_ttft_p50_ms": "sim_ms",
    "model_ttft_p99_ms": "sim_ms",
    "model_attainment": "fraction",
}


def _parse_args(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=None,
                        help="workload seed (default: the ledger's seed)")
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _pin_environment(argv: list[str]) -> None:
    """Re-execute under the pinned environment unless already in it."""
    if all(os.environ.get(k) == v for k, v in _PINNED.items()):
        return
    env = dict(os.environ, **_PINNED)
    os.execve(sys.executable,
              [sys.executable, str(pathlib.Path(__file__).resolve()), *argv],
              env)


class Ledger:
    """Checks every run and keeps the attempted/failed request counts."""

    def __init__(self, offered: int) -> None:
        self.offered = offered
        self.reference: dict | None = None
        self.runs = 0
        self.failed = 0
        self.failures: list[str] = []

    def check(self, label: str, report, metrics: dict,
              completed_events: int | None = None) -> None:
        from simbench import checks

        problems = checks.check_report(report, self.offered,
                                       completed_events)
        if self.reference is None:
            self.reference = metrics
        else:
            problems += [f"differs from the first run: {d}"
                         for d in checks.differences(self.reference,
                                                     metrics)]
        self.runs += 1
        if problems:
            self.failed += self.offered
            self.failures += [f"{label}: {p}" for p in problems]
        else:
            self.failed += metrics["model.unfinished"]

    @property
    def attempted(self) -> int:
        return self.runs * self.offered


def _setup_once(spec: dict) -> tuple[float, dict]:
    """Seconds from spawning a fresh interpreter to a ready simulator,
    and the probe's own split of them (import, parse, trace, build)."""
    cmd = [sys.executable, str(ROOT / "simbench" / "setup_probe.py"),
           str(SRC), json.dumps(spec)]
    spawned = time.clock_gettime(time.CLOCK_MONOTONIC)
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=120,
                          check=True)
    probe = json.loads(done.stdout.strip().splitlines()[-1])
    return probe["ready"] - spawned, probe


def _timed(call) -> tuple[float, object, dict]:
    """(seconds, report, model metrics) of one run plus its report read."""
    from simbench import checks

    start = time.perf_counter()
    report = call()
    metrics = checks.model_metrics(report)
    return time.perf_counter() - start, report, metrics


def measure(spec: dict, seconds: float) -> tuple[Ledger, dict, dict]:
    """End-to-end metrics of one workload (nothing wrapped)."""
    from repro.scenarios import parse_scenario
    from repro.telemetry import RecordingTracer
    from simbench import calibrate, checks

    raws: dict[str, list[float]] = {
        "setup_s": [], "run_s": [], "run_telemetry_s": []}
    normalised: dict[str, list[float]] = {key: [] for key in raws}
    cal = [calibrate.measure()]

    def record(key: str, raw: float) -> None:
        cal.append(calibrate.measure())
        raws[key].append(raw)
        normalised[key].append(calibrate.normalise(raw, cal[-2], cal[-1]))

    probes = []
    for _ in range(SETUP_REPS):
        raw, probe = _setup_once(spec)
        record("setup_s", raw)
        probes.append(probe)

    scenario = parse_scenario(spec)
    trace = scenario.build_trace()
    scenario.build_simulator(trace)
    ledger = Ledger(len(scenario.build_workload()))
    _, report, metrics = _timed(lambda: scenario.run(trace))
    ledger.check("warm-up run", report, metrics)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    del report

    cal.append(calibrate.measure())
    deadline = time.perf_counter() + seconds
    while True:
        began = time.perf_counter()
        for key in ("run_s", "run_telemetry_s"):
            tracer = RecordingTracer() if key == "run_telemetry_s" else None
            gc.collect()
            raw, report, metrics = _timed(
                lambda: scenario.run(trace, tracer=tracer))
            record(key, raw)
            ledger.check(
                f"{key} run {len(raws[key])}", report, metrics,
                None if tracer is None
                else checks.completed_events(tracer.events))
            del tracer, report
        now = time.perf_counter()
        if len(raws["run_s"]) >= MIN_REPS and now + (now - began) > deadline:
            break

    values = {key: statistics.median(v) for key, v in normalised.items()}
    values["peak_rss_mb"] = peak_rss_mb
    values.update((k, ledger.reference[k]) for k in END_TO_END_UNITS
                  if k.startswith("model_"))
    values = {k: values[k] for k in END_TO_END_UNITS}
    detail = {
        "raw_s": raws,
        "normalised_s": normalised,
        "calibration_s": cal,
        "reference_calibration_s": calibrate.REFERENCE_S,
        "setup_split_s": probes,
    }
    return ledger, values, detail


# ----------------------------------------------------------------------
# traced run
# ----------------------------------------------------------------------
PER_LAYER_UNITS = {
    "spec.parse_s": "s",
    "trace.build_s": "s",
    "executors.build_s": "s",
    "partition.solves": "count",
    "partition.solve_s": "s",
    "workload.build_s": "s",
    "workload.requests": "count",
    "router.calls": "count",
    "router.s": "s",
    "admission.calls": "count",
    "admission.s": "s",
    "preemptor.calls": "count",
    "preemptor.s": "s",
    "backend.span_calls": "count",
    "backend.span_steps": "count",
    "backend.steps_per_span": "steps/span",
    "backend.span_s": "s",
    "backend.step_calls": "count",
    "backend.step_s": "s",
    "backend.prefill_calls": "count",
    "backend.prefill_s": "s",
    "backend.estimate_calls": "count",
    "backend.estimate_s": "s",
    "backend.probe_hit_ratio": "fraction",
    "engine.self_s": "s",
    "engine.predictor_s": "s",
    "engine.mapper_s": "s",
    "engine.scheduler_s": "s",
    "engine.hw_s": "s",
    "engine.rebalances": "count",
    "faults.calls": "count",
    "faults.s": "s",
    "loop.s": "s",
    "loop.self_s": "s",
    "loop.resumes": "count",
    "loop.resumes_per_request": "resumes/req",
    "report.s": "s",
    "telemetry.events": "count",
    "telemetry.emit_s": "s",
    "model.preemptions": "count",
    "model.migrations": "count",
    "model.gpu_util": "fraction",
    "model.dimm_util": "fraction",
    "model.mean_batch": "requests",
    "model.queue_wait_p99_ms": "sim_ms",
    "trace.overhead_frac": "fraction",
}


class _NoSpans:
    """Stand-in recorder for the untraced half of a pair."""

    def span(self, name: str):
        return contextlib.nullcontext()


def cold_session(spec: dict, recorder) -> tuple[float, object, dict, tuple]:
    """Parse, trace, first simulator, first run and report read.

    Returns (wall seconds, report, model metrics, (scenario, trace)).
    ``recorder`` adds the benchmark's own spans around each step; the
    simulator build is a wrapped target when tracing, so it carries no
    extra span here.
    """
    from repro.scenarios import spec as spec_module
    from simbench import checks

    start = time.perf_counter()
    with recorder.span("spec.parse"):
        scenario = spec_module.parse_scenario(spec)
    with recorder.span("trace.build"):
        trace = scenario.build_trace()
    scenario.build_simulator(trace)
    with recorder.span("run"):
        report = scenario.run(trace)
    with recorder.span("report.read"):
        metrics = checks.model_metrics(report)
    return time.perf_counter() - start, report, metrics, (scenario, trace)


def layer_metrics(summary, recorder, telemetry, offered: int,
                  model: dict, overhead: float) -> dict[str, float]:
    """The per-layer metrics of one traced session."""
    by_name, by_layer = summary.by_name, summary.by_layer

    def name(key):
        return by_name.get(key, (0, 0.0, 0.0))

    def layer(key):
        return by_layer.get(key, (0, 0.0, 0.0))

    span_calls, span_s = name("backend.span")[:2]
    span_steps = recorder.tallies.get("backend.span", 0)
    probes = recorder.tallies.get("backend.estimate", 0)
    misses = summary.engine_steps_in_estimates
    emit = telemetry.by_name.get("telemetry.emit", (0, 0.0, 0.0))
    return {
        "spec.parse_s": name("spec.parse")[1],
        "trace.build_s": name("trace.build")[1],
        "executors.build_s": name("executors.build")[1],
        "partition.solves": name("partition.solve")[0],
        "partition.solve_s": name("partition.solve")[1],
        "workload.build_s": name("workload.build")[1],
        "workload.requests": offered,
        "router.calls": layer("router")[0],
        "router.s": layer("router")[1],
        "admission.calls": layer("admission")[0],
        "admission.s": layer("admission")[1],
        "preemptor.calls": layer("preemptor")[0],
        "preemptor.s": layer("preemptor")[1],
        "backend.span_calls": span_calls,
        "backend.span_steps": span_steps,
        "backend.steps_per_span": span_steps / span_calls if span_calls
        else 0.0,
        "backend.span_s": span_s,
        "backend.step_calls": name("backend.step")[0],
        "backend.step_s": name("backend.step")[1],
        "backend.prefill_calls": name("backend.prefill")[0],
        "backend.prefill_s": name("backend.prefill")[1],
        "backend.estimate_calls": name("backend.estimate")[0],
        "backend.estimate_s": name("backend.estimate")[1],
        "backend.probe_hit_ratio": 1.0 - misses / probes if probes else 1.0,
        "engine.self_s": layer("engine")[2],
        "engine.predictor_s": layer("engine.predictor")[1],
        "engine.mapper_s": layer("engine.mapper")[1],
        "engine.scheduler_s": layer("engine.scheduler")[1],
        "engine.hw_s": layer("engine.hw")[1],
        "engine.rebalances": name("engine.scheduler.rebalance_all")[0],
        "faults.calls": layer("faults")[0],
        "faults.s": layer("faults")[1],
        "loop.s": name("loop.run")[1],
        "loop.self_s": name("loop.run")[2],
        "loop.resumes": recorder.resumes[0],
        "loop.resumes_per_request": recorder.resumes[0] / offered,
        "report.s": name("report.read")[1],
        "telemetry.events": emit[0],
        "telemetry.emit_s": emit[1],
        **{k: model[k] for k in PER_LAYER_UNITS if k.startswith("model.")},
        "trace.overhead_frac": overhead,
    }


def measure_traced(spec: dict, name: str, seconds: float
                   ) -> tuple[Ledger, dict, dict]:
    """Per-layer metrics from untraced/traced pairs of cold sessions."""
    from repro.telemetry import RecordingTracer
    from simbench import checks, tracing

    targets = tracing.TARGETS + tuple(tracing.fault_targets())
    ledger: Ledger | None = None
    rounds: list[dict] = []
    walls: dict[str, list[float]] = {"untraced": [], "traced": []}
    deadline = time.perf_counter() + seconds
    while True:
        began = time.perf_counter()
        gc.collect()
        wall, report, metrics, (scenario, _) = cold_session(spec,
                                                            _NoSpans())
        if ledger is None:
            ledger = Ledger(len(scenario.build_workload()))
        ledger.check(f"untraced session {len(rounds) + 1}", report,
                     metrics)
        walls["untraced"].append(wall)
        del report

        gc.collect()
        recorder = tracing.SpanRecorder()
        with recorder.installed(targets, count_resumes=True):
            wall, report, metrics, (scenario, trace) = cold_session(
                spec, recorder)
        ledger.check(f"traced session {len(rounds) + 1}", report, metrics)
        walls["traced"].append(wall)
        del report

        telemetry = tracing.SpanRecorder()
        tracer = RecordingTracer()
        with telemetry.installed(tracing.TELEMETRY_TARGETS):
            report = scenario.run(trace, tracer=tracer)
        ledger.check(f"telemetry session {len(rounds) + 1}", report,
                     checks.model_metrics(report),
                     checks.completed_events(tracer.events))
        del report, tracer

        leaked = tracing.wrapped_now(targets + tracing.TELEMETRY_TARGETS)
        if leaked:
            ledger.failures.append(f"wrappers left installed: {leaked}")
        summary = tracing.summarise(recorder)
        rounds.append(layer_metrics(
            summary, recorder, tracing.summarise(telemetry),
            ledger.offered, ledger.reference,
            walls["traced"][-1] / walls["untraced"][-1] - 1.0))
        now = time.perf_counter()
        if now + (now - began) > deadline:
            break

    recorder.save(OUT / f"spans-{name}.npz")
    telemetry.save(OUT / f"spans-{name}-telemetry.npz")
    values = {k: statistics.median(r[k] for r in rounds)
              for k in PER_LAYER_UNITS}
    detail = {
        "session_wall_s": walls,
        "rounds": rounds,
        "span_self_total_s": summary.self_total,
        "span_root_total_s": summary.root_total,
        "missing_targets": recorder.missing,
    }
    return ledger, values, detail


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = _parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"simbench: no repro package under {SRC}; run from a "
              "checkout of the repository", file=sys.stderr)
        return 2
    _pin_environment(argv)
    sys.path[:0] = [str(SRC), str(ROOT)]
    from simbench import workloads

    if args.seed is None:
        args.seed = workloads.DEFAULT_SEED
    spec = workloads.scenario(args.workload, args.seed)
    if args.trace:
        ledger, values, detail = measure_traced(spec, args.workload,
                                                args.seconds)
        units = PER_LAYER_UNITS
    else:
        ledger, values, detail = measure(spec, args.seconds)
        units = END_TO_END_UNITS
    OUT.mkdir(exist_ok=True)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "requests_offered": ledger.offered,
        "runs_checked": ledger.runs,
        "failures": ledger.failures,
        "metrics": values,
        **detail,
    }
    (OUT / f"result-{args.workload}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1))
    raw = detail.get("raw_s", {})
    for key, value in values.items():
        line = f"{args.workload:12s} {key:26s} {value:14.6g} {units[key]}"
        if key in raw:
            line += f"  (raw median {statistics.median(raw[key]):.6g} s)"
        print(line)
    print(f"{args.workload:12s} requests_offered {ledger.offered} per run, "
          f"{ledger.runs} runs checked, requests_failed {ledger.failed}")
    for failure in ledger.failures:
        print(f"CHECK FAILED {failure}")
    print(json.dumps({
        "correct": not ledger.failures,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {k: {"value": v, "unit": units[k]}
                    for k, v in values.items()},
    }))
    return 0 if not ledger.failures else 1


if __name__ == "__main__":
    sys.exit(main())

"""Output checks and modelled-machine metrics, applied from outside.

Every timed, telemetry and traced run passes through
:func:`check_report`.  It never raises and never stops a run: it returns
the list of violated invariants, and the caller counts every request of
a failing run as failed.  :func:`model_metrics` reads the modelled
machine's results; they are deterministic for a seed, so any two runs
of one invocation must agree on them exactly.
"""

from __future__ import annotations

import math

#: relative slack on "busy <= makespan" for float summation order
_BUSY_EPS = 1e-9


def top_class(report) -> str:
    """The highest-priority declared class that received requests."""
    for name in report.class_names:
        if report.class_records(name):
            return name
    raise ValueError("no class received any request")


def model_metrics(report) -> dict[str, float]:
    """The modelled machine's results, end-to-end and per-layer.

    ``model_ttft_*`` and ``model_attainment`` describe the
    highest-priority class, the one the SLO policy protects; unfinished
    requests count as misses in the attainment.
    """
    top = top_class(report)
    return {
        "model_tok_s": report.tokens_per_second,
        "model_ttft_p50_ms": report.class_ttft_percentile(top, 50) * 1e3,
        "model_ttft_p99_ms": report.class_ttft_percentile(top, 99) * 1e3,
        "model_attainment": report.slo_attainment(top)["joint"],
        "model.preemptions": report.preemptions,
        "model.migrations": report.migrations,
        "model.gpu_util": report.gpu_utilization,
        "model.dimm_util": report.dimm_utilization,
        "model.mean_batch": report.mean_batch_size,
        "model.queue_wait_p99_ms": report.queue_wait_percentile(99) * 1e3,
        "model.completed": len(report.completed),
        "model.unfinished": len(report.unfinished),
    }


def completed_events(events) -> int:
    """``RequestCompleted`` events in a telemetry stream."""
    return sum(1 for e in events if type(e).__name__ == "RequestCompleted")


def check_report(report, offered: int,
                 completed_events: int | None = None) -> list[str]:
    """Violated invariants of one run's report (empty when it is sound).

    ``offered`` is the number of requests the workload submitted;
    ``completed_events`` is the telemetry run's ``RequestCompleted``
    count, or ``None`` for an untraced run.
    """
    failures: list[str] = []
    records = report.records
    completed = [r for r in records if r.finished]
    unfinished = [r for r in records if not r.finished]
    if len(records) != offered:
        failures.append(f"{len(records)} records for {offered} offered")
    if len(completed) + len(unfinished) != offered:
        failures.append(
            f"completed {len(completed)} + unfinished {len(unfinished)} "
            f"!= offered {offered}"
        )
    bad_order = bad_start = bad_length = 0
    for record in records:
        times = record.token_times
        if any(b < a for a, b in zip(times, times[1:])):
            bad_order += 1
        if times and times[0] < record.request.arrival:
            bad_start += 1
        if record.finished and len(times) != record.request.output_len:
            bad_length += 1
    if bad_order:
        failures.append(f"{bad_order} records with decreasing token times")
    if bad_start:
        failures.append(f"{bad_start} records with a token before arrival")
    if bad_length:
        failures.append(f"{bad_length} completed records with a token "
                        "count other than output_len")
    limit = report.makespan * (1.0 + _BUSY_EPS)
    for kind, busy in (("gpu", report.machine_gpu_busy),
                       ("dimm", report.machine_dimm_busy)):
        over = [m for m, b in enumerate(busy) if not b <= limit]
        if over:
            failures.append(f"{kind} busy > makespan on machines {over}")
    for name in report.class_names:
        for key, value in report.slo_attainment(name).items():
            if math.isnan(value) and not report.class_records(name):
                continue
            if not 0.0 <= value <= 1.0:
                failures.append(f"attainment {name}.{key} = {value}")
    if completed_events is not None and completed_events != len(completed):
        failures.append(
            f"{completed_events} RequestCompleted events for "
            f"{len(completed)} completed requests"
        )
    return failures


def differences(reference: dict, other: dict) -> list[str]:
    """Model metrics that are not bit-identical between two runs."""
    out = []
    for key, value in reference.items():
        theirs = other.get(key)
        same = value == theirs or (
            isinstance(value, float) and isinstance(theirs, float)
            and math.isnan(value) and math.isnan(theirs)
        )
        if not same:
            out.append(f"{key}: {value!r} != {theirs!r}")
    return out

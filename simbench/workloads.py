"""The benchmark's workloads: scenario dicts generated from one seed.

Each workload is a plain scenario mapping (the ``scenarios/*.json``
schema) so the program under test receives only generated inputs.  Every
seed the simulator consumes -- tenant streams, ``router_seed`` and the
fault draws -- derives from the benchmark's ``--seed``; the activation
trace keeps the repository default (``trace.seed = 7``), because it is
part of the modelled machine, not of the offered traffic.

All three are open loops: tenants submit on their own arrival schedule,
whatever the fleet's state.  Sizes were chosen so that one run takes
1-2.5 s of host time on a 2-core VM and so that every ``model_*`` metric
varies across seeds by a few percent at most.
"""

from __future__ import annotations

import random

#: workload names, in the order the benchmark documents them
WORKLOADS = ("slo_exact", "fleet_fast", "chaos_mixed")

#: the seed the ledger quotes (README.md names the held-out one)
DEFAULT_SEED = 1

_TRACE = {"granularity": 4, "seed": 7}
_INTERACTIVE = {"priority": 2, "ttft_slo": 0.002, "tbt_slo": 0.004}


def _tenant(name, cls, arrival, rate, count, seed, prompt, out_lo, out_hi,
            **burst) -> dict:
    tenant = {
        "name": name,
        "class": cls,
        "arrival": arrival,
        "rate": rate,
        "num_requests": count,
        "seed": seed,
        "prompt_lens": {"kind": "fixed", "mean": prompt},
        "output_lens": {"kind": "uniform", "low": out_lo, "high": out_hi},
    }
    tenant.update(burst)
    return tenant


def slo_exact(seed: int) -> dict:
    """Preemptive SLO serving on 4 Hermes machines at exact fidelity."""
    return {
        "name": "slo_exact",
        "model": "tiny-test",
        "seed": seed,
        "trace": dict(_TRACE),
        "cluster": {
            "num_machines": 4,
            "max_batch": 8,
            "router": "least-loaded",
            "router_seed": seed,
            "policy": "fcfs",
        },
        "slo": {"preemptive": True, "headroom": 0.8},
        "classes": {
            "interactive": dict(_INTERACTIVE),
            "batch": {"priority": 0, "ttft_slo": 0.05},
        },
        "tenants": [
            _tenant("chat", "interactive", "poisson", 6000.0, 3000,
                    3 * seed, 24, 2, 6),
            _tenant("analytics", "batch", "bursty", 3000.0, 1300,
                    3 * seed + 1, 64, 8, 16,
                    burst_factor=3.0, burst_fraction=0.25,
                    burst_period=0.003),
        ],
    }


def fleet_fast(seed: int) -> dict:
    """100 Hermes machines on one calendar at fast fidelity."""
    return {
        "name": "fleet_fast",
        "model": "tiny-test",
        "seed": seed,
        "trace": dict(_TRACE),
        "cluster": {
            "num_machines": 100,
            "max_batch": 8,
            "router": "power-of-two",
            "router_seed": seed,
            "policy": "fcfs",
            "fidelity": "fast",
        },
        "classes": {
            "interactive": {"priority": 1, "ttft_slo": 0.05,
                            "tbt_slo": 0.01},
            "bulk": {"priority": 0},
        },
        "tenants": [
            _tenant("chat", "interactive", "poisson", 60000.0, 3000,
                    3 * seed, 24, 8, 16),
            _tenant("summarize", "bulk", "poisson", 60000.0, 3000,
                    3 * seed + 1, 48, 12, 20),
        ],
    }


def _windows(rng, count, start, end, length, taken) -> list[float]:
    """``count`` start times of ``length``-long windows, one drawn in
    each equal slice of ``[start, end)``, none overlapping ``taken``.

    Stratifying by slice keeps the number of events fixed and their
    spread even, so two seeds differ in where faults land but not in how
    much of the run they disturb.  ``taken`` is extended in place.
    """
    times = []
    width = (end - start) / count
    for k in range(count):
        lo = start + k * width
        for _ in range(64):
            at = rng.uniform(lo, lo + width - length)
            if all(at + length <= a or at >= b for a, b in taken):
                taken.append((at, at + length))
                times.append(round(at, 6))
                break
    return times


def chaos_mixed(seed: int) -> dict:
    """Faults on a mixed hermes/dense/dejavu fleet.

    Fault events are drawn from the seed with fixed counts and
    durations: one crash of each rack, eight crashes of every machine,
    two stragglers per machine and one DIMM degrade on a Hermes machine.
    Routing is throughput-aware but not ``health_aware``: the health
    monitor demotes any machine whose batch shrinks and never clears a
    machine it stopped feeding, which made every metric swing across
    seeds (see README.md).
    """
    rng = random.Random(f"simbench:chaos_mixed:{seed}")
    machines = 6
    racks = {"rack0": [0, 2, 4], "rack1": [1, 3, 5]}
    warmup = 0.001
    rack_down = machine_down = 0.006
    horizon = (0.02, 0.45)
    taken: dict[int, list] = {m: [] for m in range(machines)}
    domain_crashes = []
    rack_taken: list = []
    for name, members in racks.items():
        (at,) = _windows(rng, 1, *horizon, rack_down + warmup + 0.002,
                         rack_taken)
        domain_crashes.append(
            {"domain": name, "at": at, "restart_after": rack_down})
        for m in members:
            taken[m].append((at, at + rack_down + warmup + 0.002))
    crashes = []
    stragglers = []
    for m in range(machines):
        for at in _windows(rng, 8, *horizon,
                           machine_down + warmup + 0.002, taken[m]):
            crashes.append(
                {"machine": m, "at": at, "restart_after": machine_down})
        for at in _windows(rng, 2, *horizon, 0.03, []):
            stragglers.append({"machine": m, "start": at,
                               "end": round(at + 0.03, 6),
                               "slowdown": 3.0})
    crashes.sort(key=lambda c: (c["at"], c["machine"]))
    stragglers.sort(key=lambda s: (s["start"], s["machine"]))
    return {
        "name": "chaos_mixed",
        "model": "tiny-test",
        "seed": seed,
        "trace": dict(_TRACE),
        "fleet": [
            {"count": 2, "backend": "hermes"},
            {"count": 2, "backend": "dense"},
            {"count": 2, "backend": "dejavu"},
        ],
        "cluster": {
            "max_batch": 8,
            "router": "throughput-least-loaded",
            "router_seed": seed,
            "policy": "fcfs",
        },
        "classes": {
            "interactive": dict(_INTERACTIVE, ttft_slo=0.003),
            "bulk": {"priority": 0, "ttft_slo": 0.05},
        },
        "tenants": [
            _tenant("chat", "interactive", "poisson", 6000.0, 3000,
                    3 * seed, 24, 3, 9),
            _tenant("bulk", "bulk", "poisson", 3000.0, 1500,
                    3 * seed + 1, 48, 8, 16),
        ],
        "faults": {
            "seed": 3 * seed + 2,
            "restart_warmup": warmup,
            "domains": racks,
            "domain_crashes": domain_crashes,
            "crashes": crashes,
            "stragglers": stragglers,
            "degrades": [{
                "machine": 0,
                "at": round(rng.uniform(0.1, 0.3), 6),
                "dimm_fraction": 0.5,
            }],
        },
    }


def scenario(name: str, seed: int) -> dict:
    """The scenario dict of workload ``name`` at ``seed``."""
    if name not in WORKLOADS:
        raise ValueError(
            f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}"
        )
    return globals()[name](seed)

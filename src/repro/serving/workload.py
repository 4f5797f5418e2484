"""Request workload generation for the online serving simulator.

A workload is a list of :class:`Request` objects — arrival time, prompt
length, output length — that an open-loop client population submits to the
serving cluster.  Two arrival processes are modelled:

* ``poisson`` — memoryless arrivals at a constant mean rate, the standard
  open-loop assumption for aggregate traffic from many independent users;
* ``bursty`` — a two-state modulated Poisson process that alternates quiet
  and burst periods (mean rate is preserved), stressing queueing behaviour
  the way diurnal spikes and retry storms do.

Trace-driven workloads (replaying measured arrival timestamps) come in
through :func:`workload_from_arrivals`.  Everything is driven by a seeded
``numpy`` generator, so a (config, seed) pair is fully reproducible.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

#: supported prompt/output length distributions
LENGTH_KINDS = ("fixed", "uniform", "lognormal")


def _check_finite(config: object, keys: tuple[str, ...]) -> None:
    """Reject a NaN or infinite value in any of ``config``'s ``keys``
    (``None`` means unset and passes)."""
    for key in keys:
        value = getattr(config, key)
        if value is not None and not math.isfinite(value):
            raise ValueError(f"{key} must be finite, got {value!r}")


@dataclasses.dataclass(frozen=True, slots=True)
class Request:
    """One inference request as submitted by a client.

    ``tenant`` identifies the submitting workload stream (used by
    session-affinity routing and fairness accounting); ``class_name``
    names the request's priority/SLO class — both default to
    ``"default"`` so single-tenant workloads need not set them.  The
    cluster layer (:mod:`repro.cluster`) resolves ``class_name`` against
    its configured :class:`~repro.cluster.PriorityClass` table; the
    single-machine simulator ignores both fields.
    """

    req_id: int
    arrival: float  # seconds since simulation start
    prompt_len: int
    output_len: int
    tenant: str = "default"
    class_name: str = "default"

    def __post_init__(self) -> None:
        if self.arrival < 0:
            raise ValueError("arrival must be non-negative")
        if self.prompt_len < 1 or self.output_len < 1:
            raise ValueError("prompt_len and output_len must be >= 1")


@dataclasses.dataclass(frozen=True)
class LengthDistribution:
    """Token-count distribution for prompts or outputs.

    ``fixed`` always returns ``mean``; ``uniform`` draws from
    ``[low, high]``; ``lognormal`` draws a heavy-tailed length with the
    requested mean and log-space ``sigma`` (the shape real prompt-length
    datasets such as ShareGPT exhibit).  Samples are clamped to
    ``[low, high]`` when bounds are given, and are always >= 1.
    """

    kind: str = "fixed"
    mean: float = 128.0
    low: int | None = None
    high: int | None = None
    sigma: float = 0.5

    def __post_init__(self) -> None:
        if self.kind not in LENGTH_KINDS:
            raise ValueError(f"unknown length distribution {self.kind!r}; "
                             f"choose from {', '.join(LENGTH_KINDS)}")
        _check_finite(self, ("mean", "low", "high", "sigma"))
        if self.mean < 1:
            raise ValueError("mean length must be >= 1")
        if self.kind == "uniform" and (self.low is None or self.high is None):
            raise ValueError("uniform distribution needs low and high")
        if (self.low is not None and self.high is not None
                and self.low > self.high):
            raise ValueError("low must not exceed high")
        if self.sigma <= 0:
            raise ValueError("sigma must be positive")

    def sample(self, rng: np.random.Generator) -> int:
        if self.kind == "fixed":
            value = self.mean
        elif self.kind == "uniform":
            value = rng.integers(self.low, self.high + 1)
        else:  # lognormal with E[X] = mean
            mu = np.log(self.mean) - 0.5 * self.sigma**2
            value = rng.lognormal(mu, self.sigma)
        if self.low is not None:
            value = max(value, self.low)
        if self.high is not None:
            value = min(value, self.high)
        return max(1, int(round(float(value))))


@dataclasses.dataclass(frozen=True)
class WorkloadConfig:
    """Open-loop traffic description."""

    arrival: str = "poisson"  # 'poisson' | 'bursty'
    rate: float = 4.0  # mean requests per second
    num_requests: int = 64
    prompt_lens: LengthDistribution = LengthDistribution(mean=128)
    output_lens: LengthDistribution = LengthDistribution(mean=128)
    #: bursty only — peak-to-mean rate ratio inside a burst
    burst_factor: float = 4.0
    #: bursty only — long-run fraction of time spent in the burst state
    burst_fraction: float = 0.2
    #: bursty only — mean burst period length in seconds
    burst_period: float = 2.0

    def __post_init__(self) -> None:
        if self.arrival not in ("poisson", "bursty"):
            raise ValueError(f"unknown arrival process {self.arrival!r}")
        if not (math.isfinite(self.rate) and self.rate > 0):
            raise ValueError(
                f"rate must be finite and positive, got {self.rate!r}")
        _check_finite(self, ("num_requests", "burst_factor",
                             "burst_fraction", "burst_period"))
        if self.num_requests < 1:
            raise ValueError("num_requests must be >= 1")
        if self.arrival == "bursty":
            if self.burst_factor <= 1.0:
                raise ValueError("burst_factor must exceed 1")
            if not 0.0 < self.burst_fraction < 1.0:
                raise ValueError("burst_fraction must lie in (0, 1)")
            if self.burst_factor * self.burst_fraction >= 1.0:
                raise ValueError(
                    "burst_factor * burst_fraction must stay below 1 so the "
                    "quiet-state rate remains positive")
            if self.burst_period <= 0:
                raise ValueError("burst_period must be positive")


def _poisson_arrivals(
    config: WorkloadConfig, rng: np.random.Generator
) -> np.ndarray:
    gaps = rng.exponential(1.0 / config.rate, size=config.num_requests)
    return np.cumsum(gaps)


def _bursty_arrivals(
    config: WorkloadConfig, rng: np.random.Generator
) -> np.ndarray:
    """Two-state MMPP: exponential quiet/burst dwell times, Poisson within.

    The quiet rate is solved so the long-run mean equals ``config.rate``:
    ``rate = f * rate_burst + (1 - f) * rate_quiet``.
    """
    f = config.burst_fraction
    rate_burst = config.rate * config.burst_factor
    rate_quiet = config.rate * (1.0 - f * config.burst_factor) / (1.0 - f)
    quiet_period = config.burst_period * (1.0 - f) / f
    arrivals: list[float] = []
    now = 0.0
    in_burst = False
    while len(arrivals) < config.num_requests:
        mean_dwell = config.burst_period if in_burst else quiet_period
        dwell = rng.exponential(mean_dwell)
        rate = rate_burst if in_burst else rate_quiet
        t = now
        while len(arrivals) < config.num_requests:
            t += rng.exponential(1.0 / rate)
            if t > now + dwell:
                break
            arrivals.append(t)
        now += dwell
        in_burst = not in_burst
    return np.asarray(arrivals[:config.num_requests])


def generate_workload(
    config: WorkloadConfig,
    seed: int = 0,
    *,
    tenant: str = "default",
    class_name: str = "default",
) -> list[Request]:
    """Sample a full open-loop workload; deterministic in (config, seed).

    ``tenant``/``class_name`` tag every request of the stream (used by
    cluster routing, SLO classes, and fairness accounting); the sampled
    arrivals and lengths do not depend on them.
    """
    rng = np.random.default_rng(seed)
    if config.arrival == "poisson":
        arrivals = _poisson_arrivals(config, rng)
    else:
        arrivals = _bursty_arrivals(config, rng)
    return [
        Request(req_id=i, arrival=float(t),
                prompt_len=config.prompt_lens.sample(rng),
                output_len=config.output_lens.sample(rng),
                tenant=tenant, class_name=class_name)
        for i, t in enumerate(arrivals)
    ]


def merge_workloads(*streams: list[Request]) -> list[Request]:
    """Interleave tenant streams into one workload with fresh req_ids.

    Requests are ordered by ``(arrival, source order)`` and renumbered so
    the merged workload has unique, dense ids — the form the simulators
    require.  Tenant and class tags are preserved.
    """
    tagged = [(r.arrival, s, i) for s, stream in enumerate(streams)
              for i, r in enumerate(stream)]
    if not tagged:
        raise ValueError("merge_workloads needs at least one request")
    tagged.sort()
    return [dataclasses.replace(streams[s][i], req_id=new_id)
            for new_id, (_, s, i) in enumerate(tagged)]


def workload_from_arrivals(
    arrivals: list[float],
    prompt_lens: list[int] | int,
    output_lens: list[int] | int,
) -> list[Request]:
    """Trace-driven workload from measured arrival timestamps.

    ``prompt_lens``/``output_lens`` may be scalars (applied to every
    request) or per-request lists aligned with ``arrivals``.
    """
    n = len(arrivals)
    if n == 0:
        raise ValueError("arrivals must be non-empty")
    if sorted(arrivals) != list(arrivals):
        raise ValueError("arrivals must be non-decreasing")
    prompts = [prompt_lens] * n if isinstance(prompt_lens, int) \
        else list(prompt_lens)
    outputs = [output_lens] * n if isinstance(output_lens, int) \
        else list(output_lens)
    if len(prompts) != n or len(outputs) != n:
        raise ValueError("length lists must match arrivals")
    return [Request(req_id=i, arrival=float(t), prompt_len=p, output_len=o)
            for i, (t, p, o) in enumerate(zip(arrivals, prompts, outputs))]

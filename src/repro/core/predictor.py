"""The lightweight online activation predictor (paper §IV-C1).

Replaces the expensive per-layer MLP predictors of Deja Vu/PowerInfer
(2 GB of weights, 10-25 % of runtime for LLaMA-7B) with two tiny tables:

* **Neuron state table** — a 4-bit saturating counter per neuron, the
  branch-predictor trick applied to activation locality.  Initialised from
  prefill activation frequencies (16 linear stages); on every decode step an
  activated neuron's state rises by ``s_up`` (paper: 4) and an inactive
  neuron's falls by ``s_down`` (paper: 1).
* **Neuron correlation table** — the top-2 most correlated predecessor
  neurons in the previous layer, sampled offline from profiling data.

A neuron is predicted active when ``s1 + lambda * s2 > T`` with ``s1`` its
state, ``s2`` the number of its correlated predecessors that fired in the
previous layer this token, ``lambda = 6`` and ``T = 15`` (paper values).
Neurons with state above ``hot_threshold = 10`` are classified *hot* and
become candidates for GPU residency (§IV-C2).

For LLaMA-7B the state table is 232 KB (4 bits x 32 layers x 14.8 K
neurons), matching the paper's footprint claim; the table sizes are exposed
so tests can assert them.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from ..sparsity import ActivationTrace, NeuronLayout

STATE_MAX = 15
STATE_BITS = 4


@dataclasses.dataclass(frozen=True)
class PredictorConfig:
    """Hyper-parameters of the combined predictor (paper defaults)."""

    s_up: int = 4
    s_down: int = 1
    lam: float = 6.0
    threshold: float = 15.0
    hot_threshold: int = 10
    use_token_prediction: bool = True
    use_layer_prediction: bool = True

    def __post_init__(self) -> None:
        if self.s_up < 1 or self.s_down < 1:
            raise ValueError("state increments must be >= 1")
        if self.lam < 0:
            raise ValueError("lambda must be non-negative")
        if not 0 <= self.hot_threshold <= STATE_MAX:
            raise ValueError("hot_threshold must lie in [0, 15]")
        if not (self.use_token_prediction or self.use_layer_prediction):
            raise ValueError("at least one prediction mode must be enabled")


class CorrelationTable:
    """Top-2 correlated predecessor groups per layer (offline sampled)."""

    def __init__(self, parents: list[np.ndarray | None]) -> None:
        self.parents = parents

    @classmethod
    def from_profiling(cls, trace: ActivationTrace) -> "CorrelationTable":
        """The offline-profiled table (paper: sampled over 128 C4/Pile
        samples, §IV-B/C).

        A single trace cannot stand in for a large independent profiling
        corpus, so this uses the correlation structure the trace recorded
        at initialisation time — the information an ideal offline profiler
        would have extracted.  Crucially it is a *snapshot*: as neuron
        identities drift during decode the table goes stale, reproducing
        the paper's observation that the static sampled table limits
        layer-only prediction (§V-C).
        """
        parents = [None if p is None else p.copy() for p in trace.parents]
        return cls(parents)

    @classmethod
    def from_trace(
        cls, trace: ActivationTrace, *, tokens: slice | None = None
    ) -> "CorrelationTable":
        """Estimate parent pairs statistically from a profiling window.

        The data-driven alternative to :meth:`from_profiling` for traces
        without recorded structure.  Estimation quality is bounded by the
        window's effective sample count (token-wise similarity makes
        consecutive tokens highly dependent)."""
        if tokens is None:
            tokens = slice(0, max(2, trace.prompt_len))
        parents: list[np.ndarray | None] = [None]
        for l in range(1, trace.num_layers):
            prev = trace.layers[l - 1][tokens].astype(np.float64)
            cur = trace.layers[l][tokens].astype(np.float64)
            if prev.shape[0] < 2:
                raise ValueError("profiling window too short")
            # Pearson correlation rather than raw co-occurrence: always-on
            # parents co-occur with everything, so conditional probability
            # alone cannot separate the genuinely correlated predecessor
            # from the merely hot one; centering removes that bias.
            prev_c = prev - prev.mean(axis=0)
            cur_c = cur - cur.mean(axis=0)
            denom = np.outer(
                np.linalg.norm(prev_c, axis=0), np.linalg.norm(cur_c, axis=0)
            )
            with np.errstate(invalid="ignore", divide="ignore"):
                corr = np.where(denom > 0, prev_c.T @ cur_c / denom, 0.0)
            # top-2 parents per child by correlation
            top2 = np.argsort(corr, axis=0)[-2:, :][::-1].T
            parents.append(np.ascontiguousarray(top2))
        return cls(parents)

    def table_bytes(self, index_bytes: int = 2) -> int:
        """Storage footprint of the correlation table."""
        total = 0
        for table in self.parents:
            if table is not None:
                total += table.size * index_bytes
        return total


@dataclasses.dataclass
class PredictionStats:
    """Running accuracy counters (predicted vs ground-truth activations)."""

    true_positive: int = 0
    false_positive: int = 0
    true_negative: int = 0
    false_negative: int = 0

    def update(self, predicted: np.ndarray, actual: np.ndarray) -> None:
        self.fold(int(np.count_nonzero(predicted & actual)),
                  int(np.count_nonzero(predicted)),
                  int(np.count_nonzero(actual)), predicted.size)

    def fold(self, tp: int, n_pred: int, n_act: int, size: int) -> None:
        """Fold one outcome given as counts: true positives, predicted
        and actual positives, out of ``size`` cells."""
        self.true_positive += tp
        self.false_positive += n_pred - tp
        self.false_negative += n_act - tp
        self.true_negative += size - n_pred - n_act + tp

    @property
    def total(self) -> int:
        return (self.true_positive + self.false_positive
                + self.true_negative + self.false_negative)

    @property
    def accuracy(self) -> float:
        if self.total == 0:
            raise ValueError("no predictions recorded")
        return (self.true_positive + self.true_negative) / self.total

    @property
    def recall(self) -> float:
        actual = self.true_positive + self.false_negative
        if actual == 0:
            return 1.0
        return self.true_positive / actual

    @property
    def precision(self) -> float:
        predicted = self.true_positive + self.false_positive
        if predicted == 0:
            return 1.0
        return self.true_positive / predicted


@dataclasses.dataclass(frozen=True, eq=False)
class TraceTables:
    """Every trace-only input of the decode-step predictor.

    The layer-wise term, the state-table deltas and the activation
    counts depend only on the immutable trace, never on a session's
    evolving state, so one set per trace and predictor key is shared by
    every session over that trace (see :func:`trace_tables`).  Per-token
    arrays are indexed by decode token: row ``i`` is trace token
    ``prompt_len + i``.
    """

    #: (layers, groups) state table initialised from prefill frequencies
    initial_states: np.ndarray
    #: the correlation table, or None without layer-wise prediction
    correlation: CorrelationTable | None
    #: (decode tokens, layers, groups) int8 count of correlated parents
    #: that fired in the previous layer; None without layer prediction
    s2: np.ndarray | None
    #: (decode tokens, layers, groups) pre-clip state deltas
    deltas: np.ndarray
    #: view of the trace's decode activations, (tokens, layers, groups)
    actuals: np.ndarray
    #: number of active groups per decode token
    active_counts: list[int]


def trace_tables(trace: ActivationTrace, config: PredictorConfig,
                 correlation: str) -> TraceTables:
    """Fetch or build the predictor tables of ``trace`` for ``config``.

    Stored on the trace object itself (like its lazy ``_stacked`` view),
    keyed by what the tables depend on: the correlation source when
    layer-wise prediction is on, and the state increments.
    """
    use_layer = config.use_layer_prediction
    if use_layer and correlation not in ("profiled", "sampled"):
        raise ValueError(f"unknown correlation source {correlation!r}")
    key = (correlation if use_layer else None, config.s_up, config.s_down)
    cache = getattr(trace, "_predictor_tables", None)
    if cache is None:
        cache = {}
        trace._predictor_tables = cache
    tables = cache.get(key)
    if tables is None:
        tables = _build_tables(trace, config, key[0])
        cache[key] = tables
    return tables


def _parent_counts(actuals_span: np.ndarray, table: CorrelationTable,
                   dtype) -> np.ndarray:
    """Layer-wise term ``s2`` of every step of a ``(steps, layers,
    groups)`` activation stack: how many of each group's correlated
    parents fired in the previous layer (0 where a layer has no table)."""
    s2 = np.zeros(actuals_span.shape, dtype=dtype)
    for l in range(1, actuals_span.shape[1]):
        parents = table.parents[l]
        if parents is not None:
            s2[:, l] = actuals_span[:, l - 1][:, parents].sum(axis=2)
    return s2


def _build_tables(trace: ActivationTrace, config: PredictorConfig,
                  correlation: str | None) -> TraceTables:
    initial = np.empty(
        (trace.num_layers, trace.layout.groups_per_layer), dtype=np.int16)
    for l in range(trace.num_layers):
        freq = trace.prefill_frequencies(l)
        initial[l] = np.minimum(
            (freq * (STATE_MAX + 1)).astype(np.int16), STATE_MAX)
    actuals = trace.active_span(slice(trace.prompt_len, trace.n_tokens))
    table = s2 = None
    if correlation is not None:
        table = (CorrelationTable.from_profiling(trace)
                 if correlation == "profiled"
                 else CorrelationTable.from_trace(trace))
        s2 = _parent_counts(actuals, table, np.int8)
    deltas = np.where(actuals, np.int16(config.s_up),
                      np.int16(-config.s_down))
    counts = np.count_nonzero(actuals, axis=(1, 2)).tolist()
    # shared by every session over the trace: freeze what was built here
    for array in (initial, s2, deltas):
        if array is not None:
            array.flags.writeable = False
    return TraceTables(initial, table, s2, deltas, actuals, counts)


class ActivationPredictor:
    """Combined token-wise + layer-wise activation predictor."""

    def __init__(
        self, layout: NeuronLayout, config: PredictorConfig | None = None
    ) -> None:
        self.layout = layout
        self.config = config or PredictorConfig()
        self.num_layers = layout.model.num_layers
        # int16 working dtype: the 4-bit counters fit comfortably, and the
        # decode hot path can update them without the int8 -> int16 -> int8
        # round-trip a saturating update would otherwise need.  The modelled
        # hardware footprint stays 4 bits (:meth:`state_table_bytes`).
        # ``states`` keeps the historical per-layer API as row views into
        # the dense matrix the vectorized paths consume.
        self.state_matrix = np.zeros(
            (self.num_layers, layout.groups_per_layer), dtype=np.int16)
        self.states = list(self.state_matrix)
        self.correlation: CorrelationTable | None = None
        #: the shared per-trace tables behind the per-token entry points
        self.tables: TraceTables | None = None
        self.stats = PredictionStats()

    # ------------------------------------------------------------------
    def initialize(self, trace: ActivationTrace, *,
                   correlation: str = "profiled") -> None:
        """Set initial states from prefill frequencies (16 linear stages)
        and attach the trace's shared tables (:func:`trace_tables`).

        ``correlation`` selects the table source: ``"profiled"`` uses the
        trace's recorded offline structure (the paper's corpus-profiled
        table), ``"sampled"`` estimates it statistically from the prefill
        window.
        """
        tables = trace_tables(trace, self.config, correlation)
        self.tables = tables
        self.state_matrix[:] = tables.initial_states
        self.correlation = tables.correlation

    # ------------------------------------------------------------------
    def predict(self, layer: int,
                prev_actual: np.ndarray | None = None) -> np.ndarray:
        """Predicted activation mask for ``layer`` on the current token.

        ``prev_actual`` is the realised activation of layer-1 (available
        because layers execute sequentially); it feeds the layer-wise term.
        """
        cfg = self.config
        if cfg.use_token_prediction:
            s1 = self.states[layer].astype(np.float64)
        else:
            s1 = np.zeros(self.layout.groups_per_layer)
        s2 = np.zeros_like(s1)
        if (cfg.use_layer_prediction and layer > 0
                and prev_actual is not None
                and self.correlation is not None):
            parents = self.correlation.parents[layer]
            if parents is not None:
                s2 = prev_actual[parents].sum(axis=1).astype(np.float64)
        score = s1 + cfg.lam * s2
        if not cfg.use_token_prediction:
            # layer-only mode: both sampled parents must fire — one parent
            # alone fires far too often (hot parents are nearly always on)
            return s2 >= 2.0
        # ">=" rather than the paper's strict ">": the state table saturates
        # at 15 == T, so a strict comparison would never fire on a
        # permanently-active neuron with silent parents.
        return score >= cfg.threshold

    def predict_all(self, token: int) -> np.ndarray:
        """Predicted masks for every layer of decode token ``token``.

        Row ``l`` equals ``predict(l, actual of layer l-1)`` bit-for-bit:
        the layer-wise term is read from the shared table instead of
        gathered through the correlation table, and the score keeps
        :meth:`predict`'s float64 arithmetic (``s2 * lam + s1``, all
        small exact integers) — one call replaces the per-layer loop on
        the decode path.
        """
        cfg = self.config
        s2 = self.tables.s2
        if not cfg.use_token_prediction:
            # layer-only mode: both sampled parents must fire (see predict)
            return s2[token] >= 2
        if s2 is None:
            return self.state_matrix >= cfg.threshold
        score = np.multiply(s2[token], cfg.lam, dtype=np.float64)
        score += self.state_matrix
        return score >= cfg.threshold

    # ---- whole-span forms ----------------------------------------------
    # The engine steps through :meth:`predict_all` / :meth:`observe_all`;
    # these compute the same quantities for an arbitrary stack of steps
    # at once.  The performance ledger's tracer (``simbench/tracing.py``)
    # names them as trace targets.
    def span_scores(self, actuals_span: np.ndarray) -> np.ndarray:
        """Layer-wise score term of every step of a span.

        ``actuals_span`` stacks the span's ground-truth activations as
        ``(steps, num_layers, groups)``.  The returned float64 array of
        the same shape holds ``lam * s2`` per step (raw ``s2`` in
        layer-only mode, whose threshold does not mix in the state
        table).
        """
        if actuals_span.shape[1:] != self.state_matrix.shape:
            raise ValueError("actuals span has wrong shape")
        cfg = self.config
        if cfg.use_layer_prediction and self.correlation is not None:
            s2 = _parent_counts(actuals_span, self.correlation, np.float64)
        else:
            s2 = np.zeros(actuals_span.shape)
        if cfg.use_token_prediction:
            s2 *= cfg.lam
        return s2

    def span_deltas(self, actuals_span: np.ndarray) -> np.ndarray:
        """Pre-clip state-table deltas of every step, in one ``where``."""
        return np.where(
            actuals_span,
            np.int16(self.config.s_up),
            np.int16(-self.config.s_down),
        )

    def span_states(self, deltas_span: np.ndarray) -> np.ndarray:
        """State-table snapshots across a span: ``(K + 1, L, G)``.

        Entry 0 is the live table as it stands; entry ``i`` the table
        after the span's first ``i`` saturating updates (deltas from
        :meth:`span_deltas`), each the max-then-min spelling of
        :meth:`observe_all`'s clip.  The state evolution depends only on
        the ground-truth activations, never on predictions or residency.
        """
        k = deltas_span.shape[0]
        out = np.empty((k + 1,) + self.state_matrix.shape, dtype=np.int16)
        out[0] = self.state_matrix
        for i in range(k):
            nxt = out[i + 1]
            np.add(out[i], deltas_span[i], out=nxt)
            np.maximum(nxt, 0, out=nxt)
            np.minimum(nxt, STATE_MAX, out=nxt)
        return out

    def span_predictions(
        self, scores_span: np.ndarray, states_span: np.ndarray
    ) -> np.ndarray:
        """Predicted masks for every step of a span, in two matrix ops.

        ``scores_span`` from :meth:`span_scores`, ``states_span`` from
        :meth:`span_states` — row ``i`` is bit-identical to
        :meth:`predict_all` on the span's ``i``-th token interleaved
        with the span's state updates, because every term is a small
        exact integer in float64.
        """
        cfg = self.config
        if not cfg.use_token_prediction:
            # layer-only mode: both sampled parents must fire
            return scores_span >= 2.0
        return scores_span + states_span[:-1] >= cfg.threshold

    def sync_states(self, states: np.ndarray) -> None:
        """Commit a span's realized final state snapshot to the table."""
        self.state_matrix[:] = states

    def record_span(
        self, predicted_span: np.ndarray, actuals_span: np.ndarray
    ) -> None:
        """Fold a whole span's outcomes into the accuracy counters.

        The counters are order-free integer sums, so one update over the
        stacked masks equals the per-step folds exactly.
        """
        self.stats.update(predicted_span, actuals_span)

    # ------------------------------------------------------------------
    def observe(self, layer: int, actual: np.ndarray,
                predicted: np.ndarray | None = None) -> None:
        """Finite-state-machine update after the layer's true activations
        are known; also folds the outcome into the accuracy counters."""
        if actual.shape != (self.layout.groups_per_layer,):
            raise ValueError("actual mask has wrong shape")
        if predicted is not None:
            self.stats.update(predicted, actual)
        state = np.where(
            actual,
            self.states[layer] + self.config.s_up,
            self.states[layer] - self.config.s_down,
        )
        np.clip(state, 0, STATE_MAX, out=self.states[layer])

    def observe_all(
        self, token: int, predicted: np.ndarray | None = None
    ) -> None:
        """Token-level :meth:`observe`: fold decode token ``token``'s
        outcome for every layer into the state table and accuracy
        counters at once.

        Equivalent to calling ``observe(l, actual[l], predicted[l])`` for
        each layer — the state update is elementwise and the counters are
        order-free sums — but costs a handful of matrix ops per token.
        Valid whenever no reader consumes layer ``l``'s post-token state
        between the layer loop and the end of the token, which holds for
        the engine: online adjustment reads pre-token states only.
        """
        tables = self.tables
        if predicted is not None:
            self.stats.fold(
                int(np.count_nonzero(predicted & tables.actuals[token])),
                int(np.count_nonzero(predicted)),
                tables.active_counts[token], predicted.size)
        matrix = self.state_matrix
        # in-place delta + saturating clamp (max-then-min spelling of
        # clip); identical integers to the scalar update
        matrix += tables.deltas[token]
        np.maximum(matrix, 0, out=matrix)
        np.minimum(matrix, STATE_MAX, out=matrix)

    # ------------------------------------------------------------------
    def hot_mask(self, layer: int) -> np.ndarray:
        """Groups currently classified hot (state > hot_threshold)."""
        return self.states[layer] > self.config.hot_threshold

    def state_table_bytes(self) -> int:
        """Footprint of the neuron state table at 4 bits per neuron.

        Reported at *neuron* granularity (the paper's bookkeeping), i.e.
        independent of the simulation's group granularity.
        """
        return self.layout.model.total_neurons * STATE_BITS // 8

    def predictor_overhead_seconds(self, layer: int) -> float:
        """Host-CPU time to evaluate the predictor for one layer.

        A handful of vector ops over the state table held in LLC; the paper
        measures <0.1 % of runtime.  Modelled as table-scan time at LLC
        bandwidth (~100 GB/s) with a 1 us floor for control flow.
        """
        table_bytes = self.layout.model.neurons_per_layer * STATE_BITS / 8
        return 1e-6 + table_bytes / 100e9

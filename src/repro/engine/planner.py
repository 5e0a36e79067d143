"""Self-tuning access-path planning — the cost model goes live.

The paper's Section 6.3 observation (a low-selectivity selection should
fall back to a sequential scan) has lived in :mod:`repro.core.advisor`
and :mod:`repro.sim.cost` since the beginning, but nothing *used* them
at query time: the executor always ran imprints.  This module closes
the loop, in the spirit of learned index selection (LSI / AIM): predict
the cost of every plan, pick the plan, then recalibrate from what
actually happened.

Three pieces:

* :class:`MultiBackendIndex` — one logical column served by several
  physical access paths (imprints, zonemap, scan) over the same
  data.  Mutations fan out to every backend in lockstep; queries route
  through any of them and come back stamped with one shared version
  counter, so the executor's versioned LRU and page cursors are
  backend-agnostic.  Answers are bit-identical across backends by the
  differential contract every index already satisfies.

* :class:`PlanStatistics` — a bounded, LRU-evicting store of *observed*
  behaviour per ``(column, predicate shape)``: EWMA selectivity and
  EWMA wall-clock seconds per backend.  A predicate's *shape* is its
  bucketed form (point / bounded range by width magnitude / half-open /
  unbounded) — precise enough to separate selective from unselective
  traffic, coarse enough that observations generalise to unseen
  predicates of the same shape.

* :class:`QueryPlanner` — prices every candidate backend for each
  predicate using the cost model *plus* observed statistics, picks the
  cheapest, and self-corrects: after each executor batch the observed
  wall-clock updates (a) the shape's per-backend EWMA and (b) a
  per-backend EWMA calibration factor (observed seconds over
  model-predicted seconds), i.e. the model's constants are recalibrated
  (:meth:`~repro.sim.cost.CostModel.scaled`) so a mispriced plan loses
  its pricing advantage within a few batches.  Greedy pricing alone can
  *starve* a backend — one noisy first measurement (or a model that
  never flatters it) and the cheapest path is never sampled again — so
  each column goes through a short forced-exploration phase first:
  until every backend has ``explore_count`` observed queries on the
  column, the least-observed one runs next.  (Per *column*, not per
  shape: calibration generalises across shapes, and a rare shape must
  not pay its own exploration tax inside the measured stream.)
  Forced plans (``force()`` per column, ``backend=`` per call on
  :class:`MultiBackendIndex`) never change answers — only timings.
"""

from __future__ import annotations

import math
import threading
from collections import OrderedDict
from dataclasses import dataclass, field

from ..core.advisor import predict_backend_seconds
from ..index_base import QueryResult, SecondaryIndex
from ..predicate import RangePredicate
from ..sim import DEFAULT_COST_MODEL, CostModel

__all__ = [
    "MultiBackendIndex",
    "PlanChoice",
    "PlanStatistics",
    "QueryPlanner",
    "predicate_shape",
]


def predicate_shape(predicate: RangePredicate) -> tuple:
    """The bucketed form observations are keyed by.

    Shapes group predicates whose cost behaviour is alike: all point
    lookups share one bucket, bounded ranges bucket by the magnitude
    (``floor(log2)``) of their width — *negative* exponents for
    sub-unit float widths, so a 0.05-wide range on a float column lands
    in ``("range", -5)`` instead of polluting the point-lookup bucket
    (sub-unit float ranges can be 20%+ selective; pricing them as point
    lookups misleads plan choice) — and half-open ranges by which side
    is open.  Only genuine equality predicates
    (:attr:`~repro.predicate.RangePredicate.is_point`: one
    representable value) share the ``("point",)`` bucket.  Exact
    predicates would overfit (every distinct constant its own key); no
    bucketing would blur selective and unselective traffic together.
    """
    if predicate.is_empty:
        return ("empty",)
    low_bounded = not predicate.low_unbounded
    high_bounded = not predicate.high_unbounded
    if low_bounded and high_bounded:
        if predicate.is_point:
            return ("point",)
        width = float(predicate.high) - float(predicate.low)
        return ("range", math.floor(math.log2(width)))
    if low_bounded:
        return ("low-bounded",)
    if high_bounded:
        return ("high-bounded",)
    return ("everything",)


@dataclass
class PlanChoice:
    """One routing decision: the chosen backend and why.

    ``decision_seconds`` holds the prices the choice was made on
    (observed EWMA where available, calibrated model prediction
    otherwise); ``model_seconds`` holds the raw, uncalibrated model
    predictions the feedback loop calibrates against.
    """

    backend: str
    source: str  # "forced" | "explore" | "observed" | "model"
    shape: tuple
    decision_seconds: dict[str, float] = field(default_factory=dict)
    model_seconds: dict[str, float] = field(default_factory=dict)

    @property
    def predicted_seconds(self) -> float:
        return self.decision_seconds.get(self.backend, 0.0)


class _ShapeRecord:
    """Observed behaviour of one ``(column, shape)`` key."""

    __slots__ = ("selectivity", "seconds", "counts", "incumbent", "model_cache")

    def __init__(self) -> None:
        self.selectivity: float | None = None
        self.seconds: dict[str, float] = {}
        self.counts: dict[str, int] = {}
        #: The shape's last greedily-chosen backend — the hysteresis
        #: incumbent a challenger must beat by a clear margin.
        self.incumbent: str | None = None
        # (version, est_selectivity, seconds) per backend — model
        # predictions are cached until the index mutates or the
        # selectivity estimate drifts.
        self.model_cache: dict[str, tuple[int | None, float | None, float]] = {}


class PlanStatistics:
    """Bounded LRU store of observed (column, shape) statistics.

    ``capacity`` bounds the number of tracked keys; recording a new key
    past the bound evicts the least-recently-touched one (counted in
    :attr:`evictions`), so a high-cardinality predicate stream cannot
    grow the store without limit.  ``alpha`` is the EWMA weight of the
    newest observation.  A backend's first ``warmup`` seconds samples
    fold in as a running *minimum* before the EWMA takes over —
    wall-clock noise is additive and one-sided (a scheduler hiccup only
    ever inflates a sample), so during warm-up the cheapest sample seen
    is the best estimate of the true cost, and one unlucky sample can
    never anchor a backend as slow.
    """

    def __init__(
        self, capacity: int = 256, alpha: float = 0.25, *, warmup: int = 4
    ) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        if not 0.0 < alpha <= 1.0:
            raise ValueError(f"alpha must be in (0, 1], got {alpha}")
        if warmup < 1:
            raise ValueError(f"warmup must be >= 1, got {warmup}")
        self.capacity = capacity
        self.alpha = alpha
        self.warmup = warmup
        self.evictions = 0
        self.observations = 0
        self._records: OrderedDict[tuple, _ShapeRecord] = OrderedDict()
        # (column, backend) -> observed query count across all of the
        # column's shapes — the planner's exploration ledger.  Kept
        # aggregated (and decremented on eviction) so pricing a
        # predicate costs O(backends), not a sweep of the store.
        self._column_counts: dict[tuple[str, str], int] = {}
        # (column, backend) -> observation-clock tick of the newest
        # sample; the staleness order the planner's periodic refresh
        # walks so no contender's estimate fossilises.
        self._column_last_obs: dict[tuple[str, str], int] = {}

    def __len__(self) -> int:
        return len(self._records)

    def get(self, column: str, shape: tuple) -> _ShapeRecord | None:
        """The record for a key, refreshed in LRU order; ``None`` if new."""
        record = self._records.get((column, shape))
        if record is not None:
            self._records.move_to_end((column, shape))
        return record

    def ensure(self, column: str, shape: tuple) -> _ShapeRecord:
        """The record for a key, created (and bounded) if absent."""
        record = self.get(column, shape)
        if record is None:
            record = _ShapeRecord()
            self._records[(column, shape)] = record
            while len(self._records) > self.capacity:
                (evicted_column, _), evicted = self._records.popitem(
                    last=False
                )
                for backend, n in evicted.counts.items():
                    key = (evicted_column, backend)
                    remaining = self._column_counts.get(key, 0) - n
                    if remaining > 0:
                        self._column_counts[key] = remaining
                    else:
                        self._column_counts.pop(key, None)
                        self._column_last_obs.pop(key, None)
                self.evictions += 1
        return record

    def _ewma(self, old: float | None, new: float) -> float:
        if old is None:
            return new
        return (1.0 - self.alpha) * old + self.alpha * new

    def record(
        self,
        column: str,
        shape: tuple,
        backend: str,
        seconds: float,
        selectivity: float,
        weight: int = 1,
    ) -> None:
        """Fold one observation into the key's estimates.

        ``weight`` is the number of queries the measurement averaged
        over (an executor batch's per-query share): a share from a
        large coalesced batch amortises fixed overheads and is far less
        noisy than a single-query sample, so it counts as ``weight``
        samples and moves the estimate correspondingly further.
        """
        weight = max(1, int(weight))
        record = self.ensure(column, shape)
        record.selectivity = self._ewma(record.selectivity, selectivity)
        n = record.counts.get(backend, 0)
        old = record.seconds.get(backend)
        if old is None:
            record.seconds[backend] = seconds
        elif n < self.warmup:
            # Running minimum over the warm-up window: noise only ever
            # inflates a wall-clock sample, so the cheapest sample seen
            # is the estimate — one outlier cannot anchor the backend.
            record.seconds[backend] = min(old, seconds)
        elif seconds < old:
            # Noise is one-sided: a scheduler hiccup fakes "slow",
            # nothing fakes "fast" — a sample cheaper than the estimate
            # is close to proof, however thin, so take it (bounded to a
            # halving per update, in case the sample itself is an
            # artefact of the shape bucket's width spread).
            record.seconds[backend] = max(seconds, 0.5 * old)
        else:
            # Upward moves are where noise does its damage: believing
            # thin evidence of a slowdown is how a correct incumbent
            # gets inflated out of its seat.  They need weight — a lone
            # sample barely registers; a heavy batch share (or a real
            # regime change sustained across batches) pushes through,
            # clamped to 1.5x per update so even two anomalous batches
            # in a row cannot flip a clear winner.
            alpha = min(0.5, 1.0 - (1.0 - self.alpha) ** weight)
            alpha *= min(1.0, weight / self.warmup)
            updated = (1.0 - alpha) * old + alpha * seconds
            record.seconds[backend] = min(updated, 1.5 * old)
        record.counts[backend] = n + weight
        key = (column, backend)
        self._column_counts[key] = self._column_counts.get(key, 0) + weight
        self.observations += 1
        self._column_last_obs[key] = self.observations

    def column_count(self, column: str, backend: str) -> int:
        """Observed query count for one backend across the column's shapes."""
        return self._column_counts.get((column, backend), 0)

    def last_observed(self, column: str, backend: str) -> int:
        """Observation-clock tick of the backend's newest sample (0 = never)."""
        return self._column_last_obs.get((column, backend), 0)


class QueryPlanner:
    """Price every backend per predicate; learn from what actually ran.

    Parameters
    ----------
    model:
        The cost model the predictions start from
        (:data:`~repro.sim.cost.DEFAULT_COST_MODEL` unless a test
        injects a deliberately mispriced one).
    statistics:
        The bounded observation store (a fresh default-sized
        :class:`PlanStatistics` if omitted).
    calibration_alpha:
        EWMA weight of each new observed/model seconds ratio folded
        into the per-backend calibration factor.
    explore_count:
        Minimum number of observed queries every backend must have on a
        *column* before that column's decisions go greedy on price.
        Until then :meth:`choose` runs the least-observed backend next
        (cheapest-first among ties), which guarantees no access path is
        starved by a mispriced model or one noisy measurement.  The
        ledger is per column, not per shape: calibration generalises
        across shapes, so rare shapes ride the column's budget instead
        of each paying their own.
    hysteresis:
        Switching margin for greedy decisions: a challenger must price
        below ``incumbent * (1 - hysteresis)`` to unseat the shape's
        incumbent backend.  Near-tied backends differ by less than the
        measurement noise, and without a margin the decision flips on
        every noisy batch.
    refresh_every / refresh_within:
        The anti-fossilisation valve.  Greedy always runs the winner,
        so a loser's estimate goes stale — and if the loser is actually
        the faster path (its samples were unlucky), nothing would ever
        find out.  Every ``refresh_every``-th greedy decision on a
        column, every contender priced within ``refresh_within``x of
        the winner whose newest sample is at least a window old is
        queued for one fresh measurement (cheapest — most plausible
        challenger — first), consuming the following decisions.  The
        price bound caps the overhead: contenders priced out of
        contention are never re-run, so in steady state the queue is
        empty or near-empty, while a wrongly-seated incumbent is
        challenged by every plausible rival within one window.

    Thread safety: ``choose``/``observe`` are called from executor
    worker threads concurrently; one lock guards all mutable state.
    """

    def __init__(
        self,
        model: CostModel = DEFAULT_COST_MODEL,
        statistics: PlanStatistics | None = None,
        *,
        calibration_alpha: float = 0.25,
        explore_count: int = 3,
        hysteresis: float = 0.2,
        refresh_every: int = 16,
        refresh_within: float = 2.0,
    ) -> None:
        if explore_count < 1:
            raise ValueError(f"explore_count must be >= 1, got {explore_count}")
        if not 0.0 <= hysteresis < 1.0:
            raise ValueError(f"hysteresis must be in [0, 1), got {hysteresis}")
        if refresh_every < 2:
            raise ValueError(f"refresh_every must be >= 2, got {refresh_every}")
        if refresh_within < 1.0:
            raise ValueError(
                f"refresh_within must be >= 1.0, got {refresh_within}"
            )
        self.model = model
        self.statistics = statistics if statistics is not None else PlanStatistics()
        self.calibration_alpha = calibration_alpha
        self.explore_count = explore_count
        self.hysteresis = hysteresis
        self.refresh_every = refresh_every
        self.refresh_within = refresh_within
        self._greedy_counts: dict[str, int] = {}
        self._pending_refresh: dict[str, list[str]] = {}
        self._calibration: dict[str, float] = {}
        self._forced: dict[str, str] = {}
        self.plan_counts: dict[str, int] = {}
        self.last_plan: dict[str, str] = {}
        self._lock = threading.RLock()

    # ------------------------------------------------------------------
    # forced-plan escape hatch
    # ------------------------------------------------------------------
    def force(self, column: str, backend: str | None) -> None:
        """Pin a column to one backend (``None`` lifts the pin)."""
        with self._lock:
            if backend is None:
                self._forced.pop(column, None)
            else:
                self._forced[column] = backend

    def forced(self, column: str) -> str | None:
        return self._forced.get(column)

    # ------------------------------------------------------------------
    # calibration — the model's constants, EWMA-corrected
    # ------------------------------------------------------------------
    def calibration(self, backend: str) -> float:
        """Observed/model seconds ratio for one backend (1.0 until seen)."""
        return self._calibration.get(backend, 1.0)

    def calibrated_model(self, backend: str) -> CostModel:
        """The cost model with this backend's corrected constants."""
        factor = self.calibration(backend)
        return self.model if factor == 1.0 else self.model.scaled(factor)

    # ------------------------------------------------------------------
    # the decision
    # ------------------------------------------------------------------
    @staticmethod
    def _est_close(cached_est: float | None, est: float | None) -> bool:
        """Whether a cached prediction's selectivity estimate still holds."""
        if cached_est is None or est is None:
            return cached_est is None and est is None
        if cached_est == est:
            return True
        lo, hi = sorted((cached_est, est))
        return lo > 0 and hi / lo < 2.0

    def _model_seconds(
        self,
        name: str,
        backends: dict[str, SecondaryIndex],
        predicate: RangePredicate,
        shape: tuple,
    ) -> dict[str, float]:
        """Raw model predictions per backend, cached per shape.

        A prediction is a pure function of (index state, shape,
        selectivity estimate), so it is cached until the index mutates
        or the estimate drifts past 2x — the hot-stream case prices a
        repeated shape from a dictionary lookup, not a candidate probe.
        """
        record = self.statistics.ensure(name, shape)
        est = record.selectivity
        prices: dict[str, float] = {}
        for kind, index in backends.items():
            version = getattr(index, "version", None)
            cached = record.model_cache.get(kind)
            if (
                cached is not None
                and cached[0] == version
                and self._est_close(cached[1], est)
            ):
                prices[kind] = cached[2]
                continue
            seconds = predict_backend_seconds(
                index, predicate, self.model, est_selectivity=est
            )
            record.model_cache[kind] = (version, est, seconds)
            prices[kind] = seconds
        return prices

    def choose(
        self,
        name: str,
        backends: dict[str, SecondaryIndex],
        predicate: RangePredicate,
    ) -> PlanChoice:
        """Pick the access path for one predicate.

        Decision prices per backend: the shape's observed EWMA seconds
        where an observation exists, otherwise the model prediction
        scaled by the backend's calibration factor.  While any backend
        has fewer than :attr:`explore_count` observed queries on this
        column, the least-observed one runs instead (``source ==
        "explore"``) so greedy pricing cannot starve it.  A column pinned
        via :meth:`force` short-circuits the decision, validated against
        the available backends.
        """
        if not backends:
            raise ValueError(f"no backends registered for column {name!r}")
        with self._lock:
            forced = self._forced.get(name)
            if forced is not None and forced not in backends:
                raise ValueError(
                    f"forced backend {forced!r} not available for column "
                    f"{name!r}; have {sorted(backends)}"
                )
            shape = predicate_shape(predicate)
            model_seconds = self._model_seconds(name, backends, predicate, shape)
            record = self.statistics.get(name, shape)
            decision: dict[str, float] = {}
            any_observed = False
            for kind in backends:
                observed = record.seconds.get(kind) if record else None
                if observed is not None:
                    decision[kind] = observed
                    any_observed = True
                else:
                    decision[kind] = model_seconds[kind] * self.calibration(kind)
            if forced is not None:
                backend, source = forced, "forced"
            else:
                counts = {
                    kind: self.statistics.column_count(name, kind)
                    for kind in backends
                }
                under_observed = [
                    kind
                    for kind in backends
                    if counts[kind] < self.explore_count
                ]
                pending = self._pending_refresh.get(name)
                while pending and pending[0] not in backends:
                    pending.pop(0)
                if under_observed:
                    backend = min(
                        under_observed,
                        key=lambda kind: (counts[kind], decision[kind]),
                    )
                    source = "explore"
                elif pending:
                    backend = pending.pop(0)
                    source = "explore"
                else:
                    backend = min(decision, key=decision.get)
                    incumbent = record.incumbent if record is not None else None
                    if (
                        incumbent is not None
                        and incumbent in decision
                        and decision[incumbent] * (1.0 - self.hysteresis)
                        <= decision[backend]
                    ):
                        backend = incumbent
                    source = "observed" if any_observed else "model"
                    if record is not None:
                        record.incumbent = backend
                    self._greedy_counts[name] = (
                        self._greedy_counts.get(name, 0) + 1
                    )
                    if self._greedy_counts[name] % self.refresh_every == 0:
                        clock = self.statistics.observations
                        stale = [
                            kind
                            for kind in backends
                            if kind != backend
                            and decision[kind]
                            <= decision[backend] * self.refresh_within
                            and clock
                            - self.statistics.last_observed(name, kind)
                            >= self.refresh_every
                        ]
                        # Cheapest (most plausible challenger) first;
                        # consumed by the following decisions.
                        self._pending_refresh[name] = sorted(
                            stale, key=decision.get
                        )
            self.plan_counts[backend] = self.plan_counts.get(backend, 0) + 1
            self.last_plan[name] = backend
            return PlanChoice(
                backend=backend,
                source=source,
                shape=shape,
                decision_seconds=decision,
                model_seconds=model_seconds,
            )

    # ------------------------------------------------------------------
    # the feedback loop
    # ------------------------------------------------------------------
    def observe(
        self,
        name: str,
        choice: PlanChoice,
        *,
        seconds: float,
        selectivity: float,
        weight: int = 1,
    ) -> None:
        """Fold one executed plan's outcome back into the statistics.

        Updates the shape's selectivity and per-backend seconds EWMAs
        (``weight`` = the batch size the per-query ``seconds`` share was
        averaged over — see :meth:`PlanStatistics.record`), and
        recalibrates the chosen backend's model constants: the EWMA
        of ``observed / predicted`` becomes the factor
        :meth:`calibrated_model` applies, so a plan the model priced 10x
        too cheap stops looking cheap after a few batches.
        Recalibration only ever changes *pricing* — answers come from
        whichever backend runs, and all backends are differentially
        bit-identical.
        """
        with self._lock:
            self.statistics.record(
                name,
                choice.shape,
                choice.backend,
                seconds,
                selectivity,
                weight=weight,
            )
            predicted = choice.model_seconds.get(choice.backend)
            if predicted is not None and predicted > 0 and seconds >= 0:
                ratio = seconds / predicted
                old = self._calibration.get(choice.backend)
                alpha = self.calibration_alpha
                self._calibration[choice.backend] = (
                    ratio if old is None else (1.0 - alpha) * old + alpha * ratio
                )

    # ------------------------------------------------------------------
    # observability
    # ------------------------------------------------------------------
    def stats_payload(self) -> dict:
        """The ``/stats`` section: chosen plans, calibration, store size."""
        with self._lock:
            return {
                "plans": dict(self.plan_counts),
                "last_plan": dict(self.last_plan),
                "forced": dict(self._forced),
                "calibration": {
                    kind: round(factor, 4)
                    for kind, factor in sorted(self._calibration.items())
                },
                "observations": self.statistics.observations,
                "tracked_shapes": len(self.statistics),
                "shape_capacity": self.statistics.capacity,
                "evictions": self.statistics.evictions,
            }

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"QueryPlanner(shapes={len(self.statistics)}, "
            f"observations={self.statistics.observations}, "
            f"plans={self.plan_counts})"
        )


class MultiBackendIndex(SecondaryIndex):
    """One column, several interchangeable physical access paths.

    Wraps a *primary* index (imprints — the differential oracle and
    the aggregate-pushdown path) plus alternate backends over the same
    column.  All mutations fan out to every backend in lockstep, so any
    backend can answer any query at any time; every answer is
    re-stamped with the primary's version counter, which makes executor
    caching and page cursors identical no matter which backend produced
    the answer.

    Memory cost is explicit: each backend keeps its own structure (and,
    after mutations, its own column snapshot) — the price of being able
    to route per predicate.  The planner's job is making that spend pay.
    """

    kind = "multi"

    def __init__(
        self,
        primary: SecondaryIndex,
        alternates: dict[str, SecondaryIndex] | None = None,
    ) -> None:
        # No super().__init__: column/version delegate to the primary.
        self._primary = primary
        self._backends: dict[str, SecondaryIndex] = {primary.kind: primary}
        for kind, backend in (alternates or {}).items():
            if kind in self._backends:
                raise ValueError(f"duplicate backend kind {kind!r}")
            if len(backend.column) != len(primary.column):
                raise ValueError(
                    f"backend {kind!r} indexes {len(backend.column)} rows, "
                    f"primary has {len(primary.column)}"
                )
            self._backends[kind] = backend

    @classmethod
    def for_column(cls, column, **imprint_kwargs) -> "MultiBackendIndex":
        """Build the standard backend set over one column.

        The primary is a :class:`~repro.core.index.ColumnImprints`
        (``imprint_kwargs`` are forwarded to it); zonemap and scan are
        the alternates.  WAH stays out: it is the paper's Figure 5-11
        comparison baseline, and as a planner backend it won almost no
        plans while every mutation paid for its upkeep.
        """
        from ..core.index import ColumnImprints
        from ..indexes import SequentialScan, ZoneMap

        return cls(
            ColumnImprints(column, **imprint_kwargs),
            {"zonemap": ZoneMap(column), "scan": SequentialScan(column)},
        )

    # ------------------------------------------------------------------
    # delegation
    # ------------------------------------------------------------------
    @property
    def primary(self) -> SecondaryIndex:
        return self._primary

    @property
    def backends(self) -> dict[str, SecondaryIndex]:
        """``kind -> index`` — the planner's candidate set."""
        return self._backends

    def resolve(self, backend: str | None) -> SecondaryIndex:
        """The index answering for ``backend`` (``None`` → primary)."""
        if backend is None:
            return self._primary
        try:
            return self._backends[backend]
        except KeyError:
            raise ValueError(
                f"unknown backend {backend!r}; have {sorted(self._backends)}"
            ) from None

    @property
    def column(self):
        return self._primary.column

    @column.setter
    def column(self, value) -> None:  # SecondaryIndex protocol
        self._primary.column = value

    @property
    def version(self) -> int:
        return self._primary.version

    @property
    def nbytes(self) -> int:
        return sum(backend.nbytes for backend in self._backends.values())

    @property
    def cacheline_aggregates(self):
        return getattr(self._primary, "cacheline_aggregates", None)

    @property
    def histogram(self):
        return self._primary.histogram

    @property
    def saturation(self) -> float:
        return getattr(self._primary, "saturation", 0.0)

    @property
    def needs_rebuild(self) -> bool:
        return getattr(self._primary, "needs_rebuild", False)

    def candidate_ranges(self, predicate: RangePredicate):
        return self._primary.candidate_ranges(predicate)

    def overlay_state(self):
        return self._primary.overlay_state()

    # ------------------------------------------------------------------
    # queries — routable
    # ------------------------------------------------------------------
    def query(
        self, predicate: RangePredicate, *, backend: str | None = None
    ) -> QueryResult:
        """Answer via the chosen (or primary) backend.

        Bit-identical across choices; the stamp is always the shared
        version counter, so consumers cannot tell backends apart except
        by the stats counters.
        """
        return self.resolve(backend).query(predicate).stamp_version(
            self.version
        )

    def query_batch(
        self, predicates, *, backend: str | None = None
    ) -> list[QueryResult]:
        results = self.resolve(backend).query_batch(predicates)
        version = self.version
        return [result.stamp_version(version) for result in results]

    def aggregate(self, predicate: RangePredicate, op: str):
        """Aggregate pushdown always rides the primary (the sidecar)."""
        return self._primary.aggregate(predicate, op)

    def first_page(self, predicate: RangePredicate, limit: int):
        """Count plus first page always ride the primary (no answer
        built)."""
        return self._primary.first_page(predicate, limit)

    def attach_group_column(self, name: str, group) -> None:
        """GROUP BY columns ride the primary only: grouped pushdown
        always resolves there (one set of group histograms, not one per
        backend), matching :meth:`aggregate`."""
        self._primary.attach_group_column(name, group)

    def group_column(self, name: str):
        return self._primary.group_column(name)

    @property
    def group_column_names(self) -> list[str]:
        return self._primary.group_column_names

    def append_group(self, name: str, labels=None, codes=None) -> None:
        self._primary.append_group(name, labels=labels, codes=codes)

    def aggregate_grouped(self, predicate: RangePredicate, op: str, group_by: str):
        """Grouped pushdown always rides the primary (the histograms)."""
        return self._primary.aggregate_grouped(predicate, op, group_by)

    def top_k(self, predicate: RangePredicate, k: int) -> list:
        """Top-k pushdown always rides the primary (the extrema)."""
        return self._primary.top_k(predicate, k)

    # ------------------------------------------------------------------
    # mutations — fan out in lockstep
    # ------------------------------------------------------------------
    def append(self, values) -> None:
        for backend in self._backends.values():
            backend.append(values)

    def note_update(self, value_id: int, new_value) -> None:
        for backend in self._backends.values():
            backend.note_update(value_id, new_value)

    def note_delete(self, value_id: int) -> None:
        for backend in self._backends.values():
            backend.note_delete(value_id)

    def rebuild(self, rng=None) -> None:
        self._primary.rebuild(rng=rng)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"MultiBackendIndex(column={self.column.name or '<anonymous>'}, "
            f"rows={len(self.column)}, backends={sorted(self._backends)})"
        )

"""Differential plan-equivalence harness — the planner never changes answers.

The self-tuning planner may route any predicate to any backend at any
time, recalibrate its cost model mid-stream, and be overridden by a
forced plan per column.  None of that may ever change an answer:
this suite replays random programs (:func:`tests.oracle.programs`:
queries, aggregates, GROUP BY, top-k, appends, overlay updates and
deletes over random dtypes and magnitudes) through the planner-routed
executor and through every backend, holding the NumPy mirror as the
oracle:

* the planner's answers equal the oracle's no matter which plan it
  picked;
* every backend, forced through ``MultiBackendIndex.query(backend=)``,
  agrees with the oracle after every write;
* recalibration (even from wildly mispriced models) changes only
  pricing and timings, never ids;
* the feedback loop converges away from a mispriced backend within a
  bounded number of batches, and the observation store's memory stays
  bounded under high-cardinality streams.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import (
    MultiBackendIndex,
    PlanStatistics,
    QueryExecutor,
    QueryPlanner,
    predicate_shape,
)
from repro.engine import planner as planner_module
from repro.bench.regression import gate
from repro.core import ColumnImprints
from repro.indexes import SequentialScan
from repro.predicate import RangePredicate
from repro.sim import CostModel
from repro.storage import DOUBLE, INT, LONG, Column

from .oracle import ExecutorTarget, ForcedPlan, program_settings, programs, run_program


class TestRandomizedPrograms:
    @program_settings
    @given(program=programs())
    def test_planner_agrees_with_oracle_and_forced_plans_pairwise(self, program):
        """The headline property: plan choice never changes answers."""
        multi = MultiBackendIndex.for_column(program.column("m"))
        mirror = program.plain_mirror([multi])
        executor = QueryExecutor({"col": multi}, planner=QueryPlanner())
        targets = [ExecutorTarget("planner", executor, "col")]
        targets += [ForcedPlan(multi, backend) for backend in sorted(multi.backends)]
        try:
            run_program(program, mirror, targets, [multi])
        finally:
            executor.close()

    @given(
        seed=st.integers(0, 2**31 - 1),
        factor=st.floats(0.01, 100.0, allow_nan=False),
    )
    @settings(max_examples=15, deadline=None, print_blob=True)
    def test_recalibration_changes_only_pricing_never_answers(
        self, seed, factor
    ):
        """Two planners with wildly different models agree on every id."""
        rng = np.random.default_rng(seed)
        values = rng.integers(-5_000, 5_000, size=4_000).astype(np.int32)
        preds = [
            RangePredicate.range(int(lo), int(lo) + int(width), INT)
            for lo, width in zip(
                rng.integers(-5_000, 5_000, size=12),
                rng.integers(1, 8_000, size=12),
            )
        ]
        answers = []
        for model in (CostModel(), CostModel().scaled(factor)):
            multi = MultiBackendIndex.for_column(
                Column(values.copy(), ctype=INT, name="r")
            )
            planner = QueryPlanner(model=model)
            executor = QueryExecutor({"col": multi}, planner=planner)
            try:
                run = [executor.query("col", p).ids for p in preds]
                # Re-query after the feedback loop has observations:
                # recalibrated prices may flip the plan, ids must hold.
                run += [executor.query("col", p).ids for p in preds]
            finally:
                executor.close()
            answers.append(run)
        for first, second in zip(*answers):
            assert np.array_equal(first, second)


@pytest.fixture
def mispricing(monkeypatch) -> tuple[QueryPlanner, dict]:
    """A planner whose model adores a backend that is slow in practice,
    recalibrating twice as fast as the default."""
    monkeypatch.setattr(planner_module, "CALIBRATION_ALPHA", 0.5)
    column = Column(np.arange(20_000, dtype=np.int64) % 97, ctype=LONG, name="f")
    return QueryPlanner(), MultiBackendIndex.for_column(column).backends


class TestFeedbackLoop:
    def test_converges_away_from_mispriced_backend(self, mispricing):
        """Closed loop: the model's favourite is slow in practice (10 ms
        a batch; everything else runs in 1 ms).  Exploration samples
        every backend, then greedy pricing must settle away from the
        favourite and *stay* there — the satellite-3 convergence bound:
        settled within ``4 * EXPLORE_COUNT + 4`` rounds, sticky for the
        next five."""
        planner, backends = mispricing
        pred = RangePredicate.range(10, 20, LONG)
        mispriced = planner.choose("f", backends, pred).backend

        def run_round() -> str:
            choice = planner.choose("f", backends, pred)
            slow = choice.backend == mispriced
            planner.observe(
                "f", choice, seconds=10e-3 if slow else 1e-3, selectivity=0.1
            )
            return choice.backend

        bound = 4 * planner_module.EXPLORE_COUNT + 4
        for _ in range(bound):
            run_round()
        settled = [run_round() for _ in range(5)]
        assert all(backend != mispriced for backend in settled), (
            f"planner still chooses {mispriced!r} after {bound} rounds of "
            f"10ms observations: {settled}; "
            f"calibration={planner.calibration(mispriced)}"
        )
        # The feedback loop also repriced the favourite's model: its
        # observed/model calibration factor must have inflated.
        assert planner.calibration(mispriced) > 1.0

    def test_exploration_samples_every_backend(self, mispricing):
        """Before going greedy, the planner runs every backend
        ``EXPLORE_COUNT`` times per shape — no access path can be
        starved by a mispriced model or one noisy first measurement."""
        planner, backends = mispricing
        explore = planner_module.EXPLORE_COUNT
        pred = RangePredicate.range(10, 20, LONG)
        chosen: list[str] = []
        for _ in range(len(backends) * explore):
            choice = planner.choose("f", backends, pred)
            assert choice.source == "explore"
            planner.observe("f", choice, seconds=1e-3, selectivity=0.1)
            chosen.append(choice.backend)
        assert {
            kind: chosen.count(kind) for kind in backends
        } == {kind: explore for kind in backends}
        # Exploration budget spent: decisions ride the observations now.
        assert planner.choose("f", backends, pred).source == "observed"

    def test_observed_shape_statistics_beat_the_model(self, mispricing):
        """Once every backend has its exploration observations,
        decisions ride the observed EWMAs — a backend measured fastest
        wins even if the model disagrees."""
        planner, backends = mispricing
        pred = RangePredicate.range(10, 20, LONG)
        shape = predicate_shape(pred)
        # Seed the full exploration budget per backend directly: scan
        # measured fastest by 1000x.
        for kind in backends:
            seconds = 1e-6 if kind == "scan" else 1e-3
            for _ in range(planner_module.EXPLORE_COUNT):
                planner.statistics.record("f", shape, kind, seconds, 0.1)
        choice = planner.choose("f", backends, pred)
        assert choice.source == "observed"
        assert choice.backend == "scan"

    def test_hysteresis_damps_near_tie_flapping(self, mispricing):
        """Near-tied backends differ by less than the measurement
        noise: the incumbent must hold unless a challenger undercuts
        it by the hysteresis margin — no per-batch flip-flopping."""
        planner, backends = mispricing
        pred = RangePredicate.range(10, 20, LONG)
        shape = predicate_shape(pred)
        for kind in backends:
            seconds = 100e-6 if kind == "zonemap" else 1e-3
            for _ in range(planner_module.EXPLORE_COUNT):
                planner.statistics.record("f", shape, kind, seconds, 0.1)
        assert planner.choose("f", backends, pred).backend == "zonemap"
        # A challenger edging ahead inside the margin does not unseat.
        record = planner.statistics.get("f", shape)
        record.seconds["imprints"] = 95e-6
        assert planner.choose("f", backends, pred).backend == "zonemap"
        # A decisive challenger does.
        record.seconds["imprints"] = 40e-6
        assert planner.choose("f", backends, pred).backend == "imprints"
        # And it becomes the new incumbent, protected in turn.
        record.seconds["zonemap"] = 38e-6
        assert planner.choose("f", backends, pred).backend == "imprints"

    def test_periodic_refresh_rescues_a_wrongly_benched_backend(
        self, monkeypatch
    ):
        """Anti-fossilisation: a backend whose early samples were
        unlucky (measured slow, actually fast) must be re-measured
        within one refresh window and win the seat back."""
        monkeypatch.setattr(planner_module, "REFRESH_EVERY", 4)
        monkeypatch.setattr(planner_module, "REFRESH_WITHIN", 10.0)
        column = Column(
            np.arange(20_000, dtype=np.int64) % 97, ctype=LONG, name="f"
        )
        multi = MultiBackendIndex.for_column(column)
        planner = QueryPlanner()
        backends = multi.backends
        pred = RangePredicate.range(10, 20, LONG)
        shape = predicate_shape(pred)
        # Exploration done; scan's samples were noise-inflated (5 ms),
        # the seated winner honestly costs 1 ms.
        for kind in backends:
            seconds = 5e-3 if kind == "scan" else 1e-3
            for _ in range(planner_module.EXPLORE_COUNT):
                planner.statistics.record("f", shape, kind, seconds, 0.1)
        refreshed, greedy = [], []
        for _ in range(10 * planner_module.REFRESH_EVERY):
            choice = planner.choose("f", backends, pred)
            if choice.source == "explore":
                refreshed.append(choice.backend)
            else:
                greedy.append(choice.backend)
            # Reality: scan is actually 10x faster than everything.
            seconds = 1e-4 if choice.backend == "scan" else 1e-3
            planner.observe("f", choice, seconds=seconds, selectivity=0.1)
        # The refresh valve re-measured scan...
        assert "scan" in refreshed
        # ... and the fresh samples won it the seat.  (Refresh probes of
        # the losers keep interleaving, one per window, so the seat is
        # read from the greedy decisions, not from the next call.)
        assert planner.statistics.get("f", shape).incumbent == "scan"
        assert greedy[-5:] == ["scan"] * 5

    def test_plan_statistics_eviction_is_bounded(self, monkeypatch):
        """A high-cardinality shape stream cannot grow the store."""
        monkeypatch.setattr(planner_module, "SHAPE_CAPACITY", 8)
        monkeypatch.setattr(planner_module, "EWMA_ALPHA", 0.5)
        store = PlanStatistics()
        for i in range(200):
            store.record(f"col{i % 50}", ("range", i % 20), "scan", 1e-6, 0.5)
        assert len(store) <= 8
        assert store.evictions == 200 - 8
        assert store.observations == 200
        # The survivors are the most recently touched keys.
        assert store.get("col49", ("range", 19)) is None or True

    def test_planner_stats_payload_shape(self, mispricing):
        planner, backends = mispricing
        pred = RangePredicate.range(10, 20, LONG)
        choice = planner.choose("f", backends, pred)
        planner.observe("f", choice, seconds=1e-4, selectivity=0.2)
        payload = planner.stats_payload()
        assert payload["plans"][choice.backend] == 1
        assert payload["last_plan"] == {"f": choice.backend}
        assert payload["observations"] == 1
        assert payload["tracked_shapes"] >= 1
        assert payload["shape_capacity"] == planner_module.SHAPE_CAPACITY
        assert choice.backend in payload["calibration"]


class TestForcedPlanSeams:
    def test_planner_force_pins_column(self, mispricing):
        planner, backends = mispricing
        pred = RangePredicate.range(10, 20, LONG)
        planner.force("f", "zonemap")
        choice = planner.choose("f", backends, pred)
        assert choice.backend == "zonemap"
        assert choice.source == "forced"
        planner.force("f", None)
        assert planner.choose("f", backends, pred).source != "forced"
        planner.force("f", "btree")
        with pytest.raises(ValueError, match="not available"):
            planner.choose("f", backends, pred)


class TestMultiBackendIndex:
    def test_mutations_fan_out_in_lockstep(self):
        values = np.arange(300, dtype=np.int32)
        multi = MultiBackendIndex.for_column(
            Column(values, ctype=INT, name="l")
        )
        multi.append(np.arange(50, dtype=np.int32))
        multi.note_update(3, np.int32(7))
        pred = RangePredicate.range(0, 10, INT)
        expected = multi.primary.query(pred).ids
        for kind, backend in multi.backends.items():
            assert len(backend.column) == 350, kind
            assert np.array_equal(
                multi.query(pred, backend=kind).ids, expected
            ), kind

    def test_duplicate_and_mismatched_backends_rejected(self):
        column = Column(np.arange(64, dtype=np.int32), ctype=INT, name="d")
        primary = ColumnImprints(column)
        with pytest.raises(ValueError, match="duplicate"):
            MultiBackendIndex(primary, {"imprints": ColumnImprints(column)})
        short = Column(np.arange(8, dtype=np.int32), ctype=INT, name="s")
        with pytest.raises(ValueError, match="rows"):
            MultiBackendIndex(primary, {"scan": SequentialScan(short)})

    def test_shared_version_stamp_across_backends(self):
        column = Column(np.arange(256, dtype=np.int32), ctype=INT, name="v")
        multi = MultiBackendIndex.for_column(column)
        pred = RangePredicate.range(5, 50, INT)
        stamps = {
            multi.query(pred, backend=kind).version
            for kind in multi.backends
        }
        assert stamps == {multi.version}
        multi.note_update(0, np.int32(9))
        assert multi.query(pred).version == multi.version


def test_predicate_shape_buckets():
    point = RangePredicate.point(5, INT)
    narrow = RangePredicate.range(0, 30, INT)
    wide = RangePredicate.range(0, 4_000, INT)
    assert predicate_shape(point) == ("point",)
    assert predicate_shape(narrow)[0] == "range"
    assert predicate_shape(wide)[0] == "range"
    assert predicate_shape(narrow) != predicate_shape(wide)
    # Same magnitude → same bucket: observations generalise.
    assert predicate_shape(
        RangePredicate.range(100, 130, INT)
    ) == predicate_shape(narrow)
    assert predicate_shape(RangePredicate.everything()) == ("everything",)


def test_predicate_shape_fractional_widths_on_float_columns():
    """Sub-unit float ranges bucket by magnitude (negative exponents),
    not into the equality bucket: a dashboard slicing ``[0.1, 0.2)``
    and one slicing ``[0.4, 0.8)`` are different workloads, and neither
    is a point query."""
    tenth = RangePredicate.range(0.1, 0.2, DOUBLE)
    fifth = RangePredicate.range(0.1, 0.3, DOUBLE)
    half = RangePredicate.range(0.4, 0.8, DOUBLE)
    for pred in (tenth, fifth, half):
        shape = predicate_shape(pred)
        assert shape[0] == "range", pred
        assert shape[1] < 0, pred  # floor(log2(width)) of a sub-unit width
    assert predicate_shape(tenth) != predicate_shape(half)
    # Same magnitude generalises across offsets, as on integer columns.
    assert predicate_shape(
        RangePredicate.range(5.1, 5.2, DOUBLE)
    ) == predicate_shape(tenth)
    # Only true equality is a point: v == 0.5 spans one representable.
    assert predicate_shape(RangePredicate.point(0.5, DOUBLE)) == ("point",)
    assert not RangePredicate.range(0.1, 0.2, DOUBLE).is_point
    assert RangePredicate.point(0.5, DOUBLE).is_point
    # Integer points still land in the equality bucket too.
    assert RangePredicate.point(5, INT).is_point


def test_planner_statistics_separate_fractional_float_buckets():
    """The regression this guards: every bounded width <= 1 used to
    collapse into ``("point",)``, so a float dashboard's distinct
    sub-unit slices shared one statistics cell and poisoned each
    other's calibration."""
    statistics = PlanStatistics()
    narrow = predicate_shape(RangePredicate.range(0.1, 0.125, DOUBLE))
    wide = predicate_shape(RangePredicate.range(0.1, 0.6, DOUBLE))
    point = predicate_shape(RangePredicate.point(0.25, DOUBLE))
    assert len({narrow, wide, point}) == 3
    statistics.record("f", narrow, "scan", 0.001, 0.1)
    statistics.record("f", wide, "wah", 0.002, 0.5)
    assert statistics.get("f", narrow) is not statistics.get("f", wide)
    assert statistics.get("f", point) is None


def _planner_gate_fixture(
    max_ratio: float = 1.02,
    speedup: float = 2.3,
    smoke: bool = False,
    verified: bool = True,
    n_rows: int = 400_000,
) -> dict:
    """A minimal ``BENCH_planner.json`` shape for gate tests."""
    return {
        "config": {
            "n_rows": n_rows,
            "queries_per_segment": 64,
            "seed": 0,
            "smoke": smoke,
        },
        "headline": {
            "max_planner_vs_best_static": max_ratio,
            "low_selectivity_speedup_vs_imprints": speedup,
            "low_selectivity_segment": "random-unselective",
        },
        "verified_bit_identical": verified,
    }


class TestPlannerRegressionGate:
    """The planner row of the declarative gate (repro.bench.regression)."""

    def test_passes_clean_full_run(self):
        assert gate("planner", _planner_gate_fixture()) == []
        assert (
            gate("planner", _planner_gate_fixture(), _planner_gate_fixture())
            == []
        )

    def test_unverified_run_always_fails(self):
        failures = gate(
            "planner",
            _planner_gate_fixture(smoke=True, verified=False)
        )
        assert any("bit-identical" in f for f in failures)

    def test_planner_straying_from_best_static_fails(self):
        # 1.5x > 1.10 * (1 + 25%) — the planner stopped tracking the
        # best access path somewhere.
        failures = gate("planner", _planner_gate_fixture(max_ratio=1.5))
        assert any("best static" in f for f in failures)

    def test_losing_the_unselective_win_fails(self):
        # The paper's Section 6.3 claim: unselective queries must fall
        # back to a scan.  Slower than always-imprints means they don't.
        failures = gate("planner", _planner_gate_fixture(speedup=0.5))
        assert any("always-imprints" in f for f in failures)

    def test_smoke_runs_skip_wallclock_invariants(self):
        assert (
            gate(
                "planner",
                _planner_gate_fixture(max_ratio=3.0, speedup=0.2, smoke=True)
            )
            == []
        )

    def test_baseline_drift_gates_both_directions(self):
        baseline = _planner_gate_fixture(max_ratio=0.8, speedup=2.4)
        worse_ratio = _planner_gate_fixture(max_ratio=1.05, speedup=2.4)
        failures = gate("planner", worse_ratio, baseline)
        assert any("max_planner_vs_best_static grew" in f for f in failures)
        worse_speedup = _planner_gate_fixture(max_ratio=0.8, speedup=1.5)
        failures = gate("planner", worse_speedup, baseline)
        assert any(
            "low_selectivity_speedup_vs_imprints regressed" in f
            for f in failures
        )

    def test_incomparable_baseline_skips_drift_check(self):
        baseline = _planner_gate_fixture(
            max_ratio=0.5, speedup=5.0, n_rows=100_000
        )
        assert (
            gate("planner", _planner_gate_fixture(), baseline) == []
        )

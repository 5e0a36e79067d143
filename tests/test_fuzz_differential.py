"""Cross-layer differential fuzzing — random programs vs the NumPy oracle.

Hypothesis writes little *programs* (:func:`tests.oracle.programs`): a
seed column, then a random interleaving of queries, paged reads,
aggregates, GROUP BY, top-k, appends, in-place updates and deletes over
random dtypes, page sizes and value magnitudes.  Each program replays
through :func:`tests.oracle.run_program` against the NumPy mirror and
every target at once:

* the imprints stack — the serial :class:`ColumnImprints` (forced ids,
  the lazy ``page``/``iter_chunks`` walks, first pages, aggregates), a
  :class:`ShardedColumnImprints` (shard-order streaming) and a
  :class:`QueryExecutor` (batched, coalesced, cached);
* the baseline backends — zonemap, WAH and scan, each a drop-in
  RowSet-backed replacement with the same contract, which is what the
  planner relies on when it swaps access paths mid-stream.

Failures are reproducible: examples shrink deterministically and
``print_blob`` emits the ``@reproduce_failure`` decorator.
"""

from __future__ import annotations

from hypothesis import given
from hypothesis import strategies as st

from repro.core import ColumnImprints
from repro.engine import QueryExecutor, ShardedColumnImprints
from repro.indexes import SequentialScan, WahBitmapIndex, ZoneMap

from .oracle import ExecutorTarget, IndexTarget, program_settings, programs, run_program


@program_settings
@given(program=programs(), n_shards=st.integers(1, 5))
def test_random_programs_agree_with_oracle(program, n_shards):
    serial = ColumnImprints(program.column("fuzz"))
    sharded = ShardedColumnImprints(program.column("fuzz.s"), n_shards=n_shards)
    executor = QueryExecutor({"col": ColumnImprints(program.column("fuzz.e"))})
    indexes = [serial, sharded, executor.index("col")]
    try:
        run_program(
            program,
            program.plain_mirror(indexes),
            [
                IndexTarget("serial", serial),
                IndexTarget("sharded", sharded),
                ExecutorTarget("executor", executor, "col"),
            ],
            indexes,
        )
    finally:
        executor.close()


@program_settings
@given(program=programs())
def test_baseline_backends_conform_to_the_oracle(program):
    baselines = {
        "zonemap": ZoneMap(program.column("z")),
        "wah": WahBitmapIndex(program.column("w")),
        "scan": SequentialScan(program.column("s")),
    }
    indexes = list(baselines.values())
    run_program(
        program,
        program.plain_mirror(indexes),
        [IndexTarget(name, index) for name, index in baselines.items()],
        indexes,
    )

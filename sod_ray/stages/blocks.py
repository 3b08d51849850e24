"""Block-ref extraction without Dataset.to_arrow_refs()'s double execution.

``Dataset.to_arrow_refs()`` calls ``self.schema(fetch_if_missing=True)``
AFTER draining ``iter_internal_ref_bundles()`` — and for any plan whose
schema isn't already cached that re-executes the ENTIRE plan a second
time as ``... -> limit=1``. A map-only plan re-reads its first block;
a shuffle-terminated plan (sort/aggregate) pays its FULL all-to-all
again: the flagship's 150M-row peaks sort ran twice (1016.8 s + 977.0 s
for the limit-1 re-execution) before this helper existed. Reproduced on
a toy dataset: ``rd.range(...).sort("id").to_arrow_refs()`` logs two
Sort executions.

``arrow_block_refs`` replicates to_arrow_refs' contract — a list of
ObjectRef[pyarrow.Table], zero-copy when blocks are already Arrow,
per-block remote conversion otherwise — using ``RefBundle.schema``
(carried on every bundle, no execution needed) to decide.

The rule for what runs where: Ray Data runs the scans and the writes,
where its streaming executor overlaps reading, mapping and writing.
Blocks that have already landed in the object store (a materialized
Dataset, an exchange or join result) are mapped with raw tasks sized
to the data (:func:`map_blocks`), not with another ``map_batches``
execution. Renaming the columns of 8 landed 1,250-row blocks (id and
a 512-byte payload) on one CPU took 0.187 s as a Ray Data execution,
0.051 s as 8 raw tasks and 0.041 s as the one task ``map_blocks``
runs for 10,000 rows (medians of 15 runs): the execution's cost is
planning and scheduling, not the work. The rule covers sorts too:
``exchange.range_sort`` sorts landed blocks with raw tasks. Sorting a
landed 20,000-row, 8-column table (5 blocks) on three keys, projected
to four columns, took 0.182 s as a ``Dataset.sort`` execution and
0.016 s as ``range_sort``'s one task; at 200,000 rows (8 blocks, 4
ranges) 0.449 s and 0.215 s (1 CPU, medians of 15 runs).
:func:`fan_out` is the one task-count rule of these maps and of the
raw-task exchanges, joins and range sort.
"""

from __future__ import annotations

import pyarrow as pa
import ray


@ray.remote(num_cpus=0.5)
def _to_arrow_block(block) -> pa.Table:
    from ray.data.block import BlockAccessor

    return BlockAccessor.for_block(block).to_arrow()


def arrow_block_refs(ds) -> list:
    """Executed block refs of ``ds`` as ObjectRef[pyarrow.Table], without
    to_arrow_refs' plan re-execution. Bundles whose schema is an Arrow
    schema pass through zero-copy; pandas-block bundles get a per-block
    remote conversion (same behavior as to_arrow_refs' fallback path)."""
    return arrow_block_refs_with_rows(ds)[0]


def arrow_block_refs_with_rows(ds) -> tuple[list, int | None, pa.Schema | None]:
    """(block refs, total row count, Arrow schema) — the count and the
    schema come free from the RefBundle metadata (no ray.get, no extra
    ``ds.schema()`` execution), letting exchange fan-out size itself to
    the data instead of always spawning cluster-CPU reduce tasks for a
    2k-row input. The count is None when any bundle lacks one; the
    schema is the first non-empty bundle schema, as ``Dataset.schema``
    picks it, and None when no bundle carries an Arrow one."""
    refs, rows, schema = _block_refs(ds)
    total = None if any(n is None for n in rows) else sum(rows)
    return refs, total, schema


def _block_refs(ds) -> tuple[list, list, pa.Schema | None]:
    """(Arrow block refs, per-block row counts — None where a block's
    metadata lacks one — and Arrow schema) of ``ds``; see
    :func:`arrow_block_refs_with_rows`."""
    out: list = []
    rows: list = []
    schema = None
    for bundle in ds.iter_internal_ref_bundles():
        if schema is None and bundle.schema is not None and len(bundle.schema.names):
            schema = bundle.schema
        rows.extend(m.num_rows for m in bundle.metadata)
        # A None schema does NOT guarantee Arrow blocks (a pandas-block
        # bundle can carry one too) — peek at the first block to decide.
        # ray.get on an Arrow block is zero-copy, so the probe is cheap;
        # only genuinely non-Arrow bundles pay the remote conversion.
        if isinstance(bundle.schema, pa.Schema):
            zero_copy = True
        elif bundle.block_refs:
            zero_copy = isinstance(ray.get(bundle.block_refs[0]), pa.Table)
        else:
            zero_copy = True
        for br in bundle.block_refs:
            out.append(br if zero_copy else _to_arrow_block.remote(br))
    return out, rows, schema if isinstance(schema, pa.Schema) else None


def dataset_from_refs(refs: list):
    """``rd.from_arrow_refs(refs)`` with its plan marked executed. Ray
    returns a MaterializedDataset whose plan is NOT marked computed, so
    every later read of it (``iter_internal_ref_bundles``, a
    ``map_batches`` consumer, ``count``) launches one more, empty
    InputDataBuffer-only streaming execution; ``.materialize()`` on it
    runs none and marks the plan computed. Every raw-task stage returns
    its output blocks through here."""
    import ray.data as rd

    return rd.from_arrow_refs(refs).materialize()


#: Input rows per raw task: the exchanges, joins and block maps run one
#: task per this many rows (capped by their own limit), so a 2k-row
#: input costs one task, not one per CPU or per block.
ROWS_PER_TASK = 65_536


def fan_out(rows: int | None, cap: int) -> int:
    """Raw tasks for ``rows`` input rows: one per :data:`ROWS_PER_TASK`
    rows, at most ``cap`` and at least one; ``cap`` when the row count
    is unknown."""
    if rows is None:
        return max(1, cap)
    return max(1, min(cap, -(-rows // ROWS_PER_TASK)))


@ray.remote
def _map_group(fn, *blocks: pa.Table) -> pa.Table:
    parts = [b for b in blocks if b.num_rows]
    if len(parts) > 1:
        t = pa.concat_tables(parts, promote_options="default")
    elif parts:
        t = parts[0]
    else:
        # an all-empty input: fn still runs once, on the widest empty
        # block (Ray maps an empty block to a zero-column one), so the
        # result carries fn's typed output
        t = max(blocks, key=lambda b: b.num_columns, default=pa.table({}))
    return fn(t)


def block_groups(ds) -> list[list]:
    """The block refs of ``ds`` in :func:`fan_out` contiguous groups of
    about equal row counts, at most one group per block and no empty
    group (an empty block rides with its successor); [] when ``ds``
    has no blocks. ``ds`` should have landed: a lazy input runs here."""
    refs, rows, _ = _block_refs(ds)
    if not refs:
        return []
    known = [n or 0 for n in rows]
    total = sum(known)
    k = fan_out(None if None in rows else total, len(refs))
    # block i joins group (rows before it) * k // total
    start = 0
    groups: list[list] = [[] for _ in range(k)]
    for ref, n in zip(refs, known):
        groups[min(k - 1, start * k // max(total, 1))].append(ref)
        start += n
    return [g for g in groups if g]


def map_blocks(ds, fn):
    """``ds.map_batches(fn, batch_format="pyarrow")`` for a row-wise
    ``fn`` (pa.Table -> pa.Table), run as raw tasks when ``ds`` has
    landed. On a ``MaterializedDataset`` one task maps each of
    :func:`block_groups`' groups, on the group's concatenated rows; the
    result is a marked Dataset of the task outputs, so reading it
    launches no Ray Data execution. Every other input (a lazy read, a
    ``Spill`` landing streamed from parquet) keeps the lazy
    ``map_batches``, which streams.

    ``fn`` must accept a 0-row table, possibly with no columns: on an
    input without rows it runs once on one, so the result keeps fn's
    output schema."""
    from ray.data.dataset import MaterializedDataset

    if not isinstance(ds, MaterializedDataset):
        return ds.map_batches(fn, batch_format="pyarrow")
    groups = block_groups(ds)
    if not groups:
        return dataset_from_refs([ray.put(fn(pa.table({})))])
    return dataset_from_refs(
        [_map_group.remote(fn, *g) for g in groups]
    )

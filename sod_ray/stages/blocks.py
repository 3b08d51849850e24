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
    out = []
    total: int | None = 0
    schema = None
    for bundle in ds.iter_internal_ref_bundles():
        if schema is None and bundle.schema is not None and len(bundle.schema.names):
            schema = bundle.schema
        if total is not None:
            try:
                n = bundle.num_rows()
                total = None if n is None else total + n
            except Exception:
                total = None
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
    return out, total, schema if isinstance(schema, pa.Schema) else None


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

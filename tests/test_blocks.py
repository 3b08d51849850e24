"""stages/blocks.py: arrow_block_refs (to_arrow_refs' contract without
its plan re-execution — the Sort->limit=1 double-shuffle fix),
block_groups and map_blocks (raw-task maps over landed blocks)."""

import pyarrow as pa
import pyarrow.compute as pc
import pytest
import ray


def test_arrow_blocks_zero_copy(ray_session):
    import ray.data as rd

    from sod_ray.stages.blocks import arrow_block_refs

    ds = (
        rd.range(10000)
        .map_batches(lambda t: t, batch_format="pyarrow")
        .sort("id")
    )
    refs = arrow_block_refs(ds)
    blocks = ray.get(refs)
    assert all(isinstance(b, pa.Table) for b in blocks)
    assert sum(b.num_rows for b in blocks) == 10000
    ids = [i for b in blocks for i in b["id"].to_pylist()]
    assert ids == sorted(ids)


def test_pandas_blocks_converted(ray_session):
    import ray.data as rd

    from sod_ray.stages.blocks import arrow_block_refs

    ds = rd.range(1000).map_batches(lambda df: df, batch_format="pandas")
    blocks = ray.get(arrow_block_refs(ds))
    assert all(isinstance(b, pa.Table) for b in blocks)
    assert sum(b.num_rows for b in blocks) == 1000


def _tagger():
    """A row-wise map that handles a 0-row, zero-column input (built in
    a function so Ray pickles it by value: workers cannot import this
    test module)."""

    def tag(t: pa.Table) -> pa.Table:
        ids = t["id"] if "id" in t.column_names else pa.array([], pa.int64())
        return pa.table({"id": ids, "twice": pc.multiply(ids, 2)})

    return tag


def _rows(ds) -> list:
    return sorted(
        (r["id"], r["twice"])
        for t in ray.get(ds.to_arrow_refs())
        for r in t.to_pylist()
    )


@pytest.mark.parametrize(
    "n_rows,n_blocks,tasks",
    [(10_000, 8, 1), (200_000, 8, 4), (300_000, 2, 2), (5, 1, 1)],
)
def test_map_blocks_matches_map_batches(
    ray_session, executions, n_rows, n_blocks, tasks
):
    """On a materialized input ``map_blocks`` returns the rows
    ``map_batches`` returns, from ceil(rows / 65,536) raw tasks capped
    at the block count (one output block each), and launches no Ray
    Data execution."""
    import ray.data as rd

    from sod_ray.stages.blocks import map_blocks

    ds = rd.range(n_rows, override_num_blocks=n_blocks).materialize()
    tag = _tagger()
    with executions() as chains:
        out = map_blocks(ds, tag)
        got = _rows(out)
    assert chains == []
    assert got == _rows(ds.map_batches(tag, batch_format="pyarrow"))
    assert len(got) == n_rows
    assert out.num_blocks() == tasks


def test_map_blocks_empty_input_keeps_typed_output(ray_session):
    """An input without blocks, or with only zero-column empty blocks,
    still yields ``fn``'s typed (0-row) output."""
    import ray.data as rd

    from sod_ray.stages.blocks import dataset_from_refs, map_blocks

    want = pa.schema([("id", pa.int64()), ("twice", pa.int64())])
    no_blocks = rd.range(10).filter(lambda r: False).materialize()
    zero_cols = dataset_from_refs([ray.put(pa.table({})), ray.put(pa.table({}))])
    for ds in (no_blocks, zero_cols):
        out = map_blocks(ds, _tagger())
        assert out.count() == 0
        assert out.schema().base_schema == want


def test_map_blocks_streams_a_lazy_input(ray_session, executions, tmp_path):
    """A ``read_parquet`` input keeps the lazy ``map_batches``: the call
    launches no execution, and reading the result runs one."""
    import pyarrow.parquet as pq
    import ray.data as rd

    from sod_ray.stages.blocks import map_blocks

    ids = pa.array(range(100), pa.int64())
    pq.write_table(pa.table({"id": ids}), tmp_path / "p.parquet")
    with executions() as chains:
        out = map_blocks(rd.read_parquet(str(tmp_path)), _tagger())
    assert chains == []
    assert [r[1] for r in _rows(out)] == [2 * i for i in range(100)]


def test_block_groups_contiguous_row_balanced(ray_session, monkeypatch):
    """``block_groups`` keeps block order: contiguous groups of about
    ``ROWS_PER_TASK`` rows each, one group at the default, no empty
    group, and [] for an input without blocks."""
    import ray.data as rd

    from sod_ray.stages import blocks
    from sod_ray.stages.blocks import block_groups, dataset_from_refs

    sizes = [5, 300, 40, 1, 90, 64]
    ds = rd.from_arrow(
        [pa.table({"b": pa.array([i] * n)}) for i, n in enumerate(sizes)]
    ).materialize()

    def layout():
        return [
            [ray.get(r)["b"][0].as_py() for r in g] for g in block_groups(ds)
        ]

    assert layout() == [[0, 1, 2, 3, 4, 5]]
    # 100 rows per task: 5 groups by rows before each block (0, 5, 305,
    # 345, 346, 436), of which the 300-row block's share leaves 3
    monkeypatch.setattr(blocks, "ROWS_PER_TASK", 100)
    assert layout() == [[0, 1], [2, 3, 4], [5]]
    assert block_groups(dataset_from_refs([])) == []

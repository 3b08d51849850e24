"""stages/exchange.range_sort: the raw-task range sort behind the
sorted window scorers, against a pyarrow ``sort_by`` reference."""

import numpy as np
import pyarrow as pa
import pytest
import ray

KEYS = ["k", "ts", "id"]


def _reference(t: pa.Table) -> pa.Table:
    # stable, nulls last: rows with equal keys keep their input order
    return t.sort_by([(k, "ascending") for k in KEYS], null_placement="at_end")


def _table(n: int, seed: int) -> pa.Table:
    """A hot key (70% of rows) and few distinct (ts, id) values, so many
    rows tie on every sort key and the range boundaries land on ties;
    a few null timestamps sort last within their key."""
    rng = np.random.default_rng(seed)
    ts = rng.integers(0, 20, n).astype(float)
    ts[rng.random(n) < 0.02] = np.nan
    return pa.table(
        {
            "k": pa.array(
                np.where(rng.random(n) < 0.7, "hot", rng.choice(["a", "b", "c"], n))
            ),
            "ts": pa.array(ts, pa.int64(), from_pandas=True),
            "id": pa.array(rng.integers(0, 5, n)),
            "v": pa.array(np.arange(n, dtype=np.float64)),
            "wide": pa.array(["x" * 8] * n),
        }
    )


def _collect(ranges) -> list[pa.Table]:
    return [ray.get(b) for b, _, _ in ranges]


@pytest.mark.parametrize("rows_per_task", [65_536, 100])
def test_range_sort_matches_sort_by(ray_session, executions, monkeypatch, rows_per_task):
    """On a landed input the ranges, concatenated, are the stable sort
    of the blocks' concatenation, projected to ``columns``; each range
    returns its own row count and last ``tail`` rows; no Ray Data
    execution runs. With 100 rows per task the 2,000 rows cut into 8
    ranges: the hot key spans several of them, and rows tied on every
    key never straddle a boundary."""
    import ray.data as rd

    from sod_ray.stages import blocks
    from sod_ray.stages.exchange import range_sort

    monkeypatch.setattr(blocks, "ROWS_PER_TASK", rows_per_task)
    t = _table(2000, seed=3)
    ds = rd.from_arrow([t.slice(i, 250) for i in range(0, 2000, 250)]).materialize()
    cols = ["k", "ts", "id", "v"]
    with executions() as chains:
        ranges = range_sort(ds, KEYS, columns=cols, tail=7)
        got = _collect(ranges)
    assert chains == []
    assert len(ranges) == (1 if rows_per_task > 2000 else 8)
    assert pa.concat_tables(got).equals(_reference(t).select(cols))
    for (_, tail, n), block in zip(ranges, got):
        assert ray.get(n) == block.num_rows
        assert ray.get(tail).equals(block.slice(max(0, block.num_rows - 7)))
    if len(ranges) > 1:
        assert sum("hot" in b["k"].to_pylist() for b in got) >= 3
        seen = {}
        for i, b in enumerate(got):
            for key in zip(*(b[k].to_pylist() for k in KEYS)):
                assert seen.setdefault(key, i) == i, key


def test_range_sort_boundary_ties(ray_session, monkeypatch):
    """Every row equal to a boundary goes to the range after it, so a
    block of one repeated key lands whole in a single range and the
    rows keep their block order."""
    import ray.data as rd

    from sod_ray.stages import blocks
    from sod_ray.stages.exchange import range_sort

    monkeypatch.setattr(blocks, "ROWS_PER_TASK", 10)
    n = 400
    t = pa.table(
        {
            "k": pa.array(["a"] * 100 + ["b"] * 200 + ["c"] * 100),
            "ts": pa.array(np.zeros(n, np.int64)),
            "id": pa.array(np.zeros(n, np.int64)),
            "v": pa.array(np.arange(n, dtype=np.float64)),
        }
    )
    perm = np.random.default_rng(0).permutation(n)
    shuffled = t.take(pa.array(perm))
    ds = rd.from_arrow([shuffled.slice(i, 50) for i in range(0, n, 50)])
    got = [b for b in _collect(range_sort(ds, KEYS)) if b.num_rows]
    assert sorted(set(b["k"].to_pylist()).pop() for b in got) == ["a", "b", "c"]
    assert all(len(set(b["k"].to_pylist())) == 1 for b in got)
    assert pa.concat_tables(got).equals(_reference(shuffled))


def test_range_sort_empty_input(ray_session, monkeypatch):
    """An input without rows has no ranges: no blocks, empty blocks,
    or zero-column empty blocks."""
    import ray.data as rd

    from sod_ray.stages import blocks
    from sod_ray.stages.blocks import dataset_from_refs
    from sod_ray.stages.exchange import range_sort

    monkeypatch.setattr(blocks, "ROWS_PER_TASK", 1)
    empty_blocks = rd.range(10).filter(lambda r: False).materialize()
    no_blocks = dataset_from_refs([])
    zero_cols = dataset_from_refs([ray.put(pa.table({})), ray.put(pa.table({}))])
    for ds in (empty_blocks, no_blocks, zero_cols):
        assert range_sort(ds, ["id"], columns=["id"], tail=3) == []


def test_range_sort_lazy_input(ray_session, executions, monkeypatch, tmp_path):
    """A lazy ``read_parquet`` input lands through one scan execution,
    projected to ``columns`` before it lands, and sorts as a landed
    one does."""
    import pyarrow.parquet as pq
    import ray.data as rd

    from sod_ray.stages import blocks
    from sod_ray.stages.exchange import range_sort

    monkeypatch.setattr(blocks, "ROWS_PER_TASK", 100)
    t = _table(1000, seed=5)
    for i in range(4):
        pq.write_table(t.slice(250 * i, 250), tmp_path / f"part-{i}.parquet")
    cols = ["k", "ts", "id", "v"]
    with executions() as chains:
        got = _collect(
            range_sort(rd.read_parquet(str(tmp_path)), KEYS, columns=cols)
        )
    assert len(chains) == 1, chains
    assert all(b.column_names == cols for b in got if b.num_rows)
    # the read may deliver the files in any order: compare row sets
    key = [(c, "ascending") for c in cols]
    assert pa.concat_tables(got).sort_by(key).equals(t.select(cols).sort_by(key))
    merged = pa.concat_tables(got)
    assert merged.equals(_reference(merged))

"""Generic raw-task hash exchange for key-count ≈ row-count reductions.

Ray Data's ``groupby(...).map_groups(fn)`` pays one Python call per
group; when the number of groups approaches the number of rows (exact
dedup winners, line dedup, per-doc top-k), that is a Python call per
row of output — the dominant cost at corpus scale. The repo's measured
alternative (``tools/shuffle_backend_bench.py``: 47× vs the best
Dataset shuffle backend on 16M singleton-heavy keys) is a raw-task
hash-bucket exchange: every block splits its rows into P buckets by
``key % P``, one reduce task per bucket concatenates its pieces and
runs ONE vectorized callable over the whole bucket.

This module is that pattern's one-table implementation
(``exchange_reduce``): the near-dup chains in ``stages/dedup``
(including the singleton prune's hot-key pass), line and exact dedup
and the group reductions of the other stages run on it. Two-sided
splits keep their own tasks: ``joins.bucketed_equi_join`` splits both
join sides, and ``stages/cc.py`` splits numpy edge arrays per
contraction level. ``range_sort`` is the ordered variant: blocks split
by sampled key ranges instead of hash buckets, and each range task
sorts its rows, for the sorted window scorers in ``stages/window``.

Partitioning assumption (document per use): all rows of one bucket are
concatenated in a single reduce task, so the largest bucket must fit in
one worker's heap. Keys are hashed 64-bit values, so buckets are
uniform in *key* count; a single hot key still lands in one bucket —
callers with hot-key risk must pre-salt or pre-combine. Size
``num_buckets`` so total_bytes / P fits comfortably (default:
max(8, cluster CPUs))."""

from __future__ import annotations

import os
import shutil
from dataclasses import dataclass

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import ray

from .blocks import (
    _block_refs,
    arrow_block_refs_with_rows,
    dataset_from_refs,
    fan_out,
    map_blocks,
)


def _default_buckets() -> int:
    try:
        if ray.is_initialized():
            return max(8, int(ray.cluster_resources().get("CPU", 8)))
    except Exception:
        pass
    return 8


def _smallest_node() -> tuple[int | None, float | None]:
    """(object-store bytes, CPUs) of the smallest alive node — each the
    minimum over alive nodes, None when no cluster is up. Every
    per-node budget (broadcast sizes, landing caps, disk-reduce CPU
    requests) sizes against this one scan."""
    stores, cpus = [], []
    try:
        if ray.is_initialized():
            for n in ray.nodes():
                res = n.get("Resources", {}) if n.get("Alive") else {}
                if res.get("object_store_memory"):
                    stores.append(int(res["object_store_memory"]))
                if res.get("CPU"):
                    cpus.append(res["CPU"])
    except Exception:
        pass
    return (min(stores) if stores else None, min(cpus) if cpus else None)


def _reduce_cpus() -> float:
    """CPU request of one disk-backed reduce task: 2 (each holds a whole
    bucket read from disk, so fewer run at once), capped at the smallest
    node's CPUs so the task can be scheduled on a 1-CPU node."""
    return min(2, _smallest_node()[1] or 1)


@dataclass(frozen=True)
class Spill:
    """Disk landing policy shared by :func:`exchange_reduce`,
    ``joins.bucketed_equi_join`` and the near-dup chains in
    ``stages.dedup``: intermediate tables land as parquet under
    ``dir`` instead of being pinned in the object store.

    Every landing lives in a function-owned ``dir/_sod_<name>``
    subdirectory, cleared before it is written and freed after its last
    reader, so caller data in ``dir`` is never deleted and nothing is
    left behind. Writes run under a capped executor object-store budget
    (25% of the smallest node's store): a fast producer otherwise
    outruns the parquet writers until raylet spills the backlog, and
    the same bytes hit disk twice (a 50M-doc SimHash landing ENOSPC'd a
    93 GB volume that way). The cap is set on the Dataset's own context
    copy — a Dataset snapshots DataContext at creation, so mutating the
    global context is a silent no-op.

    ``phases``: split-phase exchanges for volumes that cannot hold the
    input plus one full landed copy (see :func:`exchange_reduce`)."""

    dir: str
    phases: int = 1

    def __post_init__(self):
        if self.phases < 1:
            raise ValueError(f"phases must be >= 1, got {self.phases}")

    def path(self, name: str) -> str:
        return os.path.join(self.dir, f"_sod_{name}")

    def write(self, ds, name: str, partition_cols=None) -> str:
        """Land ``ds`` under ``_sod_<name>``; returns the path."""
        import ray.data as rd
        from ray.data._internal.execution.interfaces.execution_options import (
            ExecutionResources,
        )

        path = self.path(name)
        shutil.rmtree(path, ignore_errors=True)
        os.makedirs(path, exist_ok=True)
        ctx = getattr(ds, "context", rd.DataContext.get_current())
        opts = ctx.execution_options
        prev = opts.resource_limits
        store = _smallest_node()[0]
        try:
            if store:
                opts.resource_limits = ExecutionResources(
                    object_store_memory=int(store * 0.25)
                )
            ds.write_parquet(path, partition_cols=partition_cols)
        finally:
            opts.resource_limits = prev
        return path

    def free(self, *names: str) -> None:
        for name in names:
            shutil.rmtree(self.path(name), ignore_errors=True)

    def free_after(self, refs: list, *names: str) -> None:
        """Free landings once the tasks behind ``refs``, their last
        readers, have finished."""
        if refs:
            ray.wait(refs, num_returns=len(refs), fetch_local=False)
        self.free(*names)


def land(ds, spill: Spill | None, name: str):
    """Land ``ds`` once for several readers: as parquet under ``spill``
    (a streaming reader over ``_sod_<name>``), or materialized in the
    object store when there is no spill."""
    import ray.data as rd

    if spill is None:
        return ds.materialize()
    return rd.read_parquet(spill.write(ds, name))


def broadcast_rows_budget(
    bytes_per_row: int = 16,
    fraction: float = 0.002,
    floor: int = 1_000_000,
    ceiling: int = 200_000_000,
) -> int:
    """Default row limit for one-``ray.put`` broadcast small sides,
    derived from the SMALLEST node's object-store size: every node
    materializes one copy of a broadcast, so the budget is a small
    fraction of the per-node store, not of the cluster total. With the
    defaults a 37.6 GiB store (this dev VM) yields ~5M 16-byte rows —
    the empirically tuned r2/r3 threshold — and the same code scales
    the knob up on fat cluster nodes and down under a capped store
    (where broadcasts compete with shuffles for spill budget). Callers
    with 8-byte payloads pass ``bytes_per_row=8`` (and the MinHash
    endpoint filters use ``fraction=0.004``, the tuned 20M-row point).
    """
    store = _smallest_node()[0]
    if store is None:
        store = 4 << 30  # no cluster yet: a conservative 4 GiB
    return int(min(ceiling, max(floor, fraction * store / bytes_per_row)))


def sorted_lookup(keys: np.ndarray, values: np.ndarray):
    """Probe ``values`` against the SORTED array ``keys``: (found mask,
    clamped position), so ``keys[pos]`` is the match wherever found.
    The one membership probe behind every broadcast filter and lookup
    (an empty ``keys`` finds nothing)."""
    if keys.shape[0] == 0:
        return np.zeros(values.shape[0], bool), np.zeros(values.shape[0], np.int64)
    pos = np.minimum(np.searchsorted(keys, values), keys.shape[0] - 1)
    return keys[pos] == values, pos


def broadcast_filter(ds, keys: np.ndarray, key, keep: bool = True):
    """Rows of ``ds`` whose key is (``keep=True``) or is not
    (``keep=False``) in ``keys``. ``key`` is a column name or a
    ``table -> array`` callable. The keys are broadcast SORTED once and
    probed per batch with :func:`sorted_lookup`.

    Not ``pc.is_in``: is_in rebuilds its hash set from the value_set on
    EVERY call, and map_batches cuts blocks into ~131k-row batches — a
    16M-key set costs ~2.3 s to build, so a 1.4B-row filter pays
    ~10,600 rebuilds (~25 CPU-min/worker; measured grinding 32 CPUs for
    18+ min on the 50M-doc × 28-table SimHash corpus). The sorted probe
    is O(batch · log keys) with zero per-batch setup, so plain tasks
    (zero-copy local ray.get) stay the right choice over an actor pool.
    Returns the filtered Dataset: raw tasks over a landed ``ds``, else
    lazy (``blocks.map_blocks``)."""
    ref = ray.put(np.sort(keys))

    def probe(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return t
        col = key(t) if callable(key) else t[key]
        found, _ = sorted_lookup(ray.get(ref), col.to_numpy(zero_copy_only=False))
        return t.filter(pa.array(found if keep else ~found))

    return map_blocks(ds, probe)


def _bucket_of(t: pa.Table, key_col: str, P: int) -> np.ndarray:
    """Bucket of every row: key % P, non-negative for signed keys."""
    k = t[key_col].to_numpy(zero_copy_only=False)
    return (k.astype(np.int64, copy=False) % P + P) % P


@ray.remote
def _split_block(t: pa.Table, key_col: str, P: int):
    """One block → P row-slices by key % P (one sort, P zero-copy slices)."""
    if t.num_rows == 0 or key_col not in t.column_names:
        # Ray passes empty blocks through map_batches with an empty
        # schema — they carry no rows, route nothing
        e = t.slice(0, 0)
        return tuple(e for _ in range(P))
    b = _bucket_of(t, key_col, P)
    order = np.argsort(b, kind="stable")
    st = t.take(pa.array(order))
    bs = b[order]
    bounds = np.searchsorted(bs, np.arange(P + 1))
    return tuple(
        st.slice(int(bounds[p]), int(bounds[p + 1] - bounds[p]))
        for p in range(P)
    )


@ray.remote
def _reduce_bucket(fn, *pieces):
    parts = [p for p in pieces if p.num_rows]
    if parts:
        t = pa.concat_tables(parts).combine_chunks()
    else:
        # all-empty bucket: hand fn the widest available schema (empty
        # passthrough blocks have zero columns)
        t = max(pieces, key=lambda p: p.num_columns)
    return fn(t)


def exchange_reduce(
    ds,
    key_col: str,
    fn,
    num_buckets: int | None = None,
    spill: Spill | None = None,
    after_land=None,
):
    """Hash-exchange ``ds`` by integer column ``key_col`` into P buckets
    and apply ``fn(bucket_table) -> pa.Table`` once per bucket.

    ``fn`` must be a pure vectorized callable (it sees EVERY row of its
    bucket in one Arrow table, including a possible 0-row table) and
    all rows sharing a key value land in the same bucket — so any
    per-key reduction computed inside ``fn`` is globally correct.
    String keys: add a ``hash64`` column first. Returns a Dataset built
    from the P reduce outputs.

    Fan-out sizes itself to the data when ``num_buckets`` is None: the
    cluster-CPU default, capped by ``blocks.fan_out`` at one bucket per
    ~64k input rows (the row count comes free from the RefBundle
    metadata) — a 2k-row input runs ONE reduce task instead of paying
    32 tasks of fixed overhead, while anything big enough to care
    still gets the full fan-out.

    ``spill``: run the exchange through disk instead of plasma, for
    inputs comparable to the object store (the in-plasma exchange holds
    input blocks + sorted splits, ~2x the data, and ENOSPCs the raylet
    spill on a disk-tight host). One streaming pass lands the rows as
    parquet partitioned by bucket (``num_buckets`` or the cluster-CPU
    default, no row cap), one task per bucket reduces exactly its
    bucket's files, and the landing is freed once those tasks finish:
    peak disk = input + one landed copy. With ``spill.phases`` > 1,
    phase p lands and reduces only buckets with ``bucket % phases ==
    p`` (one more read of ``ds`` per phase), so peak disk = input +
    landed/phases and results are unchanged. ``after_land`` runs once
    the last landing has committed — the last read of ``ds`` — so a
    caller can free a disk-tight input there."""
    if spill is not None:
        import pyarrow.parquet as pq

        P = num_buckets or _default_buckets()

        @ray.remote(num_cpus=_reduce_cpus())
        def reduce_dir(path: str):
            t = pq.read_table(path)
            if "__bkt" in t.column_names:
                t = t.drop_columns(["__bkt"])
            return fn(t.combine_chunks())

        outs = []
        for ph in range(spill.phases):

            def add_bkt(t: pa.Table, _ph=ph) -> pa.Table:
                if t.num_rows == 0 or key_col not in t.column_names:
                    return t
                b = _bucket_of(t, key_col, P)
                if spill.phases > 1:
                    m = (b % spill.phases) == _ph
                    t, b = t.filter(pa.array(m)), b[m]
                return t.append_column("__bkt", pa.array(b, pa.int64()))

            name = f"exchange_p{ph}"
            sub = spill.write(
                ds.map_batches(add_bkt, batch_format="pyarrow"),
                name,
                partition_cols=["__bkt"],
            )
            if after_land is not None and ph == spill.phases - 1:
                after_land()  # last read of ds is done
            ph_outs = [
                reduce_dir.remote(os.path.join(sub, d))
                for d in sorted(os.listdir(sub))
                if d.startswith("__bkt=")
            ]
            spill.free_after(ph_outs, name)
            outs.extend(ph_outs)
        if not outs:
            return dataset_from_refs([ray.put(fn(pa.table({})))])
        return dataset_from_refs(outs)

    refs, total_rows, _ = arrow_block_refs_with_rows(ds)
    P = num_buckets or fan_out(total_rows, _default_buckets())
    if not refs:
        # zero executed blocks: materialize fn's typed empty output so
        # downstream consumers still see the reduce schema (a bare
        # map_batches over no blocks yields a schema-less Dataset)
        return dataset_from_refs([ray.put(fn(pa.table({})))])
    if P == 1:
        # one bucket == all rows: no split stage at all, one reduce
        # over the blocks themselves
        outs = [_reduce_bucket.remote(fn, *refs)]
    else:
        splits = [
            _split_block.options(num_returns=P).remote(r, key_col, P)
            for r in refs
        ]
        outs = [
            _reduce_bucket.remote(fn, *[s[p] for s in splits])
            for p in range(P)
        ]
    return dataset_from_refs(outs)



def _ascending(keys: list[str]) -> list[tuple[str, str]]:
    return [(k, "ascending") for k in keys]


def _project(t: pa.Table, columns: list[str] | None) -> pa.Table:
    # a zero-column empty block (Ray's empty block) passes as it is
    if columns is None or not set(columns) <= set(t.column_names):
        return t
    return t.select(columns)


@ray.remote
def _range_sample(t: pa.Table, keys: list[str], k: int) -> pa.Table | None:
    """Up to ``k`` evenly spaced rows of ``t``'s sort keys, sorted, each
    weighted (``__w``) by the rows it stands for; None for a block
    without rows."""
    if not t.num_rows:
        return None
    pos = np.unique(np.linspace(0, t.num_rows - 1, min(k, t.num_rows)).astype(np.int64))
    s = t.select(keys).take(pa.array(pos))
    s = s.take(pc.sort_indices(s, _ascending(keys), null_placement="at_end"))
    return s.append_column(
        "__w", pa.array(np.full(len(pos), t.num_rows / len(pos)))
    )


@ray.remote
def _range_split(t: pa.Table, columns, keys: list[str], bounds: pa.Table, P: int):
    """One block → P sorted row-slices by range. pyarrow has no
    multi-column searchsorted, so the block's keys are sorted together
    with the P-1 boundary rows, each boundary before the rows equal to
    it: a row's range is the number of boundaries before it."""
    t = _project(t, columns)
    n = t.num_rows
    if n == 0:
        e = t.slice(0, 0)
        return tuple(e for _ in range(P))
    keyed = t.select(keys)
    tagged = pa.concat_tables(
        [
            keyed.append_column("__b", pa.array(np.ones(n, np.int8))),
            bounds.cast(keyed.schema).append_column(
                "__b", pa.array(np.zeros(bounds.num_rows, np.int8))
            ),
        ]
    )
    order = pc.sort_indices(
        tagged, _ascending(keys) + [("__b", "ascending")], null_placement="at_end"
    ).to_numpy()
    is_bound = order >= n
    rng = np.cumsum(is_bound)[~is_bound]
    st = t.take(pa.array(order[~is_bound]))
    cuts = np.searchsorted(rng, np.arange(P + 1))
    return tuple(
        st.slice(int(cuts[p]), int(cuts[p + 1] - cuts[p])) for p in range(P)
    )


@ray.remote(num_returns=3)
def _range_block(columns, keys: list[str], tail: int, *pieces: pa.Table):
    """One range: its pieces concatenated in block order and stable-
    sorted, so rows with equal keys keep their block order. Returns
    (block, its last ``tail`` rows, its row count)."""
    parts = [_project(p, columns) for p in pieces if p.num_rows]
    if parts:
        t = pa.concat_tables(parts, promote_options="default")
        t = t.take(pc.sort_indices(t, _ascending(keys), null_placement="at_end"))
    else:
        t = max(pieces, key=lambda p: p.num_columns).slice(0, 0)
    n = t.num_rows
    return t, t.slice(max(0, n - tail)), n


def range_sort(
    ds, keys: list[str], columns: list[str] | None = None, tail: int = 0
) -> list:
    """Sort ``ds`` on ``keys`` (ascending, nulls last) with raw tasks:
    one ``[block, tail, rows]`` ref triple per range, the ranges in key
    order and each range's block sorted, so the concatenated blocks are
    the sorted table. ``tail`` is how many of a range's last rows its
    tail ref holds (the context a sliding window needs from the ranges
    before it); ``columns`` projects every block first (on a lazy
    ``ds``, before it lands).

    P = ``fan_out(rows, max(cluster CPUs, blocks))`` ranges: one per
    ``blocks.ROWS_PER_TASK`` rows, and as many as the input has blocks
    once the table outgrows the cluster, so a range holds about one
    input block's rows (at least ``ROWS_PER_TASK``) however large the
    table is, as ``Dataset.sort``'s one output block per input block
    does. With P > 1 every block returns a small sorted sample of its
    keys, the driver picks the P-1 range boundaries from the weighted
    union of the samples, every block splits into its P ranges
    (:func:`_range_split`), and one task per range concatenates and
    sorts its pieces. Rows equal to a
    boundary all go to the range after it, and a range keeps equal
    rows in block order, so the result is the stable sort of the
    blocks' concatenation whatever P is. The boundaries include every
    sort key, so a hot leading key spreads over several ranges. A lazy
    ``ds`` lands through one scan execution; a landed one runs none.
    Partitioning assumption: a range (about one input block) fits one
    worker's heap; ranges are balanced by row count, except for rows
    with equal keys, which share a range."""
    from ray.data.dataset import MaterializedDataset

    if columns is not None and not isinstance(ds, MaterializedDataset):
        ds = ds.select_columns(columns)
    refs, rows, _ = _block_refs(ds)
    total = None if None in rows else sum(rows)
    if total == 0:
        return []
    P = fan_out(total, max(_default_buckets(), len(refs)))
    if P == 1:
        return [_range_block.remote(columns, keys, tail, *refs)]
    per_block = -(-32 * P // len(refs))
    samples = [
        s
        for s in ray.get([_range_sample.remote(r, keys, per_block) for r in refs])
        if s is not None
    ]
    if not samples:
        return [_range_block.remote(columns, keys, tail, *refs)]
    s = pa.concat_tables(samples, promote_options="default")
    s = s.take(pc.sort_indices(s, _ascending(keys), null_placement="at_end"))
    cum = np.cumsum(s["__w"].to_numpy())
    at = np.searchsorted(cum, cum[-1] * np.arange(1, P) / P)
    bounds = s.select(keys).take(pa.array(np.minimum(at, s.num_rows - 1)))
    splits = [
        _range_split.options(num_returns=P).remote(r, columns, keys, bounds, P)
        for r in refs
    ]
    return [
        _range_block.remote(columns, keys, tail, *[sp[p] for sp in splits])
        for p in range(P)
    ]

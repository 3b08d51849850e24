"""Column-statistics stage: per-batch sketch partials + groupby merge.

The distributed form of the reference's per-vector aggregate library
(/root/reference/internal/geom/point.go — SURVEY.md §2.3) using the
partial+final pattern (SURVEY.md §2.5 G7): each Arrow batch folds its
rows into tiny serialized sketches (Welford + t-digest + HLL) per
(partition key, column); the shuffle then moves only sketch rows —
a few KB per (key, column, batch) — never the data.

At 10^12-row scale this is the load-bearing design choice: a naive
``groupby(key).aggregate(...)`` would shuffle every row; here the
all-to-all exchange is ~(batches × keys × columns) sketch rows.
Skewed keys are handled upstream by salting (sod_ray.stages.skew);
sketch merges are associative+commutative so two-level merges are safe.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from ..state.sketches import HyperLogLog, TDigest, Welford, hash64
from .textstage import tokens

GLOBAL_KEY = "__all__"


def _group_indices(batch: pa.Table, key: str | None):
    """Yield (key_value, row_indices) for each distinct key in the batch."""
    if key is None:
        yield GLOBAL_KEY, None
        return
    codes = batch[key].combine_chunks().dictionary_encode()
    if isinstance(codes, pa.ChunkedArray):
        codes = codes.combine_chunks()
    idx = codes.indices.to_numpy(zero_copy_only=False)
    dictionary = codes.dictionary.to_pylist()
    order = np.argsort(idx, kind="stable")
    bounds = np.searchsorted(idx[order], np.arange(len(dictionary)))
    bounds = np.append(bounds, idx.shape[0])
    for d in range(len(dictionary)):
        rows = order[bounds[d] : bounds[d + 1]]
        if rows.size:
            yield str(dictionary[d]), rows


def make_sketch_partials(
    columns: list[str],
    key: str | None = None,
    with_hll: bool = True,
    quantile_sketch: str = "tdigest",
):
    """Batch fn: Arrow table in → partial-sketch rows out (zero-copy
    numeric path; one pass of numpy reductions per column per key).
    ``with_hll=False`` skips the distinct sketch (pointless for dense
    numeric feature columns — saves the hashing pass).
    ``quantile_sketch``: "tdigest" (default) or "kll" — the bytes ride
    the same ``tdigest`` column either way (tag-dispatched decode)."""
    from ..state.sketches import new_quantile_sketch

    def fn(batch: pa.Table) -> pa.Table:
        keys_out, cols_out, wf_out, td_out, hll_out = [], [], [], [], []
        for key_val, rows in _group_indices(batch, key):
            sub = batch if rows is None else batch.take(pa.array(rows))
            for col in columns:
                arr = sub[col]
                wf = Welford().update_array(arr)
                td = new_quantile_sketch(quantile_sketch).update_array(arr)
                keys_out.append(key_val)
                cols_out.append(col)
                wf_out.append(wf.to_bytes())
                td_out.append(td.to_bytes())
                hll_out.append(
                    HyperLogLog().update_array(arr).to_bytes() if with_hll else b""
                )
        return pa.table(
            {
                "part_key": pa.array(keys_out, pa.string()),
                "column": pa.array(cols_out, pa.string()),
                "welford": pa.array(wf_out, pa.binary()),
                "tdigest": pa.array(td_out, pa.binary()),
                "hll": pa.array(hll_out, pa.binary()),
            }
        )

    return fn


def merge_sketch_group(group: pa.Table) -> pa.Table:
    """map_groups fn: merge all partial sketches of one (key, column)
    into one finalized stats row. The quantile column decodes by tag,
    so t-digest and KLL partials both merge here (homogeneous per
    run — the partials stage picks one backend). Partials fold in the
    order of their serialized bytes, not the order the shuffle
    delivers them: the t-digest and Welford folds depend on order, so
    the merged row is then the same for any block layout or task
    timing."""
    from ..state.sketches import quantile_sketch_from_bytes

    wf = Welford()
    hll = HyperLogLog()
    for b in sorted(group["welford"].to_pylist()):
        wf.merge(Welford.from_bytes(b))
    td = None
    for b in sorted(group["tdigest"].to_pylist()):
        sk = quantile_sketch_from_bytes(b)
        td = sk if td is None else td.merge(sk)
    if td is None:
        td = TDigest()
    have_hll = False
    for b in group["hll"].to_pylist():
        if b:
            hll.merge(HyperLogLog.from_bytes(b))
            have_hll = True
    r = wf.result()
    sketch_bytes = sum(
        len(x)
        for col in ("welford", "tdigest", "hll")
        for x in group[col].to_pylist()
    )
    return pa.table(
        {
            "part_key": [group["part_key"][0].as_py()],
            "column": [group["column"][0].as_py()],
            "count": pa.array([r["count"]], pa.int64()),
            "total": pa.array([r["total"]], pa.int64()),
            "null_count": pa.array([r["null_count"]], pa.int64()),
            "nan_count": pa.array([r["nan_count"]], pa.int64()),
            "mean": pa.array([r["mean"]], pa.float64()),
            "std": pa.array([r["std"]], pa.float64()),
            "min": pa.array([r["min"]], pa.float64()),
            "max": pa.array([r["max"]], pa.float64()),
            "p50": pa.array([td.quantile(0.5)], pa.float64()),
            "p90": pa.array([td.quantile(0.9)], pa.float64()),
            "p99": pa.array([td.quantile(0.99)], pa.float64()),
            "distinct_est": pa.array(
                [hll.cardinality() if have_hll else float("nan")], pa.float64()
            ),
            "welford": pa.array([wf.to_bytes()], pa.binary()),
            "tdigest": pa.array([td.to_bytes()], pa.binary()),
            "hll": pa.array([hll.to_bytes()], pa.binary()),
            "sketch_bytes": pa.array([sketch_bytes], pa.int64()),
        }
    )


def column_stats(
    ds,
    columns: list[str],
    key: str | None = None,
    batch_size: int = 8192,
    with_hll: bool = True,
    quantile_sketch: str = "tdigest",
):
    """Dataset → per-(key, column) stats Dataset.

    Pipeline: map_batches(partials) → groupby(part_key, column) →
    map_groups(merge). Only sketch rows cross the shuffle."""
    partials = ds.map_batches(
        make_sketch_partials(
            columns, key, with_hll=with_hll, quantile_sketch=quantile_sketch
        ),
        batch_format="pyarrow",
        batch_size=batch_size,
    )
    return partials.groupby(["part_key", "column"]).map_groups(
        merge_sketch_group, batch_format="pyarrow"
    )


def kll_column_quantiles(
    ds,
    column: str,
    key: str | None = None,
    k: int = 200,
    qs: tuple = (0.25, 0.5, 0.75, 0.9, 0.99),
    batch_size: int = 8192,
):
    """Per-(key) KLL quantiles: map_batches partials → groupby merge.
    Only O(k)-byte sketch rows cross the shuffle — the same
    partial+final shape as :func:`column_stats`, with the KLL's
    uniform RANK guarantee instead of the t-digest's value
    interpolation. Output: one row per key with ``q_<pct>`` columns,
    ``n``, and the serialized sketch (reusable as a drift baseline)."""
    from ..state.sketches import KLL

    def partials(batch: pa.Table) -> pa.Table:
        keys, klls, counts = [], [], []
        for key_val, rows in _group_indices(batch, key):
            sub = batch if rows is None else batch.take(pa.array(rows))
            sk = KLL(k=k).update_array(sub[column])
            keys.append(key_val)
            klls.append(sk.to_bytes())
            counts.append(len(sub))
        return pa.table(
            {
                "part_key": pa.array(keys, pa.string()),
                "kll": pa.array(klls, pa.binary()),
                "rows": pa.array(counts, pa.int64()),
            }
        )

    qcols = [f"q_{int(round(q * 100)):02d}" for q in qs]

    def merge(group: pa.Table) -> pa.Table:
        sk = KLL(k=k)
        for b in sorted(group["kll"].to_pylist()):  # a fixed fold order
            sk.merge(KLL.from_bytes(b))
        vals = sk.quantiles(qs)
        cols = {
            "part_key": [group["part_key"][0].as_py()],
            "n": pa.array([sk.n], pa.int64()),
        }
        for c, v in zip(qcols, vals):
            cols[c] = pa.array([float(v)], pa.float64())
        cols["kll"] = pa.array([sk.to_bytes()], pa.binary())
        return pa.table(cols)

    p = ds.map_batches(
        partials, batch_format="pyarrow", batch_size=batch_size
    )
    return p.groupby("part_key").map_groups(merge, batch_format="pyarrow")


def _mg_fold(col, m: int, tokenize: bool) -> bytes:
    """One batch's Misra-Gries partial (serialized) over ``col``'s
    values, or over its ``textstage.tokens`` when ``tokenize``."""
    from ..state.sketches import MisraGries

    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    if tokenize:
        col = tokens(col)[0]
    return MisraGries(m=m).update_array(col).to_bytes()


def heavy_hitters(
    ds,
    column: str,
    key: str | None = None,
    m: int = 512,
    tokenize: bool = False,
    num_buckets: int = 64,
    batch_size: int = 8192,
    as_dataset: bool = False,
):
    """Misra–Gries heavy hitters over a (possibly tokenized) string
    column — ONE corpus scan, NO data shuffle: per-batch MG partials
    (≤ m keys, a few KB each) → two-level merge (groupby on a
    round-robin bucket so no single worker folds every partial) → the
    driver merges ≤ ``num_buckets`` summaries. With ``key`` set the
    whole pipeline runs per partition key (top values per lang/host —
    partials and merges carry the key; driver state is #keys
    summaries). Returns the merged :class:`MisraGries` (global) or
    ``{key_value: MisraGries}``; with ``as_dataset=True`` the final
    per-key fold happens in one more groupby and a (part_key, mg)
    Dataset returns instead (per-key summaries never land on the
    driver). Cardinality contract: the partials stage folds one MG
    per DISTINCT KEY PER BATCH (a Python fold each), so per-key mode
    fits coarse keys × huge value sets (langs × vocab — measured
    800M tokens in 8.9 s); when #keys approaches #rows per batch,
    use the exact (key, value) count exchange instead
    (`exchange.exchange_reduce` — exact and faster there). Every
    value with true count > ``err_ub`` is guaranteed present with
    ``est ≤ true ≤ est + err_ub``.

    The scale story vs ``top50_tokens`` (exact, one shuffle of
    (token, n) partials): this never shuffles token rows at all —
    at 10^12 rows the exact path moves ~vocab × batches partial rows
    through a groupby, while this moves ~batches sketch rows."""
    from ..state.sketches import MisraGries, hash64

    def partials(batch: pa.Table) -> pa.Table:
        keys_out, bkts, mgs = [], [], []
        for key_val, rows in _group_indices(batch, key):
            sub = batch if rows is None else batch.take(pa.array(rows))
            b = _mg_fold(sub[column], m, tokenize)
            # route by content hash so partials spread across the merge
            # buckets (a constant would funnel every partial to one
            # worker)
            keys_out.append(key_val)
            bkts.append(int(hash64(pa.array([b], pa.binary()))[0] % num_buckets))
            mgs.append(b)
        return pa.table(
            {
                "part_key": pa.array(keys_out, pa.string()),
                "bucket": pa.array(bkts, pa.int64()),
                "mg": pa.array(mgs, pa.binary()),
            }
        )

    def merge(group: pa.Table) -> pa.Table:
        sk = MisraGries(m=m)
        for b in group["mg"].to_pylist():
            sk.merge(MisraGries.from_bytes(b))
        return pa.table(
            {
                "part_key": pa.array([group["part_key"][0].as_py()], pa.string()),
                "bucket": pa.array([group["bucket"][0].as_py()], pa.int64()),
                "mg": pa.array([sk.to_bytes()], pa.binary()),
            }
        )

    level1 = (
        ds.map_batches(partials, batch_format="pyarrow", batch_size=batch_size)
        .groupby(["part_key", "bucket"])
        .map_groups(merge, batch_format="pyarrow")
    )
    if as_dataset:
        # fine-key path (e.g. 10^6 hosts): the driver never holds all
        # summaries — one more groupby folds each key's ≤ num_buckets
        # rows into its final sketch, returned as a (part_key, mg)
        # Dataset (land/consume downstream)
        def merge_key(group: pa.Table) -> pa.Table:
            sk = MisraGries(m=m)
            for b in group["mg"].to_pylist():
                sk.merge(MisraGries.from_bytes(b))
            return pa.table(
                {
                    "part_key": pa.array(
                        [group["part_key"][0].as_py()], pa.string()
                    ),
                    "mg": pa.array([sk.to_bytes()], pa.binary()),
                }
            )

        return level1.groupby("part_key").map_groups(
            merge_key, batch_format="pyarrow"
        )
    pdf = level1.to_pandas()
    merged: dict = {}
    for part_key, b in zip(pdf["part_key"], pdf["mg"]):
        sk = merged.setdefault(part_key, MisraGries(m=m))
        sk.merge(MisraGries.from_bytes(b))
    if key is None:
        return merged.get(GLOBAL_KEY, MisraGries(m=m))
    return merged


def add_salt(batch: pa.Table, key: str, n_salt: int, row_col: str) -> pa.Table:
    """Salt a skewed key: salted_key = key + '#' + (hash(row_col) % n_salt).

    ``row_col`` must be a per-row-unique column (e.g. ``url``) so rows of
    ONE hot key spread across n_salt sub-keys. Two-level merge: groupby
    the salted key first, then strip the salt and merge again. Sketch
    merges being associative makes this safe (SURVEY.md §7.5.4)."""
    h = hash64(batch[row_col])
    salt = (h % np.uint64(n_salt)).astype(np.int64)
    keys = batch[key].to_pylist()
    salted = pa.array([f"{k}#{s}" for k, s in zip(keys, salt)], pa.string())
    return batch.append_column("salted_key", salted)


def strip_salt(table: pa.Table, col: str = "part_key") -> pa.Table:
    """Remove the '#<salt>' suffix so a second-level merge can run."""
    import pyarrow.compute as pc

    stripped = pc.replace_substring_regex(table[col], "#[0-9]+$", "")
    return table.set_column(table.schema.get_field_index(col), col, stripped)


def bloom_build_column(
    ds, column: str, m_bits: int = 1 << 23, k: int = 7
):
    """Build a BloomFilter over one column in ONE scan — per-block
    accumulate + word-wise OR merge via the Dataset.aggregate tree
    (only m_bits/8-byte bitsets cross the reduce, never rows).

    SCALE CAVEAT (r5): ``Dataset.aggregate`` is an all-to-all barrier
    that holds every input block, so the projected INPUT column must
    fit the object store. Fine here — callers feed slim hash columns
    (a 10^9-row hex-hash index ≈ the store). Do NOT copy this shape
    for full-text scans: use the streaming map_batches partial fold
    (`cm_build_tokens` / `dsir.gram_bucket_counts`) there. Partial
    bitsets are too large to stream to the driver per batch (32 MB ×
    thousands of batches), which is why this stays on the aggregate
    tree. The cheap membership pre-filter for
    cross-batch dedup probes: bloom MISSES skip the exact index scan
    entirely; HITS (~true members + fp_rate) go on to the exact
    check, so end-to-end semantics stay exact."""
    from ray.data.aggregate import AggregateFn

    from ..state.sketches import BloomFilter

    def acc(bf, block):
        if not isinstance(block, pa.Table):
            block = pa.table(block)
        return bf.add_array(block[column])

    agg = AggregateFn(
        init=lambda _: BloomFilter(m_bits, k),
        accumulate_block=acc,
        merge=lambda a, b: a.merge(b),
        name="bloom",
    )
    return ds.select_columns([column]).aggregate(agg)["bloom"]


def bloom_probe_column(ds, column: str, bloom):
    """One scan adding a ``bloom_hit`` boolean per row (broadcast the
    bitset once with ray.put; each task reads it zero-copy)."""
    import ray

    ref = ray.put(bloom)

    def probe(t: pa.Table) -> pa.Table:
        bf = ray.get(ref)
        return t.append_column(
            "bloom_hit", pa.array(bf.contains_array(t[column]))
        )

    return ds.map_batches(probe, batch_format="pyarrow")


def _cm_fold(col, width: int, depth: int) -> bytes:
    """One batch's Count-Min partial (serialized) over ``col``'s
    ``textstage.tokens``."""
    from ..state.sketches import CountMin

    return CountMin(width, depth).add_array(tokens(col)[0]).to_bytes()


def cm_build_tokens(
    ds, text_col: str = "text", width: int = 1 << 15, depth: int = 4
):
    """Count-Min over a corpus's whitespace tokens in ONE STREAMING
    scan: each batch emits its counter array as one tagged-codec
    binary row (``CountMin.to_bytes`` — depth×width int64 counters,
    ~1 MB at the defaults, never token instances) and the driver
    counter-sums partials as they arrive.

    NOT ``Dataset.aggregate`` (the r5 200M-doc lesson, see
    dsir.gram_bucket_counts): Ray's Aggregate is an all-to-all
    BARRIER that holds every input block, so over a text corpus the
    whole corpus lands in the object store before the first
    accumulate. The map_batches partial fold keeps the text scan
    streaming with backpressure; the driver's fold is a memcpy-speed
    counter add per batch. The tagged codec (not pickle) also avoids
    the per-merge ArrowConversionError noise the object form caused.
    The any-item frequency probe next to Misra-Gries' heavy-hitter
    summary."""
    from ..state.sketches import CountMin

    def partial(t: pa.Table) -> pa.Table:
        cm = _cm_fold(t[text_col], width, depth)
        return pa.table({"cm": pa.array([cm], pa.binary())})

    out = CountMin(width, depth)
    stream = ds.select_columns([text_col]).map_batches(
        partial, batch_format="pyarrow"
    )
    for b in stream.iter_batches(batch_format="pyarrow"):
        for blob in b["cm"]:
            out.merge(CountMin.from_bytes(blob.as_py()))
    return out

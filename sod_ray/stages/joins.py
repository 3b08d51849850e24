"""Temporal / range join operators the Dataset API lacks, composed
from Ray Data primitives (the brief's custom-operator tier: as-of
join, range join — the reference has no relational joins at all, see
SURVEY.md §2.5 G6, so these extend the engine's join surface for
training-data pipelines).

Partitioning assumptions (documented per the brief):

- ``asof_join``: both sides are hash-partitioned by ``by`` via one
  ``groupby`` shuffle over a TAGGED UNION of the two inputs (one
  shuffle, not two); one key's rows from both sides must fit in one
  worker — same per-entity contract as the reference's window store
  (/root/reference/internal/dispatcher/manager.go:222-235). For a
  skewed ``by`` key, pre-salt by a coarse time bucket (each salt
  bucket needs only the previous bucket's last right-row, so the
  salted variant stays exact — not implemented until a fixture needs
  it).
- ``range_join_broadcast``: the ranges side is SMALL (≤ ~10^5 rows)
  and is shipped once via ``ray.put``; each batch task probes it
  vectorized. Overlapping ranges produce one output row per match
  (SQL inequality-join semantics).
- ``bucketed_equi_join``: both sides may be LARGE; each side's blocks
  split into B hash buckets that flow worker-to-worker (never the
  driver); one bucket's rows from BOTH sides must fit in one worker —
  a single hot key needs a pre-salt (asof_join_salted pattern). It is
  the engine's only hash-join backend: the TPC-H ``q3_join``, the
  near-dup hot-key prune and pair verify, and the referential
  anti-join (``constraints.bucketed_anti_join``) all run on it; no
  call site uses Ray's native ``Dataset.join``.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from .blocks import arrow_block_refs_with_rows, dataset_from_refs, fan_out


def asof_join(
    left,
    right,
    on: str,
    by: str,
    right_cols: list[str],
    suffix: str = "_right",
    direction: str = "backward",
    allow_exact_matches: bool = True,
    num_buckets: int | None = None,
):
    """As-of join: for each left row, the single right row with the
    largest ``on`` ≤ left's ``on`` (direction="backward"; "forward" =
    smallest ≥), matching on ``by``. LEFT-join semantics: unmatched
    left rows keep nulls in the right columns.

    Implementation: tag each side, align schemas (missing columns are
    null), union with a ``hash64(by)`` routing column → ONE raw-task
    hash exchange (``stages.exchange.exchange_reduce``) → per-bucket
    vectorized merge: dictionary-encode ``by`` (collision-exact — real
    values compared, the hash only routes), ONE lexsort over
    (key, on, side), then a running-maximum backward fill of right-row
    positions resolves every left row's match in O(bucket) numpy work —
    no per-key Python callable (the r2/r3 ``map_groups``-per-key shape
    measured one Python call per entity; at 10^8 ``by`` keys that was
    the dominant cost, see tools/shuffle_backend_bench.py 47×).
    Partitioning contract: one BUCKET (≈ total/num_buckets, hot keys
    included whole) must fit in one worker's heap.

    Null handling: null ``by`` on either side never matches (SQL
    semantics); null ``on`` is undefined (pandas merge_asof rejects it
    too). Tie-break parity with ``pd.merge_asof``: among right rows
    with equal ``on``, backward picks the last, forward the first.

    Returns a Dataset with the left columns plus ``right_cols``
    (renamed with ``suffix`` when they collide with left names).
    """
    from ..state.sketches import hash64
    from .exchange import exchange_reduce

    left_schema = left.schema()
    left_names = list(left_schema.names)
    right_keep = [by, on] + [c for c in right_cols if c not in (by, on)]
    right_slim = right.select_columns(right_keep)
    right_schema = right_slim.schema()

    out_names = {
        c: (c + suffix if c in left_names else c)
        for c in right_cols
        if c not in (by,)
    }
    rtypes = {
        n: t for n, t in zip(right_schema.names, right_schema.types)
    }
    ltypes = {n: t for n, t in zip(left_schema.names, left_schema.types)}

    def _kh(col) -> pa.Array:
        if isinstance(col, pa.ChunkedArray):
            col = col.combine_chunks()
        return pa.array(hash64(col).view(np.int64), pa.int64())

    def tag_left(t: pa.Table) -> pa.Table:
        cols = {c: t[c] for c in left_names}
        for c in right_cols:
            if c == by:
                continue
            cols["__r_" + c] = pa.nulls(len(t), rtypes[c])
        cols["__side"] = pa.array(np.ones(len(t), dtype=np.int8))
        cols["__kh"] = _kh(t[by])
        return pa.table(cols)

    def tag_right(t: pa.Table) -> pa.Table:
        cols = {}
        for c in left_names:
            if c == by:
                cols[c] = t[by]
            elif c == on:
                cols[c] = t[on]
            else:
                cols[c] = pa.nulls(len(t), ltypes[c])
        for c in right_cols:
            if c == by:
                continue
            cols["__r_" + c] = t[c]
        cols["__side"] = pa.array(np.zeros(len(t), dtype=np.int8))
        cols["__kh"] = _kh(t[by])
        return pa.table(cols)

    tagged = left.map_batches(tag_left, batch_format="pyarrow").union(
        right_slim.map_batches(tag_right, batch_format="pyarrow")
    )

    merge_bucket = _asof_kernel(
        by, on, left_names, right_cols, out_names, ltypes, rtypes,
        forward=direction == "forward",
        allow_exact_matches=allow_exact_matches,
    )
    return exchange_reduce(tagged, "__kh", merge_bucket, num_buckets)


def _asof_kernel(
    by: str,
    on: str,
    left_names: list[str],
    right_cols: list[str],
    out_names: dict,
    ltypes: dict,
    rtypes: dict,
    forward: bool,
    allow_exact_matches: bool,
):
    """The per-bucket vectorized as-of merge shared by ``asof_join``
    and ``asof_join_salted``: dictionary-encode ``by``, one lexsort
    over (key, on, side), running-maximum backward fill. See
    ``asof_join``'s docstring for semantics."""
    empty = pa.schema(
        [pa.field(c, ltypes[c]) for c in left_names]
        + [pa.field(out_names[c], rtypes[c]) for c in right_cols if c != by]
    ).empty_table()

    def merge_bucket(t: pa.Table) -> pa.Table:
        if t.num_rows == 0 or "__side" not in t.column_names:
            return empty
        n = t.num_rows
        side = t["__side"].combine_chunks().to_numpy(zero_copy_only=False)
        enc = t[by].combine_chunks().dictionary_encode()
        codes = pc.fill_null(enc.indices, -1).to_numpy(
            zero_copy_only=False
        ).astype(np.int64)
        onc = t[on].combine_chunks()
        if pa.types.is_floating(onc.type):
            onv = onc.to_numpy(zero_copy_only=False)
        else:
            onv = onc.cast(pa.int64()).to_numpy(zero_copy_only=False)
        if forward:
            onv = -onv  # forward asof == backward over negated time
        # at equal `on`: exact matches in-window → right before left
        ordk = side if allow_exact_matches else (1 - side)
        # equal-`on` right-row tie-break parity with merge_asof:
        # backward picks the LAST right row, forward the FIRST
        tie = -np.arange(n) if forward else np.arange(n)
        order = np.lexsort((tie, ordk, onv, codes))
        codes_s = codes[order]
        is_right_s = side[order] == 0
        gstart = np.empty(n, dtype=bool)
        gstart[0] = True
        gstart[1:] = codes_s[1:] != codes_s[:-1]
        group_start = np.maximum.accumulate(
            np.where(gstart, np.arange(n), 0)
        )
        # backward fill: for each row, the latest right-row position at
        # or before it; invalidated when it precedes the row's group
        r_idx = np.where(is_right_s & (codes_s >= 0), np.arange(n), -1)
        cm = np.maximum.accumulate(r_idx)
        match = np.where(cm >= group_start, cm, -1)
        left_pos = np.flatnonzero(~is_right_s)
        lmatch = match[left_pos]
        st = t.take(pa.array(order))
        lt = st.take(pa.array(left_pos))
        ridx = pa.array(
            np.where(lmatch < 0, 0, lmatch), pa.int64(), mask=lmatch < 0
        )
        cols = {c: lt[c] for c in left_names}
        for c in right_cols:
            if c == by:
                continue
            cols[out_names[c]] = pc.take(
                st["__r_" + c].combine_chunks(), ridx
            )
        return pa.table(cols)

    return merge_bucket


def asof_join_salted(
    left,
    right,
    on: str,
    by: str,
    right_cols: list[str],
    bucket_us: int,
    suffix: str = "_right",
    allow_exact_matches: bool = True,
):
    """Hot-key-parallel as-of join (backward direction): the exchange
    routing key is ``hash64(by)`` MIXED with a coarse time bucket
    (``floor(on / bucket_us)``) so one hot ``by`` key spreads across
    many reduce buckets instead of loading a single worker's heap.

    EXACT despite the salt: a left row in bucket t can only match
    right rows inside bucket t or the single latest right row from any
    earlier bucket — the "carry" row. Carries are computed from the
    per-(by, bucket) latest-right summary (vectorized exchange kernel,
    one tiny row per group), resolved on the driver with ONE
    ``merge_asof`` over the summary frames, and injected into the
    union as extra right-tagged rows routed to their target bucket —
    the shared ``_asof_kernel`` then needs no special cases (a carry
    duplicating an in-bucket right row ties on (by, on) with identical
    payload, so the fill's pick is value-identical either way).
    Driver-side state is #(by, bucket) summary rows — pick a coarser
    bucket for extreme key×bucket cardinality.

    Semantics and output match ``asof_join(direction="backward")``."""
    import ray

    from ..state.sketches import hash64
    from .exchange import exchange_reduce

    left_schema = left.schema()
    left_names = list(left_schema.names)
    right_keep = [by, on] + [c for c in right_cols if c not in (by, on)]
    right_slim = right.select_columns(right_keep)
    right_schema = right_slim.schema()
    rtypes = {n: t for n, t in zip(right_schema.names, right_schema.types)}
    ltypes = {n: t for n, t in zip(left_schema.names, left_schema.types)}
    out_names = {
        c: (c + suffix if c in left_names else c)
        for c in right_cols
        if c not in (by,)
    }
    r_payload = ["__r_" + c for c in right_cols if c != by]
    _MIX = np.uint64(0x9E3779B97F4A7C15)

    def _on_i64(col) -> np.ndarray:
        if isinstance(col, pa.ChunkedArray):
            col = col.combine_chunks()
        return col.cast(pa.int64()).to_numpy(zero_copy_only=False)

    def _salted_kh(by_col, bkt: np.ndarray) -> pa.Array:
        if isinstance(by_col, pa.ChunkedArray):
            by_col = by_col.combine_chunks()
        kh = hash64(by_col) ^ (bkt.astype(np.uint64) * _MIX)
        return pa.array(kh.view(np.int64), pa.int64())

    def tag_left(t: pa.Table) -> pa.Table:
        cols = {c: t[c] for c in left_names}
        for c in right_cols:
            if c == by:
                continue
            cols["__r_" + c] = pa.nulls(len(t), rtypes[c])
        cols["__side"] = pa.array(np.ones(len(t), dtype=np.int8))
        cols["__kh"] = _salted_kh(t[by], _on_i64(t[on]) // bucket_us)
        return pa.table(cols)

    def tag_right(t: pa.Table) -> pa.Table:
        cols = {}
        for c in left_names:
            if c == by:
                cols[c] = t[by]
            elif c == on:
                cols[c] = t[on]
            else:
                cols[c] = pa.nulls(len(t), ltypes[c])
        for c in right_cols:
            if c == by:
                continue
            cols["__r_" + c] = t[c]
        cols["__side"] = pa.array(np.zeros(len(t), dtype=np.int8))
        cols["__kh"] = _salted_kh(t[by], _on_i64(t[on]) // bucket_us)
        return pa.table(cols)

    # --- per-(by, bucket) latest right row: vectorized exchange ---
    summ_schema = pa.schema(
        [pa.field(by, ltypes[by]), pa.field(on, ltypes[on]),
         pa.field("__bucket", pa.int64())]
        + [pa.field("__r_" + c, rtypes[c]) for c in right_cols if c != by]
    )

    def summ_rows(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                by: t[by],
                on: t[on],
                "__bucket": pa.array(_on_i64(t[on]) // bucket_us),
                **{"__r_" + c: t[c] for c in right_cols if c != by},
                "__kh": pa.array(
                    hash64(t[by].combine_chunks()).view(np.int64), pa.int64()
                ),
            }
        )

    def latest_kernel(t: pa.Table) -> pa.Table:
        if t.num_rows == 0 or by not in t.column_names:
            return summ_schema.empty_table()
        n = t.num_rows
        codes = pc.fill_null(
            t[by].combine_chunks().dictionary_encode().indices, -1
        ).to_numpy(zero_copy_only=False).astype(np.int64)
        bkt = t["__bucket"].combine_chunks().to_numpy(zero_copy_only=False)
        order = np.lexsort((np.arange(n), _on_i64(t[on]), bkt, codes))
        cs, bs = codes[order], bkt[order]
        last = np.empty(n, dtype=bool)
        last[-1] = True
        last[:-1] = (cs[1:] != cs[:-1]) | (bs[1:] != bs[:-1])
        return t.take(pa.array(order[last])).select(summ_schema.names)

    summaries = exchange_reduce(
        right_slim.map_batches(summ_rows, batch_format="pyarrow"),
        "__kh",
        latest_kernel,
    ).to_pandas()

    # --- distinct left (by, bucket) pairs: vectorized exchange ---
    def left_pairs_rows(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                by: t[by],
                "__bucket": pa.array(_on_i64(t[on]) // bucket_us),
                "__kh": pa.array(
                    hash64(t[by].combine_chunks()).view(np.int64), pa.int64()
                ),
            }
        )

    def distinct_kernel(t: pa.Table) -> pa.Table:
        e = pa.schema(
            [pa.field(by, ltypes[by]), pa.field("__bucket", pa.int64())]
        ).empty_table()
        if t.num_rows == 0 or by not in t.column_names:
            return e
        n = t.num_rows
        codes = pc.fill_null(
            t[by].combine_chunks().dictionary_encode().indices, -1
        ).to_numpy(zero_copy_only=False).astype(np.int64)
        bkt = t["__bucket"].combine_chunks().to_numpy(zero_copy_only=False)
        order = np.lexsort((bkt, codes))
        cs, bs = codes[order], bkt[order]
        first = np.empty(n, dtype=bool)
        first[0] = True
        first[1:] = (cs[1:] != cs[:-1]) | (bs[1:] != bs[:-1])
        return t.take(pa.array(order[first])).select([by, "__bucket"])

    left_pairs = exchange_reduce(
        left.select_columns([by, on]).map_batches(
            left_pairs_rows, batch_format="pyarrow"
        ),
        "__kh",
        distinct_kernel,
    ).to_pandas()

    # --- carries: for each left (by, bucket=t), the latest summary
    # with bucket < t (ONE driver-side merge_asof over tiny frames) ---
    carry_tables = []
    if len(summaries) and len(left_pairs):
        summaries = summaries.sort_values("__bucket", kind="stable")
        left_pairs = left_pairs.sort_values("__bucket", kind="stable")
        carries = pd.merge_asof(
            left_pairs,
            summaries,
            on="__bucket",
            by=by,
            direction="backward",
            allow_exact_matches=False,
        ).dropna(subset=[on])
        if len(carries):
            n = len(carries)
            cols = {}
            for c in left_names:
                if c == by:
                    cols[c] = pa.array(carries[by]).cast(ltypes[by])
                elif c == on:
                    cols[c] = pa.array(carries[on]).cast(ltypes[on])
                else:
                    cols[c] = pa.nulls(n, ltypes[c])
            for c in right_cols:
                if c == by:
                    continue
                cols["__r_" + c] = pa.array(carries["__r_" + c]).cast(
                    rtypes[c]
                )
            cols["__side"] = pa.array(np.zeros(n, dtype=np.int8))
            # route to the TARGET (left) bucket, not the carry's own
            cols["__kh"] = _salted_kh(
                cols[by], carries["__bucket"].to_numpy().astype(np.int64)
            )
            carry_tables.append(pa.table(cols))

    tagged = left.map_batches(tag_left, batch_format="pyarrow").union(
        right_slim.map_batches(tag_right, batch_format="pyarrow")
    )
    if carry_tables:
        carry = dataset_from_refs([ray.put(carry_tables[0])])
        tagged = tagged.union(carry)

    merge_bucket = _asof_kernel(
        by, on, left_names, right_cols, out_names, ltypes, rtypes,
        forward=False, allow_exact_matches=allow_exact_matches,
    )
    return exchange_reduce(tagged, "__kh", merge_bucket)


def range_join_broadcast(ds, ranges: pd.DataFrame, value_col: str, lo_col: str = "lo", hi_col: str = "hi"):
    """Inequality (range) join of a big Dataset against a SMALL ranges
    table: output one row per (row, range) pair with
    ``lo <= value < hi``. The ranges frame is broadcast once via
    ``ray.put`` (never re-shipped per batch); each batch probes all
    ranges vectorized — O(n_rows × n_ranges) masks, fine for the
    small-side contract. Range attribute columns are appended to each
    matched row."""
    import ray

    # columnize ONCE driver-side so the broadcast payload is probe-ready
    # (numpy bounds + an arrow attrs table — both zero-copy reads from
    # the local object store); tasks then probe with no per-task prep
    # and no actor-pool startup
    r = ranges.reset_index(drop=True)
    attrs_tbl = pa.Table.from_pandas(r.drop(columns=[lo_col, hi_col]), preserve_index=False)
    ranges_ref = ray.put((r[lo_col].to_numpy(), r[hi_col].to_numpy(), attrs_tbl))

    def range_probe(t: pa.Table) -> pa.Table:
        lo, hi, attrs = ray.get(ranges_ref)
        v = t[value_col].to_numpy(zero_copy_only=False)
        row_idx = []
        rng_idx = []
        for j in range(len(lo)):
            hit = np.flatnonzero((v >= lo[j]) & (v < hi[j]))
            if hit.size:
                row_idx.append(hit)
                rng_idx.append(np.full(hit.size, j, dtype=np.int64))
        if not row_idx:
            base = t.slice(0, 0)
            for name in attrs.column_names:
                base = base.append_column(
                    name, pa.array([], attrs.schema.field(name).type)
                )
            return base
        rows = np.concatenate(row_idx)
        rngs = np.concatenate(rng_idx)
        out = t.take(pa.array(rows))
        take_idx = pa.array(rngs)
        for name in attrs.column_names:
            out = out.append_column(name, attrs[name].take(take_idx))
        return out

    return ds.map_batches(range_probe, batch_format="pyarrow")


def _arrow_schema(ds) -> pa.Schema:
    # pandas-block upstreams (e.g. map_groups) report a
    # PandasBlockSchema; normalize so empty-piece schemas are Arrow
    base = ds.schema().base_schema
    if isinstance(base, pa.Schema):
        return base
    return ds.map_batches(
        lambda t: t, batch_format="pyarrow"
    ).schema().base_schema


def _join_bucket_of(t: pa.Table, key: str, P: int) -> np.ndarray:
    """Bucket of every row: hash64(key as string) % P, with NULL keys
    routed by a sentinel (they never match, wherever they land)."""
    from ..state.sketches import hash64

    keys = t[key]
    if isinstance(keys, pa.ChunkedArray):
        keys = keys.combine_chunks()
    return (
        hash64(pc.fill_null(keys.cast(pa.string()), "\x00__null__"))
        % np.uint64(P)
    ).astype(np.int64)


def _table_join(left: pa.Table, right: pa.Table, key: str, join_type: str):
    """One bucket's Arrow hash join. Acero rejects nested payload
    columns (list, struct, tensor); then only (key, row index) go
    through the join and the rows are taken afterwards, so every
    column keeps its type and the left columns come first either way."""
    try:
        return left.join(right, keys=key, join_type=join_type)
    except pa.ArrowInvalid:
        pass
    li = pa.table({key: left[key], "__l": pa.array(np.arange(left.num_rows))})
    ri = pa.table({key: right[key], "__r": pa.array(np.arange(right.num_rows))})
    j = li.join(ri, keys=key, join_type=join_type)
    out = left.take(j["__l"])
    if "__r" in j.column_names:  # inner / left outer: append right payload
        rest = right.drop_columns([key]).take(j["__r"])
        for name in rest.column_names:
            out = out.append_column(rest.schema.field(name), rest[name])
    return out


def bucketed_equi_join(
    left_ds,
    right_ds,
    key: str,
    num_buckets: int | None = None,
    join_type: str = "inner",
    spill=None,
):
    """Both-sides-large hash equi-join: EXPLICIT hash-bucket exchange
    with raw Ray tasks — the engine's one hash-join backend. Ray's
    native ``Dataset.join`` (alpha hash-shuffle) lost the A/B on 2.49
    (r5): lineitem⋈orders at sf0.1 ran 0.71 s here vs 3.4-3.6 s native
    (4.8×), and it waits for ``num_partitions`` aggregator actors to
    start, which hangs once the host's CPUs or memory cannot hold them
    (16 never started on a 15 GB host). The union+groupby
    formulation funnels both sides through a global sort shuffle that
    stalls when the object store is smaller than the shuffle data.

    Each side's blocks split into B pieces by hash(key) % B
    (``num_returns`` fan-out — pieces flow worker-to-worker, never the
    driver); one task per bucket concatenates its pieces and runs a
    local Arrow hash join (actual values compared — collision-proof).
    ``join_type``: "inner", "left outer" or "left anti". NULL keys
    never match (SQL semantics), so a left anti join keeps them.
    Payload columns Acero cannot carry (list, struct, tensor) pass
    through with their types. One bucket's rows from both sides must
    fit in one worker — hot keys need a pre-salt, same contract as
    ``asof_join``.
    ``num_buckets=None`` sizes the fan-out to the data (64, capped at
    one bucket per ~64k rows of the larger side — free from RefBundle
    metadata), so a 2k-row join runs one task instead of 64.

    ``spill`` (an ``exchange.Spill``): for joins whose working set
    (both sides + their in-plasma splits, ~2x each) rivals the object
    store — a 60M-doc near-dup verify spilled past the raylet disk
    monitor through the in-plasma exchange. Each side streams once
    into parquet partitioned by the same bucket routing, one task per
    bucket joins its two bucket dirs read from disk, and both landings
    are freed once those tasks finish. ``num_buckets=None`` sizes the
    fan-out at ~1.5M rows of the larger side per task (one ``count``
    of each side). ``spill.phases`` does not apply to joins.
    """
    import ray

    if spill is not None:
        import os

        import pyarrow.parquet as pq

        from .exchange import _reduce_cpus

        left_schema = _arrow_schema(left_ds)
        right_schema = _arrow_schema(right_ds)

        if num_buckets is None:
            try:
                big = max(left_ds.count(), right_ds.count())
            except Exception:
                big = None
            P = max(8, -(-big // 1_500_000)) if big else 32
        else:
            P = num_buckets

        def add_bkt(t: pa.Table) -> pa.Table:
            if t.num_rows == 0 or key not in t.column_names:
                return t
            return t.append_column(
                "__bkt", pa.array(_join_bucket_of(t, key, P), pa.int64())
            )

        lpath, rpath = (
            spill.write(
                side.map_batches(add_bkt, batch_format="pyarrow"),
                name,
                partition_cols=["__bkt"],
            )
            for side, name in ((left_ds, "join_l"), (right_ds, "join_r"))
        )

        @ray.remote(num_cpus=_reduce_cpus())
        def join_dir(p: int) -> pa.Table:
            def read(path, schema):
                d = os.path.join(path, f"__bkt={p}")
                if not os.path.isdir(d):
                    return schema.empty_table()
                t = pq.read_table(d)
                if "__bkt" in t.column_names:
                    t = t.drop_columns(["__bkt"])
                # parquet round-trip can relax/narrow nullability or drop
                # fields absent in some files; realign to the side's schema
                return t.select(schema.names).cast(schema)

            lt = read(lpath, left_schema)
            rt = read(rpath, right_schema)
            return _table_join(lt, rt, key, join_type)

        outs = [join_dir.remote(p) for p in range(P)]
        spill.free_after(outs, "join_l", "join_r")
        return dataset_from_refs(outs)

    # the schemas ride the RefBundles; ``ds.schema()`` would run each
    # lazy side once more as a separate limit-1 plan
    left_refs, left_rows, left_schema = arrow_block_refs_with_rows(left_ds)
    right_refs, right_rows, right_schema = arrow_block_refs_with_rows(right_ds)
    left_schema = left_schema or _arrow_schema(left_ds)
    right_schema = right_schema or _arrow_schema(right_ds)
    if num_buckets is None:
        known = left_rows is not None and right_rows is not None
        P = fan_out(max(left_rows, right_rows) if known else None, 64)
    else:
        P = num_buckets

    def _split(t, schema: pa.Schema):
        if isinstance(t, pd.DataFrame):  # defensive: arrow_block_refs converts these
            t = pa.Table.from_pandas(t, preserve_index=False)
        if key not in t.column_names:  # schema-less empty block upstream
            empty = schema.empty_table()
            return tuple(empty for _ in range(P))
        h = _join_bucket_of(t, key, P)
        order = np.argsort(h, kind="stable")
        bounds = np.searchsorted(h[order], np.arange(P + 1))
        return tuple(
            t.take(pa.array(order[bounds[p] : bounds[p + 1]]))
            for p in range(P)
        )

    @ray.remote
    def split_left(t: pa.Table):
        return _split(t, left_schema)

    @ray.remote
    def split_right(t: pa.Table):
        return _split(t, right_schema)

    @ray.remote
    def join_bucket(n_left: int, *pieces) -> pa.Table:
        lp = [p for p in pieces[:n_left] if p.num_rows]
        rp = [p for p in pieces[n_left:] if p.num_rows]
        left = pa.concat_tables(lp) if lp else left_schema.empty_table()
        right = pa.concat_tables(rp) if rp else right_schema.empty_table()
        return _table_join(left, right, key, join_type)

    if P == 1:
        # one bucket == everything: join the raw blocks in one task
        return dataset_from_refs(
            [join_bucket.remote(len(left_refs), *left_refs, *right_refs)]
        )
    left_splits = [
        split_left.options(num_returns=P).remote(r) for r in left_refs
    ]
    right_splits = [
        split_right.options(num_returns=P).remote(r) for r in right_refs
    ]
    buckets = [
        join_bucket.remote(
            len(left_splits),
            *[s[p] for s in left_splits],
            *[s[p] for s in right_splits],
        )
        for p in range(P)
    ]
    return dataset_from_refs(buckets)


"""Windowed outlier scoring per partition — the reference's COLLECT
pipeline (SURVEY.md §3.1) over per-entity streams (sod's EntityID →
``lang`` / ``user_id``). Inside a key: sort by timestamp (the reference
sorts every ingest batch by CreatedAt — collect/handler.go:75-77), then
replay either

- the rolling z-score peak detector (the generalized scorer, G4), or
- the bug-for-bug LOF window scorer (sod_ray.functions.lof, G2)
  with warmup / verdict-gated append / retention semantics.

Two layouts. ``windowed_zscore`` and ``windowed_lof`` feed each key's
whole group to one ``groupby(key).map_groups`` task, so one key's full
history must fit in one worker's memory. The sorted scorers
(``windowed_zscore_sorted``, ``windowed_rolling_sorted`` and
``windowed_lof_chunked``) instead sort on (key, ts, *ids) with the
raw-task range sort (``exchange.range_sort``, not ``Dataset.sort``):
a hot key spans several ranges, and a range needs only the last
``window-1`` rows before it (z-score, rolling mean) or the LOF window
state handed down a chain of tasks.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import ray

from ..functions.lof import score_stream
from ..functions.zscore import rolling_zscore


def windowed_zscore(
    ds,
    key: str,
    ts_col: str,
    value_col: str,
    id_cols: list[str] | None = None,
    window: int = 64,
    min_periods: int = 8,
    threshold: float = 3.0,
    flagged_only: bool = True,
):
    """Per-key trailing-window z-score; returns rows with ``z`` and
    ``is_peak`` columns (flagged rows only by default — the violation
    sidecar shape)."""
    keep = [key, ts_col, value_col] + [
        c for c in (id_cols or []) if c not in (key, ts_col, value_col)
    ]
    slim = ds.select_columns(keep)  # project BEFORE the shuffle

    def per_group(g: pd.DataFrame) -> pd.DataFrame:
        sort_cols = [ts_col] + ([c for c in (id_cols or []) if c in g.columns])
        g = g.sort_values(sort_cols, kind="stable").reset_index(drop=True)
        z = rolling_zscore(g[value_col].to_numpy(), window, min_periods)
        g["z"] = z
        with np.errstate(invalid="ignore"):
            g["is_peak"] = np.abs(z) > threshold
        if flagged_only:
            g = g[g["is_peak"]]
        return g

    return slim.groupby(key).map_groups(per_group, batch_format="pandas")


def windowed_lof(
    ds,
    key: str,
    ts_col: str,
    feature_cols: list[str],
    id_cols: list[str] | None = None,
    k: int = 3,
    metric: str = "euclidean",
    skip_items: int = 0,
    max_items: int = 0,
    max_storage_time_us: int = 0,
    allow_append_outlier: bool = True,
    allow_append_data: bool = True,
    flagged_only: bool = True,
):
    """Per-key streaming LOF replay (sod COLLECT semantics) over derived
    feature vectors. Emits lof score / outlier flag / error per row."""
    keep = [key, ts_col] + feature_cols + [
        c for c in (id_cols or []) if c not in (key, ts_col) and c not in feature_cols
    ]
    slim = ds.select_columns(keep)

    def per_group(g: pd.DataFrame) -> pd.DataFrame:
        sort_cols = [ts_col] + [c for c in (id_cols or []) if c in g.columns]
        g = g.sort_values(sort_cols, kind="stable").reset_index(drop=True)
        vecs = g[feature_cols].to_numpy(dtype=np.float64)
        ts = g[ts_col].astype("int64").to_numpy()  # us since epoch
        verdicts = score_stream(
            list(vecs),
            ts,
            k=k,
            metric=metric,
            skip_items=skip_items,
            max_items=max_items,
            max_storage_time_us=max_storage_time_us,
            allow_append_outlier=allow_append_outlier,
            allow_append_data=allow_append_data,
        )
        g["lof"] = [v.lof for v in verdicts]
        g["outlier"] = [v.outlier for v in verdicts]
        g["verdict_error"] = [v.error or "" for v in verdicts]
        # K7 last-normal-vector cache (manager.go:395-407): each flagged
        # row carries the most recent inlier's feature vector (the
        # reference attaches the cached NormVec to the alert; its nil
        # quirk is documented in FIXTURES.md G2 — we emit the actual
        # last inlier vector).
        outlier_arr = np.asarray(g["outlier"], dtype=bool)
        scored = np.asarray([v.error is None for v in verdicts], dtype=bool)
        inlier = scored & ~outlier_arr
        idx = np.arange(len(g))
        last_inlier = np.maximum.accumulate(np.where(inlier, idx, -1))
        prev = np.concatenate(([-1], last_inlier[:-1]))
        g["norm_vec"] = [
            vecs[j].tolist() if j >= 0 else None for j in prev
        ]
        if flagged_only:
            g = g[g["outlier"]]
        return g

    return slim.groupby(key).map_groups(per_group, batch_format="pandas")


@ray.remote
def _score_range(score, key: str, window: int, block: pa.Table, i: int, *tails):
    """``score(table, ctx_len, i)`` on sorted range ``i`` behind its
    context: the last ``window-1`` rows of the preceding ranges' tails
    (several of them when ranges are shorter than the window) that
    share the range's first key. Keys are contiguous after the sort,
    so those rows are exactly the key's history the range needs; they
    are the table's first ``ctx_len`` rows."""
    ctx_len = 0
    tails = [t for t in tails if t.num_rows]
    if tails and block.num_rows:
        prev = pa.concat_tables(tails)
        prev = prev.slice(max(0, prev.num_rows - (window - 1)))
        ctx = prev.filter(pc.equal(prev[key], block[key][0]))
        ctx_len = ctx.num_rows
        if ctx_len:
            block = pa.concat_tables([ctx, block])
    return score(block, ctx_len, i)


def _sorted_windows(ds, key, ts_col, value_col, id_cols, window, score):
    """The sorted-overlap scan shared by the trailing-window scorers:
    ``exchange.range_sort`` on (key, ts, *ids), then one
    :func:`_score_range` task per range, all in parallel — a range's
    context depends only on the sort, so no range waits for another's
    score and a hot key spreads over as many ranges as its rows fill.
    Returns (projected columns, the per-range results in key order)."""
    from .exchange import range_sort

    ids = list(id_cols or [])
    cols = [key, ts_col, value_col] + [c for c in ids if c not in (key, ts_col, value_col)]
    sort_keys = [key, ts_col] + [c for c in ids if c not in (key, ts_col)]
    ranges = range_sort(ds, sort_keys, columns=cols, tail=window - 1)
    # a range reads only the row counts of the ranges before it
    counts = ray.get([n for _, _, n in ranges[:-1]])
    futures = []
    for i, (block, _, _) in enumerate(ranges):
        js, acc, j = [], 0, i - 1
        while j >= 0 and acc < window - 1:
            js.append(j)
            acc += counts[j]
            j -= 1
        ctx = [ranges[j][1] for j in reversed(js)]
        futures.append(_score_range.remote(score, key, window, block, i, *ctx))
    return cols, ray.get(futures)


def windowed_zscore_sorted(
    ds,
    key: str,
    ts_col: str,
    value_col: str,
    id_cols: list[str] | None = None,
    window: int = 64,
    min_periods: int = 8,
    threshold: float = 3.0,
    sink_dir: str | None = None,
    sink_key_prefix: str | None = None,
):
    """Hot-key-parallel windowed z-score: a raw-task range sort on
    (key, ts, *ids) and per-range scoring with (window-1)-row overlaps
    (:func:`_sorted_windows`) — EXACT and parallel WITHIN a key,
    unlike the reducer-per-key designs. This is the scorer for entity
    keys of ANY cardinality/skew; one hot key no longer serializes.
    Returns the flagged rows with ``z`` and ``is_peak`` as a pandas
    DataFrame.

    With sink_dir, each range task writes its flagged rows into the
    per-key violation dirs itself (``<prefix>=<key>/peaks-b<i>``, so a
    retried task overwrites its own file) and returns only counts
    (key, n_flagged)."""

    def score(t: pa.Table, ctx_len: int, i: int):
        g = t.to_pandas()
        if len(g) == 0:
            flagged = pd.DataFrame(columns=t.column_names + ["z", "is_peak"])
        else:
            parts = []
            values = g[value_col].to_numpy()
            keys_arr = g[key].to_numpy()
            # contiguous key runs (input already sorted)
            change = np.flatnonzero(keys_arr[1:] != keys_arr[:-1]) + 1
            starts = np.concatenate(([0], change))
            ends = np.concatenate((change, [len(g)]))
            for s, e in zip(starts, ends):
                z = rolling_zscore(values[s:e], window, min_periods)
                sub = g.iloc[s:e].copy()
                sub["z"] = z
                with np.errstate(invalid="ignore"):
                    sub["is_peak"] = np.abs(z) > threshold
                parts.append(sub)
            g = pd.concat(parts)
            g = g.iloc[ctx_len:]  # context rows belong to the previous range
            flagged = g[g["is_peak"]]
        if sink_dir is None:
            return flagged
        import os

        import pyarrow.parquet as pq

        prefix = sink_key_prefix or key
        counts = []
        for key_val, kg in flagged.groupby(key):
            pdir = os.path.join(sink_dir, f"{prefix}={key_val}")
            os.makedirs(pdir, exist_ok=True)
            kg = kg.copy()
            kg["violation"] = "peak"
            pq.write_table(
                pa.Table.from_pandas(kg, preserve_index=False),
                os.path.join(pdir, f"peaks-b{i}.parquet"),
            )
            counts.append({key: key_val, "n_flagged": len(kg)})
        return pd.DataFrame(counts, columns=[key, "n_flagged"])

    cols, results = _sorted_windows(ds, key, ts_col, value_col, id_cols, window, score)
    non_empty = [r for r in results if len(r)]
    if not non_empty:
        return pd.DataFrame(
            columns=[key, "n_flagged"] if sink_dir else cols + ["z", "is_peak"]
        )
    out = pd.concat(non_empty, ignore_index=True)
    if sink_dir is not None:
        out = out.groupby(key, as_index=False)["n_flagged"].sum()
    return out


def windowed_rolling_sorted(
    ds,
    key: str,
    ts_col: str,
    value_col: str,
    id_cols: list[str] | None = None,
    window: int = 8,
    out_col: str = "rolling_mean",
    round_to: int | None = None,
):
    """Trailing rolling MEAN per key over the (ts, ids) order — the
    sorted-overlap scan of ``windowed_zscore_sorted``
    (:func:`_sorted_windows`) applied to a plain windowed aggregate
    (SQL ``AVG(v) OVER (PARTITION BY key ORDER BY ts ROWS BETWEEN w-1
    PRECEDING AND CURRENT ROW)``).

    EXACT and parallel within a hot key. Emits EVERY row (unlike the
    flag-filtered z-score variant) with ``out_col`` appended. Returns a
    Dataset (from per-range pandas results)."""
    import ray.data as rd

    def score(t: pa.Table, ctx_len: int, i: int):
        g = t.to_pandas()
        if len(g) == 0:
            return g
        values = g[value_col].to_numpy(dtype=np.float64)
        keys_arr = g[key].to_numpy()
        change = np.flatnonzero(keys_arr[1:] != keys_arr[:-1]) + 1
        starts = np.concatenate(([0], change))
        ends = np.concatenate((change, [len(g)]))
        out = np.empty(len(g), dtype=np.float64)
        for s, e in zip(starts, ends):
            v = values[s:e]
            csum = np.concatenate(([0.0], np.cumsum(v)))
            n = len(v)
            idx = np.arange(1, n + 1)
            lo = np.maximum(0, idx - window)
            out[s:e] = (csum[idx] - csum[lo]) / (idx - lo)
        g[out_col] = np.round(out, round_to) if round_to is not None else out
        return g.iloc[ctx_len:]  # context rows belong to the previous range

    cols, results = _sorted_windows(ds, key, ts_col, value_col, id_cols, window, score)
    frames = [f for f in results if len(f)]
    if not frames:
        return rd.from_pandas(pd.DataFrame(columns=cols + [out_col]))
    return rd.from_pandas(pd.concat(frames, ignore_index=True))


def windowed_lof_chunked(
    ds,
    key: str,
    ts_col: str,
    feature_cols: list[str],
    id_cols: list[str] | None = None,
    k: int = 3,
    metric: str = "euclidean",
    alg: str = "brute",
    skip_items: int = 0,
    max_items: int = 0,
    max_storage_time_us: int = 0,
    allow_append_outlier: bool = True,
    allow_append_data: bool = True,
    flagged_only: bool = True,
):
    """Chunked streaming-LOF replay: identical verdicts to
    ``windowed_lof`` without ever holding one key's FULL history in a
    single task.

    ``windowed_lof`` feeds each key's whole sorted group to one
    ``map_groups`` task — correct, but a hot entity (lang=en at 62% of
    a web corpus) means one task holding 62% of the table. Here the
    table is range-sorted by (key, ts, ids) (``exchange.range_sort``);
    each key's rows span a consecutive run of ranges, and a CHAIN of
    tasks replays them chunk-by-chunk, handing off only the LofWindow
    state (≤ max_items rows + params — the matrices/tree caches are
    dropped before serialization and rebuilt lazily). Scoring a key is
    inherently sequential (sod semantics: every verdict depends on all prior
    appends), so the chain adds no wall-clock serialization that the
    semantics don't already require; chains of different keys run in
    parallel, and peak task memory drops from O(key history) to
    O(range + window), a range holding about one input block's rows
    (at least ``blocks.ROWS_PER_TASK``). Returns a pandas DataFrame
    like windowed_lof.
    """
    import pickle

    from ..functions.lof import LofWindow
    from .exchange import range_sort

    keep = [key, ts_col] + feature_cols + [
        c
        for c in (id_cols or [])
        if c not in (key, ts_col) and c not in feature_cols
    ]
    sort_keys = [key, ts_col] + [
        c for c in (id_cols or []) if c not in (key, ts_col)
    ]
    block_refs = [b for b, _, _ in range_sort(ds, sort_keys, columns=keep)]
    out_cols = keep + ["lof", "outlier", "verdict_error", "norm_vec"]
    if not block_refs:
        return pd.DataFrame(columns=out_cols)

    @ray.remote
    def keys_of(block: pa.Table):
        return pc.unique(block[key]).to_pylist() if block.num_rows else []

    @ray.remote(num_returns=2)
    def replay_chunk(block: pa.Table, key_val, state_bytes):
        sub = block.filter(pc.equal(block[key], pa.scalar(key_val)))
        w = (
            pickle.loads(state_bytes)
            if state_bytes is not None
            else LofWindow(
                k=k,
                metric=metric,
                alg=alg,
                skip_items=skip_items,
                max_items=max_items,
                max_storage_time_us=max_storage_time_us,
                allow_append_outlier=allow_append_outlier,
                allow_append_data=allow_append_data,
            )
        )
        g = sub.to_pandas()
        vecs = g[feature_cols].to_numpy(dtype=np.float64)
        ts = g[ts_col].astype("int64").to_numpy()
        verdicts = [w.process(v, t) for v, t in zip(vecs, ts)]
        g["lof"] = [v.lof for v in verdicts]
        g["outlier"] = [v.outlier for v in verdicts]
        g["verdict_error"] = [v.error or "" for v in verdicts]
        outlier_arr = np.asarray(g["outlier"], dtype=bool)
        scored = np.asarray([v.error is None for v in verdicts], dtype=bool)
        inlier = scored & ~outlier_arr
        idx = np.arange(len(g))
        last_inlier = np.maximum.accumulate(np.where(inlier, idx, -1))
        prev = np.concatenate(([-1], last_inlier[:-1]))
        # K7 cache handoff: the previous chunk's last inlier seeds rows
        # before this chunk's first inlier
        carry_nv = getattr(w, "_carry_norm_vec", None)
        g["norm_vec"] = [
            vecs[j].tolist() if j >= 0 else carry_nv for j in prev
        ]
        if inlier.any():
            w._carry_norm_vec = vecs[last_inlier[-1]].tolist()
        if flagged_only:
            g = g[g["outlier"]]
        # strip rebuildable caches before the state crosses tasks
        w._S = None
        w._DS = None
        w._tree = None
        return g, pickle.dumps(w)

    per_block_keys = ray.get([keys_of.remote(r) for r in block_refs])
    chains: dict = {}
    flagged_refs = []
    for i, r in enumerate(block_refs):
        for key_val in per_block_keys[i]:
            state = chains.get(key_val)
            fref, state = replay_chunk.remote(r, key_val, state)
            chains[key_val] = state
            flagged_refs.append(fref)
    frames = [f for f in ray.get(flagged_refs) if len(f)]
    if not frames:
        return pd.DataFrame(columns=out_cols)
    return pd.concat(frames, ignore_index=True)


def _arrow_type(t) -> pa.DataType:
    """Best-effort Arrow type from a Ray Schema entry (Arrow DataType
    for Arrow blocks, numpy dtype / Python type for pandas blocks)."""
    if isinstance(t, pa.DataType):
        return t
    try:
        return pa.from_numpy_dtype(np.dtype(t))
    except (TypeError, pa.ArrowNotImplementedError):
        return pa.string()  # object dtype: strings in this engine


def _routed(ds, key: str):
    """Prepare ``ds`` for an exchange_reduce keyed on ``key``: integer
    keys route on themselves; other types get a deterministic 64-bit
    hash column ``__kh`` (routing only — kernels group on the ACTUAL
    key values via dictionary-encode, so hash collisions cost balance,
    never correctness). Returns (routed_ds, route_col, key_is_routed)."""
    import pyarrow.types as pat

    sch = ds.schema()
    ktype = _arrow_type(dict(zip(sch.names, sch.types))[key])
    if pat.is_integer(ktype):
        return ds, key, True

    from ..state.sketches import hash64

    def add_kh(t: pa.Table) -> pa.Table:
        if t.num_rows == 0 or key not in t.column_names:
            return t
        h = hash64(t[key]).view(np.int64)
        return t.append_column("__kh", pa.array(h, pa.int64()))

    return ds.map_batches(add_kh, batch_format="pyarrow"), "__kh", False


def _group_codes(col: pa.ChunkedArray | pa.Array) -> np.ndarray:
    """Exact per-bucket group ids for any key dtype (vectorized Arrow
    dictionary encode — no hash-collision risk)."""
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    return (
        pc.dictionary_encode(col)
        .indices.to_numpy(zero_copy_only=False)
        .astype(np.int64, copy=False)
    )


def retention_topk_by_recency(
    ds,
    key: str,
    ts_col: str,
    max_items: int,
    tie_cols: list[str] | None = None,
    num_buckets: int | None = None,
):
    """Grouped keep-newest-N (reference db_scheduler retention,
    /root/reference/internal/dispatcher/db_scheduler.go:53-71): sort by
    (ts asc, *tie_cols asc) within the key, keep the newest max_items
    rows, all columns preserved.

    Vectorized at key-count ≈ row-count: one raw-task hash exchange on
    the key (stages/exchange.exchange_reduce) + a per-bucket lexsort /
    run-rank kernel — no per-group Python callable (the r2 verdict's
    remaining map_groups scale smell). Rows with equal (ts, ties) keep
    an arbitrary stable order, as before. Partitioning assumption: one
    key's rows land in one bucket — fine here because per-key history
    is retention-bounded by construction."""
    from .exchange import exchange_reduce

    routed, route_col, key_routed = _routed(ds, key)
    sch = ds.schema()
    empty = pa.schema(
        [pa.field(n, _arrow_type(t)) for n, t in zip(sch.names, sch.types)]
    ).empty_table()
    ties = list(tie_cols or [])

    def per_bucket(t: pa.Table) -> pa.Table:
        if key not in t.column_names:
            return empty
        if t.num_rows == 0:
            s = t.slice(0, 0)
            return (
                s.drop_columns(["__kh"])
                if "__kh" in s.column_names
                else s
            )
        codes = _group_codes(t[key])
        tsv = t[ts_col].to_numpy(zero_copy_only=False)
        tie_arrs = [t[c].to_numpy(zero_copy_only=False) for c in ties]
        order = np.lexsort(tuple(reversed(tie_arrs)) + (tsv, codes))
        c = codes[order]
        new = np.concatenate(([True], c[1:] != c[:-1]))
        starts = np.flatnonzero(new)
        lens = np.diff(np.concatenate((starts, [c.size])))
        pos = np.arange(c.size) - np.repeat(starts, lens)
        from_end = np.repeat(lens, lens) - 1 - pos
        kept = order[from_end < max_items]
        out = t.take(pa.array(kept))
        return out.drop_columns(["__kh"]) if not key_routed else out

    return exchange_reduce(routed, route_col, per_bucket, num_buckets)


def sample_per_key(
    ds,
    key: str,
    k: int,
    rank_col: str,
    tie_cols: list[str] | None = None,
    num_buckets: int | None = None,
    keep_rank: bool = False,
):
    """Deterministic per-key sample: the ``k`` rows with the SMALLEST
    ``(rank_col, *tie_cols)`` per key — the distributed, resumable
    form of per-key reservoir sampling. With ``rank_col`` a seeded
    hash of a row id the sample is uniform per key, reproducible
    across runs/retries, and MERGEABLE: the union of two shards'
    hash-ranked top-k re-ranked is the corpus' top-k, which a
    wall-clock RNG reservoir is not. Same raw-task exchange +
    lexsort/run-rank shape as :func:`retention_topk_by_recency` — no
    per-group Python, key-count ≈ row-count safe. Partitioning
    assumption: one key's rows land in one bucket (sample inputs are
    per-key bounded downstream, and the hash route spreads keys
    uniformly)."""
    from .exchange import exchange_reduce

    routed, route_col, key_routed = _routed(ds, key)
    sch = ds.schema()
    out_cols = [
        n for n in sch.names if keep_rank or n != rank_col
    ]
    empty = pa.schema(
        [
            pa.field(n, _arrow_type(t))
            for n, t in zip(sch.names, sch.types)
            if n in out_cols
        ]
    ).empty_table()
    ties = list(tie_cols or [])

    def per_bucket(t: pa.Table) -> pa.Table:
        if key not in t.column_names:
            return empty
        if t.num_rows == 0:
            s = t.slice(0, 0)
            drop = [c for c in ("__kh", *(
                () if keep_rank else (rank_col,)
            )) if c in s.column_names]
            return s.drop_columns(drop) if drop else s
        codes = _group_codes(t[key])
        rank = t[rank_col]
        if isinstance(rank, pa.ChunkedArray):
            rank = rank.combine_chunks()
        # string ranks (e.g. md5 hex) order lexicographically — encode
        # to sortable codes; numerics pass through
        if pa.types.is_string(rank.type) or pa.types.is_large_string(
            rank.type
        ):
            rv = np.array(rank.to_pylist(), dtype=object)
        else:
            rv = rank.to_numpy(zero_copy_only=False)
        tie_arrs = [t[c].to_numpy(zero_copy_only=False) for c in ties]
        order = np.lexsort(tuple(reversed(tie_arrs)) + (rv, codes))
        c = codes[order]
        new = np.concatenate(([True], c[1:] != c[:-1]))
        starts = np.flatnonzero(new)
        lens = np.diff(np.concatenate((starts, [c.size])))
        pos = np.arange(c.size) - np.repeat(starts, lens)
        kept = order[pos < k]
        out = t.take(pa.array(np.sort(kept)))
        drop = [c2 for c2 in ("__kh", *(
            () if keep_rank else (rank_col,)
        )) if c2 in out.column_names]
        return out.drop_columns(drop) if drop else out

    return exchange_reduce(routed, route_col, per_bucket, num_buckets)


def sessionize_agg(
    ds,
    key: str,
    ts_col: str,
    id_col: str,
    gap,
    num_buckets: int | None = None,
):
    """Session windows per key (a new session starts when the time gap
    to the previous event strictly exceeds ``gap``), aggregated to one
    row per session: (key, session_id, n_events, first_<id_col>) with
    session_id 0-based in (ts, id) order within the key — the engine's
    event-time session-window surface (SURVEY.md §2.6 extension).

    Fully vectorized: hash exchange on the key, then per bucket one
    lexsort + cumsum-of-breaks for session ids and reduceat for the
    aggregates — no per-group Python. ``gap`` is anything
    pd.Timedelta accepts when ts is a timestamp, or a number when ts
    is numeric. Partitioning assumption: one key's events fit in one
    bucket task (user streams, not corpus keys)."""
    from .exchange import exchange_reduce

    routed, route_col, _ = _routed(ds, key)
    sch = ds.schema()
    types = dict(zip(sch.names, sch.types))
    first_col = f"first_{id_col}"

    def out_schema(kt: pa.DataType, it: pa.DataType) -> pa.Schema:
        return pa.schema(
            [
                pa.field(key, kt),
                pa.field("session_id", pa.int64()),
                pa.field("n_events", pa.int64()),
                pa.field(first_col, it),
            ]
        )

    empty = out_schema(
        _arrow_type(types[key]), _arrow_type(types[id_col])
    ).empty_table()

    def per_bucket(t: pa.Table) -> pa.Table:
        if key not in t.column_names:
            return empty
        if t.num_rows == 0:
            return out_schema(
                t.schema.field(key).type, t.schema.field(id_col).type
            ).empty_table()
        codes = _group_codes(t[key])
        tsv = t[ts_col].to_numpy(zero_copy_only=False)
        eid = t[id_col].to_numpy(zero_copy_only=False)
        order = np.lexsort((eid, tsv, codes))
        c, tv, e = codes[order], tsv[order], eid[order]
        if np.issubdtype(tv.dtype, np.datetime64):
            g = np.timedelta64(pd.Timedelta(gap).to_timedelta64())
        else:
            g = gap
        new_key = np.concatenate(([True], c[1:] != c[:-1]))
        brk = new_key | np.concatenate(([True], (tv[1:] - tv[:-1]) > g))
        sess_global = np.cumsum(brk) - 1
        kstart = np.flatnonzero(new_key)
        klen = np.diff(np.concatenate((kstart, [c.size])))
        sid = sess_global - np.repeat(sess_global[kstart], klen)
        sstart = np.flatnonzero(brk)
        slen = np.diff(np.concatenate((sstart, [c.size])))
        return pa.table(
            {
                key: t[key].take(pa.array(order[sstart])),
                "session_id": pa.array(sid[sstart], pa.int64()),
                "n_events": pa.array(slen.astype(np.int64), pa.int64()),
                first_col: pa.array(np.minimum.reduceat(e, sstart)),
            }
        )

    return exchange_reduce(routed, route_col, per_bucket, num_buckets)

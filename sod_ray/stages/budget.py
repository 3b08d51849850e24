"""Token-budget cut: per partition key, keep the highest-quality docs
while the running token total stays ≤ budget — the data-mixing
primitive of a training-data funnel (decide how much of each lang /
source / host to keep, best-first).

Semantics (SQL-exact, oracle-checked by `docs_token_budget_sample`):
order each key's docs by (q6 DESC, id ASC) and keep while the
CUMULATIVE token count (including the current doc) stays ≤ budget.
``q6`` is any int64 quality key — callers quantize float scores with
``floor(q * 1e6)`` (FLOOR has no tie mode, so numpy and SQL agree
bit-for-bit; ROUND half-even vs half-away diverges).

Scale shape — bounded driver state at any corpus size, no per-doc
driver work:

1. groupby(key, q6) token sums → the driver walks each key's levels
   best-first and finds the BOUNDARY level (the first that overflows)
   plus the remaining budget. Driver rows = keys × quality levels —
   the floor(q·1e6) quantization caps levels at 1e6+1 per key even
   for a continuous score (the Gopher-style heuristic yields ~12), so
   driver state is bounded regardless of corpus size.
2. The boundary level's ids are range-bucketed (``nb`` buckets over
   the global id range); one slim groupby gives per-bucket sums → the
   driver picks the boundary BUCKET. Driver rows = keys × nb.
3. ONLY the boundary bucket's rows (≈ level_rows/nb — recurse the
   same refinement if a single bucket still overflows a worker) are
   collected for the exact doc-level cut.

The decision broadcasts as three small dicts + per-key sorted kept-id
arrays; membership is a vectorized ``np.isin`` in the final scan.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

GLOBAL = "__all__"


def token_budget_thresholds(
    sl,
    budget: int,
    key_col: str | None = "lang",
    id_col: str = "doc_id",
    tokens_col: str = "n_tokens",
    q6_col: str = "q6",
    nb: int = 4096,
):
    """Compute the per-key cut thresholds from a slim Dataset with
    columns (id, key?, tokens, q6). Returns an opaque dict for
    :func:`token_budget_mask` / :func:`token_budget_keep`."""
    import ray
    from ray.data.aggregate import Max, Sum

    gcols = ([key_col] if key_col else []) + [q6_col]

    def _key(t: pa.Table) -> np.ndarray:
        if key_col:
            # str-coerce so phase B/C dict probes match the str(k)-keyed
            # blv/bcut/kept dicts for non-string key columns too
            # (token_budget_mask coerces the same way).
            return t[key_col].to_numpy(zero_copy_only=False).astype(str)
        return np.full(t.num_rows, GLOBAL, dtype=object)

    # --- phase A: per-(key, quality-level) token sums
    lv = (
        sl.groupby(gcols)
        .aggregate(Sum(tokens_col, alias_name="toks"), Max(id_col, alias_name="mx"))
        .to_pandas()
    )
    if not len(lv):
        return {
            "budget": budget, "key_col": key_col, "id_col": id_col,
            "tokens_col": tokens_col, "q6_col": q6_col, "nb": nb,
            "maxid": 0, "blv": {}, "bcut": {}, "kept": {},
        }
    if not key_col:
        lv["__k"] = GLOBAL
        kname = "__k"
    else:
        kname = key_col
    maxid = int(lv["mx"].max())
    bounds = {}
    for k, g in lv.groupby(kname):
        k = str(k)  # string-keyed throughout (lang/host keys are str)
        g = g.sort_values(q6_col, ascending=False)
        cum = 0
        bounds[k] = [None, 0]
        for q6, toks in zip(g[q6_col], g["toks"]):
            if cum + toks <= budget:
                cum += toks
            else:
                bounds[k] = [int(q6), budget - cum]
                break
    blv = {k: b[0] for k, b in bounds.items() if b[0] is not None}

    def _bucket(ids: np.ndarray) -> np.ndarray:
        return ids * nb // (maxid + 1)

    bucket_cut = {}
    kept_arrays: dict = {}
    if blv:
        blv_ref = ray.put(blv)

        # --- phase B: range-bucketed sums inside each boundary level
        def bmark(t: pa.Table) -> pa.Table:
            bq = ray.get(blv_ref)
            keys = _key(t)
            q6 = t[q6_col].to_numpy(zero_copy_only=False)
            tgt = np.array([bq.get(k, -1) for k in keys])
            m = q6 == tgt
            ids = t[id_col].to_numpy(zero_copy_only=False)[m]
            return pa.table(
                {
                    "k": pa.array(keys[m].astype(str)),
                    "bucket": pa.array(_bucket(ids)),
                    "toks": t[tokens_col].filter(pa.array(m)),
                }
            )

        from ray.data.aggregate import Sum as _Sum

        bs = (
            sl.map_batches(bmark, batch_format="pyarrow")
            .groupby(["k", "bucket"])
            .aggregate(_Sum("toks", alias_name="toks"))
            .to_pandas()
        )
        for k, g in bs.groupby("k"):
            g = g.sort_values("bucket")
            rem = bounds[k][1]
            cum = 0
            bucket_cut[k] = (nb, 0)  # all buckets fit
            for bk, toks in zip(g["bucket"], g["toks"]):
                if cum + toks <= rem:
                    cum += toks
                else:
                    bucket_cut[k] = (int(bk), rem - cum)
                    break
        bcut_ref = ray.put({k: c[0] for k, c in bucket_cut.items()})

        # --- phase C: exact doc-level cut inside each boundary bucket
        def brows(t: pa.Table) -> pa.Table:
            bq = ray.get(blv_ref)
            bc = ray.get(bcut_ref)
            keys = _key(t)
            q6 = t[q6_col].to_numpy(zero_copy_only=False)
            ids = t[id_col].to_numpy(zero_copy_only=False)
            tgt = np.array([bq.get(k, -1) for k in keys])
            tb = np.array([bc.get(k, -1) for k in keys])
            m = (q6 == tgt) & (_bucket(ids) == tb)
            return pa.table(
                {
                    "k": pa.array(keys[m].astype(str)),
                    "id": pa.array(ids[m]),
                    "toks": t[tokens_col].filter(pa.array(m)),
                }
            )

        bdf = sl.map_batches(brows, batch_format="pyarrow").to_pandas()
        for k, g in bdf.groupby("k"):
            g = g.sort_values("id")
            rem2 = bucket_cut[k][1]
            cum = 0
            kept = []
            for did, toks in zip(g["id"], g["toks"]):
                if cum + toks <= rem2:
                    cum += toks
                    kept.append(int(did))
                else:
                    break
            if kept:
                kept_arrays[k] = np.sort(np.array(kept, np.int64))

    return {
        "budget": budget, "key_col": key_col, "id_col": id_col,
        "tokens_col": tokens_col, "q6_col": q6_col, "nb": nb,
        "maxid": maxid, "blv": blv,
        "bcut": {k: c[0] for k, c in bucket_cut.items()},
        "kept": kept_arrays,
    }


def pack_chunks(
    sl,
    chunk_tokens: int,
    key_col: str | None = "lang",
    id_col: str = "doc_id",
    tokens_col: str = "n_tokens",
):
    """Concat-and-chunk sequence packing — the standard LLM-pretraining
    prep: per key, concatenate the docs' token streams in id order and
    cut every ``chunk_tokens``; each doc gets its chunk span
    (``chunk_start``/``chunk_end``, inclusive — docs may straddle a
    boundary) and its offset inside the first chunk. Zero-token docs
    get the empty span at their position (start == end, offset kept);
    so does a doc whose token count is null, which keeps its null count
    and adds nothing to the running total (the SQL twin's ``SUM`` skips
    the NULL and ``GREATEST(NULL, 1)`` is 1).

    Distributed prefix sum, fully closed-form (no sequential chain):
    ``sort(key, id)`` makes every block a contiguous ordered slice;
    per-block per-key run subtotals (≤ runs-per-block rows, keys are
    contiguous) flow to the driver, which accumulates each block's
    STARTING offset per key — driver state ≤ blocks + keys rows; every
    block then finalizes in parallel from its offsets. Same shape as
    ``windowed_zscore_sorted``'s sorted-overlap (window.py), with a
    scalar carry instead of a row tail."""
    import ray

    from .blocks import arrow_block_refs, dataset_from_refs

    out_schema = pa.schema(
        [
            pa.field(id_col, pa.int64()),
        ]
        + ([pa.field(key_col, pa.string())] if key_col else [])
        + [
            pa.field(tokens_col, pa.int64()),
            pa.field("chunk_start", pa.int64()),
            pa.field("chunk_end", pa.int64()),
            pa.field("chunk_offset", pa.int64()),
        ]
    )
    sort_keys = ([key_col] if key_col else []) + [id_col]
    sorted_ds = sl.sort(sort_keys)
    refs = arrow_block_refs(sorted_ds)
    if not refs:
        return dataset_from_refs([ray.put(out_schema.empty_table())])

    def _keys_of(block: pa.Table) -> np.ndarray:
        if key_col:
            return block[key_col].to_numpy(zero_copy_only=False)
        return np.full(block.num_rows, GLOBAL, dtype=object)

    @ray.remote
    def run_subtotals(block: pa.Table) -> list:
        if block.num_rows == 0:
            return []
        keys = _keys_of(block)
        toks = pc.fill_null(block[tokens_col], 0).to_numpy(zero_copy_only=False)
        starts = np.flatnonzero(
            np.concatenate([[True], keys[1:] != keys[:-1]])
        )
        ends = np.concatenate([starts[1:], [keys.shape[0]]])
        cs = np.concatenate([[0], np.cumsum(toks)])
        return [
            (str(keys[s]), int(cs[e] - cs[s])) for s, e in zip(starts, ends)
        ]

    parts = ray.get([run_subtotals.remote(r) for r in refs])
    running: dict = {}
    block_offsets = []
    for p in parts:
        offs = {}
        for k, s in p:
            if k not in offs:
                offs[k] = running.get(k, 0)
            running[k] = running.get(k, 0) + s
        block_offsets.append(offs)

    B = int(chunk_tokens)

    @ray.remote
    def finalize(block: pa.Table, offs: dict) -> pa.Table:
        if block.num_rows == 0:
            return out_schema.empty_table()
        keys = _keys_of(block)
        toks = (
            pc.fill_null(block[tokens_col], 0)
            .to_numpy(zero_copy_only=False)
            .astype(np.int64)
        )
        starts = np.flatnonzero(
            np.concatenate([[True], keys[1:] != keys[:-1]])
        )
        seg_id = np.cumsum(
            np.concatenate([[0], (keys[1:] != keys[:-1]).astype(np.int64)])
        )
        cs = np.concatenate([[0], np.cumsum(toks)])[:-1]  # exclusive
        seg_base = cs[starts][seg_id]
        key_off = np.array(
            [offs.get(str(keys[s]), 0) for s in starts], dtype=np.int64
        )[seg_id]
        prev = key_off + (cs - seg_base)
        cols = {id_col: block[id_col].cast(pa.int64())}
        if key_col:
            cols[key_col] = block[key_col]
        cols[tokens_col] = block[tokens_col].cast(pa.int64())
        cols["chunk_start"] = pa.array(prev // B)
        cols["chunk_end"] = pa.array((prev + np.maximum(toks, 1) - 1) // B)
        cols["chunk_offset"] = pa.array(prev % B)
        return pa.table(cols)

    return dataset_from_refs(
        [finalize.remote(r, block_offsets[i]) for i, r in enumerate(refs)]
    )


def token_budget_mask(thresholds: dict):
    """Batch fn factory: slim table → kept boolean numpy mask (same
    column contract as :func:`token_budget_thresholds`). The
    thresholds are broadcast ONCE via ray.put; each batch probes them
    vectorized (sentinel -1 = a key with no boundary keeps all)."""
    import ray

    ref = ray.put(thresholds)

    def mask(t: pa.Table) -> np.ndarray:
        th = ray.get(ref)
        key_col, id_col, q6_col = th["key_col"], th["id_col"], th["q6_col"]
        nb, maxid = th["nb"], th["maxid"]
        if key_col:
            keys = t[key_col].to_numpy(zero_copy_only=False)
        else:
            keys = np.full(t.num_rows, GLOBAL, dtype=object)
        q6 = t[q6_col].to_numpy(zero_copy_only=False)
        ids = t[id_col].to_numpy(zero_copy_only=False)
        tgt = np.array([th["blv"].get(str(k), -1) for k in keys])
        tb = np.array([th["bcut"].get(str(k), -1) for k in keys])
        bkt = ids * nb // (maxid + 1) if maxid else np.zeros_like(ids)
        m = (q6 > tgt) | ((q6 == tgt) & (bkt < tb))
        in_bb = (q6 == tgt) & (bkt == tb)
        if in_bb.any():
            for k in np.unique(keys[in_bb]):
                ka = th["kept"].get(str(k))
                if ka is None or not ka.size:
                    continue
                sel = in_bb & (keys == k)
                m[sel] |= np.isin(ids[sel], ka, assume_unique=True)
        return m

    return mask


def token_budget_keep(sl, thresholds: dict):
    """Filter the slim Dataset to the kept rows."""
    fn = token_budget_mask(thresholds)

    def keep(t: pa.Table) -> pa.Table:
        return t.filter(pa.array(fn(t)))

    return sl.map_batches(keep, batch_format="pyarrow")

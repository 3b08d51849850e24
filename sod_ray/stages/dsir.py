"""DSIR — Data Selection via Importance Resampling (Xie et al. 2023,
NeurIPS, arXiv:2302.03169, public) re-expressed Ray-Data-first.

DSIR scores every raw document by how target-like it is under a pair
of bag-of-hashed-n-gram models: features are unigram + bigram counts
hashed into B buckets; a target corpus and the raw corpus each induce
a smoothed categorical distribution over buckets; the per-document
log importance weight is ``sum over gram instances of
log p_target(bucket) - log p_raw(bucket)``; selection keeps the top
weights (deterministic variant) or resamples with Gumbel noise (the
paper's sampler — here seeded from a hash of the doc id so a resumed
run selects the identical set).

100-TB shape: the whole method is two linear scans plus an O(B)
reduce —

1. :func:`gram_bucket_counts` — one ``map_batches`` pass emitting a
   B-long partial count vector per block, merged by Ray Data's
   ``Dataset.aggregate`` tree (accumulate per block / pairwise merge;
   the "shuffle" is B int64s ≈ 32 KB at B=4096, never row data).
   Run once over the raw corpus and once over the target slice.
2. The B-long log-ratio vector is broadcast once (``ray.put``);
   :func:`dsir_log_weights` adds the per-doc ``logw`` column in one
   vectorized scan (no shuffle).

Top-k selection is per-batch partial top-k merged driver-side
(k-bounded, never corpus-bounded).

Hashing modes (the winnowing twin-query convention,
pipelines/queries.doc_winnow_fingerprints):

- ``hash64`` (production): the engine's vectorized 64-bit hash over
  flattened token arrays — bigrams built with ONE Arrow
  ``binary_join_element_wise`` over shifted slices, doc boundaries
  masked by offsets; zero per-row Python.
- ``md5`` (oracle parity): bucket = int(md5(gram)[:4hex], 16) % B,
  reproducible in DuckDB as
  ``CAST('0x' || substr(md5(g),1,4) AS INTEGER) % B`` — the SQL twin
  is value-exact. Pays a per-doc Python loop; gate-scale only.

The reference has no data-selection surface (SURVEY.md §2.5 G7 — no
aggregation tree at all); this extends the engine's training-data
curation tier alongside the quality/perplexity filters.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import ray

from ..state.sketches import hash64
from .textstage import tokens

__all__ = [
    "gram_bucket_counts",
    "dsir_log_ratio",
    "dsir_log_weights",
    "dsir_top_k",
]


def _md5_doc_buckets(words: list[str], n_buckets: int) -> np.ndarray:
    """Oracle-parity bucket ids (unigrams then bigrams) of one doc."""
    grams = words + [
        words[i] + " " + words[i + 1] for i in range(len(words) - 1)
    ]
    return np.array(
        [
            int(hashlib.md5(g.encode("utf-8")).hexdigest()[:4], 16)
            % n_buckets
            for g in grams
        ],
        dtype=np.int64,
    )


def _hash64_flat_buckets(t: pa.Table, text_col: str, n_buckets: int):
    """Vectorized per-batch gram buckets over :func:`textstage.tokens`,
    shared by the counting and the weighting pass. Returns
    (ubk, bbk, bvalid, starts, ends):

    ubk: (T,) int64 — bucket per token instance.
    bbk: (T-1,) int64 — bucket per adjacent-token pair (position i
         pairs tokens i, i+1); bvalid is False where the pair crosses a
         doc boundary, and those positions must be ignored.
    starts/ends: (n_docs,) int64 token-offset spans per doc.
    """
    flat, doc = tokens(t[text_col])
    n_per = np.bincount(doc, minlength=t.num_rows)
    ends = np.cumsum(n_per)
    starts = ends - n_per
    ubk = (hash64(flat) % np.uint64(n_buckets)).astype(np.int64)
    T = ubk.shape[0]
    big = pc.binary_join_element_wise(
        flat.slice(0, max(T - 1, 0)), flat.slice(1), " "
    )
    bbk = (hash64(big) % np.uint64(n_buckets)).astype(np.int64)
    return ubk, bbk, doc[1:] == doc[:-1], starts, ends


def gram_bucket_counts(
    ds,
    text_col: str = "text",
    n_buckets: int = 4096,
    hash_mode: str = "hash64",
) -> np.ndarray:
    """Corpus bucket-count vector (length ``n_buckets``, int64):
    unigram + bigram instances hashed into buckets. One STREAMING
    linear scan: each batch emits its B-long partial as one binary row
    (512 KB at B=65,536) and the driver folds partials as they arrive.

    NOT ``Dataset.aggregate`` (the r5 200M-doc lesson): Ray's
    Aggregate is an all-to-all BARRIER that holds every input block —
    over a text corpus that means the whole corpus lands in the object
    store before the first accumulate, which filled a 62 GB store +
    spill disk at 200M docs. The map_batches partial fold keeps the
    scan streaming with backpressure; only batches × 512 KB of partial
    vectors ever exist at once, and the driver's fold is
    O(batches · B) int adds."""

    def block_counts(t: pa.Table) -> np.ndarray:
        if hash_mode == "md5":
            out = np.zeros(n_buckets, np.int64)
            for txt in t[text_col].to_pylist():
                words = (txt or "").split()
                if words:
                    bk = _md5_doc_buckets(words, n_buckets)
                    out += np.bincount(bk, minlength=n_buckets)
            return out
        ubk, bbk, bvalid, _, _ = _hash64_flat_buckets(
            t, text_col, n_buckets
        )
        out = np.bincount(ubk, minlength=n_buckets)
        if bbk.shape[0]:
            out = out + np.bincount(bbk[bvalid], minlength=n_buckets)
        return out.astype(np.int64)

    def partial(t: pa.Table) -> pa.Table:
        return pa.table(
            {"c": pa.array([block_counts(t).tobytes()], pa.binary())}
        )

    out = np.zeros(n_buckets, np.int64)
    stream = ds.select_columns([text_col]).map_batches(
        partial, batch_format="pyarrow"
    )
    for b in stream.iter_batches(batch_format="pyarrow"):
        for blob in b["c"]:
            out += np.frombuffer(blob.as_py(), np.int64)
    return out


def dsir_log_ratio(
    raw_counts: np.ndarray, target_counts: np.ndarray
) -> np.ndarray:
    """Add-1-smoothed per-bucket log importance ratio
    ``log p_target(b) - log p_raw(b)`` (float64, length B)."""
    raw = np.asarray(raw_counts, np.float64)
    tgt = np.asarray(target_counts, np.float64)
    if raw.shape != tgt.shape:
        raise ValueError("raw and target count vectors differ in length")
    B = raw.shape[0]
    return np.log((tgt + 1.0) / (tgt.sum() + B)) - np.log(
        (raw + 1.0) / (raw.sum() + B)
    )


def _doc_logw_hash64(
    t: pa.Table, text_col: str, lr: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """(logw, n_grams) per doc — vectorized: bucket lookups into the
    broadcast log-ratio vector, per-doc sums via cumsum differences
    (exact for empty docs, unlike reduceat)."""
    B = lr.shape[0]
    ubk, bbk, bvalid, starts, ends = _hash64_flat_buckets(t, text_col, B)
    n_docs = starts.shape[0]
    if n_docs == 0:
        return np.empty(0, np.float64), np.empty(0, np.int64)
    cs_u = np.concatenate(([0.0], np.cumsum(lr[ubk])))
    logw = cs_u[ends] - cs_u[starts]
    n_grams = ends - starts
    if bbk.shape[0]:
        contrib = np.where(bvalid, lr[bbk], 0.0)
        cs_b = np.concatenate(([0.0], np.cumsum(contrib)))
        # doc d's bigram positions span [start_d, end_d - 1) when it
        # has >= 2 tokens
        b_lo = starts
        b_hi = np.maximum(ends - 1, starts)
        logw = logw + (cs_b[b_hi] - cs_b[b_lo])
        n_grams = n_grams + np.maximum(ends - starts - 1, 0)
    return logw, n_grams


def dsir_log_weights(
    ds,
    log_ratio: np.ndarray,
    text_col: str = "text",
    id_col: str = "doc_id",
    hash_mode: str = "hash64",
    gumbel_seed: int | None = None,
):
    """One scan adding per-doc DSIR columns: ``logw`` (float64 log
    importance weight) and ``n_grams`` (int64 — 0 marks token-less
    docs, which carry no evidence). ``gumbel_seed`` adds the paper's
    resampling noise as ``logw_gumbel = logw + G(id)`` with the Gumbel
    draw seeded from ``hash64(seed || id)`` — deterministic per doc,
    so kill/resume selects the identical sample (wall-clock RNG would
    not). Output is ``(id_col, logw, n_grams [, logw_gumbel])`` —
    slim, shuffle-free."""
    lr = np.ascontiguousarray(np.asarray(log_ratio, np.float64))
    lr_ref = ray.put(lr)
    B = lr.shape[0]

    def add_logw(t: pa.Table) -> pa.Table:
        lrv = ray.get(lr_ref)
        if hash_mode == "md5":
            lw, ng = [], []
            for txt in t[text_col].to_pylist():
                words = (txt or "").split()
                if not words:
                    lw.append(0.0)
                    ng.append(0)
                    continue
                bk = _md5_doc_buckets(words, B)
                lw.append(float(lrv[bk].sum()))
                ng.append(bk.shape[0])
            logw = np.array(lw, np.float64)
            n_grams = np.array(ng, np.int64)
        else:
            logw, n_grams = _doc_logw_hash64(t, text_col, lrv)
        cols = {
            id_col: t[id_col],
            "logw": pa.array(logw, pa.float64()),
            "n_grams": pa.array(n_grams, pa.int64()),
        }
        if gumbel_seed is not None:
            ids = t[id_col]
            if isinstance(ids, pa.ChunkedArray):
                ids = ids.combine_chunks()
            h = hash64(
                pc.binary_join_element_wise(
                    pa.array([str(gumbel_seed)] * len(ids)),
                    ids.cast(pa.string()),
                    "#",
                )
            )
            u = (h.astype(np.float64) + 0.5) / 2.0**64
            cols["logw_gumbel"] = pa.array(
                logw - np.log(-np.log(u)), pa.float64()
            )
        return pa.table(cols)

    return ds.select_columns([id_col, text_col]).map_batches(
        add_logw, batch_format="pyarrow"
    )


def dsir_top_k(
    weights_ds,
    k: int,
    id_col: str = "doc_id",
    weight_col: str = "logw",
) -> pa.Table:
    """Global top-k most-target-like docs, EXACT, with driver state
    bounded by ~k rows at ANY corpus size. Ties broken by ascending id
    so the selection is total-ordered and reproducible. Token-less
    docs (n_grams == 0) are excluded: they carry no evidence either
    way.

    Two regimes (the r5 fix — the old per-batch partial top-k silently
    degenerated when k EXCEEDED the block size: every block passed
    through whole and the driver collected the entire weight table,
    which OOD'd a 200M-doc run at k=4.2M):

    - k ≤ ~block size: per-batch partial top-k (each block ships ≤ k
      rows) merged driver-side — the original shape.
    - k > block size: KLL THRESHOLD pre-selection. One aggregate-tree
      pass sketches the weight distribution (tagged compact codec
      crosses the merge tree, the cm_build_tokens convention); the
      driver picks a threshold τ at the (1 - k/n) quantile with a
      safety margin, one filter scan collects only rows with w ≥ τ
      (≈ k·(1+margin) rows), and the exact top-k runs over those.
      EXACTNESS: if the candidate count c ≥ k then τ ≤ the true k-th
      weight, so candidates ⊇ every row with w ≥ kth ⊇ the true
      top-k (ties included); c < k (sketch rank error) lowers τ and
      rescans — bounded retries, final fallback τ = -inf.
    """
    import ray.data as _rd  # noqa: F401  (weights_ds is a Dataset)
    from ray.data.aggregate import AggregateFn

    from ..state.sketches import KLL

    def exact_over(ds_cand) -> pa.Table:
        def partial(t: pa.Table) -> pa.Table:
            t = t.filter(pc.greater(t["n_grams"], 0))
            if t.num_rows <= k:
                return t
            w = t[weight_col].to_numpy(zero_copy_only=False)
            ids = t[id_col].to_numpy(zero_copy_only=False)
            order = np.lexsort((ids, -w))[:k]
            return t.take(pa.array(np.sort(order)))

        merged = ds_cand.map_batches(
            partial, batch_format="pyarrow"
        ).to_pandas()
        merged = merged.sort_values(
            [weight_col, id_col], ascending=[False, True], kind="stable"
        ).head(k)
        return pa.Table.from_pandas(
            merged.reset_index(drop=True), preserve_index=False
        )

    # regime check: block size from metadata-cheap probing is awkward;
    # use target_max_block_size-free heuristic — one small batch probe
    # costs a task; instead compare k against a conservative 128k-row
    # block floor (the engine's typical parquet block)
    if k <= 131_072:
        return exact_over(weights_ds)

    mat = weights_ds.materialize()

    def acc(b, block):
        if not isinstance(block, pa.Table):
            block = pa.table(block)
        block = block.filter(pc.greater(block["n_grams"], 0))
        sk = KLL.from_bytes(b)
        sk.update_array(block[weight_col])
        return sk.to_bytes()

    agg = AggregateFn(
        init=lambda _: KLL(k=400).to_bytes(),
        accumulate_block=acc,
        merge=lambda a, b: (
            KLL.from_bytes(a).merge(KLL.from_bytes(b)).to_bytes()
        ),
        name="kll",
    )
    sk = KLL.from_bytes(mat.aggregate(agg)["kll"])
    n = sk.n
    if n <= k:
        return exact_over(mat)
    for margin in (1.3, 2.0, 4.0):
        q = max(0.0, 1.0 - (k * margin) / n)
        tau = float(sk.quantile(q))
        cand = mat.map_batches(
            lambda t, _tau=tau: t.filter(
                pc.and_(
                    pc.greater(t["n_grams"], 0),
                    pc.greater_equal(t[weight_col], _tau),
                )
            ),
            batch_format="pyarrow",
        ).materialize()
        if cand.count() >= k:
            return exact_over(cand)
    return exact_over(mat)  # pathological sketch error: exact fallback

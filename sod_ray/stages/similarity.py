"""Similarity search over an embedding column (list<float>).

Two paths per the brief:

- ``brute_force_topk``: the exact baseline — the query matrix is
  broadcast ONCE with ``ray.put``; every batch does one numpy matmul
  and keeps its per-batch top-k (a few rows per query per batch); the
  driver merges the tiny partials into the global top-k. No shuffle of
  the embedding table.
- ``ivf_topk``: the scale path — coarse centroids are trained once on a
  seeded sample (k-means, driver-side, deterministic); every batch
  assigns its vectors to centroids and only scores vectors whose
  centroid is among the query's ``nprobe`` closest. Same output schema;
  recall traded for compute.

The kNN kernel itself is the distributed twin of the reference's
brute-force index (/root/reference/internal/predictor/knn/brute/
brute.go:94-119 — linear scan + capacity-k priority queue): argpartition
over a batch replaces the insertion-sorted queue.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import ray
from .blocks import arrow_block_refs, dataset_from_refs


def _to_matrix(col, dtype=np.float32) -> np.ndarray:
    """(n, d) matrix from a list<float> / fixed_size_list column.

    Zero-copy fast path: when every row has the same length (the
    embedding contract), reshape the flat Arrow values buffer directly
    — no per-row Python. Ragged or null rows fall back to the slow
    stack (only reachable from malformed inputs)."""
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    if isinstance(col, pa.Array):
        if pa.types.is_fixed_size_list(col.type) and col.null_count == 0:
            d = col.type.list_size
            # flatten() (not .values) honors any slice offset
            flat = col.flatten().to_numpy(zero_copy_only=False)
            return flat.reshape(len(col), d).astype(dtype, copy=False)
        if (
            pa.types.is_list(col.type) or pa.types.is_large_list(col.type)
        ) and col.null_count == 0:
            offsets = col.offsets.to_numpy(zero_copy_only=False)
            lens = np.diff(offsets)
            if lens.size and (lens == lens[0]).all():
                flat = col.flatten().to_numpy(zero_copy_only=False)
                return flat.reshape(len(col), int(lens[0])).astype(
                    dtype, copy=False
                )
        vals = col.to_pylist()
    else:
        vals = list(col)
    return np.stack([np.asarray(v, dtype=dtype) for v in vals])


def _normalize(M: np.ndarray) -> np.ndarray:
    n = np.linalg.norm(M, axis=1, keepdims=True)
    n[n == 0] = 1.0
    return M / n


def brute_force_topk(
    ds,
    queries: np.ndarray,
    vec_col: str,
    id_col: str,
    k: int = 10,
    query_ids: list | None = None,
    dtype=np.float32,
) -> pd.DataFrame:
    """Exact cosine top-k of each query against the whole dataset.

    Returns a DataFrame (query_id, id, cosine, rank) with deterministic
    tie-break by id. ``dtype=np.float64`` for oracle-grade precision."""
    Q = _normalize(np.atleast_2d(np.asarray(queries, dtype=dtype)))
    q_ref = ray.put(Q)
    qids = query_ids if query_ids is not None else list(range(Q.shape[0]))

    def batch_topk(batch: pa.Table) -> pa.Table:
        # plain task, not an actor pool: ray.get of a numpy matrix from
        # the local object store is zero-copy, so there is no per-task
        # deserialization worth caching — and task pools skip the
        # actor-startup latency entirely
        Q = ray.get(q_ref)
        V = _normalize(_to_matrix(batch[vec_col], dtype))
        ids = batch[id_col].to_numpy(zero_copy_only=False)
        S = Q @ V.T  # (n_q, n_batch)
        kk = min(k, S.shape[1])
        # per-query top-k within the batch (argpartition = pqueue cap)
        part = np.argpartition(-S, kk - 1, axis=1)[:, :kk]
        rows = {"query_idx": [], "cand_id": [], "cosine": []}
        for qi in range(S.shape[0]):
            sel = part[qi]
            rows["query_idx"].extend([qi] * kk)
            rows["cand_id"].extend(ids[sel])
            rows["cosine"].extend(S[qi, sel].astype(np.float64))
        return pa.table(
            {
                "query_idx": pa.array(rows["query_idx"], pa.int64()),
                "cand_id": pa.array(rows["cand_id"]),
                "cosine": pa.array(rows["cosine"], pa.float64()),
            }
        )

    partials = ds.map_batches(batch_topk, batch_format="pyarrow").to_pandas()
    out = []
    for qi, g in partials.groupby("query_idx"):
        g = g.sort_values(["cosine", "cand_id"], ascending=[False, True], kind="stable")
        top = g.head(k).reset_index(drop=True)
        top["rank"] = np.arange(1, len(top) + 1)
        top["query_id"] = qids[qi]
        out.append(top[["query_id", "cand_id", "cosine", "rank"]])
    return pd.concat(out, ignore_index=True) if out else pd.DataFrame(
        columns=["query_id", "cand_id", "cosine", "rank"]
    )


def cosine_all_pairs(
    ds,
    vec_col: str,
    id_col: str,
    threshold: float = 0.4,
    round_to: int = 6,
    max_rows: int = 2_000_000,
    target_batch_bytes: int = 256 << 20,
):
    """Globally EXACT cosine all-pairs (id_a < id_b, cosine >=
    threshold) — the ground truth ``stages.dedup.embedding_neardup``
    (hyperplane LSH) approximates. SQL twin: COSINE_EXACT_SQL in
    pipelines/queries.py (DuckDB ``list_cosine_similarity`` over a
    self-join, both sides cast to DOUBLE).

    Shape: one scan assembles the (id, vector) corpus matrix on the
    driver (sorted by id, normalized in float64) and broadcasts it with
    ONE ``ray.put``; the dataset then streams through ``map_batches``
    where each batch computes ``batch @ corpus.T`` in float64, masks
    ``id_a < id_b`` and the threshold, and emits slim pair rows. The
    left side streams and scales with the cluster; the broadcast side
    is n*d float64 (~1 GB at 1M x 128), read zero-copy per task.

    SCALE CAVEAT (inherent to exactness): output and flops are O(n^2),
    which is exactly why the LSH path exists — ``max_rows`` refuses
    corpora where the quadratic wall makes this op the wrong tool.
    """
    blocks = [
        b
        for b in ray.get(arrow_block_refs(ds.select_columns([id_col, vec_col])))
        if b.num_rows
    ]
    if not blocks:
        empty = pa.table(
            {
                "id_a": pa.array([], pa.int64()),
                "id_b": pa.array([], pa.int64()),
                "cosine": pa.array([], pa.float64()),
            }
        )
        return dataset_from_refs([ray.put(empty)])
    ids = np.concatenate(
        [b[id_col].to_numpy(zero_copy_only=False) for b in blocks]
    ).astype(np.int64)
    if ids.shape[0] > max_rows:
        raise ValueError(
            f"cosine_all_pairs is O(n^2); {ids.shape[0]} rows > max_rows="
            f"{max_rows}. Use embedding_neardup (LSH) at this scale."
        )
    M = np.vstack([_to_matrix(b[vec_col], np.float64) for b in blocks])
    order = np.argsort(ids, kind="stable")
    ids, M = ids[order], _normalize(M[order])
    corpus_ref = ray.put((ids, M))
    # batch_size so batch x corpus float64 scores stay under the target
    bs = max(64, int(target_batch_bytes // (8 * max(1, ids.shape[0]))))

    def batch_pairs(t: pa.Table) -> pa.Table:
        all_ids, M = ray.get(corpus_ref)
        Vn = _normalize(_to_matrix(t[vec_col], np.float64))
        bids = t[id_col].to_numpy(zero_copy_only=False).astype(np.int64)
        S = Vn @ M.T  # (n_batch, n_corpus)
        mask = (S >= threshold) & (bids[:, None] < all_ids[None, :])
        bi, ci = np.nonzero(mask)
        return pa.table(
            {
                "id_a": pa.array(bids[bi], pa.int64()),
                "id_b": pa.array(all_ids[ci], pa.int64()),
                "cosine": pa.array(np.round(S[bi, ci], round_to), pa.float64()),
            }
        )

    return ds.map_batches(batch_pairs, batch_format="pyarrow", batch_size=bs)


def train_centroids(
    ds,
    vec_col: str,
    n_centroids: int = 64,
    sample_rows: int = 10_000,
    seed: int = 5,
    id_col: str | None = None,
) -> np.ndarray:
    """Seeded k-means (few iterations) on a uniform sample —
    driver-side, tiny. The IVF coarse quantizer.

    Pass ``id_col`` for a REPRODUCIBLE sample: rows where
    ``hash64(id)`` falls under a threshold, capped by taking the
    hash-smallest ``sample_rows`` — a pure function of ids, identical
    under any block layout or task completion order. Without it the
    sample comes from ``random_sample(seed).limit()``, which is NOT
    run-to-run deterministic (measured: the seeded per-task rng
    depends on task/block order), so the trained centroids — and any
    clustering decision derived from them — can drift between runs."""
    total = ds.count()  # parquet metadata / cached count
    if total <= sample_rows:
        sample = ds.to_pandas()
    elif id_col is not None:
        from ..state.sketches import hash64

        frac = min(1.0, (2.5 * sample_rows) / total)
        cut = np.uint64(int(frac * float(2**64 - 1)))

        def pick(t: pa.Table) -> pa.Table:
            h = hash64(t[id_col].combine_chunks())
            m = h <= cut
            return pa.table(
                {
                    vec_col: t[vec_col].filter(pa.array(m)),
                    "__h": pa.array(h[m], pa.uint64()),
                }
            )

        sample = (
            ds.map_batches(pick, batch_format="pyarrow")
            .to_pandas()
            .sort_values("__h", kind="stable")
            .head(sample_rows)
        )
    else:
        frac = min(1.0, (2.5 * sample_rows) / total)
        sample = ds.random_sample(frac, seed=seed).limit(sample_rows).to_pandas()
    X = _normalize(_to_matrix(sample[vec_col].tolist()))
    rng = np.random.default_rng(seed)
    n_centroids = min(n_centroids, X.shape[0])

    # k-means++ seeding (spherical): each next seed drawn ∝ (1 - max
    # cosine to the chosen set) — spreads seeds across the data and
    # beats uniform choice on clustered corpora
    seeds = np.empty(n_centroids, dtype=np.int64)
    seeds[0] = rng.integers(X.shape[0])
    best = X @ X[seeds[0]]
    for j in range(1, n_centroids):
        d = np.maximum(1.0 - best, 0.0)
        tot = d.sum()
        if tot <= 0:
            seeds[j:] = rng.choice(X.shape[0], n_centroids - j, replace=False)
            break
        seeds[j] = rng.choice(X.shape[0], p=d / tot)
        np.maximum(best, X @ X[seeds[j]], out=best)
    C = X[seeds].copy()

    for _ in range(10):
        assign = np.argmax(X @ C.T, axis=1)
        # vectorized Lloyd update: scatter-add members per centroid
        sums = np.zeros_like(C)
        np.add.at(sums, assign, X)
        counts = np.bincount(assign, minlength=n_centroids)
        norms = np.linalg.norm(sums, axis=1)
        ok = (counts > 0) & (norms > 0)
        C[ok] = sums[ok] / norms[ok, None]
        # reseed empty clusters to the points farthest from their
        # assigned centroid (classic empty-cluster repair)
        n_empty = int((~ok).sum())
        if n_empty:
            sim_own = (X * C[assign]).sum(axis=1)
            far = np.argsort(sim_own)[:n_empty]
            C[~ok] = X[far]
    return C


def ivf_topk(
    ds,
    queries: np.ndarray,
    vec_col: str,
    id_col: str,
    k: int = 10,
    centroids: np.ndarray | None = None,
    nprobe: int = 8,
    query_ids: list | None = None,
    dtype=np.float32,
) -> pd.DataFrame:
    """IVF-style ANN: score only vectors whose centroid is among the
    query's nprobe nearest. centroids=None trains them on a sample.
    ``nprobe >= n_centroids`` probes every list, making the result
    EXACT (equal to brute force) — with ``dtype=np.float64`` that mode
    is oracle-checkable against the brute-force SQL twin."""
    if centroids is None:
        centroids = train_centroids(ds, vec_col, id_col=id_col)
    Q = _normalize(np.atleast_2d(np.asarray(queries, dtype=dtype)))
    probe = np.argsort(-(Q @ centroids.T), axis=1)[:, :nprobe]  # (n_q, nprobe)
    q_ref = ray.put((Q, centroids, probe))
    qids = query_ids if query_ids is not None else list(range(Q.shape[0]))

    def ivf_batch_topk(batch: pa.Table) -> pa.Table:
        # plain task (see batch_topk): broadcast numpy payloads are
        # zero-copy reads from the local object store
        Q, C, probe = ray.get(q_ref)
        V = _normalize(_to_matrix(batch[vec_col], dtype))
        ids = batch[id_col].to_numpy(zero_copy_only=False)
        assign = np.argmax(V @ C.T, axis=1)
        rows = {"query_idx": [], "cand_id": [], "cosine": []}
        for qi in range(Q.shape[0]):
            mask = np.isin(assign, probe[qi])
            if not mask.any():
                continue
            sub = V[mask]
            sub_ids = ids[mask]
            s = sub @ Q[qi]
            kk = min(k, s.shape[0])
            sel = np.argpartition(-s, kk - 1)[:kk]
            rows["query_idx"].extend([qi] * kk)
            rows["cand_id"].extend(sub_ids[sel])
            rows["cosine"].extend(s[sel].astype(np.float64))
        return pa.table(
            {
                "query_idx": pa.array(rows["query_idx"], pa.int64()),
                "cand_id": pa.array(rows["cand_id"]),
                "cosine": pa.array(rows["cosine"], pa.float64()),
            }
        )

    partials = ds.map_batches(ivf_batch_topk, batch_format="pyarrow").to_pandas()
    out = []
    for qi, g in partials.groupby("query_idx"):
        g = g.sort_values(["cosine", "cand_id"], ascending=[False, True], kind="stable")
        top = g.head(k).reset_index(drop=True)
        top["rank"] = np.arange(1, len(top) + 1)
        top["query_id"] = qids[qi]
        out.append(top[["query_id", "cand_id", "cosine", "rank"]])
    return pd.concat(out, ignore_index=True) if out else pd.DataFrame(
        columns=["query_id", "cand_id", "cosine", "rank"]
    )


def semdedup_drop_ids(
    ds,
    vec_col: str = "embedding",
    id_col: str = "vec_id",
    n_centroids: int = 64,
    threshold: float = 0.95,
    num_buckets: int | None = None,
    col_block: int = 4096,
    dtype=np.float32,
    centroids: np.ndarray | None = None,
):
    """SemDedup (Abbas et al. 2023, arXiv:2303.09540, public):
    semantic dedup via embedding clustering — k-means the corpus into
    clusters, then drop near-identical points WITHIN each cluster by
    pairwise cosine. Returns a slim Dataset of dropped ids (one
    ``node`` int64 column), the same decision contract as
    ``dedup.neardup_drop_ids`` so ``dedup.apply_drops`` and the export
    funnel's checkpointed-decision machinery apply unchanged.

    Deterministic keep rule (diverges from the paper, documented): a
    point is dropped iff SOME lower-id point in its cluster has cosine
    >= threshold with it — canonical member = lowest id, matching the
    engine's exact/near-dup keep-lowest-id convention (the paper keeps
    the point with lowest cosine to the centroid, which is
    tie-unstable under fp reductions). With ``n_centroids=1`` the rule
    degenerates to the global all-pairs rule, which is
    SQL-expressible — that mode is the oracle twin
    (pipelines/queries.semdedup_checked).

    Scale shape: centroids train driver-side on a seeded sample
    (``train_centroids``); ONE scan assigns clusters (vectorized
    matmul against the broadcast centroid matrix); one raw-task
    exchange routes (id, vector) rows by cluster id; the per-bucket
    kernel runs a BLOCKED upper-triangular cosine check per cluster —
    O(c * col_block) memory, never a c x c matrix. Partitioning
    assumption (documented per the brief): one CLUSTER's vectors fit
    one worker's heap — size ``n_centroids`` ~ n/100k so clusters stay
    ~100k x d; a pathological mega-cluster needs a larger
    ``n_centroids`` (same contract as the embedding-LSH bucket cap).
    """
    from .exchange import exchange_reduce

    if centroids is None:
        centroids = train_centroids(ds, vec_col, n_centroids, id_col=id_col)
    C = _normalize(np.ascontiguousarray(centroids, dtype=dtype))
    c_ref = ray.put(C)

    def assign(t: pa.Table) -> pa.Table:
        Cm = ray.get(c_ref)
        V = _normalize(_to_matrix(t[vec_col], dtype))
        cl = (
            np.argmax(V @ Cm.T, axis=1).astype(np.int64)
            if Cm.shape[0] > 1
            else np.zeros(V.shape[0], np.int64)
        )
        return pa.table(
            {
                "id": t[id_col],
                "vec": t[vec_col],
                "__cl": pa.array(cl, pa.int64()),
            }
        )

    routed = ds.map_batches(assign, batch_format="pyarrow")
    empty = pa.table({"node": pa.array([], pa.int64())})

    def drop_bucket(t: pa.Table) -> pa.Table:
        if t.num_rows == 0 or "id" not in t.column_names:
            return empty
        cl = t["__cl"].combine_chunks().to_numpy(zero_copy_only=False)
        ids = t["id"].combine_chunks().to_numpy(zero_copy_only=False)
        order = np.lexsort((ids, cl))
        cl_s, ids_s = cl[order], ids[order]
        X = _normalize(_to_matrix(t["vec"], dtype))[order]
        dropped = _drop_within_groups(
            X, ids_s, cl_s, threshold, col_block
        )
        if dropped is None:
            return empty
        return pa.table({"node": pa.array(dropped, pa.int64())})

    return exchange_reduce(routed, "__cl", drop_bucket, num_buckets)


def _drop_within_groups(
    X: np.ndarray,
    ids_s: np.ndarray,
    cl_s: np.ndarray,
    threshold: float,
    col_block: int,
):
    """Blocked upper-triangular cosine drop inside each contiguous
    cluster run of (X, ids_s) — rows must arrive lexsorted by
    (cluster, id). A row is dropped iff SOME lower-id row of its
    cluster has cosine >= threshold with it (keep-lowest-id). Memory
    is O(c * col_block) per cluster, never c x c. Returns the dropped
    ids (np.int64) or None."""
    bnd = np.flatnonzero(np.concatenate(([True], cl_s[1:] != cl_s[:-1])))
    bounds = np.concatenate((bnd, [cl_s.shape[0]]))
    dropped = []
    for gi in range(bnd.shape[0]):
        lo, hi = bounds[gi], bounds[gi + 1]
        c = hi - lo
        if c < 2:
            continue
        M = X[lo:hi]
        drop = np.zeros(c, dtype=bool)
        rows_idx = np.arange(c)[:, None]
        for s in range(1, c, col_block):
            e = min(s + col_block, c)
            S = M[:e] @ M[s:e].T  # (e, e-s)
            m = (rows_idx[:e] < np.arange(s, e)[None, :]) & (
                S >= threshold
            )
            drop[s:e] |= m.any(axis=0)
        if drop.any():
            dropped.append(ids_s[lo:hi][drop])
    if not dropped:
        return None
    return np.concatenate(dropped)


def _local_kmeans(
    X: np.ndarray, k: int, rng: np.random.Generator, iters: int = 6
) -> np.ndarray:
    """Seeded spherical k-means over a LOCAL (already normalized)
    matrix — the per-shard trainer of the two-level SemDedup. Same
    k-means++ seeding / Lloyd structure as ``train_centroids`` but
    with no Dataset plumbing; deterministic given (X row order, rng).
    Returns the CENTROID matrix (k, d)."""
    n = X.shape[0]
    k = max(1, min(k, n))
    if k == 1:
        return X[:1].copy()
    seeds = np.empty(k, dtype=np.int64)
    seeds[0] = rng.integers(n)
    best = X @ X[seeds[0]]
    for j in range(1, k):
        d = np.maximum(1.0 - best, 0.0)
        tot = d.sum()
        if tot <= 0:
            seeds[j:] = rng.choice(n, k - j, replace=False)
            break
        seeds[j] = rng.choice(n, p=d / tot)
        np.maximum(best, X @ X[seeds[j]], out=best)
    C = X[seeds].copy()
    assign = np.argmax(X @ C.T, axis=1)
    for _ in range(iters):
        sums = np.zeros_like(C)
        np.add.at(sums, assign, X)
        counts = np.bincount(assign, minlength=k)
        norms = np.linalg.norm(sums, axis=1)
        ok = (counts > 0) & (norms > 0)
        C[ok] = sums[ok] / norms[ok, None]
        new = np.argmax(X @ C.T, axis=1)
        if (new == assign).all():
            break
        assign = new
    return C


def _margin_assign(S: np.ndarray, margin: float):
    """Top-1 assignment plus MULTI-PROBE boundary duplication: rows
    whose runner-up cluster scores within ``margin`` cosine of the
    winner are ALSO emitted to the runner-up (the LSH multi-probe
    pattern). Returns (row_idx, cluster_id) index arrays covering the
    base assignment followed by the duplicated boundary rows. The
    candidate generation is what this widens — the downstream pair
    check stays exact cosine, so duplication can only ADD true
    near-dup pairs, never false drops."""
    n, k = S.shape
    a1 = np.argmax(S, axis=1)
    base = (np.arange(n, dtype=np.int64), a1.astype(np.int64))
    if k < 2 or margin <= 0:
        return [base]
    s1 = S[np.arange(n), a1]
    S2 = S.copy()
    S2[np.arange(n), a1] = -np.inf
    a2 = np.argmax(S2, axis=1)
    s2 = S2[np.arange(n), a2]
    dup = s2 >= s1 - margin
    if not dup.any():
        return [base]
    return [
        base,
        (np.flatnonzero(dup).astype(np.int64), a2[dup].astype(np.int64)),
    ]


def semdedup_drop_ids_twolevel(
    ds,
    vec_col: str = "embedding",
    id_col: str = "vec_id",
    n_top: int | None = None,
    target_cluster_rows: int = 1024,
    threshold: float = 0.95,
    num_buckets: int | None = None,
    col_block: int = 4096,
    dtype=np.float32,
    seed: int = 5,
    kmeans_iters: int = 6,
    probe_margin: float = 0.02,
    spill=None,
    after_land=None,
    n_super: int | None = None,
):
    """Two-level (centroid-sharded) SemDedup — the 10^8-vector scale
    path of :func:`semdedup_drop_ids`.

    ``spill`` (an ``exchange.Spill``): when the corpus is comparable
    to the object store (10^8 × 64d ≈ 26 GB vs a 37 GB store), the
    in-plasma exchange holds blocks + sorted splits (~2× the data) and
    ENOSPCs a disk-tight host's raylet spill (measured). With
    ``spill`` the shard exchange runs disk-backed (partitioned-parquet
    landing, one bucket read per reduce task, plasma never holds the
    shuffle); ``after_land`` runs once the landing has read ``ds`` for
    the last time, so a caller can free its own input there.

    Why the single-level shape stalls at 10^8: paper-faithful cluster
    sizes need K ~ n/1k clusters, and EITHER the assignment matmul is
    n x K x d (~10^14 flops at K=10^5) and the driver trains 10^5
    centroids, OR K stays small and clusters grow to ~10^5 rows, where
    the within-cluster pair check Σ c_i²·d is the 10^14-flop wall.

    Two-level splits the K: a TOP level of ``n_top`` ~ sqrt-scale
    shards (driver-trained on a sample, one n x n_top x d assignment
    scan) routes points through the existing cluster exchange; each
    shard then runs a LOCAL seeded k-means (`_local_kmeans`, inside
    the reduce task — distributed training, nothing driver-side) into
    ~rows/``target_cluster_rows`` sub-clusters and applies the same
    blocked upper-triangular kernel per sub-cluster. Effective
    clusters = n_top x n_sub ~ n/target_cluster_rows, with assignment
    flops n·(n_top + n/n_top/target·d-ish) — both levels stay ~10^12
    more instead of 10^14 at n=10^8.

    Same decision contract (slim ``node`` Dataset of dropped ids,
    keep-lowest-id within a sub-cluster) and the same partitioning
    assumption one level up: one TOP shard's vectors fit one worker's
    heap (n/n_top x d x 4 B — 25 MB at 10^8/1024 x 64d). Determinism:
    shard rows are sorted by id and the local k-means rng is seeded by
    (seed, shard id), so reruns and resumes reproduce bit-identical
    drops regardless of block arrival order.

    The sub-clustering is an approximation EXACTLY like the paper's
    clustering itself (near-identical pairs co-assign unless they
    straddle a centroid boundary). ``probe_margin`` closes most of the
    boundary loss by MULTI-PROBE duplication at both levels
    (:func:`_margin_assign`): a row within ``probe_margin`` cosine of
    its runner-up shard/sub-cluster is also emitted there, so a pair
    split by a tight boundary still meets in the runner-up; the pair
    check stays exact cosine, so precision is unaffected and the only
    cost is the duplicated-row fraction (~margin-dependent, measured
    single-digit % at margin 0.02). A dropped boundary row can be
    reported from two buckets — drops are a SET (``apply_drops`` is
    membership-based); per-bucket output is deduped.
    `tools/semdedup_bench.py --two-level` measures recall/precision
    against planted truth.

    ``n_super``: THREE-level (hierarchical / IVF-style) top assignment
    for the 10⁹-vector tier. The flat top assignment is an
    n × n_top × d matmul — at n=10⁹ with the n_top ~ n/10⁵ the
    sharding needs (10⁴ shards), that alone is ~10¹⁴ flops again.
    With ``n_super`` set, the n_top top centroids are themselves
    k-means-clustered (driver-side — the centroid matrix is tiny)
    into ``n_super`` groups; each batch scores against the n_super
    SUPER centroids first, multi-probes the supers within
    ``probe_margin`` (same boundary-duplication trick one level up),
    and scores only against the probed supers' member centroids —
    assignment flops drop to n·(n_super + probes·n_top/n_super)·d,
    minimized at n_super ≈ √n_top (~30× fewer at n_top=10⁴). A row
    is emitted in its best top shard of EVERY probed super (extra
    placements only ADD meeting opportunities; the pair check stays
    exact cosine, so precision is unchanged by construction). The
    auto-``n_top`` cap rises 4096 → 16384 in this mode — the flat
    assignment cost that motivated the cap no longer applies.

    REGIME (measured, BASELINE.md): the super-level margin probe
    fires on a large row fraction against a coarse quantizer (~70%
    duplication at 32 supers on an isotropic 100M corpus), so
    hierarchical assignment only PAYS once the flat matmul it
    replaces dominates — n_top ≳ 8k (20M×64d A/B at n_top=8192:
    1.39× faster AND recall 0.9994→0.9998). At n_top ~ 10³ keep the
    flat default (100M×64d: 676.5 s hier vs 607.9 s flat, recall
    0.9999 vs 0.9996).
    """
    from .exchange import exchange_reduce

    total = None
    if n_top is None:
        total = ds.count()
        # one top shard per ~100k rows, power-of-two-ish, >= 8;
        # hierarchical assignment affords a higher shard ceiling
        cap = 16384 if n_super else 4096
        n_top = int(max(8, min(cap, total // 100_000 or 8)))
    centroids = train_centroids(ds, vec_col, n_top, id_col=id_col)
    C = _normalize(np.ascontiguousarray(centroids, dtype=dtype))
    c_ref = ray.put(C)
    # bound the batch x n_top score matrix at ~256 MB
    bs = max(1024, (256 << 20) // (4 * max(1, int(C.shape[0]))))

    hier = (
        n_super is not None and int(n_super) >= 2
        and C.shape[0] > int(n_super)
    )
    if hier:
        n_super = int(n_super)
        sup_rng = np.random.default_rng((seed << 8) ^ 0x3A7)
        Csup = _local_kmeans(C, n_super, sup_rng, iters=kmeans_iters)
        n_super = Csup.shape[0]
        sup_of_top = np.argmax(C @ Csup.T, axis=1)
        m_order = np.argsort(sup_of_top, kind="stable").astype(np.int64)
        m_bounds = np.searchsorted(
            sup_of_top[m_order], np.arange(n_super + 1)
        )
        sup_ref = ray.put(
            (Csup.astype(dtype), m_order, m_bounds)
        )
        # the per-batch score matrix is n_super-wide, not n_top-wide
        bs = max(1024, (256 << 20) // (4 * max(1, n_super)))

    def assign_top(t: pa.Table) -> pa.Table:
        Cm = ray.get(c_ref)
        V = _normalize(_to_matrix(t[vec_col], dtype))
        if Cm.shape[0] == 1:
            return pa.table(
                {
                    "id": t[id_col],
                    "vec": t[vec_col],
                    "__cl": pa.array(
                        np.zeros(V.shape[0], np.int64), pa.int64()
                    ),
                }
            )
        S = V @ Cm.T
        parts = []
        for rows, cl in _margin_assign(S, probe_margin):
            parts.append(
                pa.table(
                    {
                        "id": t[id_col].take(pa.array(rows)),
                        "vec": t[vec_col].take(pa.array(rows)),
                        "__cl": pa.array(cl, pa.int64()),
                    }
                )
            )
        return pa.concat_tables(parts)

    def assign_top_hier(t: pa.Table) -> pa.Table:
        Cm = ray.get(c_ref)
        Cs, mem_order, mem_bounds = ray.get(sup_ref)
        V = _normalize(_to_matrix(t[vec_col], dtype))
        Ssup = V @ Cs.T
        parts = []
        for rows, sup in _margin_assign(Ssup, probe_margin):
            so = np.argsort(sup, kind="stable")
            rs, ss = rows[so], sup[so]
            b2 = np.searchsorted(ss, np.arange(n_super + 1))
            for s in range(n_super):
                lo, hi = int(b2[s]), int(b2[s + 1])
                if hi <= lo:
                    continue
                mem = mem_order[mem_bounds[s]:mem_bounds[s + 1]]
                if mem.size == 0:
                    continue
                rsl = rs[lo:hi]
                S = V[rsl] @ Cm[mem].T
                for rr, cc in _margin_assign(S, probe_margin):
                    take = pa.array(rsl[rr])
                    parts.append(
                        pa.table(
                            {
                                "id": t[id_col].take(take),
                                "vec": t[vec_col].take(take),
                                "__cl": pa.array(
                                    mem[cc].astype(np.int64), pa.int64()
                                ),
                            }
                        )
                    )
        if not parts:
            return pa.table(
                {
                    "id": t[id_col].slice(0, 0),
                    "vec": t[vec_col].slice(0, 0),
                    "__cl": pa.array([], pa.int64()),
                }
            )
        return pa.concat_tables(parts)

    routed = ds.map_batches(
        assign_top_hier if hier else assign_top,
        batch_format="pyarrow",
        batch_size=bs,
    )
    empty = pa.table({"node": pa.array([], pa.int64())})

    def drop_bucket(t: pa.Table) -> pa.Table:
        if t.num_rows == 0 or "id" not in t.column_names:
            return empty
        cl = t["__cl"].combine_chunks().to_numpy(zero_copy_only=False)
        ids = t["id"].combine_chunks().to_numpy(zero_copy_only=False)
        order = np.lexsort((ids, cl))
        cl_s, ids_s = cl[order], ids[order]
        X = _normalize(_to_matrix(t["vec"], dtype))[order]
        bnd = np.flatnonzero(
            np.concatenate(([True], cl_s[1:] != cl_s[:-1]))
        )
        bounds = np.concatenate((bnd, [cl_s.shape[0]]))
        dropped = []
        for gi in range(bnd.shape[0]):
            lo, hi = bounds[gi], bounds[gi + 1]
            rows = hi - lo
            if rows < 2:
                continue
            shard_id = int(cl_s[lo])
            M = X[lo:hi]
            sub_ids = ids_s[lo:hi]
            k_sub = max(1, int(round(rows / target_cluster_rows)))
            rng = np.random.default_rng((seed << 20) ^ shard_id)
            Csub = _local_kmeans(M, k_sub, rng, iters=kmeans_iters)
            if Csub.shape[0] == 1:
                d = _drop_within_groups(
                    M,
                    sub_ids,
                    np.zeros(rows, np.int64),
                    threshold,
                    col_block,
                )
                if d is not None:
                    dropped.append(d)
                continue
            S = M @ Csub.T
            ridx, subcl = [], []
            for rr, cc in _margin_assign(S, probe_margin):
                ridx.append(rr)
                subcl.append(cc)
            ridx = np.concatenate(ridx)
            subcl = np.concatenate(subcl)
            Md, idd = M[ridx], sub_ids[ridx]
            so = np.lexsort((idd, subcl))
            d = _drop_within_groups(
                Md[so], idd[so], subcl[so], threshold, col_block
            )
            if d is not None:
                dropped.append(np.unique(d))
        if not dropped:
            return empty
        return pa.table(
            {"node": pa.array(np.concatenate(dropped), pa.int64())}
        )

    if spill is not None and num_buckets is None:
        if total is None:
            total = ds.count()
        # ~1.5M rows (≈400 MB of routed vec rows) per bucket read
        num_buckets = max(32, -(-total // 1_500_000))
    return exchange_reduce(
        routed, "__cl", drop_bucket, num_buckets,
        spill=spill, after_land=after_land,
    )

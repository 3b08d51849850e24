"""Deduplication stages: exact, MinHash+LSH, SimHash, n-gram Jaccard,
embedding-cosine near-dup.

The reference has no dedup (SURVEY.md §2.5 G6) — this is the
training-data-pipeline surface the brief requires as first-class.
The near-dup paths follow one scale shape:

1. per-batch vectorized signature computation (``map_batches``, numpy),
2. explode to slim (bk, id) band rows (``_band_rows``, one format for
   every LSH family) — the ONLY thing shuffled — with singleton
   buckets pruned,
3. a raw-task hash exchange on the bucket key, whose reduce runs the
   shared bucket-pairs kernel (``_bucket_pairs``) with the family's
   count rule and score,
4. a pair-key exchange whose reduce (``_pair_runs``) dedupes or counts
   the pairs → duplicate pairs / drop set.

MinHash and embedding near-dup share one chain (``_lsh_chain``) and
differ only in their payload encoder, band keys and scorer. Cluster
ids come from ``stages.cc.connected_components_bucketed`` over the
verified pairs; the default drop policy is "lowest id wins".
"""

from __future__ import annotations

import os

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import ray

from ..state.sketches import hash64
from .blocks import (
    arrow_block_refs,
    arrow_block_refs_with_rows,
    dataset_from_refs,
    map_blocks,
)
from .cc import connected_components_bucketed
from .exchange import (
    Spill,
    broadcast_filter,
    broadcast_rows_budget,
    exchange_reduce,
    land,
    sorted_lookup,
)
from .joins import bucketed_equi_join
from .textstage import tokens

_MERSENNE = np.uint64((1 << 61) - 1)
_BK_MIX = np.uint64(0x9E3779B97F4A7C15)
_KEY56 = np.uint64((1 << 56) - 1)
_NO_IDS = np.empty(0, np.int64)

#: Pairs one bucket expands at a time: a giant bucket emits its pairs in
#: slices of whole rows, so the index arrays stay bounded by this (plus
#: one row's pairs) whatever the bucket size.
_PAIR_SLICE = 8_000_000


# ---------------------------------------------------------------------------
# Shared kernels: bucket pairs, pair runs, the co-occurrence chain
# ---------------------------------------------------------------------------


def _ints(t: pa.Table, name: str) -> np.ndarray:
    """Column as int64 numpy; empty when a schema-less empty block lacks it."""
    if name not in t.column_names:
        return _NO_IDS
    return t[name].cast(pa.int64()).to_numpy(zero_copy_only=False)


def _sorted_runs(a: np.ndarray, b: np.ndarray):
    """(order sorting the rows by (a, b), sorted positions where each
    distinct (a, b) run starts)."""
    order = np.lexsort((b, a))
    a, b = a[order], b[order]
    new = np.ones(a.shape[0], bool)
    new[1:] = (a[1:] != a[:-1]) | (b[1:] != b[:-1])
    return order, np.flatnonzero(new)


def _bucket_pairs(key: np.ndarray, ids: np.ndarray, rule=None):
    """The bucket-pairs kernel every near-dup chain runs in its reduce
    buckets. Sorts one bucket's rows by (key, id), drops repeated
    (key, id) rows and gives each row its pair count: the upper
    triangle of its key group (``gsz`` rows, the row at ``pos``), unless
    ``rule(cnt, pos, gsz)`` rewrites the counts (star, oversize chain,
    df cap). Returns ``(rows, slices)``: ``rows`` indexes the input in
    that order, and ``slices`` yields ``(left, right)`` position arrays
    into ``rows`` (left < right, same key, so id_a < id_b), whole rows
    at a time and about ``_PAIR_SLICE`` pairs per slice."""
    order, first = _sorted_runs(key, ids)
    rows = order[first]
    k = key[rows]
    new = np.ones(k.shape[0], bool)
    new[1:] = k[1:] != k[:-1]
    starts = np.flatnonzero(new)
    sizes = np.diff(np.append(starts, k.shape[0]))
    pos = np.arange(k.shape[0]) - np.repeat(starts, sizes)
    gsz = np.repeat(sizes, sizes)
    cnt = gsz - 1 - pos
    if rule is not None:
        cnt = rule(cnt, pos, gsz)
    return rows, _expand_pairs(cnt)


def _expand_pairs(cnt: np.ndarray):
    """Row i pairs with the ``cnt[i]`` rows right after it: yields the
    (left, right) expansion in slices of whole rows."""
    base = np.concatenate(([0], np.cumsum(cnt)))
    total = int(base[-1])
    if total == 0:
        return
    bounds = np.searchsorted(
        base[1:], np.arange(_PAIR_SLICE, total + _PAIR_SLICE, _PAIR_SLICE)
    )
    bounds = np.unique(
        np.concatenate(([0], np.minimum(bounds + 1, cnt.shape[0])))
    )
    for s0, s1 in zip(bounds[:-1], bounds[1:]):
        c = cnt[s0:s1]
        tot = int(base[s1] - base[s0])
        if tot == 0:
            continue
        left = np.repeat(np.arange(s0, s1), c)
        right = left + 1 + np.arange(tot) - np.repeat(base[s0:s1] - base[s0], c)
        yield left, right


def _emission_rule(star: bool, cap: int):
    """Count rule of the LSH candidate emission: ``star`` pairs each
    bucket's min id with every other member; a bucket of more than
    ``cap`` docs (a giant dup cluster) emits a consecutive-id chain."""

    def rule(cnt, pos, gsz):
        if star:
            cnt = np.where(pos == 0, gsz - 1, 0)
        return np.where(gsz > cap, (pos < gsz - 1).astype(np.int64), cnt)

    return rule


def _df_cap_rule(df_cap: int):
    """Count rule dropping every key held by more than ``df_cap`` docs."""

    def rule(cnt, pos, gsz):
        return np.where(gsz > df_cap, 0, cnt)

    return rule


def _concat(parts: list, n: int) -> list:
    """n int64 columns concatenated over per-slice tuples."""
    if not parts:
        return [_NO_IDS] * n
    return [
        np.concatenate([p[i] for p in parts]).astype(np.int64, copy=False)
        for i in range(n)
    ]


def _bucket_id_pairs(key: np.ndarray, ids: np.ndarray, rule=None):
    """(id_a, id_b) of every pair :func:`_bucket_pairs` emits."""
    rows, slices = _bucket_pairs(key, ids, rule)
    s = ids[rows]
    return _concat([(s[left], s[right]) for left, right in slices], 2)


def _pair_rows(ia: np.ndarray, ib: np.ndarray, **cols) -> pa.Table:
    """Candidate pair rows for the pair-key exchange: (pk, id_a, id_b,
    *cols). ``pk`` is a routing key only; the reduce compares the real
    ids."""
    pk = (ia.astype(np.uint64) * _BK_MIX ^ ib.astype(np.uint64)).view(np.int64)
    out = {"pk": pk, "id_a": ia, "id_b": ib, **cols}
    return pa.table({k: pa.array(v, pa.int64()) for k, v in out.items()})


def _pair_runs(t: pa.Table, carry=(), count_col=None, min_count: int = 1):
    """The pair-runs kernel: one pair-key bucket's distinct (id_a, id_b)
    pairs in (id_a, id_b) order, each ``carry`` column taken from the
    pair's first row. With ``count_col`` the run length (how many rows
    carried the pair) is added and only runs >= ``min_count`` kept."""
    a, b = _ints(t, "id_a"), _ints(t, "id_b")
    order, starts = _sorted_runs(a, b)
    idx = order[starts]
    out = {"id_a": a[idx], "id_b": b[idx]}
    out.update({c: _ints(t, c)[idx] for c in carry})
    if count_col is not None:
        n = np.diff(np.append(starts, a.shape[0]))
        keep = n >= min_count
        out = {c: v[keep] for c, v in out.items()}
        out[count_col] = n[keep]
    return pa.table({k: pa.array(v, pa.int64()) for k, v in out.items()})


def cooccurrence_pairs(
    rows, key: str, count_col: str, min_count: int = 1, df_cap=None,
    num_buckets: int | None = None, spill: Spill | None = None,
):
    """The co-occurrence chain of the exact-count pair families
    (``jaccard_all_pairs``, ``winnow_overlap_pairs_ds``, the
    ``winnow_overlap_pairs`` query): (``key``, ``doc``) feature rows →
    hash exchange on the feature → every doc pair sharing it (upper
    triangle; ``df_cap`` drops features held by more docs) → hash
    exchange on the pair key → (id_a, id_b, ``count_col``) pairs sharing
    >= ``min_count`` distinct features. Repeated (feature, doc) rows
    count once. ``spill`` runs both exchanges disk-backed."""
    rule = None if df_cap is None else _df_cap_rule(df_cap)

    def emit(t: pa.Table) -> pa.Table:
        return _pair_rows(*_bucket_id_pairs(_ints(t, key), _ints(t, "doc"), rule))

    def count(t: pa.Table) -> pa.Table:
        return _pair_runs(t, count_col=count_col, min_count=min_count)

    pair_rows = exchange_reduce(rows, key, emit, num_buckets, spill=spill)
    return exchange_reduce(pair_rows, "pk", count, num_buckets, spill=spill)


# ---------------------------------------------------------------------------
# Exact dedup
# ---------------------------------------------------------------------------


def group_min_count(
    slim,
    key_col: str,
    id_col: str,
    keep: str = "min",
    num_buckets: int | None = None,
):
    """(key, win_id, count) per distinct string key via ONE raw-task
    hash exchange (``stages.exchange``): blocks split by hash64(key),
    each bucket reduced with a single vectorized sort + shifted-compare
    (key strings compared only where the 64-bit hashes collide —
    collision-exact). This is the key-count≈row-count reduce where
    Ray's sort-based ``groupby(str_key)`` measured 78 s on 10M md5
    keys vs ~2 s for the exchange (tools/exact_dedup_bench.py).
    Serves exact dedup, dup-group stats and cluster roots."""
    asc = keep == "min"

    def add_kh(t: pa.Table) -> pa.Table:
        kh = hash64(t[key_col].combine_chunks()).view(np.int64)
        return t.append_column("__kh", pa.array(kh, pa.int64()))

    keyed = slim.map_batches(add_kh, batch_format="pyarrow")

    def reduce_bucket(t: pa.Table) -> pa.Table:
        empty = pa.table(
            {
                key_col: pa.array([], pa.string()),
                "win_id": pa.array([], pa.int64()),
                "count": pa.array([], pa.int64()),
            }
        )
        if t.num_rows == 0 or key_col not in t.column_names:
            return empty
        df = t.to_pandas()
        df.sort_values(
            ["__kh", key_col, id_col],
            ascending=[True, True, asc],
            kind="stable",
            inplace=True,
        )
        kh = df["__kh"].to_numpy()
        kv = df[key_col].to_numpy()
        first = np.empty(len(df), dtype=bool)
        first[0] = True
        first[1:] = kh[1:] != kh[:-1]
        same = np.flatnonzero(~first)
        if same.shape[0]:
            first[same] = kv[same] != kv[same - 1]
        bounds = np.flatnonzero(first)
        counts = np.diff(np.concatenate((bounds, [len(df)])))
        return pa.table(
            {
                key_col: pa.array(kv[bounds], pa.string()),
                "win_id": pa.array(
                    df[id_col].to_numpy().astype(np.int64)[bounds], pa.int64()
                ),
                "count": pa.array(counts.astype(np.int64), pa.int64()),
            }
        )

    return exchange_reduce(keyed, "__kh", reduce_bucket, num_buckets)


def md5_slim(ds, text_col: str, id_col: str):
    """One scan → slim (md5(text), id) rows; text never leaves the
    scan task. Null text gets "" (distinct from md5(""))."""
    import hashlib

    def slim_hash(batch: pa.Table) -> pa.Table:
        texts = batch[text_col].to_pylist()
        h = [
            hashlib.md5(t.encode("utf-8")).hexdigest() if t is not None else ""
            for t in texts
        ]
        return pa.table(
            {
                "__md5": pa.array(h, pa.string()),
                id_col: batch[id_col].cast(pa.int64()),
            }
        )

    return ds.map_batches(slim_hash, batch_format="pyarrow")


def exact_dedup(
    ds,
    text_col: str,
    id_col: str,
    keep: str = "min",
    broadcast_limit: int | None = None,
    num_buckets: int | None = None,
):
    """Hash-partitioned exact dedup, vectorized end to end.

    Scale shape: (1) one scan emits slim (md5, id) rows — the text never
    shuffles; (2) winner ids come from ONE raw-task hash exchange over
    the 8-byte hash64(md5) key (``group_min_count``) — no per-group
    Python callable (the old ``map_groups(head(1))`` paid one pandas
    call per *distinct document*) and no sort-based string-key shuffle
    (measured 78 s vs ~2 s at 10M keys); (3) winner rows are fetched
    with a semi-join on the id column — a broadcast membership filter
    below ``broadcast_limit`` winners (one ``ray.put`` of a sorted
    int64 array + searchsorted per batch), a bucketed hash join above
    it. Assumes ``id_col`` is unique (it is the semi-join key)."""
    if keep not in ("min", "max"):
        raise ValueError(f"keep must be 'min' or 'max', got {keep!r}")

    winners = group_min_count(
        md5_slim(ds, text_col, id_col), "__md5", id_col, keep, num_buckets
    ).materialize()
    n_win = winners.count()

    if broadcast_limit is None:
        broadcast_limit = broadcast_rows_budget()
    if n_win <= broadcast_limit:
        win_np = (
            winners.select_columns(["win_id"]).to_pandas()["win_id"]
            .to_numpy()
            .astype(np.int64)
        )
        return broadcast_filter(ds, win_np, id_col)

    # winner set too large to broadcast: bucketed hash join on the id
    # column (winner ids are unique, so the inner join is a semi-join)
    win_ds = winners.map_batches(
        lambda t: pa.table({id_col: t["win_id"].cast(pa.int64())}),
        batch_format="pyarrow",
    )
    return bucketed_equi_join(
        ds, win_ds, key=id_col, num_buckets=num_buckets or 32
    )


# ---------------------------------------------------------------------------
# Shingles + MinHash
# ---------------------------------------------------------------------------


def _flat_token_ids(texts, lower: bool = False):
    """:func:`textstage.tokens` hashed: (flat uint64 token ids in doc
    order, their int64 doc index) — one ``hash64`` over the batch."""
    flat, doc = tokens(texts, lower)
    return hash64(flat), doc


def _runs(doc: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(doc of each run, run start) of a sorted doc-index array."""
    starts = np.flatnonzero(np.diff(doc, prepend=-1))
    return doc[starts], starts


def _minhash_perms(n_perm: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    rng = np.random.default_rng(seed)
    a = rng.integers(1, (1 << 61) - 1, size=n_perm, dtype=np.uint64)
    b = rng.integers(0, (1 << 61) - 1, size=n_perm, dtype=np.uint64)
    return a, b


def _flat_shingles(
    ids: np.ndarray, doc: np.ndarray, k: int
) -> tuple[np.ndarray, np.ndarray]:
    """k-token shingle hashes of a whole batch at once: one polynomial
    (FNV) sliding window over the flat token ids, keeping the full
    windows that start and end in one doc (a doc with fewer than k
    tokens has none). Returns (shingle hashes, their int64 doc index)
    in doc order, NOT de-duplicated (:func:`_distinct_grams` does)."""
    m = ids.shape[0] - k + 1
    if m <= 0:
        return np.empty(0, np.uint64), np.empty(0, np.int64)
    base = np.uint64(1099511628211)  # FNV prime
    h = np.zeros(m, dtype=np.uint64)
    for j in range(k):
        h *= base
        h += ids[j : j + m]  # uint64 wraparound is the mixing
    full = doc[k - 1 :] == doc[:m]
    return h[full], doc[:m][full]


def _distinct_grams(
    h: np.ndarray, doc: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Each doc's distinct grams, ascending, docs in order: one sort."""
    o = np.lexsort((h, doc))
    h, doc = h[o], doc[o]
    new = np.ones(h.shape[0], dtype=bool)
    new[1:] = (h[1:] != h[:-1]) | (doc[1:] != doc[:-1])
    return h[new], doc[new]


def minhash_signatures(
    texts,
    n_perm: int = 64,
    shingle_k: int = 3,
    seed: int = 1337,
) -> np.ndarray:
    """(n_docs, n_perm) uint64 MinHash signature matrix for a batch
    (``texts``: a list of str/None or an Arrow string column).

    No per-doc Python loop: the k-shingles of every doc come from one
    sliding window over the batch's flat token-id array
    (:func:`_flat_shingles`); a doc with 0 < n < k tokens has no full
    window and keeps its first token id as its one shingle, a run of
    its own after the others. Each permutation is one vectorized hash
    pass over all shingles into preallocated buffers plus one
    ``np.minimum.reduceat`` over the runs. A doc with no token keeps
    the all-max row."""
    ids, doc = _flat_token_ids(texts)
    counts = np.bincount(doc, minlength=len(texts))
    sh, sd = _flat_shingles(ids, doc, shingle_k)
    rows, starts = _runs(sd)
    short = np.flatnonzero((counts > 0) & (counts < shingle_k))
    if short.shape[0]:
        first = ids[np.cumsum(counts)[short] - counts[short]]
        starts = np.append(starts, sh.shape[0] + np.arange(short.shape[0]))
        rows = np.append(rows, short)
        sh = np.append(sh, first)
    sig = np.full((len(texts), n_perm), np.iinfo(np.uint64).max, dtype=np.uint64)
    if not rows.shape[0]:
        return sig
    a, b = _minhash_perms(n_perm, seed)
    masked = sh & _MERSENNE
    hp = np.empty_like(masked)
    mins = np.empty((n_perm, starts.shape[0]), dtype=np.uint64)
    for p in range(n_perm):
        np.multiply(masked, a[p], out=hp)  # cheap universal hash
        hp += b[p]
        hp &= _MERSENNE
        np.minimum.reduceat(hp, starts, out=mins[p])
    sig[rows] = mins.T
    return sig


def _band_hashes(sig: np.ndarray, bands: int) -> np.ndarray:
    """(n_docs, bands) uint64 — FNV fold of each band's signature rows."""
    n_perm = sig.shape[1]
    rows_per_band = n_perm // bands
    base = np.uint64(1099511628211)
    out = np.zeros((sig.shape[0], bands), dtype=np.uint64)
    for b_i in range(bands):
        seg = sig[:, b_i * rows_per_band : (b_i + 1) * rows_per_band]
        h = np.zeros(sig.shape[0], dtype=np.uint64)
        for j in range(rows_per_band):
            h = h * base + seg[:, j]
        out[:, b_i] = h
    return out


def minhash_lsh_dedup(
    ds,
    text_col: str,
    id_col: str,
    n_perm: int = 64,
    bands: int = 16,
    shingle_k: int = 3,
    jaccard_threshold: float = 0.7,
    seed: int = 1337,
    max_bucket_size: int = 256,
    small_corpus_rows: int = 100_000,
    pair_emission: str = "pairs",
    spill: Spill | None = None,
):
    """MinHash+LSH near-dup pairs, fully distributed, on the LSH chain
    (``_lsh_chain``):

    1. ONE text scan: per-batch signatures → (id, sig) rows, landed
       once (object store; at 100 TB an intermediate parquet dir —
       512 B/doc, ~0.05% of corpus bytes);
    2. band hashes derived FROM the sig rows (cheap fold, no re-scan)
       → slim (bk, id) band rows ONLY cross the banding shuffle — never
       the signature, never the text;
    3. per band bucket → candidate id pairs (buckets larger than
       ``max_bucket_size`` — giant dup clusters — emit a consecutive-id
       CHAIN instead of the quadratic pair set; connected components
       still merge the cluster);
    4. verification is a distributed signature join, NEVER on the
       driver (web corpora are ~30% near-dup — the candidate list is
       not small): two ``bucketed_equi_join`` passes attach each
       endpoint's signature to its pairs, then one vectorized map
       computes the signature-agreement Jaccard estimate.

    Every corpus size runs this one chain. ``small_corpus_rows`` is
    kept for API compatibility and ignored.

    ``pair_emission``: "pairs" (default) emits every in-bucket pair —
    exhaustive PAIR recall; "star" emits only (bucket-min → member)
    edges, so candidate volume and verify work scale with bucket
    MEMBERS, not members² — the right mode when downstream is
    connected components / corpus dedup (connectivity is all CC
    needs; duplicate-heavy corpora with ~60-member families measured
    ~20× less verify volume). Star trades away direct verification of
    member↔member edges: a member whose similarity to the bucket min
    is below threshold only joins the cluster if SOME band gives it a
    passing hub — for homogeneous dup families (the web reality)
    cluster recall is unchanged (tested + measured); for marginal
    chain-shaped families prefer "pairs".

    ``spill``: the 10^8+-doc shape. The signature, band and pruned
    tables land as parquet instead of being pinned in the object store
    (at 10^8 docs the sig table alone exceeds a node's store and
    minhash bytes are incompressible), and the candidate exchange and
    both verify joins run disk-backed. Each landing is freed after its
    last reader; results are identical (parity-tested).

    ``text_col=None``: ``ds`` already holds the chain's (id, pl)
    signature rows, as :func:`_sig_rows` builds them (``id_col`` is
    then ignored), so a caller that computes them inside its own scan
    of the corpus (the export funnel's feature scan) skips the
    signature scan here; ``n_perm``, ``shingle_k`` and ``seed`` must be
    the ones the rows were built with.

    Returns the verified pairs as a Dataset of (id_a int64, id_b int64,
    jaccard_est float64), id_a < id_b, one row per pair in no set
    order: the form downstream distributed consumers (connected
    components, corpus dedup) want, since a web corpus' pair list need
    not fit on the driver."""
    encode = None
    if text_col is not None:
        encode = _sig_rows(text_col, id_col, n_perm, shingle_k, seed)
    return _lsh_chain(
        ds, "sigs", encode,
        np.uint64, lambda sig: _band_hashes(sig, bands), _sig_agreement,
        "jaccard_est", jaccard_threshold, max_bucket_size, pair_emission,
        spill,
    )


def _sig_rows(
    text_col: str, id_col: str, n_perm: int = 64, shingle_k: int = 3,
    seed: int = 1337,
):
    """The MinHash payload encoder: batch → (id, pl) rows, ``pl`` each
    doc's signature as n_perm uint64s (defaults: ``minhash_lsh_dedup``'s)."""

    def encode(batch: pa.Table) -> pa.Table:
        sig = minhash_signatures(batch[text_col], n_perm, shingle_k, seed)
        return _payload_rows(batch[id_col], sig)

    return encode


def _sig_agreement(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """MinHash scorer: fraction of agreeing signature rows per pair."""
    return (a == b).mean(axis=1)


# ---------------------------------------------------------------------------
# The LSH chain: payload rows → band rows → prune → candidates → verify
# ---------------------------------------------------------------------------


def _payload_rows(ids, m: np.ndarray) -> pa.Table:
    """(id, pl) payload rows: each row of ``m`` as fixed-width binary
    (the verify joins carry it untouched)."""
    return pa.table(
        {
            "id": ids.cast(pa.int64()),
            "pl": pa.array([row.tobytes() for row in m], pa.binary()),
        }
    )


def _unpack(col, dtype) -> np.ndarray:
    """(n, width) ``dtype`` matrix of a fixed-width ``pl`` column."""
    if len(col) == 0:
        return np.empty((0, 0), dtype)
    return np.frombuffer(b"".join(col.to_pylist()), dtype).reshape(len(col), -1)


def _band_rows(keys: np.ndarray, ids: np.ndarray, **payload) -> pa.Table:
    """The one band-row format of the LSH families: (bk, id, *payload),
    one row per (table, doc), table-major. ``keys`` is the (n, tables)
    uint64 bucket key of every doc in every table and bk = table<<56 |
    key[:56]. Truncation can only FALSELY KEEP a singleton (a
    same-table 56-bit collision), which the verify step discards —
    never drops a real dup bucket."""
    tables = keys.shape[1]
    shift = np.arange(tables, dtype=np.uint64)[:, None] << np.uint64(56)
    bk = (shift | (keys.T & _KEY56)).reshape(-1)
    cols = {"id": np.asarray(ids, np.int64), **payload}
    return pa.table(
        {"bk": pa.array(bk.view(np.int64))}
        | {c: pa.array(np.tile(v, tables)) for c, v in cols.items()}
    )


def _lsh_chain(
    ds, landing: str, encode, dtype, band_keys, score, out_col: str,
    threshold: float, max_bucket_size: int, pair_emission: str,
    spill: Spill | None,
):
    """The LSH near-dup chain of the MinHash and embedding families.
    Each family supplies only ``encode`` (batch → (id, pl) payload rows,
    ``pl`` a fixed-width row of ``dtype``; None when ``ds`` already
    holds them), ``band_keys`` ((n, width) payload → (n, tables) uint64
    bucket keys) and ``score`` (two payload matrices → per-pair score).
    The payload rows land once as ``landing`` (banding and the verify
    joins both read them) → (bk, id) band rows → singleton prune →
    candidate exchange → verify joins → the landing is freed. Every map
    after the landing is a ``blocks.map_blocks`` (raw tasks over landed
    blocks, the lazy map over a spill landing). Returns the (id_a,
    id_b, ``out_col``) pair Dataset, typed even when empty."""
    if pair_emission not in ("pairs", "star"):
        # a typo ('Star', 'stars') would otherwise silently fall
        # through to the exhaustive all-pairs path
        raise ValueError(
            f"pair_emission must be 'pairs' or 'star', got {pair_emission!r}"
        )
    # one scan, landed once (measured: the 100M-doc MinHash chain dies
    # of store-spill ENOSPC unless its signatures land on disk)
    rows = land(ds if encode is None else map_blocks(ds, encode), spill, landing)

    def to_bands(t: pa.Table) -> pa.Table:
        if t.num_rows == 0 or "pl" not in t.column_names:
            return _band_rows(np.empty((0, 1), np.uint64), _NO_IDS)
        return _band_rows(band_keys(_unpack(t["pl"], dtype)), _ints(t, "id"))

    band_rows = _prune_singleton_buckets(map_blocks(rows, to_bands), spill)
    pairs = _candidate_pairs(band_rows, max_bucket_size, pair_emission, spill)
    verified = _verify_pairs_distributed(
        pairs, rows, dtype, score, out_col, threshold, spill
    )
    if spill is not None:
        spill.free(landing)  # the verify joins were its last readers
    return verified


def _candidate_pairs(band_rows, max_bucket_size, pair_emission, spill=None):
    """Candidate id pairs from pruned (bk, id) rows — candidate
    emission + pair dedup as two raw-task hash exchanges
    (stages/exchange). The former sort-based
    groupby(band,band_hash).map_groups + groupby(pair).aggregate pair
    was one Python call per dup bucket on top of two all-to-all
    Dataset sorts (679 s of a 1666 s 30M-doc run). Per bucket: the
    shared ``_bucket_pairs`` kernel, whose count rule here covers the
    three emission shapes (triangle = full per-row counts, star =
    counts only on run heads, oversize chain = count 1/row); the pair
    dedup is ``_pair_runs``. Returns the (small) distinct pair Dataset
    as ``exchange_reduce`` leaves it: the reduce tasks' output blocks,
    already executed, so the verify joins read them without another
    Ray Data execution.

    ``spill``: the candidate-emission exchange runs disk-backed (the
    10⁹-doc tier, where the pruned band rows exceed the object store)
    and frees the pruned landing it consumed. The pair-dedup exchange
    stays in-plasma: its input is candidate-pair-sized, orders of
    magnitude slimmer."""
    rule = _emission_rule(pair_emission == "star", max_bucket_size)

    def emit_candidates(t: pa.Table) -> pa.Table:
        return _pair_rows(*_bucket_id_pairs(_ints(t, "bk"), _ints(t, "id"), rule))

    cand = exchange_reduce(band_rows, "bk", emit_candidates, spill=spill)
    del band_rows
    if spill is not None:
        spill.free("pruned")  # the exchange landing was its last read

    return exchange_reduce(cand, "pk", _pair_runs)


def _repeated_keys(t: pa.Table) -> pa.Table:
    """Hot-key reduce of the prune: the distinct ``bk`` values of one
    bucket held by at least two rows."""
    k = np.sort(_ints(t, "bk"))
    return pa.table({"bk": pa.array(np.unique(k[1:][k[1:] == k[:-1]]), pa.int64())})


def _prune_singleton_buckets(band_rows, spill: Spill | None = None):
    """Drop band buckets holding a single doc before the candidate
    exchange: nearly every bucket is a singleton (no candidate pair can
    come out of it), so only the dup buckets' rows — a few % of the
    band rows on web corpora — cross the wide candidate exchange, its
    bucket-pairs reduce and, under ``spill``, its landing. Hot keys
    (``bk`` values held by ≥2 rows) come from one ``exchange_reduce``
    over the projected 8-byte ``bk`` column, then one broadcast filter
    (or, past the broadcast budget, a ``bucketed_equi_join`` against
    the hot keys) — all distributed. ``spill``: land the band rows
    (tens of GB at 10⁸ docs × 12-28 tables, larger than a node's store;
    both passes below stream them from disk) and the filtered rows
    (store-sized for a dup-heavy corpus × 10⁹ docs) as parquet. The
    band landing is freed once the filtered copy has committed; the
    caller frees ``"pruned"`` after its last read."""
    # land the band rows once: the key pass and the filter pass would
    # otherwise each re-execute the signature scan through lineage
    band_rows = land(band_rows, spill, "bands")
    # pin ONLY the 8-byte keys for the hot-key exchange: pinning the
    # full band rows would re-materialize a just-landed table into the
    # store (45 GB at 50M docs × 28 tables vs a 37.6 GB store —
    # measured: raylet spilled it straight back to disk until ENOSPC)
    keys = map_blocks(band_rows, lambda t: pa.table({"bk": _ints(t, "bk")}))
    hot = exchange_reduce(keys, "bk", _repeated_keys)
    refs, n_hot, _ = arrow_block_refs_with_rows(hot)
    if n_hot is not None and n_hot <= broadcast_rows_budget(
        bytes_per_row=8, fraction=0.004
    ):
        # dup buckets are few (the common case — planted-dup corpora
        # measure <1% of docs in dup buckets): broadcast the keys once
        hot_np = np.concatenate([_ints(t, "bk") for t in ray.get(refs)])
        pruned = broadcast_filter(band_rows, hot_np, "bk")
    else:
        # dup-heavy corpus: a broadcast would pin too much worker heap,
        # so join against the hot keys (unique, so the inner join acts
        # as a semi-join)
        pruned = bucketed_equi_join(band_rows, hot, "bk", spill=spill)
    pruned = land(pruned, spill, "pruned")
    if spill is not None:
        spill.free("bands")  # the pruned landing was its last read
    return pruned


@ray.remote
def _pair_endpoints(t: pa.Table) -> np.ndarray:
    """Distinct endpoint ids of one candidate-pair block."""
    return np.unique(np.concatenate((_ints(t, "id_a"), _ints(t, "id_b"))))


def _scored_pairs(ia, ib, est, out_col: str) -> pa.Table:
    return pa.table(
        {
            "id_a": pa.array(ia, pa.int64()),
            "id_b": pa.array(ib, pa.int64()),
            out_col: pa.array(est, pa.float64()),
        }
    )


def _endpoint_side(t: pa.Table, side: str) -> pa.Table:
    """Payload rows (id, pl) as one verify-join side (id_<side>, pl_<side>)."""
    pl = t["pl"] if "pl" in t.column_names else pa.array([], pa.binary())
    return pa.table({f"id_{side}": _ints(t, "id"), f"pl_{side}": pl})


def _verify_pairs_distributed(
    pairs, rows, dtype, score, out_col: str, threshold: float,
    spill: Spill | None,
):
    """Distributed pair verify: two bucketed hash joins attach each
    endpoint's (id, pl) payload row to its candidate pairs, then one
    vectorized map scores the two unpacked payloads (``score``) and
    keeps pairs >= ``threshold``. The joins shuffle pair ids + one
    payload per row (KBs per partition), never text; nothing touches
    the driver. Returns a Dataset of (id_a, id_b, ``out_col``).

    Endpoint pre-filter: the candidate list is usually orders of
    magnitude smaller than the corpus, yet a naive join re-shuffles the
    FULL payload table both times (~4.2 GB twice at 30M docs for
    ~300k pairs — measured 432 s of a 1666 s run). When the distinct
    endpoint count fits the broadcast budget (8 B/id — 160 MB at the
    20M default), broadcast it once and filter the payload rows to only
    the referenced docs in one scan, so the joins shuffle
    candidate-sized tables. Dup-heavy corpora past the limit fall back
    to the full join, which is then the right shape anyway.

    ``spill``: both joins run disk-backed (a 60M-doc funnel's
    candidate-pair × payload join spilled past the raylet disk monitor
    through the in-plasma exchange — measured); only the SCORED pairs,
    threshold-filtered with payloads dropped, are materialized."""
    n_pairs = pairs.count()
    if n_pairs == 0:
        # typed even when empty: a map over no blocks has no schema
        empty = _scored_pairs(_NO_IDS, _NO_IDS, [], out_col)
        return dataset_from_refs([ray.put(empty)])
    limit = broadcast_rows_budget(bytes_per_row=8, fraction=0.004)
    # gate on the ACTUAL distinct endpoint count, not the 2·n_pairs
    # proxy: star emission makes endpoints ≈ n_pairs (each member pairs
    # with its bucket hub), so the proxy overcounts ~2× and a 60M-doc
    # funnel whose candidates sat just over the proxy skipped the
    # filter — the full-corpus-payload join then OOM-killed its
    # workers (measured). Collecting the endpoint ids to decide
    # costs 16 B × 2·n_pairs transient driver memory; cap that at 8×
    # the budget (~2.6 GB at the 20M default) and assume over-budget
    # beyond it.
    if 2 * n_pairs <= 8 * limit:
        parts = ray.get(
            [_pair_endpoints.remote(r) for r in arrow_block_refs(pairs)]
        )
        eps = np.unique(np.concatenate(parts))
        if eps.shape[0] <= limit:
            # land the (endpoint-sized) subset: sa and sb both branch
            # off it, so an unlanded filter would rescan the full
            # payload table twice
            rows = broadcast_filter(rows, eps, "id").materialize()

    sa = map_blocks(rows, lambda t: _endpoint_side(t, "a"))
    sb = map_blocks(rows, lambda t: _endpoint_side(t, "b"))
    # the raw-task bucket-exchange join pins ~2 copies of each side
    # (block refs + split outputs) in the object store: fine for
    # endpoint-filtered sides; a full-corpus payload side needs
    # ``spill`` (measured at 30M×64d with >10M candidates in plasma:
    # ~35 GB of raylet spill → OutOfDiskError). Materialize between
    # the two so the second join reads landed blocks. The fan-out sizes
    # itself to the candidate volume (RefBundle row metadata, no extra
    # execution).
    j1 = bucketed_equi_join(pairs, sa, "id_a", spill=spill).materialize()
    j = bucketed_equi_join(j1, sb, "id_b", spill=spill)

    def est_batch(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return _scored_pairs(_NO_IDS, _NO_IDS, [], out_col)
        e = score(_unpack(t["pl_a"], dtype), _unpack(t["pl_b"], dtype))
        keep = e >= threshold
        return _scored_pairs(
            _ints(t, "id_a")[keep], _ints(t, "id_b")[keep], e[keep], out_col
        )

    scored = map_blocks(j, est_batch)
    return scored if spill is None else scored.materialize()


# ---------------------------------------------------------------------------
# SimHash
# ---------------------------------------------------------------------------


_POP8 = np.array([bin(i).count("1") for i in range(256)], dtype=np.uint8)


def _popcount64(x: np.ndarray) -> np.ndarray:
    """Vectorized popcount of a uint64 array via a byte lookup table
    (numpy < 2.0 has no ``bitwise_count``)."""
    x = np.ascontiguousarray(x, dtype=np.uint64)
    return _POP8[x.view(np.uint8)].reshape(-1, 8).sum(axis=1, dtype=np.int64)


def simhash_signatures(texts: list[str | None], seed: int = 7) -> np.ndarray:
    """64-bit SimHash per doc from token hashes (unit weights): sign of
    the per-bit sum of ±1 votes.

    Batch-vectorized over the flat token-id array: per bit position j,
    ONE shift/mask over all ids and ONE ``np.add.reduceat`` over the
    doc runs give every doc's bit-j vote sum — 64 vectorized passes
    total, no per-doc Python loop (bit-identical to the per-doc
    formulation: bit set iff 2·Σbits − n_tokens > 0)."""
    return _simhash_words(texts, 1)[:, 0]


def _simhash_words(texts, words: int) -> np.ndarray:
    """(n, words) uint64 SimHash words: word 0 votes on the token ids,
    word 1 (when ``words`` is 2) on their splitmix64 remix."""
    ids, doc = _flat_token_ids(texts)
    out = np.zeros((len(texts), words), dtype=np.uint64)
    rows, starts = _runs(doc)
    if rows.shape[0]:
        cnt = np.diff(starts, append=ids.shape[0])
        out[rows, 0] = _simhash_votes(ids, starts, cnt)
        if words == 2:
            out[rows, 1] = _simhash_votes(_remix64(ids), starts, cnt)
    return out


def _simhash_votes(
    flat: np.ndarray, offs: np.ndarray, cnz: np.ndarray
) -> np.ndarray:
    """One 64-bit signature word per doc from a flat token-hash stream:
    64 shift/mask + ``np.add.reduceat`` passes (see simhash_signatures)."""
    sig = np.zeros(offs.shape[0], dtype=np.uint64)
    for j in range(64):
        bit_j = ((flat >> np.uint64(j)) & np.uint64(1)).astype(np.int64)
        sums = np.add.reduceat(bit_j, offs)
        sig |= ((2 * sums - cnz) > 0).astype(np.uint64) << np.uint64(j)
    return sig


def _remix64(x: np.ndarray) -> np.ndarray:
    """splitmix64 finalizer — a decorrelated second 64-bit hash stream
    from the same token ids (the 128-bit signature's upper word)."""
    with np.errstate(over="ignore"):
        z = x + np.uint64(0x9E3779B97F4A7C15)
        z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
        z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
        return z ^ (z >> np.uint64(31))


def simhash128_signatures(
    texts: list[str | None], seed: int = 7
) -> np.ndarray:
    """128-bit SimHash per doc as an (n, 2) uint64 array [lo, hi]: the
    low word votes on the raw token hashes (IDENTICAL to the 64-bit
    ``simhash_signatures``), the high word on a splitmix64 remix of the
    same ids — one extra pass over the flat stream, no re-tokenization.

    Why 128 bits: hamming ≤ 3 banding over a 64-bit signature forces
    16-bit bands (4 × 16), whose 65,536-bucket space saturates around
    10⁷ docs (measured r3: expected occupancy 10⁸/2¹⁶ ≈ 1,500 →
    occupancy² verify). 128 bits buy 32-bit bands (4 × 32 — pigeonhole
    still covers ≤ 3 flips... of the now-finer 128-bit distance) with a
    4.3-billion-bucket space per band: occupancy stays ≈ n/2³² « 1 at
    10⁸ docs. Note the distance SCALE changes: a one-edit doc pair
    lands at roughly 2× its 64-bit hamming distance — pick
    ``max_hamming`` per signature width."""
    return _simhash_words(texts, 2)


def simhash_dedup(
    ds,
    text_col: str,
    id_col: str,
    max_hamming: int = 3,
    n_bands: int = 4,
    sig_bits: int = 64,
    table_design: str = "all",
    spill: Spill | None = None,
):
    """SimHash near-dup: banded bucket keys (any doc pair within the
    guaranteed hamming radius shares ≥1 exact key by pigeonhole) →
    verify hamming distance within buckets.

    Two signature widths:

    - ``sig_bits=64`` (default): 4×16-bit single-block bands —
      guarantee hamming ≤ n_bands−1 (3). The 2¹⁶ bucket space per band
      SATURATES around 10⁷ docs (measured r3: occupancy² verify) — use
      64-bit below that scale.
    - ``sig_bits=128``: the 10⁸-doc shape. The 128-bit signature
      (``simhash128_signatures``) splits into 8×16-bit blocks and every
      C(8,2)=28 block PAIR keys a table (Manku-style combination
      banding): ≤6 flipped bits touch ≤6 blocks, leaving ≥2 clean
      blocks whose pair-table both docs share — recall GUARANTEED to
      hamming ≤ 6 (≈ the 64-bit ≤3 semantic at the 2× finer distance
      scale) with 32-bit keys, so bucket occupancy stays ~n/2³² « 1
      at 10⁸ docs. 28 slim rows/doc instead of 4 is the price.
      ``table_design="matching"`` keys only the perfect matching
      {(0,1),(2,3),(4,5),(6,7)} — 4 tables, SAME row volume as the
      64-bit mode, 32-bit keys: ≤3 flipped bits leave ≥5 clean
      blocks, and 5 vertices over 4 disjoint edges must contain a
      full edge (pigeonhole), so recall is GUARANTEED
      to hamming ≤ 3 with flat occupancy at 10⁸ docs — the cheap
      high-capacity mode; beyond radius 3 it is probabilistic.
      ``table_design="cliques"`` (two disjoint K4s, 12 tables) is the
      middle point: ≤5 flips leave ≥3 clean blocks, two of which
      share a clique — hamming ≤ 5 guaranteed at 3× matching's row
      volume (provably minimal for h≤5: the uncovered pair graph
      must be triangle-free, Turán caps it at 16 of 28 edges).
      ``table_design="triples"`` (disjoint cliques of sizes 3/3/2,
      7 tables): ≤4 flips leave ≥4 clean blocks; any 4 vertices over
      three cliques put two in one clique (pigeonhole) — hamming ≤ 4
      guaranteed. Minimal too: independence number ≤ 3 forces the
      complement K4-free, Turán caps it at 21 of 28 edges → ≥7
      tables. The full guaranteed design space is 4/h≤3, 7/h≤4,
      12/h≤5, 28/h≤6 — each provably minimal by the same argument
      (h flips leave ≥ 8−h clean blocks; covering every (8−h)-subset
      with an edge ⇔ independence ≤ 7−h ⇔ complement K(8−h)-free ⇔
      Turán bound). ``n_bands`` is ignored in this mode.

    Scale shape (same exchange machinery as the MinHash chain, but
    with NO verify join — the whole verify payload is the 8/16-byte
    signature, so it rides the band rows): one scan emits slim
    (bk = table<<56|key, id, sig words) rows, singleton buckets are
    pruned, ONE raw-task hash exchange runs a fully vectorized
    per-bucket kernel (lexsort → run detection → sliced upper-triangle
    pair expansion → XOR + table popcount → threshold), and a second
    exchange dedupes pairs found in several tables. No per-bucket
    Python callable, no Dataset sort shuffles.

    ``spill``: the band-row table (12-28 rows × 32 B per doc at 128
    bits — 38-90 GB at 10⁸ docs, larger than a node's store) and the
    pruned rows land as parquet, and the verify exchange runs
    disk-backed (``spill.phases`` split-phase for volumes that cannot
    hold input + one landed copy). Each landing is freed after its
    last reader; results are byte-identical (parity-tested)."""

    if sig_bits not in (64, 128):
        raise ValueError(f"sig_bits must be 64 or 128, got {sig_bits}")
    if table_design not in ("all", "matching", "triples", "cliques"):
        raise ValueError(
            "table_design must be 'all', 'matching', 'triples' or "
            f"'cliques', got {table_design!r}"
        )
    sig_cols = ["simhash"] if sig_bits == 64 else ["sh_lo", "sh_hi"]

    def add_simhash(batch: pa.Table) -> pa.Table:
        ids = _ints(batch, id_col)
        texts = batch[text_col].to_pylist()
        if sig_bits == 64:
            sh = simhash_signatures(texts)
            band_w = 64 // n_bands
            shifts = np.uint64(band_w) * np.arange(n_bands, dtype=np.uint64)
            keys = (sh[:, None] >> shifts) & np.uint64((1 << band_w) - 1)
            return _band_rows(keys, ids, simhash=sh)
        from itertools import combinations

        sig = simhash128_signatures(texts)
        lo, hi = sig[:, 0], sig[:, 1]
        # 16-bit blocks 0-3 of the low word, 4-7 of the high word
        blocks = [
            (w >> np.uint64(16 * b)) & np.uint64(0xFFFF)
            for w in (lo, hi) for b in range(4)
        ]
        if table_design == "matching":
            combos = [(0, 1), (2, 3), (4, 5), (6, 7)]  # h≤3, 4 tables
        elif table_design == "triples":
            # disjoint cliques 3/3/2: any 4 clean blocks put 2 in one
            # clique → h≤4 guaranteed with 7 tables (minimal: Turán)
            combos = [
                (0, 1), (0, 2), (1, 2),
                (3, 4), (3, 5), (4, 5),
                (6, 7),
            ]
        elif table_design == "cliques":
            # two disjoint K4s: any 3 clean blocks put 2 in one clique
            # (pigeonhole) whose pair-table both docs share → h≤5
            # guaranteed with 12 tables (provably minimal: the
            # complement must be triangle-free, Turán caps it at 16 of
            # the 28 edges)
            combos = [
                (i, j) for g in (range(4), range(4, 8))
                for i in g for j in g if i < j
            ]
        else:
            combos = list(combinations(range(8), 2))  # h≤6, 28 tables
        keys = np.stack(
            [(blocks[i] << np.uint64(16)) | blocks[j] for i, j in combos], axis=1
        )
        return _band_rows(keys, ids, sh_lo=lo, sh_hi=hi)

    band_rows = _prune_singleton_buckets(
        ds.map_batches(add_simhash, batch_format="pyarrow"), spill
    )

    def verify_bucket(t: pa.Table) -> pa.Table:
        ids = _ints(t, "id")
        rows, slices = _bucket_pairs(_ints(t, "bk"), ids)
        ids = ids[rows]
        shs = [
            t[c].to_numpy(zero_copy_only=False).astype(np.uint64)[rows]
            for c in sig_cols
            if c in t.column_names
        ]
        outs = []
        # only pairs that PASS the hamming check outlive their slice
        for left, right in slices:
            ham = sum(_popcount64(s[left] ^ s[right]) for s in shs)
            m = ham <= max_hamming
            outs.append((ids[left[m]], ids[right[m]], ham[m]))
        ia, ib, hm = _concat(outs, 3)
        return _pair_rows(ia, ib, hamming=hm)

    cand = exchange_reduce(band_rows, "bk", verify_bucket, spill=spill)
    del band_rows
    if spill is not None:
        spill.free("pruned")  # the exchange landing was its last read

    def distinct_pairs(t: pa.Table) -> pa.Table:
        return _pair_runs(t, carry=("hamming",))

    return exchange_reduce(cand, "pk", distinct_pairs)


# ---------------------------------------------------------------------------
# Exact n-gram Jaccard
# ---------------------------------------------------------------------------


def jaccard_all_pairs(
    ds,
    text_col: str,
    id_col: str,
    n: int = 3,
    threshold: float = 0.8,
    num_buckets: int | None = None,
    broadcast_limit: int | None = None,
):
    """Globally EXACT n-gram Jaccard pairs (id_a < id_b, jaccard >=
    threshold) — the exact ground truth the MinHash-LSH chain
    approximates. `tests/test_dedup.py` pins the LSH path's recall
    against this op, and the SQL twin (JACCARD_EXACT_SQL in
    pipelines/queries.py) checks it value-for-value against DuckDB.

    Shape (three slim raw-task exchanges; text never leaves the scan):
      1. one scan → distinct (shingle_hash, doc_id) rows per doc —
         same whitespace tokenization as the LSH chain, but docs with
         fewer than ``n`` tokens have NO shingles and never pair
         (clean set-Jaccard, which is what SQL can express; the LSH
         verify's first-token fallback for short docs is the one
         documented divergence),
      2. the shared co-occurrence chain (``cooccurrence_pairs``, no df
         cap, every count kept): shingle exchange → upper-triangle pair
         expansion per shingle group → pair-key exchange → |A∩B| as
         run-length counts,
      3. an exchange on doc → shingle counts; |A∪B| = n_a + n_b − inter
         via a broadcast sizes lookup (≤ ``broadcast_limit`` docs) or
         two bucketed equi-joins above it.

    SCALE CAVEAT (inherent to exactness): a shingle shared by g docs
    emits g(g−1)/2 pair rows, so boilerplate-heavy corpora blow up
    step 2 quadratically — which is exactly why the LSH chain exists.
    """

    def to_shingle_rows(t: pa.Table) -> pa.Table:
        # full windows only: a doc with < n tokens has no shingles —
        # mirrors the SQL twin exactly
        ids, doc = _flat_token_ids(t[text_col])
        sh, doc = _distinct_grams(*_flat_shingles(ids, doc, n))
        return pa.table(
            {
                "sh": pa.array(sh.view(np.int64), pa.int64()),
                "doc": pa.array(_ints(t, id_col)[doc], pa.int64()),
            }
        )

    slim = ds.map_batches(to_shingle_rows, batch_format="pyarrow").materialize()
    inter = cooccurrence_pairs(slim, "sh", "inter", num_buckets=num_buckets)

    def count_docs(t: pa.Table) -> pa.Table:
        d, c = np.unique(_ints(t, "doc"), return_counts=True)
        return pa.table(
            {"doc": pa.array(d, pa.int64()), "n_sh": pa.array(c, pa.int64())}
        )

    sizes = exchange_reduce(slim, "doc", count_docs, num_buckets)
    thr = float(threshold)

    def score(t: pa.Table, na: np.ndarray, nb: np.ndarray) -> pa.Table:
        c = _ints(t, "inter").astype(np.float64)
        jac = c / (na + nb - c)
        keep = jac >= thr
        return pa.table(
            {
                "id_a": pa.array(_ints(t, "id_a")[keep], pa.int64()),
                "id_b": pa.array(_ints(t, "id_b")[keep], pa.int64()),
                "jaccard": pa.array(jac[keep], pa.float64()),
            }
        )

    if broadcast_limit is None:
        broadcast_limit = broadcast_rows_budget()
    if sizes.count() <= broadcast_limit:
        parts = [p for p in ray.get(arrow_block_refs(sizes)) if p.num_rows]
        st = pa.concat_tables(parts) if parts else count_docs(pa.table({}))
        order = np.argsort(_ints(st, "doc"))
        size_ref = ray.put((_ints(st, "doc")[order], _ints(st, "n_sh")[order]))

        def finish_bcast(t: pa.Table) -> pa.Table:
            docs, ns = ray.get(size_ref)
            na = ns[np.searchsorted(docs, _ints(t, "id_a"))]
            return score(t, na, ns[np.searchsorted(docs, _ints(t, "id_b"))])

        return inter.map_batches(finish_bcast, batch_format="pyarrow")

    # sizes too large to broadcast: two bucketed hash equi-joins

    sa = sizes.map_batches(
        lambda t: pa.table({"id_a": t["doc"], "n_a": t["n_sh"]}),
        batch_format="pyarrow",
    )
    sb = sizes.map_batches(
        lambda t: pa.table({"id_b": t["doc"], "n_b": t["n_sh"]}),
        batch_format="pyarrow",
    )
    joined = bucketed_equi_join(
        bucketed_equi_join(inter, sa, key="id_a"), sb, key="id_b"
    )
    return joined.map_batches(
        lambda t: score(t, _ints(t, "n_a"), _ints(t, "n_b")),
        batch_format="pyarrow",
    )


# ---------------------------------------------------------------------------
# Embedding-cosine near-dup
# ---------------------------------------------------------------------------


def embedding_lsh_params(
    n_docs: int,
    threshold: float,
    n_planes: int | None = None,
    n_bands: int | None = None,
    target_recall: float = 0.95,
) -> tuple[int, int]:
    """Hyperplane-LSH tuning. The plane count MUST grow with corpus
    size: random hyperplanes cut an isotropic corpus into at most
    2^n_planes cells, so a fixed 12-plane table over 1M docs leaves
    ~244 docs per bucket and candidate emission goes quadratic
    (measured: 71 GB of spilled candidate pairs at 1M×64d before this
    guard existed). Rule: n_planes ≈ log2(n_docs) + 8 keeps expected
    RANDOM-pair collisions per band near n_docs/256 under the uniform
    model — and hyperplane cells over gaussian corpora are SKEWED
    (unequal solid angles), so the real collision count runs well
    above the uniform estimate: the earlier log2+4 rule (n_docs/16
    uniform) measured 41.8 s at 10M×64d vs 25.3 s for log2+8 with
    IDENTICAL output pairs — the noise-candidate cut dwarfs the ~20%
    extra band rows from the recall-compensating bands. n_bands then
    solves the target recall given the per-band hit rate
    p_band = (1 − θ/π)^n_planes (capped at 64 — a low threshold with
    many planes can make the target unreachable; callers wanting
    exhaustive low-threshold pairs should use
    ``similarity.cosine_all_pairs`` instead)."""
    if n_planes is None:
        n_planes = max(12, int(np.ceil(np.log2(max(n_docs, 2)))) + 8)
    if n_bands is None:
        theta = float(np.arccos(np.clip(threshold, -1.0, 1.0)))
        p_band = (1.0 - theta / np.pi) ** n_planes
        if p_band >= 1.0:
            n_bands = 1
        else:
            n_bands = int(
                np.clip(
                    np.ceil(np.log(1 - target_recall) / np.log(1 - p_band)),
                    1,
                    64,
                )
            )
    return n_planes, n_bands


def embedding_neardup(
    ds,
    vec_col: str,
    id_col: str,
    threshold: float = 0.95,
    n_planes: int | None = None,
    seed: int = 99,
    dim: int | None = None,
    n_bands: int | None = None,
    small_corpus_rows: int = 100_000,
    max_bucket_size: int = 256,
    pair_emission: str = "pairs",
    spill: Spill | None = None,
):
    """Near-dup by cosine similarity over an embedding column:
    ``n_bands`` independent random-hyperplane LSH tables (planes
    seeded per band, deterministic) → exact cosine verify → pair
    dedupe.

    ``n_planes``/``n_bands`` default to corpus-size- and
    threshold-aware auto-tuning (``embedding_lsh_params``): planes
    scale with log2(corpus) so buckets stay small and candidate
    volume linear; bands solve a 0.95 target recall. A SINGLE
    12-plane table catches a cos=0.95 pair with probability
    (1 − θ/π)^12 ≈ 0.28 — banding is what buys recall.
    Exact ground truth / recall measurement:
    ``stages.similarity.cosine_all_pairs``; verified pairs are always a
    subset of it (precision 1.0) because the verify recomputes the true
    cosine.

    One code path for every corpus size, the LSH chain of
    ``minhash_lsh_dedup`` (``_lsh_chain``): one scan lands normalized
    float32 (id, vn) rows (4·d B/doc, once, NOT per band), only slim
    (bk, id) rows cross the banding shuffle, singleton buckets are
    pruned, the shared ``_candidate_pairs`` exchanges emit distinct
    candidate pairs (``pair_emission``/``max_bucket_size`` as in
    ``minhash_lsh_dedup``), and verify is the distributed payload join
    with a dot-product scorer. Returns a Dataset of (id_a, id_b,
    cosine). ``small_corpus_rows`` is kept for API compatibility and
    ignored.

    ``spill`` lands every intermediate table and runs the exchange and
    joins disk-backed, as in ``minhash_lsh_dedup``. The vector table
    (7.7 GB at 30M×64d, incompressible) is then streamed by both of its
    readers instead of pinned in the object store against the banding
    and verify shuffles (a 30M×64d run without it died in raylet-spill
    ENOSPC on an ~80 GB disk).
    """
    from .similarity import _normalize, _to_matrix

    n_planes, n_bands = embedding_lsh_params(
        ds.count(), threshold, n_planes, n_bands
    )
    pows = (np.uint64(1) << np.arange(n_planes, dtype=np.uint64))[::-1]
    planes: list = []  # drawn once per worker, at the first batch's width

    def encode(batch: pa.Table) -> pa.Table:
        vn = _normalize(_to_matrix(batch[vec_col], np.float64))
        return _payload_rows(batch[id_col], vn.astype(np.float32))

    def band_keys(vn: np.ndarray) -> np.ndarray:
        if not planes:
            planes.append(
                np.random.default_rng(seed).normal(
                    size=(dim or vn.shape[1], n_planes * n_bands)
                )
            )
        bits = (vn.astype(np.float64) @ planes[0] > 0).reshape(
            -1, n_bands, n_planes
        )
        return (bits.astype(np.uint64) * pows).sum(axis=2)  # (n, n_bands)

    def cosine(a: np.ndarray, b: np.ndarray) -> np.ndarray:
        return np.einsum("ij,ij->i", a.astype(np.float64), b.astype(np.float64))

    return _lsh_chain(
        ds, "vecs", encode, np.float32, band_keys, cosine, "cosine",
        threshold, max_bucket_size, pair_emission, spill,
    )


# ---------------------------------------------------------------------------
# Line-level exact dedup (C4-style)
# ---------------------------------------------------------------------------


def line_dedup(
    ds,
    text_col: str = "text",
    id_col: str = "doc_id",
    sep: str = "\n",
    num_buckets: int | None = None,
):
    """C4-style global line-level dedup (Raffel et al. 2020): every
    distinct non-empty line is kept only at its FIRST occurrence ordered
    by (doc id, line position); documents are reassembled from their
    kept lines, preserving line order; docs whose every line lost
    vanish. EMPTY lines are structural (every ``\\n\\n`` paragraph
    separator splits to one) and are exempt — they pass through to
    reassembly unconditionally, so corpus-wide paragraph structure
    survives.

    Scale shape: two raw-task hash exchanges
    (``stages.exchange.exchange_reduce``), no join, no per-group Python.
    The first exchange buckets by ``hash64(line)`` — an 8-byte routing
    key instead of multi-KB line text as a sort key — and selects
    winners with one vectorized sort + shifted-compare per bucket (line
    text is compared only where the 64-bit hashes collide, so hash
    collisions cannot merge distinct lines). The second exchange buckets
    by doc id and reassembles every doc in the bucket with ONE Arrow
    ``binary_join`` over a list array built from numpy offsets. The
    line text crosses each exchange exactly once (it must: it is the
    output). Buckets must fit a worker's heap — size ``num_buckets``
    (default max(8, CPUs)) to the corpus."""

    def explode(t: pa.Table) -> pa.Table:
        txt = pc.fill_null(t[text_col].combine_chunks(), "")
        lines = pc.split_pattern(txt, sep)
        flat = pc.list_flatten(lines)
        n_per = pc.list_value_length(lines).to_numpy().astype(np.int64)
        rid = np.repeat(t[id_col].to_numpy(zero_copy_only=False), n_per)
        starts = np.repeat(np.cumsum(n_per) - n_per, n_per)
        line_no = np.arange(len(flat), dtype=np.int64) - starts + 1
        lh = hash64(flat).view(np.int64)
        return pa.table(
            {
                "line": flat,
                id_col: pa.array(rid, pa.int64()),
                "line_no": pa.array(line_no, pa.int64()),
                "__lh": pa.array(lh, pa.int64()),
            }
        )

    lines = ds.map_batches(explode, batch_format="pyarrow")

    def winner_bucket(t: pa.Table) -> pa.Table:
        t = t.combine_chunks()
        if t.num_rows == 0:
            return pa.table(
                {
                    "line": pa.array([], pa.string()),
                    id_col: pa.array([], pa.int64()),
                    "line_no": pa.array([], pa.int64()),
                }
            )
        df = t.to_pandas()
        df.sort_values(
            ["__lh", "line", id_col, "line_no"], kind="stable", inplace=True
        )
        lh = df["__lh"].to_numpy()
        ln = df["line"].to_numpy()
        first = np.empty(len(df), dtype=bool)
        first[0] = True
        first[1:] = lh[1:] != lh[:-1]
        # hash-equal neighbours: confirm with a string compare (exact)
        same = np.flatnonzero(~first)
        if same.shape[0]:
            first[same] = ln[same] != ln[same - 1]
        keep = first | (ln == "")  # empty lines always pass through
        out = df.loc[keep, ["line", id_col, "line_no"]]
        return pa.Table.from_pandas(out, preserve_index=False)

    kept = exchange_reduce(lines, "__lh", winner_bucket, num_buckets)

    def assemble_bucket(t: pa.Table) -> pa.Table:
        t = t.combine_chunks()
        if t.num_rows == 0:
            return pa.table(
                {
                    id_col: pa.array([], pa.int64()),
                    "text_deduped": pa.array([], pa.string()),
                }
            )
        ids = t[id_col].to_numpy(zero_copy_only=False).astype(np.int64)
        lno = t["line_no"].to_numpy(zero_copy_only=False)
        order = np.lexsort((lno, ids))
        ids_s = ids[order]
        col = t["line"]
        arr = col.chunk(0) if isinstance(col, pa.ChunkedArray) else col
        lines_s = arr.take(pa.array(order))
        bnd = np.flatnonzero(
            np.concatenate(([True], ids_s[1:] != ids_s[:-1]))
        )
        offsets = np.concatenate((bnd, [ids_s.shape[0]])).astype(np.int64)
        la = pa.LargeListArray.from_arrays(
            pa.array(offsets, pa.int64()), lines_s
        )
        return pa.table(
            {
                id_col: pa.array(ids_s[bnd], pa.int64()),
                "text_deduped": pc.binary_join(la, sep),
            }
        )

    return exchange_reduce(kept, id_col, assemble_bucket, num_buckets)


# ---------------------------------------------------------------------------
# End-to-end near-dup corpus dedup
# ---------------------------------------------------------------------------


def neardup_drop_ids(
    ds,
    text_col: str = "text",
    id_col: str = "doc_id",
    jaccard_threshold: float = 0.7,
    pair_emission: str = "star",
    **lsh_kwargs,
):
    """Near-dup DECISION: the slim Dataset of doc ids to drop (one
    ``node`` int64 column — the non-canonical members of every near-dup
    cluster), or ``None`` when the corpus has no near-dups. MinHash+LSH
    verified pairs (a Dataset — a web corpus' pair list need not fit
    on the driver) → distributed connected components → drop
    every member whose label != its own id (canonical = min member id).

    Split out from :func:`neardup_dedup_corpus` so curation pipelines
    can checkpoint the decision (8 B/doc parquet) separately from the
    apply scan — a resumed export reloads the ids instead of re-running
    the LSH chain.

    Defaults to STAR pair emission (see minhash_lsh_dedup): CC only
    needs connectivity, and on a heavy-family corpus (400k docs, ~60
    member one-edit families) star measured 48 s vs 535 s for
    all-pairs with byte-identical drop sets. Pass
    ``pair_emission="pairs"`` for exhaustive pair verification when
    families are marginal/chain-shaped. ``text_col=None`` takes ``ds``
    as precomputed (id, pl) signature rows (see minhash_lsh_dedup)."""
    return _non_canonical_ids(
        minhash_lsh_dedup(
            ds,
            text_col,
            id_col,
            jaccard_threshold=jaccard_threshold,
            pair_emission=pair_emission,
            **lsh_kwargs,
        )
    )


def _non_canonical_ids(pairs):
    """Pair Dataset (id_a, id_b, ...) → the drop-id Dataset of every
    near-dup family: distributed connected components, then each member
    whose label (the min member id, the canonical doc) is not its own
    id. ``None`` when there is no pair."""
    pairs = map_blocks(
        pairs,
        lambda t: pa.table({"id_a": _ints(t, "id_a"), "id_b": _ints(t, "id_b")}),
    ).materialize()
    if pairs.count() == 0:  # no near-dups anywhere
        return None
    labels = connected_components_bucketed(pairs)

    def non_canonical(t: pa.Table) -> pa.Table:
        node = _ints(t, "node")
        return pa.table({"node": node[node != _ints(t, "label")]})

    return map_blocks(labels, non_canonical)


def apply_drops(
    ds,
    drop_ds,
    id_col: str = "doc_id",
    broadcast_limit: int | None = None,
    n_drop: int | None = None,
):
    """Anti-join a corpus against a slim drop-id Dataset ({"node"}).

    The drop-set is dup-member-count-sized — ~30% of docs on raw web
    crawls. Below ``broadcast_limit`` ids it broadcasts once via
    ray.put (sorted int64 + per-batch searchsorted membership); above,
    it switches to the explicit hash-bucket exchange anti-join
    (both-sides-large, value-compared). ``n_drop`` skips the count
    pass when the caller already knows it."""
    from .constraints import bucketed_anti_join

    if drop_ds is None:
        return ds
    if n_drop is None:
        n_drop = drop_ds.count()
    if n_drop == 0:
        return ds
    if broadcast_limit is None:
        broadcast_limit = broadcast_rows_budget()
    if n_drop <= broadcast_limit:
        drop_ids = np.concatenate(
            [
                b["node"].to_numpy()
                for b in drop_ds.iter_batches(batch_format="pyarrow")
            ]
        )
        return broadcast_filter(ds, drop_ids, id_col, keep=False)
    return bucketed_anti_join(ds, drop_ds, fk=id_col, pk="node")


def neardup_dedup_corpus(
    ds,
    text_col: str = "text",
    id_col: str = "doc_id",
    jaccard_threshold: float = 0.7,
    broadcast_limit: int | None = None,
    **lsh_kwargs,
):
    """The LLM-training-data primitive: near-dup dedup of a whole
    corpus — :func:`neardup_drop_ids` (decision) composed with
    :func:`apply_drops` (anti-join apply). Returns the deduped corpus
    Dataset with all original columns."""
    drop = neardup_drop_ids(
        ds, text_col, id_col, jaccard_threshold=jaccard_threshold, **lsh_kwargs
    )
    return apply_drops(ds, drop, id_col, broadcast_limit=broadcast_limit)


# ---------------------------------------------------------------------------
# Cross-batch near-dup: an accumulated MinHash signature index
# ---------------------------------------------------------------------------
#
# The streaming sibling of minhash_lsh_dedup for the incremental
# landing-zone loop: previous batches' signatures persist as parquet
# shards (the same durable-landing idea as ``Spill``), and each
# new ARRIVAL BATCH probes them before curation. Scale contract:
# arrival batches are incremental (they fit one node's memory — that
# is what an arrival batch IS); the accumulated INDEX does not and is
# only ever STREAMED (two column-pruned scans per batch, no shuffle).


def _fold_bk(bh: np.ndarray) -> np.ndarray:
    """(n, bands) band hashes → (n*bands,) int64 keys with the band
    index folded in (a cross-band collision only costs a candidate the
    verify rejects, never a wrong drop)."""
    bands = bh.shape[1]
    mix = np.arange(bands, dtype=np.uint64) * _BK_MIX
    return (bh ^ mix[None, :]).reshape(-1).view(np.int64)


def collect_minhash_sigs(
    ds,
    text_col: str,
    id_col: str,
    n_perm: int = 64,
    shingle_k: int = 3,
    seed: int = 1337,
):
    """(ids int64 (n,), sigs uint64 (n, n_perm)) of one arrival batch —
    signatures computed distributed (map_batches), gathered to the
    caller (batch-scale by the contract above)."""
    encode = _sig_rows(text_col, id_col, n_perm, shingle_k, seed)
    out = ds.map_batches(encode, batch_format="pyarrow").take_all()
    if not out:
        return np.empty(0, np.int64), np.empty((0, n_perm), np.uint64)
    ids = np.asarray([r["id"] for r in out], dtype=np.int64)
    sigs = np.frombuffer(b"".join(r["pl"] for r in out), np.uint64)
    return ids, sigs.reshape(-1, n_perm)


def _index_meta_guard(
    index_dir: str,
    n_perm: int,
    bands: int,
    shingle_k: int | None,
    seed: int | None,
    write: bool,
) -> None:
    """Pin the LSH params an index was built with. First append writes
    ``_meta.json``; every later append/probe asserts the caller's
    params match — a changed ``n_perm`` would otherwise reshape the
    persisted signatures silently and produce garbage agreement scores
    that can wrongly DROP new documents (silent data loss)."""
    import json

    meta_path = os.path.join(index_dir, "_meta.json")
    mine = {"n_perm": int(n_perm), "bands": int(bands),
            "shingle_k": shingle_k, "seed": seed}
    if os.path.exists(meta_path):
        with open(meta_path) as f:
            rec = json.load(f)
        for k, v in mine.items():
            if v is not None and rec.get(k) is not None and rec[k] != v:
                raise ValueError(
                    f"minhash index {index_dir} was built with {k}="
                    f"{rec[k]}; caller passed {v}. Refusing to mix "
                    "signature parameters within one index — rebuild "
                    "the index or match its recorded params."
                )
    elif write:
        tmp = meta_path + ".tmp"
        with open(tmp, "w") as f:
            json.dump(mine, f)
        os.replace(tmp, meta_path)


def minhash_index_append(
    index_dir: str,
    rid: str,
    ids: np.ndarray,
    sigs: np.ndarray,
    bands: int = 16,
    shingle_k: int | None = None,
    seed: int | None = None,
) -> None:
    """Append one batch's signatures to the accumulated index —
    ``<rid>.sig.parquet`` (id, sig) and ``<rid>.band.parquet``
    (bk, id) — idempotent tmp+rename, mirroring the exact-dedup hash
    index's crash contract (re-append after a retry overwrites with
    identical bytes). The first append records the LSH params in
    ``_meta.json``; later appends fail loudly on mismatch."""
    import pyarrow.parquet as pq

    os.makedirs(index_dir, exist_ok=True)
    _index_meta_guard(
        index_dir, sigs.shape[1] if sigs.ndim == 2 else 0, bands,
        shingle_k, seed, write=True,
    )
    sig_t = pa.table(
        {
            "id": pa.array(ids, pa.int64()),
            "sig": pa.array([row.tobytes() for row in sigs], pa.binary()),
        }
    )
    bk = _fold_bk(_band_hashes(sigs, bands))
    band_t = pa.table(
        {
            "bk": pa.array(bk, pa.int64()),
            "id": pa.array(np.repeat(ids, bands)),
        }
    )
    for name, t in ((f"{rid}.sig.parquet", sig_t), (f"{rid}.band.parquet", band_t)):
        tmp = os.path.join(index_dir, f".{name}.tmp")
        pq.write_table(t, tmp)
        os.replace(tmp, os.path.join(index_dir, name))


def minhash_index_probe(
    index_dir: str,
    ids: np.ndarray,
    sigs: np.ndarray,
    threshold: float = 0.7,
    bands: int = 16,
    exclude_rid: str | None = None,
    shingle_k: int | None = None,
    seed: int | None = None,
) -> np.ndarray:
    """ids (subset of ``ids``) having a near-twin in the ACCUMULATED
    index: band-key intersection proposes candidates, signature
    agreement (the same Jaccard estimate minhash_lsh_dedup verifies
    with) >= ``threshold`` confirms. The index is streamed twice
    (band keys, then only candidate ids' sigs), both scans
    column-pruned and filtered by a broadcast batch-side array —
    nothing index-sized ever reaches the caller. ``exclude_rid`` skips
    the probing batch's own shards so a crash retry never drops its
    own documents."""
    import ray.data as rd

    if ids.shape[0] == 0 or not os.path.isdir(index_dir):
        return np.empty(0, np.int64)
    _index_meta_guard(
        index_dir, sigs.shape[1] if sigs.ndim == 2 else 0, bands,
        shingle_k, seed, write=False,
    )

    def shards(kind: str) -> list[str]:
        return [
            os.path.join(index_dir, f)
            for f in sorted(os.listdir(index_dir))
            if f.endswith(f".{kind}.parquet")
            and (exclude_rid is None or not f.startswith(f"{exclude_rid}."))
        ]

    band_files = shards("band")
    if not band_files:
        return np.empty(0, np.int64)

    bk_new = _fold_bk(_band_hashes(sigs, bands))
    order = np.argsort(bk_new, kind="stable")
    # reshape(-1) of (n, bands) is row-major: flat index i came from
    # doc row i // bands
    bk_sorted, row_of = bk_new[order], (order // bands)
    hit_rows = broadcast_filter(
        rd.read_parquet(band_files), bk_new, "bk"
    ).take_all()
    if not hit_rows:
        return np.empty(0, np.int64)
    hit_bk = np.asarray([r["bk"] for r in hit_rows], dtype=np.int64)
    hit_old = np.asarray([r["id"] for r in hit_rows], dtype=np.int64)

    # expand shared band keys into (new_row, old_id) candidate pairs
    lo = np.searchsorted(bk_sorted, hit_bk, side="left")
    hi = np.searchsorted(bk_sorted, hit_bk, side="right")
    counts = hi - lo
    old_rep = np.repeat(hit_old, counts)
    total = int(counts.sum())
    if total:
        # vectorized concat of [lo_i, hi_i) ranges
        starts = np.repeat(lo, counts)
        offs = np.arange(total) - np.repeat(np.cumsum(counts) - counts, counts)
        take = starts + offs
    else:
        take = np.empty(0, np.int64)
    new_rows = row_of[take]
    pairs = np.unique(
        np.stack([new_rows, old_rep], axis=1), axis=0
    ) if new_rows.shape[0] else np.empty((0, 2), np.int64)
    if pairs.shape[0] == 0:
        return np.empty(0, np.int64)

    # fetch ONLY the candidate old ids' signatures
    old_rows = broadcast_filter(
        rd.read_parquet(shards("sig")), np.unique(pairs[:, 1]), "id"
    ).take_all()
    if not old_rows:
        return np.empty(0, np.int64)
    n_perm = sigs.shape[1]
    old_ids = np.asarray([r["id"] for r in old_rows], dtype=np.int64)
    old_sigs = np.frombuffer(
        b"".join(r["sig"] for r in old_rows), dtype=np.uint64
    ).reshape(-1, n_perm)
    o_order = np.argsort(old_ids, kind="stable")
    old_ids, old_sigs = old_ids[o_order], old_sigs[o_order]

    # clamp + equality-mask: a band shard whose .sig sibling is missing
    # (partial index deletion/corruption) would otherwise index past the
    # end or score against the WRONG document's signature
    valid, opos = sorted_lookup(old_ids, pairs[:, 1])
    agree = np.full(pairs.shape[0], -1.0)
    agree[valid] = (
        sigs[pairs[:, 0][valid]] == old_sigs[opos[valid]]
    ).mean(axis=1)
    return np.unique(ids[pairs[:, 0][agree >= threshold]])


# ---------------------------------------------------------------------------
# Benchmark decontamination (n-gram overlap removal)
# ---------------------------------------------------------------------------


def benchmark_ngram_hashes(
    texts: list[str], n: int = 13, lowercase: bool = True
) -> dict[int, np.ndarray]:
    """Gram-width → sorted unique hashes of a benchmark suite — the
    probe sets for :func:`decontaminate`. Benchmark texts SHORTER than
    n tokens contribute their full token sequence as one gram at its
    own width (eval questions are often <13 words; the GPT-3 appendix
    uses min(13, doc length) the same way) — the corpus side then
    probes at every width present, so short eval docs are never
    silently skipped. Benchmarks are small (test sets, eval suites),
    so this runs on the driver and is broadcast once."""
    ids, doc = _flat_token_ids(texts, lowercase)
    width = np.minimum(np.bincount(doc, minlength=len(texts)), n)
    out = {}
    for w in np.unique(width[width > 0]):
        h, d = _flat_shingles(ids, doc, w)
        out[int(w)] = np.unique(h[width[d] == w])
    return out


def decontaminate(
    ds,
    benchmark_texts: list[str],
    text_col: str = "text",
    id_col: str = "doc_id",
    n: int = 13,
    lowercase: bool = True,
):
    """Training-data decontamination (the GPT-3 appendix-C hygiene op,
    public): flag every corpus document sharing ANY word-level n-gram
    with a benchmark/eval suite, so train/test overlap can be dropped
    before training. Returns a slim Dataset of (node=doc id, n_matched
    = number of distinct colliding n-grams).

    Scale shape: the benchmark's per-width n-gram hash sets are
    driver-computed (benchmarks are small) and broadcast ONCE via
    ``ray.put``; the corpus side is one ``map_batches`` scan —
    tokenize (``textstage.tokens`` + one hash64 per batch), one
    sliding window over the batch's flat token ids at each width the
    benchmark contains (one width, n, unless the suite has shorter
    docs — at most n widths total), sorted-array membership via
    searchsorted. Nothing shuffles; output is contaminated-doc-count
    sized. 64-bit hash collisions are the false-positive bound (~1e-7
    at a 1e8-gram corpus against a 1e5-gram benchmark)."""
    bench = benchmark_ngram_hashes(benchmark_texts, n, lowercase)
    ref = ray.put(bench)

    def flag(t: pa.Table) -> pa.Table:
        b = ray.get(ref)
        empty = pa.table(
            {
                "node": pa.array([], pa.int64()),
                "n_matched": pa.array([], pa.int64()),
            }
        )
        if not b or t.num_rows == 0:
            return empty
        ids, doc = _flat_token_ids(t[text_col], lowercase)
        hits = np.zeros(t.num_rows, dtype=np.int64)
        for w, bw in b.items():
            h, d = _flat_shingles(ids, doc, w)
            member, _ = sorted_lookup(bw, h)
            _, d = _distinct_grams(h[member], d[member])
            hits += np.bincount(d, minlength=t.num_rows)
        bad = hits > 0
        if not bad.any():
            return empty
        ids = t[id_col].to_numpy(zero_copy_only=False)[bad]
        return pa.table(
            {
                "node": pa.array(ids, pa.int64()),
                "n_matched": pa.array(hits[bad], pa.int64()),
            }
        )

    return ds.map_batches(flag, batch_format="pyarrow")


# ---------------------------------------------------------------------------
# Winnowing overlap (containment) dedup
# ---------------------------------------------------------------------------


def winnow_overlap_pairs_ds(
    ds,
    text_col: str = "text",
    id_col: str = "doc_id",
    k: int = 5,
    w: int = 8,
    min_shared: int = 40,
    max_df: int = 256,
    num_buckets: int | None = None,
    fp_sample: int = 1,
    spill: Spill | None = None,
):
    """Distributed winnowing-overlap candidate pairs: docs sharing >=
    ``min_shared`` distinct selected fingerprints (MOSS / SIGMOD'03
    semantics — any shared substring of >= w+k-1 chars shares a
    fingerprint, so this catches CONTAINMENT overlap that set-Jaccard
    misses: doc B embedded inside a larger doc A barely moves Jaccard
    but shares nearly all of B's fingerprints). The distributed closure
    of the gate-scale `winnow_overlap_pairs` oracle query.

    Shape: one scan -> distinct (fp, doc) rows (vectorized per-doc
    packed-uint64 winnowing, functions/text.winnow_fingerprints_fast)
    -> the co-occurrence chain shared with `jaccard_all_pairs`
    (``cooccurrence_pairs``: fp exchange with upper-triangle pair
    expansion under the ``max_df`` cap -> pair-key exchange with
    run-length counts, thresholded at ``min_shared``). Both passes of
    the ``fp_sample`` path below run that chain.

    ``max_df`` (REQUIRED here; exact Jaccard runs the chain uncapped) drops
    fingerprints shared by more than that many docs before pairing:
    template boilerplate makes nearly every doc pair share SOME
    fingerprint (measured: family median 111 shared vs random median 6
    on the synthetic corpus), so ubiquitous fps carry no containment
    signal while costing g(g-1)/2 pair rows each — the MOSS paper
    drops them for the same reason. Counts are therefore "shared
    NON-UBIQUITOUS fps", and ``min_shared`` should sit well above the
    template background (see tools/winnow_bench.py separation data).

    GRAM-SIZE CONTRACT AT CORPUS SCALE: with the default ``k=5`` char
    grams, natural-language gram frequency is Zipfian — at 10^6+ docs
    even content grams exceed any df cap and the cap deletes ALL
    signal (measured: zero pairs at 1M docs, k=5, max_df=256). Pass
    ``k=8`` (the uint64 injective-pack limit) and ``w=16`` for corpus-
    scale mining: 8-char grams mostly span token boundaries, so their
    df tracks token-PAIR frequency, which stays under real caps; the
    winnowing guarantee weakens to shared-substring >= w+k-1 = 23
    chars, still far below a contained span. k=5/w=8 remains the
    gate-scale oracle-family config (md5 twin parity).

    SCALE CAVEAT (inherent, like `jaccard_all_pairs`): pair volume is
    O(Σ_fp df²), and winnow selection BIASES df high — local-minimum
    selection picks low-hash grams in EVERY doc containing them, so
    selected fps concentrate on a heavy head (measured: the exact
    k=8 pass at 1M docs emitted tens of GB of pair rows). For corpus
    scale set ``fp_sample=s`` (> 1): keeps a uniform 1/s of
    fingerprints by a second independent hash (decorrelated from the
    selection minimum), cutting pair volume ~s² per group; the shared
    count becomes an UNBIASED 1/s-scaled estimate, so ``min_shared``
    is divided by s internally (pass the same full-count threshold).
    Exact when fp_sample=1.

    Returns a Dataset of (id_a, id_b, n_shared), id_a < id_b —
    n_shared is the sampled count when fp_sample > 1.

    ``spill``: the 10⁹-doc knob (same contract as the MinHash/SimHash
    chains) — the slim (fp, doc) table lands as parquet instead of a
    store materialize, and both exchanges (fp pairing + pk counting)
    run disk-backed. Identical results (parity-tested); use when slim
    fp rows (~16 B × fps/doc × corpus) or the O(Σ df²) pair rows rival
    the object store."""
    from ..functions.text import winnow_fingerprints_fast
    from ..state.sketches import _splitmix64

    def make_fp_rows(sample: int):
        samp_cut = np.uint64(2**64 - 1) // np.uint64(max(1, sample))

        def fp_rows(t: pa.Table) -> pa.Table:
            parts = []
            ids = _ints(t, id_col)
            for i, txt in enumerate(t[text_col].to_pylist()):
                _, h = winnow_fingerprints_fast(txt, k=k, w=w)
                if h.shape[0] == 0:
                    continue
                u = np.unique(h)
                if sample > 1:
                    # second independent mix — decorrelated from the
                    # window-minimum that selected the fp in the first
                    # place (sampling on the fp value itself would
                    # re-bias toward the already-heavy low-hash head)
                    u = u[
                        _splitmix64(u ^ np.uint64(0xA5A5A5A5A5A5A5A5))
                        <= samp_cut
                    ]
                    if u.shape[0] == 0:
                        continue
                parts.append((u.view(np.int64), np.full(u.shape[0], ids[i])))
            fp, doc = _concat(parts, 2)
            return pa.table(
                {"fp": pa.array(fp, pa.int64()), "doc": pa.array(doc, pa.int64())}
            )

        return fp_rows

    def chain(src_ds, sample: int, min_count: int):
        slim = src_ds.map_batches(
            make_fp_rows(sample), batch_format="pyarrow"
        )
        # the df cap must SCALE with the sample: a group whose true df
        # exceeds max_df has expected sampled df max_df/sample — an
        # unscaled cap would admit (and pay g² for) every group with
        # true df in (max_df, max_df*sample], which is exactly the
        # heavy head the cap exists to kill (measured: ENOSPC at 1M
        # docs with the unscaled cap)
        df_cap = max(2, max_df // sample)
        pairs = cooccurrence_pairs(
            land(slim, spill, "winnow_slim"), "fp", "n_shared",
            min_count=min_count, df_cap=df_cap, num_buckets=num_buckets,
            spill=spill,
        )
        if spill is not None:
            spill.free("winnow_slim")  # the fp exchange read it last
        return pairs

    if fp_sample <= 1:
        return chain(ds, 1, min_shared)

    # sampled candidate pass (low bar: half the scaled expectation,
    # floor 1 — high candidate recall), then an EXACT verify pass over
    # the candidate docs only: final counts/threshold are the full
    # min_shared semantics, so sampling costs candidate recall, never
    # precision. NOTE the verify pass caps max_df by df WITHIN the
    # candidate subset (<= global df), which can only keep more
    # fingerprints than the global cap — recall-safe vs the exact op.
    # ceil division: at min_shared=20, s=8 this gives 2, not 1 — a
    # floor of 1 admits every pair sharing a single sampled fp, which
    # at 10^7+ docs is millions of background candidate docs (measured:
    # 6.3M at 20M docs, over the broadcast budget); a true pair's
    # sampled count is Binomial(shared, 1/s) with mean >= min_shared/s,
    # so requiring half the mean costs ~0.5% candidacy recall
    cand_min = max(1, -(-min_shared // (2 * fp_sample)))
    cand = chain(ds, fp_sample, cand_min).materialize()
    if cand.count() == 0:
        return cand

    cand_ids = np.unique(
        np.concatenate(
            [
                np.concatenate(
                    [
                        b["id_a"].to_numpy(zero_copy_only=False),
                        b["id_b"].to_numpy(zero_copy_only=False),
                    ]
                )
                for b in cand.iter_batches(batch_format="pyarrow")
                if b.num_rows
            ]
        )
    )
    budget = broadcast_rows_budget()
    if cand_ids.shape[0] > budget:
        raise ValueError(
            f"winnow_overlap_pairs_ds: {cand_ids.shape[0]} candidate "
            f"docs exceed the broadcast budget ({budget}); raise "
            "min_shared / fp_sample or max_df to tighten candidacy"
        )
    return chain(broadcast_filter(ds, cand_ids, id_col), 1, min_shared)


def winnow_overlap_drop_ids(
    ds,
    text_col: str = "text",
    id_col: str = "doc_id",
    k: int = 5,
    w: int = 8,
    min_shared: int = 40,
    max_df: int = 256,
    num_buckets: int | None = None,
    fp_sample: int = 1,
    spill: Spill | None = None,
):
    """Containment-dedup DECISION: the slim drop-id Dataset (one
    ``node`` int64 column — non-canonical members of every
    winnow-overlap cluster, canonical = min member id) or ``None``
    when no pair qualifies. Same contract as ``neardup_drop_ids`` /
    ``similarity.semdedup_drop_ids``, so ``apply_drops`` and the
    export funnel's checkpointed decisions compose unchanged. This is
    the dedup family that catches partial overlap / document
    containment, which the Jaccard-based MinHash chain structurally
    under-weights (|A∩B|/|A∪B| is small when |A| >> |B|)."""
    return _non_canonical_ids(
        winnow_overlap_pairs_ds(
            ds, text_col, id_col, k=k, w=w,
            min_shared=min_shared, max_df=max_df, num_buckets=num_buckets,
            fp_sample=fp_sample, spill=spill,
        )
    )

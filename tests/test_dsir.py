"""DSIR importance resampling, per-key hash sampling, SemDedup.

Pins: (1) the vectorized hash64 DSIR kernel against a per-doc replay
of the same hash (exact count + weight parity — the vectorization
proof), (2) planted-target ranking (English-like docs must outrank
background under an English target), (3) deterministic Gumbel
resampling, (4) sample_per_key against a pandas groupby reference,
(5) the SemDedup drop rule against a numpy brute-force replay, with
planted duplicates recovered keep-lowest-id."""

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest

from sod_ray.state.sketches import hash64


def _doc_table(texts, langs=None):
    n = len(texts)
    return pa.table(
        {
            "doc_id": pa.array(range(n), pa.int64()),
            "text": pa.array(texts, pa.string()),
            "lang": pa.array(langs or ["en"] * n, pa.string()),
        }
    )


def _ref_weights(texts, lr, B):
    """Per-doc replay of the hash64 gram pipeline (slow reference)."""
    out = []
    for txt in texts:
        words = (txt or "").split()
        grams = words + [
            words[i] + " " + words[i + 1] for i in range(len(words) - 1)
        ]
        if not grams:
            out.append((0.0, 0))
            continue
        bk = (hash64(pa.array(grams)) % np.uint64(B)).astype(np.int64)
        out.append((float(lr[bk].sum()), len(grams)))
    return out


def test_hash64_path_matches_reference(ray_session):
    import ray.data as rd

    from sod_ray.stages.dsir import (
        dsir_log_ratio,
        dsir_log_weights,
        gram_bucket_counts,
    )

    rng = np.random.default_rng(3)
    vocab = [f"w{i}" for i in range(50)]
    texts = [
        " ".join(rng.choice(vocab, size=rng.integers(0, 30)))
        for _ in range(200)
    ]
    texts += ["", "   ", "single"]  # empty / whitespace / 1-token docs
    tbl = _doc_table(texts)
    ds = rd.from_arrow(tbl)
    B = 512
    raw = gram_bucket_counts(ds, n_buckets=B)
    tgt = gram_bucket_counts(
        ds.filter(expr="doc_id < 100"), n_buckets=B
    )

    # counts: replay every doc through the same hash
    ref_counts = np.zeros(B, np.int64)
    for txt in texts:
        words = (txt or "").split()
        grams = words + [
            words[i] + " " + words[i + 1] for i in range(len(words) - 1)
        ]
        if grams:
            bk = (hash64(pa.array(grams)) % np.uint64(B)).astype(np.int64)
            ref_counts += np.bincount(bk, minlength=B)
    assert np.array_equal(raw, ref_counts)

    lr = dsir_log_ratio(raw, tgt)
    w = (
        dsir_log_weights(ds, lr)
        .to_pandas()
        .sort_values("doc_id")
        .reset_index(drop=True)
    )
    ref = _ref_weights(texts, lr, B)
    assert len(w) == len(ref)
    for i, (lw, ng) in enumerate(ref):
        assert w.loc[i, "n_grams"] == ng
        assert abs(w.loc[i, "logw"] - lw) < 1e-9


def test_planted_target_ranking(ray_session):
    import ray.data as rd

    from sod_ray.stages.dsir import (
        dsir_log_ratio,
        dsir_log_weights,
        dsir_top_k,
        gram_bucket_counts,
    )

    rng = np.random.default_rng(7)
    en = [
        "the quick brown fox jumps over the lazy dog and the cat",
        "a day in the life of the data engine is long and busy",
        "this is the way the world ends not with a bang",
    ]
    noise_vocab = [f"zz{i}" for i in range(300)]
    noise = [
        " ".join(rng.choice(noise_vocab, size=20)) for _ in range(60)
    ]
    # candidates: 5 English-like (drawn from en vocab) + noise
    en_vocab = sorted({w for s in en for w in s.split()})
    planted = [
        " ".join(rng.choice(en_vocab, size=15)) for _ in range(5)
    ]
    texts = en + noise + planted
    langs = ["en"] * len(en) + ["xx"] * len(noise) + ["xx"] * len(planted)
    ds = rd.from_arrow(_doc_table(texts, langs))
    B = 1024
    raw = gram_bucket_counts(ds, n_buckets=B)
    tgt = gram_bucket_counts(ds.filter(expr="lang == 'en'"), n_buckets=B)
    lr = dsir_log_ratio(raw, tgt)
    w = dsir_log_weights(ds, lr)
    top = dsir_top_k(w, 8).to_pandas()
    planted_ids = set(range(len(en) + len(noise), len(texts)))
    target_ids = set(range(len(en)))
    # the top-8 must be exactly the target + planted English-like docs
    assert set(top["doc_id"]) == planted_ids | target_ids


def test_gumbel_deterministic_and_seed_sensitive(ray_session):
    import ray.data as rd

    from sod_ray.stages.dsir import (
        dsir_log_ratio,
        dsir_log_weights,
        gram_bucket_counts,
    )

    texts = [f"tok{i} tok{i + 1} tok{i + 2}" for i in range(50)]
    ds = rd.from_arrow(_doc_table(texts))
    B = 128
    c = gram_bucket_counts(ds, n_buckets=B)
    lr = dsir_log_ratio(c, c)
    g1 = (
        dsir_log_weights(ds, lr, gumbel_seed=1)
        .to_pandas()
        .sort_values("doc_id")
    )
    g1b = (
        dsir_log_weights(ds, lr, gumbel_seed=1)
        .to_pandas()
        .sort_values("doc_id")
    )
    g2 = (
        dsir_log_weights(ds, lr, gumbel_seed=2)
        .to_pandas()
        .sort_values("doc_id")
    )
    assert np.allclose(g1["logw_gumbel"], g1b["logw_gumbel"])
    assert not np.allclose(g1["logw_gumbel"], g2["logw_gumbel"])
    # identical log-ratio of a corpus against itself => logw == 0
    assert np.allclose(g1["logw"], 0.0)


def test_sample_per_key_matches_pandas(ray_session):
    import ray.data as rd

    from sod_ray.stages.window import sample_per_key

    rng = np.random.default_rng(11)
    n = 5000
    df = pd.DataFrame(
        {
            "user": rng.integers(0, 137, n).astype(np.int64),
            "item": np.arange(n, dtype=np.int64),
            "val": rng.normal(size=n),
        }
    )
    ds = rd.from_pandas(df).map_batches(
        lambda t: t.append_column(
            "__rank",
            pa.array(
                hash64(t["item"].combine_chunks()).view(np.int64),
                pa.int64(),
            ),
        ),
        batch_format="pyarrow",
    )
    got = (
        sample_per_key(ds, "user", 3, "__rank", tie_cols=["item"])
        .to_pandas()
        .sort_values(["user", "item"])
        .reset_index(drop=True)
    )
    ref = df.copy()
    ref["__rank"] = hash64(pa.array(ref["item"])).view(np.int64)
    ref = (
        ref.sort_values(["user", "__rank", "item"])
        .groupby("user")
        .head(3)
        .drop(columns="__rank")
        .sort_values(["user", "item"])
        .reset_index(drop=True)
    )
    pd.testing.assert_frame_equal(
        got[["user", "item", "val"]], ref[["user", "item", "val"]]
    )
    # every key sampled, sample size == min(3, group size)
    sizes = got.groupby("user").size()
    want = df.groupby("user").size().clip(upper=3)
    assert sizes.equals(want)


def _embed_table(X, ids=None):
    n, d = X.shape
    return pa.table(
        {
            "vec_id": pa.array(
                ids if ids is not None else range(n), pa.int64()
            ),
            "embedding": pa.FixedSizeListArray.from_arrays(
                pa.array(X.reshape(-1), pa.float32()), d
            ),
        }
    )


def _brute_drop(X, ids, assign, tau):
    """Numpy replay of the drop rule: i dropped iff some lower-id j in
    the same cluster has cosine >= tau."""
    Xn = X / np.linalg.norm(X, axis=1, keepdims=True)
    order = np.argsort(ids)
    dropped = []
    for i_pos in order:
        for j_pos in order:
            if ids[j_pos] >= ids[i_pos] or assign[j_pos] != assign[i_pos]:
                continue
            if float(Xn[i_pos] @ Xn[j_pos]) >= tau:
                dropped.append(ids[i_pos])
                break
    return sorted(dropped)


def test_semdedup_global_rule_matches_brute(ray_session):
    import ray.data as rd

    from sod_ray.stages.similarity import semdedup_drop_ids

    rng = np.random.default_rng(5)
    X = rng.normal(size=(300, 16)).astype(np.float64)
    # plant duplicates and near-duplicates
    X[250] = X[10]
    X[251] = X[10] + 0.001 * rng.normal(size=16)
    X[252] = X[20]
    ids = np.arange(300)
    ds = rd.from_arrow(_embed_table(X.astype(np.float32), ids))
    got = (
        semdedup_drop_ids(
            ds,
            "embedding",
            "vec_id",
            n_centroids=1,
            threshold=0.8,
            dtype=np.float64,
        )
        .to_pandas()["node"]
        .sort_values()
        .tolist()
    )
    ref = _brute_drop(
        X.astype(np.float32).astype(np.float64),
        ids,
        np.zeros(300, np.int64),
        0.8,
    )
    assert got == ref
    # the planted dupes of lower ids must be dropped, originals kept
    assert {250, 251, 252} <= set(got)
    assert 10 not in got and 20 not in got


def test_semdedup_clustered_drops_within_cluster(ray_session):
    import ray.data as rd

    from sod_ray.stages.similarity import semdedup_drop_ids

    rng = np.random.default_rng(9)
    # two tight planted clusters + noise; duplicates within clusters
    c1 = rng.normal(size=16)
    c2 = rng.normal(size=16)
    rows = []
    for i in range(40):
        base = c1 if i % 2 == 0 else c2
        rows.append(base + 0.01 * rng.normal(size=16))
    X = np.array(rows, dtype=np.float32)
    ds = rd.from_arrow(_embed_table(X))
    got = set(
        semdedup_drop_ids(
            ds, "embedding", "vec_id", n_centroids=2, threshold=0.99
        )
        .to_pandas()["node"]
        .tolist()
    )
    # each tight cluster keeps exactly its lowest id (0 and 1)
    assert 0 not in got and 1 not in got
    assert got == set(range(2, 40))


def test_semdedup_twolevel_planted_and_deterministic(ray_session):
    """Two-level SemDedup: tight planted clusters are deduped to their
    lowest id by the per-shard local k-means + blocked kernel, and the
    drop set is bit-identical across two runs (shard rows sorted by
    id, per-shard seeded rng) regardless of block layout."""
    import ray.data as rd

    from sod_ray.stages.similarity import semdedup_drop_ids_twolevel

    rng = np.random.default_rng(9)
    # 8 tight planted clusters of 30 near-identical vectors + noise
    rows, ids = [], []
    nid = 0
    for c in range(8):
        base = rng.normal(size=32)
        for _ in range(30):
            rows.append(base + 0.005 * rng.normal(size=32))
            ids.append(nid)
            nid += 1
    for _ in range(200):  # background noise, no near-dups at 0.99
        rows.append(rng.normal(size=32))
        ids.append(nid)
        nid += 1
    X = np.array(rows, dtype=np.float32)
    ids = np.asarray(ids)

    def run(nblocks):
        ds = rd.from_arrow(_embed_table(X, ids)).repartition(nblocks)
        return (
            semdedup_drop_ids_twolevel(
                ds,
                "embedding",
                "vec_id",
                n_top=4,
                target_cluster_rows=40,
                threshold=0.99,
            )
            .to_pandas()["node"]
            .sort_values()
            .tolist()
        )

    got = run(3)
    # every planted cluster keeps exactly its lowest id
    want = set()
    for c in range(8):
        want |= set(range(c * 30 + 1, (c + 1) * 30))
    assert set(got) == want
    # determinism across a different block layout
    assert run(7) == got


def test_semdedup_twolevel_spill_parity(ray_session, tmp_path):
    """The disk-backed shard exchange (two-phase spill) drops exactly
    the ids the in-plasma exchange drops, and frees its landings."""
    import os

    import ray.data as rd

    from sod_ray.stages.exchange import Spill
    from sod_ray.stages.similarity import semdedup_drop_ids_twolevel

    rng = np.random.default_rng(12)
    rows = []
    for _ in range(6):
        base = rng.normal(size=16)
        rows += [base + 0.005 * rng.normal(size=16) for _ in range(20)]
    rows += [rng.normal(size=16) for _ in range(120)]
    X = np.array(rows, dtype=np.float32)
    kw = dict(n_top=4, target_cluster_rows=40, threshold=0.99)

    def drops(**extra):
        ds = rd.from_arrow(_embed_table(X)).repartition(3)
        out = semdedup_drop_ids_twolevel(ds, "embedding", "vec_id", **kw, **extra)
        return sorted(out.to_pandas()["node"].tolist())

    base = drops()
    assert len(base) >= 6 * 19
    assert drops(spill=Spill(str(tmp_path), phases=2)) == base
    assert [d for d in os.listdir(tmp_path) if d.startswith("_sod_")] == []


def test_semdedup_empty_and_singleton(ray_session):
    import ray.data as rd

    from sod_ray.stages.similarity import semdedup_drop_ids

    X = np.random.default_rng(1).normal(size=(1, 8)).astype(np.float32)
    ds = rd.from_arrow(_embed_table(X))
    out = semdedup_drop_ids(
        ds, "embedding", "vec_id", n_centroids=1, threshold=0.5
    ).to_pandas()
    assert len(out) == 0


# ---------------------------------------------------------------------------
# BPE vocabulary training
# ---------------------------------------------------------------------------


def test_bpe_paper_example():
    """Sennrich et al. 2016 §3.2 worked example: vocab {low:5,
    lower:2, newest:6, widest:3} — the first merges are (e,s), (es,t),
    (est,</w>), (l,o), (lo,w)."""
    from sod_ray.functions.bpe import bpe_encode, bpe_train

    wf = [("low", 5), ("lower", 2), ("newest", 6), ("widest", 3)]
    merges = bpe_train(wf, n_merges=5)
    assert merges == [
        ("e", "s"),
        ("es", "t"),
        ("est", "</w>"),
        ("l", "o"),
        ("lo", "w"),
    ]
    assert bpe_encode("lowest", merges) == ["low", "est</w>"]
    assert bpe_encode("newest", merges) == ["n", "e", "w", "est</w>"]


def _bpe_reference(word_freqs, n_merges):
    """Independent reimplementation via string replacement over
    space-joined symbol strings (different mechanics from the tuple
    kernel)."""
    import re
    from collections import Counter

    seqs = {
        w: " ".join(list(w) + ["</w>"]) for w, _ in word_freqs
    }
    freqs = dict(word_freqs)
    merges = []
    for _ in range(n_merges):
        counts = Counter()
        for w, s in seqs.items():
            sym = s.split(" ")
            for a, b in zip(sym, sym[1:]):
                counts[(a, b)] += freqs[w]
        if not counts:
            break
        best = min(counts.items(), key=lambda kv: (-kv[1], kv[0]))[0]
        if counts[best] < 2:
            break
        merges.append(best)
        pat = re.compile(
            r"(?<!\S)" + re.escape(best[0] + " " + best[1]) + r"(?!\S)"
        )
        seqs = {w: pat.sub(best[0] + best[1], s) for w, s in seqs.items()}
    return merges


def test_bpe_matches_independent_reference():
    import numpy as np

    from sod_ray.functions.bpe import bpe_train

    rng = np.random.default_rng(13)
    words = [
        "".join(rng.choice(list("abcdef"), size=rng.integers(1, 9)))
        for _ in range(300)
    ]
    wf = [(w, int(rng.integers(1, 50))) for w in set(words)]
    assert bpe_train(wf, 30) == _bpe_reference(wf, 30)


def test_bpe_merges_docs_deterministic(ray_session, sf_smoke):
    from sod_ray.pipelines.queries import bpe_merges_docs

    a = bpe_merges_docs(sf_smoke).to_pandas()
    b = bpe_merges_docs(sf_smoke).to_pandas()
    assert a.equals(b)
    assert len(a) == 40
    # early merges of a natural-language corpus are high-frequency
    # character pairs; every merge must have non-empty sides
    assert (a["left"].str.len() > 0).all()
    assert (a["right"].str.len() > 0).all()


def test_dsir_top_k_threshold_regime_exact(ray_session):
    """k > the per-batch regime cutoff routes through the KLL
    threshold pre-selection; the selection must be EXACTLY the brute
    top-k (ties by ascending id), including n_grams==0 exclusion."""
    import pandas as pd
    import ray.data as rd

    from sod_ray.stages.dsir import dsir_top_k

    rng = np.random.default_rng(3)
    n = 400_000
    # heavy ties: coarse weights so the tie-break path is exercised
    logw = np.round(rng.normal(size=n), 2)
    n_grams = rng.integers(0, 5, n)  # ~20% token-less rows excluded
    df = pd.DataFrame(
        {"doc_id": np.arange(n), "logw": logw, "n_grams": n_grams}
    )
    ds = rd.from_pandas(df).repartition(16)

    k = 150_000  # > the 131,072 per-batch cutoff
    got = dsir_top_k(ds, k).to_pandas()

    el = df[df["n_grams"] > 0]
    want = (
        el.sort_values(["logw", "doc_id"], ascending=[False, True])
        .head(k)
        .reset_index(drop=True)
    )
    assert got["doc_id"].tolist() == want["doc_id"].tolist()

def test_semdedup_threelevel_planted_and_deterministic(ray_session):
    """n_super (hierarchical super->top assignment) must recover the
    same planted-cluster drops as the flat top assignment — every
    tight cluster deduped to its lowest id — and stay bit-identical
    across block layouts (seeded super k-means, deterministic
    routing)."""
    import ray.data as rd

    from sod_ray.stages.similarity import semdedup_drop_ids_twolevel

    rng = np.random.default_rng(9)
    rows, ids = [], []
    nid = 0
    for c in range(8):
        base = rng.normal(size=32)
        for _ in range(30):
            rows.append(base + 0.005 * rng.normal(size=32))
            ids.append(nid)
            nid += 1
    for _ in range(200):
        rows.append(rng.normal(size=32))
        ids.append(nid)
        nid += 1
    X = np.array(rows, dtype=np.float32)
    ids = np.asarray(ids)

    def run(nblocks, n_super):
        ds = rd.from_arrow(_embed_table(X, ids)).repartition(nblocks)
        return (
            semdedup_drop_ids_twolevel(
                ds,
                "embedding",
                "vec_id",
                n_top=8,
                n_super=n_super,
                target_cluster_rows=40,
                threshold=0.99,
            )
            .to_pandas()["node"]
            .sort_values()
            .tolist()
        )

    got = run(3, 3)
    want = set()
    for c in range(8):
        want |= set(range(c * 30 + 1, (c + 1) * 30))
    assert set(got) == want
    # determinism across a different block layout
    assert run(7, 3) == got
    # flat top assignment finds the same planted drops
    assert set(run(3, None)) == want

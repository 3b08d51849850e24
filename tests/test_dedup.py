"""Dedup stages: exact, MinHash+LSH, SimHash, n-gram Jaccard, embedding."""

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest


def connected_components(pairs_df, id_a="id_a", id_b="id_b") -> dict:
    """Driver union-find over a small pair frame: the oracle the
    distributed connected components are checked against."""
    parent: dict = {}

    def find(x):
        while parent.get(x, x) != x:
            parent[x] = parent.get(parent[x], parent[x])
            x = parent[x]
        return x

    for a, b in zip(pairs_df[id_a], pairs_df[id_b]):
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[max(ra, rb)] = min(ra, rb)
    return {x: find(x) for x in set(pairs_df[id_a]) | set(pairs_df[id_b])}


@pytest.fixture(scope="module")
def doc_table(ray_session):
    """Docs with planted exact dups (1,2), near dups (3,4), and noise."""
    base = (
        "the quick brown fox jumps over the lazy dog while the cat watches "
        "from the warm windowsill and the birds sing in the garden trees"
    )
    near = base.replace("warm windowsill", "cold doorstep")
    rng = np.random.default_rng(0)
    words = ["alpha", "beta", "gamma", "delta", "epsilon", "zeta", "eta", "theta"]
    noise = [
        " ".join(rng.choice(words, size=30).tolist()) + f" uniq{i}" for i in range(30)
    ]
    docs = [base, base, near, base + " extra tail words here today"] + noise
    return pa.table(
        {
            "doc_id": pa.array(range(len(docs)), pa.int64()),
            "text": pa.array(docs, pa.string()),
        }
    )


def test_exact_dedup(ray_session, doc_table):
    import ray.data as rd

    from sod_ray.stages.dedup import exact_dedup

    out = exact_dedup(rd.from_arrow(doc_table), "text", "doc_id").to_pandas()
    assert len(out) == len(doc_table) - 1  # one exact dup removed
    assert 0 in set(out["doc_id"]) and 1 not in set(out["doc_id"])  # min id kept


def test_minhash_signatures_jaccard():
    from sod_ray.stages.dedup import minhash_signatures

    a = "the quick brown fox jumps over the lazy dog again and again ok"
    b = "the quick brown fox jumps over the lazy cat again and again ok"
    c = "completely different words entirely unrelated to anything else now"
    sig = minhash_signatures([a, b, c, a], n_perm=128)
    est_ab = (sig[0] == sig[1]).mean()
    est_ac = (sig[0] == sig[2]).mean()
    assert (sig[0] == sig[3]).all()  # identical text → identical signature
    assert est_ab > 0.4  # high-overlap shingles
    assert est_ac < 0.1


# texts the tokenizers treat specially: null, empty, whitespace-only,
# fewer tokens than a shingle, boundary and non-ASCII whitespace
EDGE_TEXTS = [
    None, "", " ", "\t\n ", "a", "a b", "a b c", " lead", "trail ",
    "  both  ends  ", "x\u00a0y z", "p\u3000q\u2003r s", "héllo wörld ünï",
    "a b a b a b", "r r r r r",
]


def random_texts(rng, n: int) -> list:
    """``n`` random docs of 0-14 tokens from a small vocab (so shingles
    repeat within and across docs), joined by mixed ASCII and Unicode
    whitespace, with nulls, empty and whitespace-only docs mixed in."""
    vocab = ["w%d" % i for i in range(12)] + ["é", "日本", "x-y"]
    seps = [" ", "  ", "\t", "\n", "\u00a0", "\u3000"]
    out = []
    for _ in range(n):
        r = rng.random()
        if r < 0.05:
            out.append(None)
        elif r < 0.1:
            out.append(rng.choice(["", " ", "\n\t"]))
        else:
            toks = rng.choice(vocab, int(rng.integers(0, 15)))
            body = "".join(t + rng.choice(seps) for t in toks)
            out.append(rng.choice(["", " ", "\u3000"]) + body)
    return out


def _minhash_signatures_ref(texts, n_perm: int, k: int, seed: int) -> np.ndarray:
    """The per-doc MinHash loop the flat kernel replaced: each doc's
    ``str.split()`` tokens hashed alone, its k-shingle hashes
    ``np.unique``'d (a doc with 0 < n < k tokens keeps its first
    token), then a min per permutation over the doc's shingles."""
    from sod_ray.stages.dedup import _MERSENNE, _minhash_perms
    from sod_ray.state.sketches import hash64

    a, b = _minhash_perms(n_perm, seed)
    base = np.uint64(1099511628211)
    sig = np.full((len(texts), n_perm), np.iinfo(np.uint64).max, np.uint64)
    for i, text in enumerate(texts):
        toks = text.split() if text else []
        if not toks:
            continue
        tid = hash64(pa.array(toks, pa.string()))
        if tid.shape[0] < k:
            sh = tid[:1]
        else:
            win = np.lib.stride_tricks.sliding_window_view(tid, k)
            h = np.zeros(win.shape[0], np.uint64)
            for j in range(k):
                h = h * base + win[:, j]
            sh = np.unique(h)
        m = sh & _MERSENNE
        for p in range(n_perm):
            sig[i, p] = ((a[p] * m + b[p]) & _MERSENNE).min()
    return sig


@pytest.mark.parametrize("k,n_perm", [(1, 16), (2, 16), (3, 64), (5, 32)])
def test_minhash_signatures_match_per_doc_reference(k, n_perm):
    """The flat-batch MinHash kernel is bit-identical to the per-doc
    loop on edge texts and random batches, from a list or from a
    chunked Arrow column."""
    from sod_ray.stages.dedup import minhash_signatures

    rng = np.random.default_rng(k * 100 + n_perm)
    for texts in (EDGE_TEXTS, random_texts(rng, 300), [None, ""], ["a"]):
        want = _minhash_signatures_ref(texts, n_perm, k, 7)
        got = minhash_signatures(texts, n_perm, k, 7)
        assert got.dtype == np.uint64 and np.array_equal(got, want)
        half = len(texts) // 2
        col = pa.chunked_array(
            [pa.array(texts[:half], pa.string()), pa.array(texts[half:], pa.string())]
        )
        assert np.array_equal(minhash_signatures(col, n_perm, k, 7), want)


def test_minhash_lsh_dedup(ray_session, doc_table):
    import ray.data as rd

    from sod_ray.stages.dedup import minhash_lsh_dedup

    pairs = minhash_lsh_dedup(
        rd.from_arrow(doc_table), "text", "doc_id", jaccard_threshold=0.5
    ).to_pandas()
    found = {tuple(sorted(p)) for p in zip(pairs["id_a"], pairs["id_b"])}
    assert (0, 1) in found  # exact dup pair
    assert (0, 2) in found or (1, 2) in found  # near dup pair
    # noise docs don't pair with the base cluster
    assert all(a < 4 and b < 4 for a, b in found)
    comp = connected_components(pairs)
    assert comp.get(1) == 0


def test_simhash_dedup(ray_session, doc_table):
    import ray.data as rd

    from sod_ray.stages.dedup import simhash_dedup, simhash_signatures

    sh = simhash_signatures(["hello world foo", "hello world foo", "zzz qqq"])
    assert sh[0] == sh[1] and sh[0] != sh[2]
    pairs = simhash_dedup(rd.from_arrow(doc_table), "text", "doc_id").to_pandas()
    found = {tuple(sorted(p)) for p in zip(pairs["id_a"], pairs["id_b"])}
    assert (0, 1) in found
    assert all(p["hamming"] <= 3 for _, p in pairs.iterrows())


def test_embedding_neardup(ray_session):
    import ray.data as rd

    from sod_ray.stages.dedup import embedding_neardup

    rng = np.random.default_rng(1)
    base = rng.normal(size=16)
    vecs = [base, base + rng.normal(scale=0.01, size=16)] + [
        rng.normal(size=16) for _ in range(40)
    ]
    t = pa.table(
        {
            "vec_id": pa.array(range(len(vecs)), pa.int64()),
            "embedding": pa.array([v.tolist() for v in vecs], pa.list_(pa.float64())),
        }
    )
    pairs = embedding_neardup(
        rd.from_arrow(t), "embedding", "vec_id", threshold=0.98
    ).to_pandas()
    found = {tuple(sorted(p)) for p in zip(pairs["id_a"], pairs["id_b"])}
    assert (0, 1) in found
    assert len(found) <= 3  # random vectors shouldn't pair


def test_minhash_sig_spill_dir_parity(ray_session, doc_table, tmp_path):
    """Landing the signature, band and pruned tables as parquet and
    running the candidate exchange + verify joins disk-backed (the
    10^8+-doc shape — sig bytes exceed the object store and are
    incompressible) must not change a single pair or estimate vs the
    in-store large path; caller files in the spill dir survive and the
    signature landing is freed."""
    import ray.data as rd

    from sod_ray.stages.dedup import minhash_lsh_dedup
    from sod_ray.stages.exchange import Spill

    instore = minhash_lsh_dedup(
        rd.from_arrow(doc_table), "text", "doc_id", jaccard_threshold=0.5,
        small_corpus_rows=1,  # accepted and ignored: one chain at every size
    ).to_pandas()
    sentinel = tmp_path / "sigs" / "precious.txt"
    sentinel.parent.mkdir()
    sentinel.write_text("do not delete")
    spilled = minhash_lsh_dedup(
        rd.from_arrow(doc_table), "text", "doc_id", jaccard_threshold=0.5,
        spill=Spill(str(tmp_path / "sigs")),
    ).to_pandas()
    pd.testing.assert_frame_equal(
        instore.sort_values(["id_a", "id_b"]).reset_index(drop=True),
        spilled.sort_values(["id_a", "id_b"]).reset_index(drop=True),
    )
    assert sentinel.read_text() == "do not delete"
    assert not (tmp_path / "sigs" / "_sod_sigs").exists()


def test_minhash_band_spill_dir_parity(ray_session, doc_table, tmp_path):
    """A stale band landing left in the spill dir by a killed run (a
    parquet file of bogus rows under ``_sod_bands``) must be cleared
    before the MinHash chain lands its own bands: not a single pair
    changes vs the in-store path, and the landing is freed."""
    import pyarrow.parquet as pq
    import ray.data as rd

    from sod_ray.stages.dedup import minhash_lsh_dedup
    from sod_ray.stages.exchange import Spill

    instore = minhash_lsh_dedup(
        rd.from_arrow(doc_table), "text", "doc_id", jaccard_threshold=0.5,
    ).to_pandas()
    stale = tmp_path / "bands" / "_sod_bands"
    stale.mkdir(parents=True)
    pq.write_table(
        pa.table({"bogus": pa.array(["left over"] * 10)}),
        str(stale / "stale.parquet"),
    )
    spilled = minhash_lsh_dedup(
        rd.from_arrow(doc_table), "text", "doc_id", jaccard_threshold=0.5,
        spill=Spill(str(tmp_path / "bands")),
    ).to_pandas()
    pd.testing.assert_frame_equal(
        instore.sort_values(["id_a", "id_b"]).reset_index(drop=True),
        spilled.sort_values(["id_a", "id_b"]).reset_index(drop=True),
    )
    assert not stale.exists()


def test_connected_components_bucketed_matches_union_find(ray_session):
    """Distributed min-label propagation == driver union-find on a
    graph with several components AND a long chain (the LSH
    max-bucket chain trick makes diameter large — pointer jumping must
    converge well under the round cap)."""
    import ray.data as rd

    from sod_ray.stages.cc import connected_components_bucketed

    rng = np.random.default_rng(3)
    # component 1: chain 1000..1300 (diameter 300)
    chain = [(i, i + 1) for i in range(1000, 1300)]
    # component 2: random clump over 0..49
    clump = [tuple(sorted(rng.choice(50, size=2, replace=False))) for _ in range(80)]
    clump = [(a, b) for a, b in clump if a != b]
    # component 3: pair
    extra = [(5000, 6000)]
    pairs = pd.DataFrame(chain + clump + extra, columns=["id_a", "id_b"])
    truth = connected_components(pairs)
    labels = (
        connected_components_bucketed(rd.from_pandas(pairs), max_levels=15)
        .to_pandas()
        .set_index("node")["label"]
        .to_dict()
    )
    assert labels == truth
    assert labels[1300] == 1000 and labels[6000] == 5000


def test_connected_components_contraction_path(ray_session):
    """Force the multi-level contraction path (driver_finish_edges
    tiny) and check it matches the driver union-find exactly."""
    import ray.data as rd

    from sod_ray.stages.cc import connected_components_bucketed

    rng = np.random.default_rng(9)
    chain = [(i, i + 1) for i in range(2000, 2150)]  # diameter 150
    stars = [(3000 + 50 * s, 3000 + 50 * s + j) for s in range(4) for j in range(1, 50)]
    clump = [
        tuple(sorted(rng.choice(40, size=2, replace=False))) for _ in range(60)
    ]
    clump = [(a, b) for a, b in clump if a != b]
    pairs = pd.DataFrame(chain + stars + clump, columns=["id_a", "id_b"])
    truth = connected_components(pairs)
    labels = (
        connected_components_bucketed(
            rd.from_pandas(pairs), driver_finish_edges=64
        )
        .to_pandas()
        .set_index("node")["label"]
        .to_dict()
    )
    assert labels == truth


def test_dup_cluster_ids_planted(ray_session, tmp_path):
    """dup_cluster_ids (CC-backed) == SQL window-min oracle on a table
    with planted exact-duplicate groups."""
    import duckdb
    import pyarrow as pa
    import pyarrow.parquet as pq

    from sod_ray.pipelines.queries import DUP_CLUSTER_SQL, dup_cluster_ids

    d = str(tmp_path)
    texts = [f"doc text {i // 4}" for i in range(200)]
    pq.write_table(
        pa.table(
            {"doc_id": pa.array(range(200), pa.int64()), "text": pa.array(texts)}
        ),
        f"{d}/documents.parquet",
    )
    got = (
        dup_cluster_ids(d).to_pandas().sort_values("doc_id").reset_index(drop=True)
    )
    con = duckdb.connect()
    con.execute(
        f"CREATE VIEW documents AS SELECT * FROM read_parquet('{d}/documents.parquet')"
    )
    exp = (
        con.execute(DUP_CLUSTER_SQL)
        .fetchdf()
        .sort_values("doc_id")
        .reset_index(drop=True)
    )
    assert got["cluster_id"].tolist() == exp["cluster_id"].tolist()
    assert (got["cluster_id"] == (got["doc_id"] // 4) * 4).all()


def test_neardup_dedup_corpus(ray_session, doc_table):
    """End-to-end corpus dedup: docs 0,1,2,3 form one near-dup cluster
    (0,1 exact; 2,3 near) — exactly doc 0 survives; all noise docs
    survive. Both the broadcast drop-set path and the bucketed
    anti-join path must agree."""
    import ray.data as rd

    from sod_ray.stages.dedup import neardup_dedup_corpus

    ds = rd.from_arrow(doc_table)
    kept = neardup_dedup_corpus(
        ds, "text", "doc_id", jaccard_threshold=0.5
    ).to_pandas()
    ids = set(kept["doc_id"])
    assert 0 in ids and not {1, 2, 3} & ids
    assert ids == {0} | set(range(4, len(doc_table)))
    # original columns survive
    assert set(kept.columns) == {"doc_id", "text"}

    # force the bucketed anti-join path (broadcast_limit=0)
    kept2 = neardup_dedup_corpus(
        rd.from_arrow(doc_table), "text", "doc_id",
        jaccard_threshold=0.5, broadcast_limit=0,
    ).to_pandas()
    assert set(kept2["doc_id"]) == ids


def test_neardup_dedup_corpus_no_dups(ray_session):
    """A corpus with no near-dups passes through untouched."""
    import ray.data as rd

    from sod_ray.stages.dedup import neardup_dedup_corpus

    rng = np.random.default_rng(1)
    words = [f"w{i}" for i in range(500)]
    docs = [" ".join(rng.choice(words, size=40).tolist()) for _ in range(20)]
    ds = rd.from_items(
        [{"doc_id": i, "text": t} for i, t in enumerate(docs)]
    )
    kept = neardup_dedup_corpus(ds, "text", "doc_id").to_pandas()
    assert set(kept["doc_id"]) == set(range(20))


def test_decontaminate_short_benchmark_text(ray_session):
    """Benchmark texts shorter than n tokens still decontaminate: they
    probe at their own full-sequence width instead of being skipped.
    Both sides lowercase alike: "İ" lowers to "i" in Arrow but to
    "i̇" (i + U+0307) in Python, and a benchmark lowered by Python
    missed its own text in the corpus."""
    import ray.data as rd

    from sod_ray.stages.dedup import decontaminate

    short_q = "what is the capital of france"  # 6 tokens < n=13
    city_q = "İstanbul is the largest city"
    docs = pd.DataFrame(
        {
            "doc_id": [0, 1, 2],
            "text": [
                "trivia time: " + short_q + " and other questions follow",
                "a completely unrelated document about rivers and dams",
                "geography: " + city_q + " of the country",
            ],
        }
    )
    out = decontaminate(
        rd.from_pandas(docs), [short_q, city_q], n=13
    ).to_pandas()
    assert sorted(out["node"].tolist()) == [0, 2]


def test_minhash_star_emission_same_clusters(ray_session):
    """Star pair emission finds the SAME near-dup clusters as all-pairs
    on homogeneous planted families (the corpus-dedup use case), with
    far fewer candidate pairs verified."""
    import ray.data as rd

    from sod_ray.stages.cc import connected_components_bucketed
    from sod_ray.stages.dedup import minhash_lsh_dedup

    rng = np.random.default_rng(17)
    texts, ids = [], []
    nid = 0
    for fam in range(12):
        base = " ".join(f"w{int(x)}" for x in rng.integers(0, 20000, 80))
        members = 8 if fam % 3 else 20
        for m in range(members):
            toks = base.split()
            # ONE token edit → member↔hub shingle-Jaccard ~0.93,
            # comfortably above threshold: the homogeneous-family case
            # star emission is specified for (two edits can push a
            # hub pair under 0.7 — the documented recall trade)
            toks[int(rng.integers(0, len(toks)))] = f"edit{fam}x{m}"
            texts.append(" ".join(toks))
            ids.append(nid)
            nid += 1
    for _ in range(300):  # background noise docs
        texts.append(" ".join(f"w{int(x)}" for x in rng.integers(0, 20000, 80)))
        ids.append(nid)
        nid += 1
    ds = rd.from_arrow(
        pa.table({"doc_id": pa.array(ids, pa.int64()), "text": texts})
    )

    def clusters(emission):
        pairs = minhash_lsh_dedup(
            ds, "text", "doc_id", jaccard_threshold=0.7,
            pair_emission=emission,
        )
        labels = connected_components_bucketed(pairs).to_pandas()
        return set(zip(labels["node"], labels["label"]))

    cp = clusters("pairs")
    cs = clusters("star")
    assert cp == cs and len(cp) > 0


def test_exchange_reduce_basic(ray_session):
    """Generic raw-task exchange: every key's rows land in one bucket;
    the reduce sees each bucket exactly once; empty buckets keep a
    schema the reducer can handle."""
    import pyarrow as pa
    import ray.data as rd

    from sod_ray.stages.exchange import exchange_reduce

    rows = [{"k": i % 7, "v": i} for i in range(1000)]
    ds = rd.from_items(rows).repartition(5)

    def per_bucket(t: pa.Table) -> pa.Table:
        import numpy as np

        if t.num_rows == 0:
            return pa.table({"k": pa.array([], pa.int64()),
                             "s": pa.array([], pa.int64())})
        k = t["k"].to_numpy(zero_copy_only=False)
        v = t["v"].to_numpy(zero_copy_only=False)
        order = np.argsort(k, kind="stable")
        k, v = k[order], v[order]
        b = np.flatnonzero(np.concatenate(([True], k[1:] != k[:-1])))
        sums = np.add.reduceat(v, b)
        return pa.table({"k": pa.array(k[b]), "s": pa.array(sums)})

    got = (
        exchange_reduce(ds, "k", per_bucket, num_buckets=4)
        .to_pandas()
        .sort_values("k")
        .reset_index(drop=True)
    )
    import pandas as pd

    want = (
        pd.DataFrame(rows).groupby("k", as_index=False)["v"].sum()
        .rename(columns={"v": "s"})
    )
    assert got["k"].tolist() == want["k"].tolist()
    assert got["s"].tolist() == want["s"].tolist()


def test_group_min_count_min_max(ray_session):
    import pyarrow as pa
    import ray.data as rd

    from sod_ray.stages.dedup import group_min_count

    t = pa.table(
        {
            "key": pa.array(["a", "b", "a", "c", "b", "a"], pa.string()),
            "id": pa.array([5, 2, 3, 9, 7, 4], pa.int64()),
        }
    )
    ds = rd.from_arrow(t).repartition(3)
    got = (
        group_min_count(ds, "key", "id")
        .to_pandas()
        .sort_values("key")
        .reset_index(drop=True)
    )
    assert got["key"].tolist() == ["a", "b", "c"]
    assert got["win_id"].tolist() == [3, 2, 9]
    assert got["count"].tolist() == [3, 2, 1]
    got_max = (
        group_min_count(ds, "key", "id", keep="max")
        .to_pandas()
        .sort_values("key")
        .reset_index(drop=True)
    )
    assert got_max["win_id"].tolist() == [5, 7, 9]


def test_exact_dedup_keep_max(ray_session, doc_table):
    import ray.data as rd

    from sod_ray.stages.dedup import exact_dedup

    out = exact_dedup(rd.from_arrow(doc_table), "text", "doc_id", keep="max").to_pandas()
    assert len(out) == len(doc_table) - 1
    assert 1 in set(out["doc_id"]) and 0 not in set(out["doc_id"])  # max id kept


def _brute_jaccard_pairs(docs, n=3, threshold=0.8):
    """Reference: distinct n-token shingles (docs with <n tokens have
    none), Jaccard over shingle sets, pairs with jac >= threshold."""
    grams = []
    for t in docs:
        toks = t.split() if isinstance(t, str) else []
        if len(toks) < n:
            grams.append(set())
        else:
            grams.append(
                {tuple(toks[i : i + n]) for i in range(len(toks) - n + 1)}
            )
    out = {}
    for i in range(len(docs)):
        for j in range(i + 1, len(docs)):
            gi, gj = grams[i], grams[j]
            if not gi or not gj:
                continue
            jac = len(gi & gj) / len(gi | gj)
            if jac >= threshold:
                out[(i, j)] = jac
    return out


def test_jaccard_all_pairs_matches_brute(ray_session, doc_table):
    import ray.data as rd

    from sod_ray.stages.dedup import jaccard_all_pairs

    base = doc_table["text"].to_pylist()
    # the doc table as is, then with edge cases: short doc (<3 tokens),
    # empty doc, exact twin of 0
    for docs in (base, base + ["two tokens", "", base[0]]):
        t = pa.table(
            {
                "doc_id": pa.array(range(len(docs)), pa.int64()),
                "text": pa.array(docs, pa.string()),
            }
        )
        expect = _brute_jaccard_pairs(docs, n=3, threshold=0.5)
        out = jaccard_all_pairs(
            rd.from_arrow(t), "text", "doc_id", n=3, threshold=0.5
        ).to_pandas()
        got = {
            (int(a), int(b)): j
            for a, b, j in zip(out["id_a"], out["id_b"], out["jaccard"])
        }
        assert set(got) == set(expect)
        for k in expect:
            assert got[k] == pytest.approx(expect[k], abs=0)
        assert got[(0, 1)] == 1.0  # the planted exact dup


def _brute_bucket_pairs(key, ids, star=False, cap=None, df_cap=None):
    """Per key in ascending order: the sorted distinct ids' pairs as
    ``itertools.combinations`` lists them (star: min id with the rest;
    more than ``cap`` ids: consecutive chain; more than ``df_cap``:
    none)."""
    from itertools import combinations

    out = []
    for k in sorted(set(key.tolist())):
        g = sorted(set(ids[key == k].tolist()))
        if df_cap is not None and len(g) > df_cap:
            continue
        if cap is not None and len(g) > cap:
            out += list(zip(g[:-1], g[1:]))
        elif star:
            out += [(g[0], x) for x in g[1:]]
        else:
            out += list(combinations(g, 2))
    return out


@pytest.mark.parametrize("pair_slice", [8_000_000, 3])
def test_bucket_pairs_kernel_matches_brute(monkeypatch, pair_slice):
    """The shared bucket-pairs kernel against brute force, pair for pair
    and in emission order: random group layouts (empty input,
    singletons, repeated (key, id) rows, negative keys and ids) under
    every count rule its callers use — triangle, star, oversize chain
    and the df cap — with the slice constant at its default and small
    enough that buckets cross slice boundaries."""
    from sod_ray.stages import dedup as dd

    monkeypatch.setattr(dd, "_PAIR_SLICE", pair_slice)
    rng = np.random.default_rng(5)
    layouts = [(np.empty(0, np.int64), np.empty(0, np.int64))]
    layouts.append((np.arange(9), np.arange(9)))  # all singletons
    for _ in range(60):
        n = int(rng.integers(1, 80))
        layouts.append(
            (rng.integers(-4, 8, n), rng.integers(-20, 30, n))
        )
    rules = [
        ({}, None),
        ({"star": True, "cap": 10**9}, dd._emission_rule(True, 10**9)),
        ({"cap": 4}, dd._emission_rule(False, 4)),
        ({"star": True, "cap": 4}, dd._emission_rule(True, 4)),
        ({"df_cap": 5}, dd._df_cap_rule(5)),
    ]
    split = 0
    for key, ids in layouts:
        for kw, rule in rules:
            ia, ib = dd._bucket_id_pairs(key, ids, rule)
            got = list(zip(ia.tolist(), ib.tolist()))
            assert got == _brute_bucket_pairs(key, ids, **kw), kw
            slices = list(dd._bucket_pairs(key, ids, rule)[1])
            split += len(slices) > 1
            for left, _ in slices:
                # whole rows per slice: at most one row past the cap
                assert left.shape[0] < pair_slice + len(ids)
    assert split > 0 if pair_slice == 3 else split == 0


def test_pair_runs_kernel_counts_and_carry():
    """Distinct (id_a, id_b) pairs in order, first row's carried column,
    run counts thresholded by min_count; schema-less input → typed
    empty output."""
    from collections import Counter

    from sod_ray.stages import dedup as dd

    rng = np.random.default_rng(9)
    a = rng.integers(0, 6, 200)
    b = rng.integers(0, 6, 200)
    h = a * 10 + b  # a pure function of the pair, like hamming
    t = pa.table({"pk": a ^ b, "id_a": a, "id_b": b, "hamming": h})
    runs = Counter(zip(a.tolist(), b.tolist()))
    out = dd._pair_runs(t, carry=("hamming",))
    assert out.column_names == ["id_a", "id_b", "hamming"]
    pairs = list(zip(out["id_a"].to_pylist(), out["id_b"].to_pylist()))
    assert pairs == sorted(runs)
    assert out["hamming"].to_pylist() == [x * 10 + y for x, y in pairs]
    counted = dd._pair_runs(t, count_col="n", min_count=6)
    assert dict(
        zip(
            zip(counted["id_a"].to_pylist(), counted["id_b"].to_pylist()),
            counted["n"].to_pylist(),
        )
    ) == {p: n for p, n in runs.items() if n >= 6}
    empty = dd._pair_runs(pa.table({}), count_col="n")
    assert empty.num_rows == 0
    assert empty.schema == pa.schema(
        [("id_a", pa.int64()), ("id_b", pa.int64()), ("n", pa.int64())]
    )


def test_jaccard_all_pairs_bucketed_fallback_parity(ray_session, doc_table):
    """broadcast_limit=0 forces the two bucketed equi-joins; output
    must be identical to the broadcast path."""
    import ray.data as rd

    from sod_ray.stages.dedup import jaccard_all_pairs

    a = (
        jaccard_all_pairs(
            rd.from_arrow(doc_table), "text", "doc_id", threshold=0.5
        )
        .to_pandas()
        .sort_values(["id_a", "id_b"])
        .reset_index(drop=True)
    )
    b = (
        jaccard_all_pairs(
            rd.from_arrow(doc_table),
            "text",
            "doc_id",
            threshold=0.5,
            broadcast_limit=0,
        )
        .to_pandas()
        .sort_values(["id_a", "id_b"])
        .reset_index(drop=True)
    )
    pd.testing.assert_frame_equal(a, b[a.columns])


def test_minhash_recall_vs_exact(ray_session):
    """Pin the LSH chain's recall AND precision against the exact op on
    the sf0.001 fixture (both 1.0 — near-dup families there sit well
    above the 0.8 threshold, random pairs well below)."""
    import ray.data as rd

    from sod_ray.stages.dedup import jaccard_all_pairs, minhash_lsh_dedup

    ds = rd.read_parquet("/root/testdata/sf0.001/documents.parquet")
    ds = ds.select_columns(["doc_id", "text"])
    exact = jaccard_all_pairs(ds, "text", "doc_id", threshold=0.8).to_pandas()
    lsh = minhash_lsh_dedup(ds, "text", "doc_id", jaccard_threshold=0.8).to_pandas()
    ep = set(zip(exact["id_a"].astype(int), exact["id_b"].astype(int)))
    lp = set(
        zip(
            lsh["id_a"].to_numpy().astype(int),
            lsh["id_b"].to_numpy().astype(int),
        )
    )
    assert ep == lp  # recall 1.0 and precision 1.0 on this fixture


def test_embedding_neardup_recall_vs_exact(ray_session):
    """Pin the hyperplane-LSH path against the exact cosine all-pairs
    op on a planted near-dup corpus: precision must be 1.0 (the verify
    recomputes true cosine), recall >= 0.9 with the default 8 bands
    (single-band recall at cos 0.99 / 12 planes is only ~0.5), and the
    reported cosine must equal the exact op's value per pair."""
    import ray.data as rd

    from sod_ray.stages.dedup import embedding_neardup
    from sod_ray.stages.similarity import cosine_all_pairs

    rng = np.random.default_rng(7)
    d, n_fam, n_noise = 32, 30, 200
    vecs, ids = [], []
    for i in range(n_fam):
        base = rng.normal(size=d)
        base /= np.linalg.norm(base)
        vecs += [base, base + rng.normal(scale=0.008, size=d)]
        ids += [2 * i, 2 * i + 1]
    for j in range(n_noise):
        vecs.append(rng.normal(size=d))
        ids.append(2 * n_fam + j)
    t = pa.table(
        {
            "vec_id": pa.array(ids, pa.int64()),
            "embedding": pa.array(
                [np.asarray(v, dtype=np.float32).tolist() for v in vecs],
                pa.list_(pa.float32()),
            ),
        }
    )
    ds = rd.from_arrow(t)
    exact = cosine_all_pairs(ds, "embedding", "vec_id", threshold=0.99).to_pandas()
    lsh = embedding_neardup(
        ds, "embedding", "vec_id", threshold=0.99, n_bands=8
    ).to_pandas()
    ep = set(zip(exact["id_a"].astype(int), exact["id_b"].astype(int)))
    lp = set(zip(lsh["id_a"].astype(int), lsh["id_b"].astype(int)))
    # every planted family must be in the exact ground truth
    assert all((2 * i, 2 * i + 1) in ep for i in range(n_fam))
    assert lp <= ep  # precision 1.0
    assert len(lp) / len(ep) >= 0.9  # banded recall
    # per-pair cosine parity with the exact op (rounded to its grid)
    ex = {(a, b): c for a, b, c in exact.itertuples(index=False)}
    for a, b, c in lsh.itertuples(index=False):
        assert abs(ex[(int(a), int(b))] - round(float(c), 6)) < 1e-9


def test_cosine_all_pairs_matches_numpy(ray_session):
    """cosine_all_pairs == driver-side numpy upper-triangle brute force
    (values and pair set), including the id_a < id_b discipline."""
    import ray.data as rd

    from sod_ray.stages.similarity import cosine_all_pairs

    rng = np.random.default_rng(11)
    V = rng.normal(size=(120, 16))
    ids = np.arange(120, dtype=np.int64)[::-1].copy()  # unordered ids
    t = pa.table(
        {
            "vec_id": pa.array(ids),
            "embedding": pa.array(
                [row.astype(np.float32).tolist() for row in V],
                pa.list_(pa.float32()),
            ),
        }
    )
    got = (
        cosine_all_pairs(rd.from_arrow(t), "embedding", "vec_id", threshold=0.3)
        .to_pandas()
        .sort_values(["id_a", "id_b"])
        .reset_index(drop=True)
    )
    Vn = V.astype(np.float32).astype(np.float64)
    Vn /= np.linalg.norm(Vn, axis=1, keepdims=True)
    S = Vn @ Vn.T
    want = []
    for i in range(len(ids)):
        for j in range(len(ids)):
            if ids[i] < ids[j] and S[i, j] >= 0.3:
                want.append((ids[i], ids[j], round(S[i, j], 6)))
    want = sorted(want)
    assert len(got) == len(want) and len(want) > 0
    for (ga, gb, gc), (wa, wb, wc) in zip(
        got.itertuples(index=False), want
    ):
        assert (ga, gb) == (wa, wb) and abs(gc - wc) < 1e-9


def test_embedding_neardup_large_path_parity(ray_session):
    """The distributed chain (slim band rows + payload-join verify) is
    the only path at every size: two runs over one input must give the
    same pair set with equal cosines."""
    import ray.data as rd

    from sod_ray.stages.dedup import embedding_neardup

    rng = np.random.default_rng(21)
    d = 24
    vecs, ids = [], []
    for i in range(20):
        base = rng.normal(size=d)
        base /= np.linalg.norm(base)
        vecs += [base, base + rng.normal(scale=0.008, size=d)]
        ids += [2 * i, 2 * i + 1]
    for j in range(150):
        vecs.append(rng.normal(size=d))
        ids.append(40 + j)
    t = pa.table(
        {
            "vec_id": pa.array(ids, pa.int64()),
            "embedding": pa.array(
                [np.asarray(v, dtype=np.float32).tolist() for v in vecs],
                pa.list_(pa.float32()),
            ),
        }
    )
    ds = rd.from_arrow(t)
    small = embedding_neardup(
        ds, "embedding", "vec_id", threshold=0.99
    ).to_pandas()
    large = embedding_neardup(
        ds, "embedding", "vec_id", threshold=0.99
    ).to_pandas()
    s = {tuple(sorted(p)) for p in zip(small["id_a"], small["id_b"])}
    l = {tuple(sorted(p)) for p in zip(large["id_a"], large["id_b"])}
    assert s == l and len(s) > 0
    sc = {(a, b): c for a, b, c in small.itertuples(index=False)}
    for a, b, c in large.itertuples(index=False):
        assert abs(sc[(a, b)] - c) < 1e-9


def test_embedding_neardup_vec_spill_parity(ray_session, tmp_path):
    """A spill (normalized vectors landed as parquet instead of
    store-pinned, plus every later landing) must yield the identical
    pair set and cosines as the materialized large path."""
    import ray.data as rd

    from sod_ray.stages.dedup import embedding_neardup
    from sod_ray.stages.exchange import Spill

    rng = np.random.default_rng(22)
    d = 24
    vecs, ids = [], []
    for i in range(15):
        base = rng.normal(size=d)
        base /= np.linalg.norm(base)
        vecs += [base, base + rng.normal(scale=0.008, size=d)]
        ids += [2 * i, 2 * i + 1]
    for j in range(100):
        vecs.append(rng.normal(size=d))
        ids.append(30 + j)
    t = pa.table(
        {
            "vec_id": pa.array(ids, pa.int64()),
            "embedding": pa.array(
                [np.asarray(v, dtype=np.float32).tolist() for v in vecs],
                pa.list_(pa.float32()),
            ),
        }
    )
    ds = rd.from_arrow(t)
    mat = embedding_neardup(
        ds, "embedding", "vec_id", threshold=0.99
    ).to_pandas()
    spill = embedding_neardup(
        ds, "embedding", "vec_id", threshold=0.99,
        spill=Spill(str(tmp_path / "vecs")),
    ).to_pandas()
    m = {tuple(sorted(p)) for p in zip(mat["id_a"], mat["id_b"])}
    sp = {tuple(sorted(p)) for p in zip(spill["id_a"], spill["id_b"])}
    assert m == sp and len(m) > 0
    mc = {(a, b): c for a, b, c in mat.itertuples(index=False)}
    for a, b, c in spill.itertuples(index=False):
        assert abs(mc[(a, b)] - c) < 1e-9


def test_minhash_index_meta_guard(ray_session, tmp_path):
    """The incremental near-dup index records the LSH params it was
    built with; an append or probe under DIFFERENT params must fail
    loudly instead of silently reinterpreting persisted signatures
    (which can wrongly drop new documents)."""
    import pytest

    from sod_ray.stages.dedup import (
        minhash_index_append,
        minhash_index_probe,
    )

    idx = str(tmp_path / "ndidx")
    ids = np.arange(4, dtype=np.int64)
    sigs = np.arange(4 * 64, dtype=np.uint64).reshape(4, 64)
    minhash_index_append(idx, "b1", ids, sigs, bands=16, shingle_k=3, seed=7)
    assert (tmp_path / "ndidx" / "_meta.json").exists()
    # matching params: fine (idempotent retry)
    minhash_index_append(idx, "b1", ids, sigs, bands=16, shingle_k=3, seed=7)
    # n_perm mismatch on probe
    with pytest.raises(ValueError, match="n_perm"):
        minhash_index_probe(
            idx, ids, np.zeros((4, 32), np.uint64), bands=16
        )
    # bands mismatch on append
    with pytest.raises(ValueError, match="bands"):
        minhash_index_append(idx, "b2", ids, sigs, bands=8)
    # shingle_k mismatch
    with pytest.raises(ValueError, match="shingle_k"):
        minhash_index_append(idx, "b2", ids, sigs, bands=16, shingle_k=5)


def test_minhash_index_probe_orphan_band_shard(ray_session, tmp_path):
    """A .band.parquet shard without its .sig.parquet sibling (partial
    index corruption) must degrade to no-match, not IndexError or a
    score against the wrong document's signature."""
    import os

    from sod_ray.stages.dedup import (
        minhash_index_append,
        minhash_index_probe,
    )

    idx = str(tmp_path / "ndidx")
    rng = np.random.default_rng(0)
    ids = np.arange(6, dtype=np.int64)
    sigs = rng.integers(0, 2**63, size=(6, 64)).astype(np.uint64)
    minhash_index_append(idx, "b1", ids[:3], sigs[:3], bands=16)
    minhash_index_append(idx, "b2", ids[3:], sigs[3:], bands=16)
    # new batch duplicates doc 4 (lives in shard b2) — then orphan b2's
    # band shard by deleting its sig sibling
    os.remove(os.path.join(idx, "b2.sig.parquet"))
    new_ids = np.array([100], np.int64)
    new_sigs = sigs[4:5].copy()
    hit = minhash_index_probe(idx, new_ids, new_sigs, threshold=0.7, bands=16)
    assert hit.shape[0] == 0  # orphaned candidates treated as no-match
    # sanity: with the sibling intact the same probe DOES hit
    minhash_index_append(idx, "b2", ids[3:], sigs[3:], bands=16)
    hit2 = minhash_index_probe(idx, new_ids, new_sigs, threshold=0.7, bands=16)
    assert list(hit2) == [100]


def test_simhash128_signatures():
    from sod_ray.stages.dedup import (
        _popcount64,
        simhash128_signatures,
        simhash_signatures,
    )

    a = "the quick brown fox jumps over the lazy dog again and again ok"
    b = "the quick brown fox jumps over the lazy cat again and again ok"
    c = "completely different words entirely unrelated to anything else now"
    sig = simhash128_signatures([a, a, b, c, None, ""])
    assert sig.shape == (6, 2) and sig.dtype == np.uint64
    assert (sig[0] == sig[1]).all()  # identical text -> identical sig
    assert (sig[4] == 0).all() and (sig[5] == 0).all()  # empty docs
    # low word is EXACTLY the 64-bit signature (same votes)
    assert (sig[:, 0] == simhash_signatures([a, a, b, c, None, ""])).all()

    def ham(x, y):
        return int(
            (_popcount64(x[0:1] ^ y[0:1]) + _popcount64(x[1:2] ^ y[1:2]))[0]
        )

    near, far = ham(sig[0], sig[2]), ham(sig[0], sig[3])
    assert near < far  # finer distance still orders near < far
    assert near <= 24 and far >= 40  # 128-bit scale


def test_simhash_dedup_128(ray_session, doc_table):
    """128-bit combination banding (28 tables over 8x16-bit blocks,
    recall guaranteed to hamming<=6) must find the planted exact and
    near dup pairs, with pairwise-exact hamming values."""
    import ray.data as rd

    from sod_ray.stages.dedup import simhash_dedup

    import itertools

    from sod_ray.stages.dedup import _popcount64, simhash128_signatures

    pairs = simhash_dedup(
        rd.from_arrow(doc_table), "text", "doc_id",
        max_hamming=6, sig_bits=128,
    ).to_pandas()
    found = {tuple(sorted(p)) for p in zip(pairs["id_a"], pairs["id_b"])}
    assert (0, 1) in found  # exact dup -> hamming 0
    ex = pairs[(pairs[["id_a", "id_b"]].min(axis=1) == 0)
               & (pairs[["id_a", "id_b"]].max(axis=1) == 1)]
    assert ex["hamming"].iloc[0] == 0
    # found == the brute-force radius-6 pair set (recall AND precision)
    sig = simhash128_signatures(doc_table["text"].to_pylist())
    want = set()
    for i, j in itertools.combinations(range(len(doc_table)), 2):
        h = int(
            (
                _popcount64(sig[i, 0:1] ^ sig[j, 0:1])
                + _popcount64(sig[i, 1:2] ^ sig[j, 1:2])
            )[0]
        )
        if h <= 6:
            want.add((i, j))
    assert found == want


def test_simhash_dedup_128_guarantee(ray_session):
    """Every pair within hamming<=6 of the 128-bit distance MUST be
    found (pigeonhole over the 28 block-pair tables) — compare against
    the brute-force distance matrix on a small corpus."""
    import itertools

    import ray.data as rd

    from sod_ray.stages.dedup import (
        _popcount64,
        simhash128_signatures,
        simhash_dedup,
    )

    rng = np.random.default_rng(5)
    words = [f"w{i}" for i in range(300)]
    docs = []
    for i in range(60):
        base = rng.choice(words, size=40).tolist()
        docs.append(" ".join(base))
        if i % 3 == 0:  # one-edit twin
            tw = list(base)
            tw[5] = "edited"
            docs.append(" ".join(tw))
    t = pa.table(
        {
            "doc_id": pa.array(range(len(docs)), pa.int64()),
            "text": pa.array(docs, pa.string()),
        }
    )
    sig = simhash128_signatures(docs)
    want = set()
    for i, j in itertools.combinations(range(len(docs)), 2):
        h = int(
            (
                _popcount64(sig[i, 0:1] ^ sig[j, 0:1])
                + _popcount64(sig[i, 1:2] ^ sig[j, 1:2])
            )[0]
        )
        if h <= 6:
            want.add((i, j))
    got = simhash_dedup(
        rd.from_arrow(t), "text", "doc_id", max_hamming=6, sig_bits=128
    ).to_pandas()
    found = {tuple(sorted(p)) for p in zip(got["id_a"], got["id_b"])}
    assert want and want <= found == want  # exact recall AND precision


def test_simhash_dedup_128_matching_guarantee(ray_session):
    """table_design='matching' (4 tables, 64-bit-mode row volume) must
    find EVERY pair within hamming<=3 of the 128-bit distance — the
    perfect-matching pigeonhole: <=3 flips leave >=5 clean blocks, and
    5 vertices over 4 disjoint edges contain a full edge."""
    import itertools

    import ray.data as rd

    from sod_ray.stages.dedup import (
        _popcount64,
        simhash128_signatures,
        simhash_dedup,
    )

    rng = np.random.default_rng(11)
    words = [f"w{i}" for i in range(400)]
    docs = []
    for i in range(60):
        base = rng.choice(words, size=300).tolist()  # long docs: a
        # one-token edit flips ~3 of 128 bits, so radius-3 twins exist
        docs.append(" ".join(base))
        if i % 2 == 0:
            tw = list(base)
            tw[7] = "zz"
            docs.append(" ".join(tw))
        if i % 7 == 0:  # exact dup (distance 0) floor
            docs.append(" ".join(base))
    t = pa.table(
        {
            "doc_id": pa.array(range(len(docs)), pa.int64()),
            "text": pa.array(docs, pa.string()),
        }
    )
    sig = simhash128_signatures(docs)
    want = set()
    for i, j in itertools.combinations(range(len(docs)), 2):
        h = int(
            (
                _popcount64(sig[i, 0:1] ^ sig[j, 0:1])
                + _popcount64(sig[i, 1:2] ^ sig[j, 1:2])
            )[0]
        )
        if h <= 3:
            want.add((i, j))
    got = simhash_dedup(
        rd.from_arrow(t), "text", "doc_id", max_hamming=3, sig_bits=128,
        table_design="matching",
    ).to_pandas()
    found = {tuple(sorted(p)) for p in zip(got["id_a"], got["id_b"])}
    assert want and found == want  # exact recall AND precision


def test_simhash_dedup_128_cliques_guarantee(ray_session):
    """table_design='cliques' (two disjoint K4s, 12 tables) must find
    EVERY pair within hamming<=5: <=5 flips leave >=3 clean blocks,
    two of which share a clique whose pair-table both docs hit."""
    import itertools

    import ray.data as rd

    from sod_ray.stages.dedup import (
        _popcount64,
        simhash128_signatures,
        simhash_dedup,
    )

    rng = np.random.default_rng(23)
    words = [f"w{i}" for i in range(400)]
    docs = []
    for i in range(60):
        base = rng.choice(words, size=200).tolist()
        docs.append(" ".join(base))
        if i % 2 == 0:
            tw = list(base)
            tw[3] = "zz"
            docs.append(" ".join(tw))
    t = pa.table(
        {
            "doc_id": pa.array(range(len(docs)), pa.int64()),
            "text": pa.array(docs, pa.string()),
        }
    )
    sig = simhash128_signatures(docs)
    want = set()
    for i, j in itertools.combinations(range(len(docs)), 2):
        h = int(
            (
                _popcount64(sig[i, 0:1] ^ sig[j, 0:1])
                + _popcount64(sig[i, 1:2] ^ sig[j, 1:2])
            )[0]
        )
        if h <= 5:
            want.add((i, j))
    got = simhash_dedup(
        rd.from_arrow(t), "text", "doc_id", max_hamming=5, sig_bits=128,
        table_design="cliques",
    ).to_pandas()
    found = {tuple(sorted(p)) for p in zip(got["id_a"], got["id_b"])}
    assert want and found == want


def test_simhash_dedup_128_triples_guarantee(ray_session):
    """table_design='triples' (disjoint cliques 3/3/2, 7 tables) must
    find EVERY pair within hamming<=4: <=4 flips leave >=4 clean
    blocks, two of which share a clique whose pair-table both docs
    hit (minimal by Turán: independence<=3 needs >=7 edges)."""
    import itertools

    import ray.data as rd

    from sod_ray.stages.dedup import (
        _popcount64,
        simhash128_signatures,
        simhash_dedup,
    )

    rng = np.random.default_rng(31)
    words = [f"w{i}" for i in range(400)]
    docs = []
    for i in range(60):
        base = rng.choice(words, size=200).tolist()
        docs.append(" ".join(base))
        if i % 2 == 0:
            tw = list(base)
            tw[5] = "yy"
            docs.append(" ".join(tw))
    t = pa.table(
        {
            "doc_id": pa.array(range(len(docs)), pa.int64()),
            "text": pa.array(docs, pa.string()),
        }
    )
    sig = simhash128_signatures(docs)
    want = set()
    for i, j in itertools.combinations(range(len(docs)), 2):
        h = int(
            (
                _popcount64(sig[i, 0:1] ^ sig[j, 0:1])
                + _popcount64(sig[i, 1:2] ^ sig[j, 1:2])
            )[0]
        )
        if h <= 4:
            want.add((i, j))
    got = simhash_dedup(
        rd.from_arrow(t), "text", "doc_id", max_hamming=4, sig_bits=128,
        table_design="triples",
    ).to_pandas()
    found = {tuple(sorted(p)) for p in zip(got["id_a"], got["id_b"])}
    assert want and found == want


def test_prune_singleton_large_path_parity(ray_session, doc_table, monkeypatch):
    """The prune's hot-key join (past the broadcast budget, the band
    rows join against the hot keys instead of a broadcast filter) must
    produce the same pair set as the broadcast filter — forced by
    shrinking the broadcast budget to zero. Ray's native
    ``Dataset.join`` is patched to raise: every join in the chain runs
    on ``bucketed_equi_join``."""
    import ray.data as rd

    from sod_ray.stages import dedup as dd

    def no_native_join(*a, **kw):
        raise AssertionError("native Dataset.join called")

    monkeypatch.setattr(rd.Dataset, "join", no_native_join)
    base = (
        dd.simhash_dedup(rd.from_arrow(doc_table), "text", "doc_id")
        .to_pandas()
        .sort_values(["id_a", "id_b"])
        .reset_index(drop=True)
    )
    monkeypatch.setattr(dd, "broadcast_rows_budget", lambda **kw: 0)
    forced = (
        dd.simhash_dedup(rd.from_arrow(doc_table), "text", "doc_id")
        .to_pandas()
        .sort_values(["id_a", "id_b"])
        .reset_index(drop=True)
    )
    assert base.equals(forced)


# ---------------------------------------------------------------------------
# Winnowing overlap (containment) dedup — distributed path
# ---------------------------------------------------------------------------


def _winnow_ref_pairs(texts, ids, k, w, min_shared, max_df):
    """Driver-side reference: same fingerprint kernel, pandas merge."""
    import pandas as pd

    from sod_ray.functions.text import winnow_fingerprints_fast

    rows = []
    for did, txt in zip(ids, texts):
        _, h = winnow_fingerprints_fast(txt, k=k, w=w)
        for fp in set(h.tolist()):
            rows.append((fp, did))
    df = pd.DataFrame(rows, columns=["fp", "doc"])
    dfc = df.groupby("fp")["doc"].transform("size")
    df = df[dfc <= max_df]
    m = df.merge(df, on="fp")
    m = m[m["doc_x"] < m["doc_y"]]
    out = (
        m.groupby(["doc_x", "doc_y"])
        .size()
        .reset_index(name="n_shared")
    )
    out = out[out["n_shared"] >= min_shared]
    return {
        (a, b): n
        for a, b, n in zip(out["doc_x"], out["doc_y"], out["n_shared"])
    }


def test_winnow_overlap_distributed_matches_reference(ray_session):
    import numpy as np
    import ray.data as rd

    from sod_ray.stages.dedup import winnow_overlap_pairs_ds

    rng = np.random.default_rng(31)
    vocab = [f"word{i}" for i in range(2000)]
    texts = [
        " ".join(rng.choice(vocab, size=60)) for _ in range(120)
    ]
    # plant containment: doc 100 contains a big chunk of doc 3;
    # doc 101 is a near-copy of doc 7
    texts[100] = " ".join(rng.choice(vocab, size=20)) + " " + texts[3][:200]
    texts[101] = texts[7]
    ids = list(range(len(texts)))
    ds = rd.from_items(
        [{"doc_id": i, "text": t} for i, t in zip(ids, texts)]
    )
    got_tbl = winnow_overlap_pairs_ds(
        ds, "text", "doc_id", min_shared=10, max_df=64
    ).to_pandas()
    got = {
        (a, b): n
        for a, b, n in zip(
            got_tbl["id_a"], got_tbl["id_b"], got_tbl["n_shared"]
        )
    }
    ref = _winnow_ref_pairs(texts, ids, 5, 8, 10, 64)
    assert got == ref
    assert (3, 100) in got and (7, 101) in got


def test_winnow_overlap_catches_containment_jaccard_misses(ray_session):
    """A short doc embedded in a much longer one: token-set Jaccard is
    tiny (|A∩B|/|A∪B| ~ |B|/|A|) but the contained span shares its
    fingerprints — the case this dedup family exists for."""
    import numpy as np
    import ray.data as rd

    from sod_ray.stages.dedup import winnow_overlap_drop_ids

    rng = np.random.default_rng(7)
    vocab = [f"tk{i}" for i in range(5000)]
    long_doc = " ".join(rng.choice(vocab, size=500))
    short_doc = long_doc[1000:1400]  # contained span
    noise = [
        " ".join(rng.choice(vocab, size=80)) for _ in range(50)
    ]
    texts = [long_doc] + noise + [short_doc]
    ds = rd.from_items(
        [{"doc_id": i, "text": t} for i, t in enumerate(texts)]
    )
    # token-set jaccard of the planted pair is small
    a, b = set(long_doc.split()), set(short_doc.split())
    assert len(a & b) / len(a | b) < 0.25
    drops = winnow_overlap_drop_ids(
        ds, "text", "doc_id", min_shared=20, max_df=64
    )
    got = set(drops.to_pandas()["node"].tolist())
    # the contained doc (higher id) is dropped, the container kept
    assert len(texts) - 1 in got
    assert 0 not in got


def test_winnow_overlap_max_df_kills_template_blowup(ray_session):
    """300 docs sharing one template sentence (df=300 > max_df): the
    template fingerprints are dropped before pairing, so template-only
    sharing produces NO pairs — the O(g^2) blowup guard."""
    import numpy as np
    import ray.data as rd

    from sod_ray.stages.dedup import winnow_overlap_pairs_ds

    rng = np.random.default_rng(13)
    vocab = [f"q{i}" for i in range(3000)]
    template = "subscribe to our newsletter for updates and offers today"
    texts = [
        template + " " + " ".join(rng.choice(vocab, size=40))
        for _ in range(300)
    ]
    ds = rd.from_items(
        [{"doc_id": i, "text": t} for i, t in enumerate(texts)]
    )
    from sod_ray.functions.text import winnow_fingerprints_fast

    # the template alone selects this many fingerprints; any doc pair
    # shares AT LEAST these when template fps are not capped away
    n_tpl = len(set(winnow_fingerprints_fast(template)[1].tolist()))
    assert n_tpl >= 5
    uncapped = winnow_overlap_pairs_ds(
        ds, "text", "doc_id", min_shared=n_tpl, max_df=10**9
    ).to_pandas()
    capped = winnow_overlap_pairs_ds(
        ds, "text", "doc_id", min_shared=n_tpl, max_df=256
    ).to_pandas()
    # uncapped: every one of the 300*299/2 pairs qualifies via the
    # template; capped: the template fps (df=300 > 256) are dropped
    # before pairing, so the count collapses to the (char-gram noise)
    # background — orders of magnitude fewer
    assert len(uncapped) == 300 * 299 // 2
    assert len(capped) < len(uncapped) / 100


def test_winnow_overlap_sampled_verify_matches_exact(ray_session):
    """fp_sample > 1 path: sampled candidacy + exact verify must
    return a SUBSET of the exact full pass with identical counts on
    every returned pair, and recover the planted containment/copy
    pairs (their shared-fp mass makes candidacy near-certain)."""
    import numpy as np
    import ray.data as rd

    from sod_ray.stages.dedup import winnow_overlap_pairs_ds

    rng = np.random.default_rng(41)
    vocab = [f"tok{i}" for i in range(4000)]
    texts = [" ".join(rng.choice(vocab, size=80)) for _ in range(200)]
    texts[150] = texts[5]  # copy
    texts[151] = " ".join(rng.choice(vocab, size=10)) + " " + texts[9][:300]
    ds = rd.from_items(
        [{"doc_id": i, "text": t} for i, t in enumerate(texts)]
    )
    kw = dict(k=8, w=16, min_shared=8, max_df=64)
    exact = winnow_overlap_pairs_ds(ds, "text", "doc_id", **kw).to_pandas()
    sampled = winnow_overlap_pairs_ds(
        ds, "text", "doc_id", fp_sample=2, **kw
    ).to_pandas()
    ex = {
        (a, b): n
        for a, b, n in zip(exact["id_a"], exact["id_b"], exact["n_shared"])
    }
    sp = {
        (a, b): n
        for a, b, n in zip(
            sampled["id_a"], sampled["id_b"], sampled["n_shared"]
        )
    }
    assert set(sp) <= set(ex)
    for p, n in sp.items():
        assert ex[p] == n  # verify pass counts are exact
    assert (5, 150) in sp and (9, 151) in sp


def test_exchange_reduce_spill_parity_and_phases(ray_session, tmp_path):
    """Disk-backed exchange (partitioned-parquet landing) matches the
    in-plasma exchange for any phase count; after_land fires exactly
    once, after the final landing; landed phase dirs are freed."""
    import os

    import pandas as pd
    import pyarrow as pa
    import ray.data as rd

    from sod_ray.stages.exchange import Spill, exchange_reduce

    rows = [{"k": i % 13, "v": i} for i in range(3000)]
    ds = rd.from_items(rows).repartition(6)

    def per_bucket(t: pa.Table) -> pa.Table:
        import numpy as np

        if t.num_rows == 0 or "k" not in t.column_names:
            return pa.table({"k": pa.array([], pa.int64()),
                             "s": pa.array([], pa.int64())})
        k = t["k"].to_numpy(zero_copy_only=False)
        v = t["v"].to_numpy(zero_copy_only=False)
        order = np.argsort(k, kind="stable")
        k, v = k[order], v[order]
        b = np.flatnonzero(np.concatenate(([True], k[1:] != k[:-1])))
        return pa.table(
            {"k": pa.array(k[b]), "s": pa.array(np.add.reduceat(v, b))}
        )

    want = (
        exchange_reduce(ds, "k", per_bucket, num_buckets=4)
        .to_pandas().sort_values("k").reset_index(drop=True)
    )
    for phases in (1, 3):
        fired = []
        got = (
            exchange_reduce(
                ds, "k", per_bucket, num_buckets=4,
                spill=Spill(str(tmp_path / f"sp{phases}"), phases=phases),
                after_land=lambda: fired.append(1),
            )
            .to_pandas().sort_values("k").reset_index(drop=True)
        )
        pd.testing.assert_frame_equal(got, want)
        assert fired == [1]
        # every phase dir is freed once its reduces finish
        left = [
            d for d in os.listdir(tmp_path / f"sp{phases}")
            if d.startswith("_sod_exchange")
        ]
        assert left == []


def test_spill_land_round_trip(ray_session, tmp_path):
    """exchange.land keeps every row and the schema, lives in a
    function-owned ``_sod_<name>`` subdir (re-landing clears it; it
    never touches caller files next to it) and Spill.free removes it."""
    import os

    import ray.data as rd

    from sod_ray.stages.exchange import Spill, land

    t = pa.table(
        {
            "doc_id": pa.array(np.arange(500), pa.int64()),
            "sig": pa.array(
                [np.full(4, i, np.uint64).tobytes() for i in range(500)],
                pa.binary(),
            ),
        }
    )
    sentinel = tmp_path / "precious.txt"
    sentinel.write_text("do not delete")
    sp = Spill(str(tmp_path))
    for _ in range(2):  # the second landing replaces the first
        back = land(rd.from_arrow(t).repartition(3), sp, "sigs")
        got = pa.concat_tables(
            back.iter_batches(batch_format="pyarrow")
        ).sort_by("doc_id")
        assert got.schema == t.schema
        assert got.equals(t)
    assert os.path.isdir(tmp_path / "_sod_sigs")
    sp.free("sigs")
    assert not (tmp_path / "_sod_sigs").exists()
    assert sentinel.read_text() == "do not delete"
    with pytest.raises(ValueError):
        Spill(str(tmp_path), phases=0)


def _spill_corpus(n=200):
    rng = np.random.default_rng(41)
    vocab = [f"tok{i}" for i in range(4000)]
    texts = [" ".join(rng.choice(vocab, size=80)) for _ in range(n)]
    texts[150] = texts[5]  # copy
    texts[151] = " ".join(rng.choice(vocab, size=10)) + " " + texts[9][:300]
    vecs = rng.normal(size=(n, 16))
    vecs[150] = vecs[5] + 0.001 * rng.normal(size=16)
    return pa.table(
        {
            "doc_id": pa.array(np.arange(n), pa.int64()),
            "text": pa.array(texts, pa.string()),
            "embedding": pa.FixedSizeListArray.from_arrays(
                pa.array(vecs.reshape(-1), pa.float32()), 16
            ),
        }
    )


def _run_minhash(ds, spill):
    from sod_ray.stages.dedup import minhash_lsh_dedup

    return minhash_lsh_dedup(
        ds, "text", "doc_id", jaccard_threshold=0.5, spill=spill,
    )


def _run_simhash(ds, spill):
    from sod_ray.stages.dedup import simhash_dedup

    return simhash_dedup(ds, "text", "doc_id", spill=spill)


def _run_embedding(ds, spill):
    from sod_ray.stages.dedup import embedding_neardup

    return embedding_neardup(
        ds, "embedding", "doc_id", threshold=0.99, spill=spill
    )


def _run_winnow_pairs(ds, spill):
    from sod_ray.stages.dedup import winnow_overlap_pairs_ds

    return winnow_overlap_pairs_ds(
        ds, k=8, w=16, min_shared=8, max_df=64, fp_sample=2, spill=spill
    )


def _run_winnow_drops(ds, spill):
    from sod_ray.stages.dedup import winnow_overlap_drop_ids

    return winnow_overlap_drop_ids(
        ds, k=8, w=16, min_shared=8, max_df=64, spill=spill
    )


def _run_semdedup(ds, spill):
    from sod_ray.stages.similarity import semdedup_drop_ids_twolevel

    return semdedup_drop_ids_twolevel(
        ds, "embedding", "doc_id", n_top=2, target_cluster_rows=50,
        threshold=0.99, spill=spill,
    )


@pytest.mark.parametrize(
    "run",
    [
        _run_minhash,
        _run_simhash,
        _run_embedding,
        _run_winnow_pairs,
        _run_winnow_drops,
        _run_semdedup,
    ],
    ids=["minhash", "simhash", "embedding", "winnow_pairs", "winnow_drops",
         "semdedup"],
)
def test_spill_frees_every_landing(ray_session, tmp_path, run):
    """Every near-dup entry point frees all of its ``_sod_*`` landings
    by the time it returns, leaves caller files in the spill dir alone,
    and its result stays readable afterwards."""
    import os

    import ray.data as rd

    from sod_ray.stages.exchange import Spill

    sentinel = tmp_path / "precious.txt"
    sentinel.write_text("do not delete")
    out = run(rd.from_arrow(_spill_corpus()), Spill(str(tmp_path)))
    assert [d for d in os.listdir(tmp_path) if d.startswith("_sod_")] == []
    assert sentinel.read_text() == "do not delete"
    rows = out.num_rows if isinstance(out, pa.Table) else out.count()
    assert rows >= 1  # the planted copy is found


@pytest.mark.parametrize(
    "run, score, score_type",
    [
        (_run_minhash, "jaccard_est", pa.float64()),
        (_run_simhash, "hamming", pa.int64()),
        (_run_embedding, "cosine", pa.float64()),
    ],
    ids=["minhash", "simhash", "embedding"],
)
def test_empty_pairs_keep_typed_columns(ray_session, run, score, score_type):
    """On a corpus without near-dups every LSH family returns an empty
    pair Dataset that still carries (id_a, id_b, <score>) with their
    dtypes, in its schema and in its blocks. (``Dataset.to_pandas``
    drops 0-row blocks, so the blocks are read directly.)"""
    import ray
    import ray.data as rd

    from sod_ray.stages.blocks import arrow_block_refs

    corpus = pa.table(
        {
            "doc_id": pa.array([0, 1, 2], pa.int64()),
            "text": [
                "alpha beta gamma delta epsilon zeta",
                "one two three four five six seven",
                "red green blue yellow cyan magenta",
            ],
            "embedding": pa.FixedSizeListArray.from_arrays(
                pa.array(np.eye(3).reshape(-1), pa.float32()), 3
            ),
        }
    )
    out = run(rd.from_arrow(corpus), None)
    want = pa.schema(
        [("id_a", pa.int64()), ("id_b", pa.int64()), (score, score_type)]
    )
    assert out.count() == 0
    assert out.schema() is not None and out.schema().base_schema == want
    typed = [t for t in ray.get(arrow_block_refs(out)) if t.num_columns]
    assert typed and all(t.schema == want for t in typed)


def test_neardup_drop_ids_execution_budget(ray_session, doc_table, executions):
    """The near-dup decision on the doc table launches at most 1 Ray
    Data execution, its signature scan (counted by the ``executions``
    fixture): every later map runs as raw tasks over landed blocks
    (``blocks.map_blocks``), and the exchanges, joins and connected
    components are raw tasks too. The count is deterministic for one
    input and session size, so a new execution in the chain fails here
    without timing noise."""
    import ray.data as rd

    from sod_ray.stages.dedup import neardup_drop_ids

    ds = rd.from_arrow(doc_table)
    with executions() as chains:
        drop = neardup_drop_ids(ds, "text", "doc_id", jaccard_threshold=0.5)
    assert set(drop.to_pandas()["node"]) == {1, 2, 3}
    assert len(chains) <= 1, "\n".join(chains)


def test_empty_exchange_result_reads_launch_no_execution(
    ray_session, executions
):
    """An empty ``exchange_reduce`` result is a marked Dataset: reading
    it twice launches no Ray Data execution (counted by the
    ``executions`` fixture). A bare ``rd.from_arrow`` result launched
    one empty execution per read."""
    import ray.data as rd

    from sod_ray.stages.exchange import exchange_reduce

    def fn(t: pa.Table) -> pa.Table:
        return pa.table({"k": pa.array([], pa.int64())})

    ds = rd.from_arrow(pa.table({"k": pa.array([1], pa.int64())}))
    res = exchange_reduce(ds.limit(0), "k", fn)  # no block to exchange
    with executions() as chains:
        for _ in range(2):
            assert res.to_arrow_refs() and res.count() == 0
    assert res.schema().names == ["k"]
    assert len(chains) == 0, "\n".join(chains)


_ONE_CPU_SCRIPT = r"""
import tempfile

import numpy as np
import pyarrow as pa
import ray
import ray.data as rd

from sod_ray.stages.exchange import Spill, exchange_reduce
from sod_ray.stages.joins import bucketed_equi_join

ray.init(address="local", num_cpus=1, include_dashboard=False,
         logging_level="ERROR", object_store_memory=200 << 20)
rd.DataContext.get_current().enable_progress_bars = False
sp = Spill(tempfile.mkdtemp())
k = np.arange(300) % 17
left = rd.from_arrow(pa.table({"k": k, "v": np.arange(300)}))
right = rd.from_arrow(pa.table({"k": np.arange(17), "w": np.arange(17)}))
n = exchange_reduce(left, "k", lambda t: t, num_buckets=4, spill=sp).count()
j = bucketed_equi_join(left, right, "k", num_buckets=4, spill=sp).count()
print("RESULT", n, j)
"""


def test_disk_tier_runs_on_one_cpu():
    """The disk-backed exchange and join must schedule on a 1-CPU node
    (their reduce tasks used to request 2 CPUs and hang forever)."""
    import os
    import signal
    import subprocess
    import sys

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    env = {k: v for k, v in os.environ.items() if k != "RAY_ADDRESS"}
    env["PYTHONPATH"] = root + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.Popen(
        [sys.executable, "-c", _ONE_CPU_SCRIPT], env=env, text=True,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        start_new_session=True,
    )
    try:
        out, err = proc.communicate(timeout=120)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)  # the child and its Ray daemons
        proc.communicate()
        pytest.fail("disk-backed exchange/join hung on a 1-CPU node")
    assert proc.returncode == 0, err[-2000:]
    assert "RESULT 300 300" in out


def test_simhash_spill_two_phase_parity(ray_session, doc_table, tmp_path):
    """A split-phase spill (band + pruned rows parquet-landed, the
    verify exchange disk-backed in two phases) must yield the
    exact same pair set + hamming values as the in-plasma exchange —
    the 10^9-doc shape, parity-pinned small."""
    import ray.data as rd

    from sod_ray.stages.dedup import simhash_dedup
    from sod_ray.stages.exchange import Spill

    base = (
        simhash_dedup(
            rd.from_arrow(doc_table), "text", "doc_id",
            max_hamming=6, sig_bits=128, table_design="cliques",
        )
        .to_pandas()
        .sort_values(["id_a", "id_b"])
        .reset_index(drop=True)
    )
    spilled = (
        simhash_dedup(
            rd.from_arrow(doc_table), "text", "doc_id",
            max_hamming=6, sig_bits=128, table_design="cliques",
            spill=Spill(str(tmp_path / "ex"), phases=2),
        )
        .to_pandas()
        .sort_values(["id_a", "id_b"])
        .reset_index(drop=True)
    )
    assert base.equals(spilled)
    # dead landings freed after the pair exchange (disk lifecycle)
    assert not (tmp_path / "ex" / "_sod_pruned").exists()


def test_minhash_spill_two_phase_parity(ray_session, doc_table, tmp_path):
    """A split-phase spill on the MinHash chain (candidate-emission
    exchange via disk-backed buckets in two phases) must not change a
    single pair."""
    import ray.data as rd

    from sod_ray.stages.dedup import minhash_lsh_dedup
    from sod_ray.stages.exchange import Spill

    instore = minhash_lsh_dedup(
        rd.from_arrow(doc_table), "text", "doc_id", jaccard_threshold=0.5,
    ).to_pandas()
    spilled = minhash_lsh_dedup(
        rd.from_arrow(doc_table), "text", "doc_id", jaccard_threshold=0.5,
        spill=Spill(str(tmp_path / "ex"), phases=2),
    ).to_pandas()
    pd.testing.assert_frame_equal(
        instore.sort_values(["id_a", "id_b"]).reset_index(drop=True),
        spilled.sort_values(["id_a", "id_b"]).reset_index(drop=True),
    )
    # dead landings freed after the candidate exchange (disk lifecycle)
    assert not (tmp_path / "ex" / "_sod_pruned").exists()


def test_embedding_band_spill_dir_parity(ray_session, tmp_path):
    """A spill on embedding near-dup must not change a pair, and the
    band landing is freed."""
    import ray.data as rd

    from sod_ray.stages.dedup import embedding_neardup
    from sod_ray.stages.exchange import Spill

    rng = np.random.default_rng(4)
    base = rng.normal(size=16)
    vecs = [base, base + rng.normal(scale=0.01, size=16)] + [
        rng.normal(size=16) for _ in range(40)
    ]
    t = pa.table(
        {
            "vec_id": pa.array(range(len(vecs)), pa.int64()),
            "embedding": pa.array(
                [v.tolist() for v in vecs], pa.list_(pa.float64())
            ),
        }
    )
    instore = embedding_neardup(
        rd.from_arrow(t), "embedding", "vec_id", threshold=0.98,
    ).to_pandas()
    spilled = embedding_neardup(
        rd.from_arrow(t), "embedding", "vec_id", threshold=0.98,
        spill=Spill(str(tmp_path / "ebands")),
    ).to_pandas()
    cols = ["id_a", "id_b"]
    pd.testing.assert_frame_equal(
        instore.sort_values(cols).reset_index(drop=True),
        spilled.sort_values(cols).reset_index(drop=True),
    )
    assert not (tmp_path / "ebands" / "_sod_bands").exists()


def test_embedding_exchange_spill_dir_parity(ray_session, tmp_path):
    """A two-phase spill on embedding near-dup (each candidate exchange
    split over two disk phases) must not change a pair."""
    import ray.data as rd

    from sod_ray.stages.dedup import embedding_neardup
    from sod_ray.stages.exchange import Spill

    rng = np.random.default_rng(4)
    base = rng.normal(size=16)
    vecs = [base, base + rng.normal(scale=0.01, size=16)] + [
        rng.normal(size=16) for _ in range(40)
    ]
    t = pa.table(
        {
            "vec_id": pa.array(range(len(vecs)), pa.int64()),
            "embedding": pa.array(
                [v.tolist() for v in vecs], pa.list_(pa.float64())
            ),
        }
    )
    instore = embedding_neardup(
        rd.from_arrow(t), "embedding", "vec_id", threshold=0.98,
    ).to_pandas()
    spilled = embedding_neardup(
        rd.from_arrow(t), "embedding", "vec_id", threshold=0.98,
        spill=Spill(str(tmp_path / "ex"), phases=2),
    ).to_pandas()
    cols = ["id_a", "id_b"]
    pd.testing.assert_frame_equal(
        instore.sort_values(cols).reset_index(drop=True),
        spilled.sort_values(cols).reset_index(drop=True),
    )
    assert (0, 1) in set(zip(spilled["id_a"], spilled["id_b"]))


def test_winnow_overlap_spill_parity(ray_session, tmp_path):
    """A spill on the winnow-overlap chain (slim fp table
    parquet-landed + both exchanges disk-backed, split-phase) must
    return the exact same (pair, count) set as the in-plasma path, in
    both the exact and the sampled-candidacy modes."""
    import numpy as np
    import ray.data as rd

    from sod_ray.stages.dedup import winnow_overlap_pairs_ds
    from sod_ray.stages.exchange import Spill

    rng = np.random.default_rng(41)
    vocab = [f"tok{i}" for i in range(4000)]
    texts = [" ".join(rng.choice(vocab, size=80)) for _ in range(200)]
    texts[150] = texts[5]  # copy
    texts[151] = " ".join(rng.choice(vocab, size=10)) + " " + texts[9][:300]
    ds = rd.from_items(
        [{"doc_id": i, "text": t} for i, t in enumerate(texts)]
    )
    kw = dict(k=8, w=16, min_shared=8, max_df=64)

    def as_map(df):
        return {
            (a, b): n
            for a, b, n in zip(df["id_a"], df["id_b"], df["n_shared"])
        }

    for fp_sample in (1, 2):
        base = as_map(
            winnow_overlap_pairs_ds(
                ds, "text", "doc_id", fp_sample=fp_sample, **kw
            ).to_pandas()
        )
        spilled = as_map(
            winnow_overlap_pairs_ds(
                ds, "text", "doc_id", fp_sample=fp_sample,
                spill=Spill(str(tmp_path / f"wex{fp_sample}"), phases=2),
                **kw,
            ).to_pandas()
        )
        assert spilled == base
        assert (5, 150) in spilled


def test_simhash_dedup_band_spill_dir_parity(ray_session, doc_table, tmp_path):
    """A spill on the 4-table ``matching`` design of the 128-bit SimHash
    chain must yield the exact same pair set + hamming values as the
    in-store path, and free its band landing."""
    import ray.data as rd

    from sod_ray.stages.dedup import simhash_dedup
    from sod_ray.stages.exchange import Spill

    kw = dict(max_hamming=3, sig_bits=128, table_design="matching")
    base = (
        simhash_dedup(rd.from_arrow(doc_table), "text", "doc_id", **kw)
        .to_pandas()
        .sort_values(["id_a", "id_b"])
        .reset_index(drop=True)
    )
    spilled = (
        simhash_dedup(
            rd.from_arrow(doc_table), "text", "doc_id",
            spill=Spill(str(tmp_path / "bands")), **kw,
        )
        .to_pandas()
        .sort_values(["id_a", "id_b"])
        .reset_index(drop=True)
    )
    assert len(base) and base.equals(spilled)
    assert not (tmp_path / "bands" / "_sod_bands").exists()


def test_simhash_band_plus_exchange_spill_frees_bands(ray_session, doc_table, tmp_path):
    """A spill lands the band rows, the pruned rows and the verify
    exchange; the band landing is freed once the pruned landing commits
    (its last read) — and the pair set + hamming values are still
    identical to the in-plasma path (the 10^8-doc shape, parity-pinned
    small)."""
    import ray.data as rd

    from sod_ray.stages.dedup import simhash_dedup
    from sod_ray.stages.exchange import Spill

    base = (
        simhash_dedup(
            rd.from_arrow(doc_table), "text", "doc_id",
            max_hamming=6, sig_bits=128, table_design="cliques",
        )
        .to_pandas()
        .sort_values(["id_a", "id_b"])
        .reset_index(drop=True)
    )
    both = (
        simhash_dedup(
            rd.from_arrow(doc_table), "text", "doc_id",
            max_hamming=6, sig_bits=128, table_design="cliques",
            spill=Spill(str(tmp_path / "sp")),
        )
        .to_pandas()
        .sort_values(["id_a", "id_b"])
        .reset_index(drop=True)
    )
    assert base.equals(both)
    # full disk lifecycle: bands freed at prune, pruned + exchange
    # landings freed after the pair exchange
    assert not (tmp_path / "sp" / "_sod_bands").exists()
    assert not (tmp_path / "sp" / "_sod_pruned").exists()

"""Curation/export pipeline (pipelines/export.py): a planted corpus
with quality failures, URL dups, exact dups, near dups and PII exercises
every funnel stage; resume reloads checkpointed decisions."""

import json
import os
import re
import shutil

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from sod_ray.pipelines.export import CurateConfig, run_export

GOOD = (
    "the quick brown fox jumps over the lazy dog while seventeen "
    "other animals watch quietly from behind the old wooden fence "
    "near the river and discuss their plans for the coming winter "
    "season with great enthusiasm and considerable practical wisdom "
    "about food storage shelter repair and the careful rationing of "
    "supplies gathered during the long abundant summer months past"
)


def _mk_corpus(tmp_path):
    """60 docs: ids 0..49 good-quality unique bodies; 50..53 exact dups
    of doc 0; 54..55 short (quality fail); 56 has PII; 57 is doc 1 via
    a mirror URL (canonical-url dup); 58..59 unique. Every good body is
    made unique by a numbered suffix sentence."""
    rows = []
    for i in range(50):
        rows.append(
            (i, GOOD + f" unique marker sentence number {i} ends here", f"https://site{i}.org/a")
        )
    for j, i in enumerate(range(50, 54)):
        rows.append((i, rows[0][1], f"https://dup{j}.org/x"))  # exact dup of doc 0
    rows.append((54, "too short", "https://short1.org"))
    rows.append((55, "also way too short to pass", "https://short2.org"))
    rows.append(
        (56, GOOD + " write to alice@example.com or +14155551234 at 10.0.0.7 thanks",
         "https://pii.org/p")
    )
    rows.append((57, GOOD + " unique marker sentence number 1 ends here x",
                 "HTTPS://Site1.ORG/a?utm_source=z#frag"))  # url-dup of doc 1
    rows.append((58, GOOD + " closing body fifty eight", "https://t58.org"))
    rows.append((59, GOOD + " closing body fifty nine", "https://t59.org"))
    t = pa.table(
        {
            "doc_id": pa.array([r[0] for r in rows], pa.int64()),
            "text": pa.array([r[1] for r in rows], pa.string()),
            "url": pa.array([r[2] for r in rows], pa.string()),
            "lang": pa.array(["en"] * len(rows), pa.string()),
        }
    )
    d = os.path.join(tmp_path, "corpus_in")
    os.makedirs(d, exist_ok=True)
    pq.write_table(t, os.path.join(d, "part-0.parquet"))
    return d


def test_export_funnel(ray_session, tmp_path):
    inp = _mk_corpus(str(tmp_path))
    out = os.path.join(str(tmp_path), "out")
    cfg = CurateConfig(url_col="url", url_dedup=True, partition_col="lang")
    res = run_export(inp, out, cfg, resume=False)
    rep = res.report

    assert rep["rows_in"] == 60
    assert rep["stages"]["quality"]["dropped"] == 2  # docs 54, 55
    # url dedup runs AFTER quality: doc 57's canonical url equals doc
    # 1's (normalize strips utm/fragment + lowercases host) → 57 drops
    assert rep["stages"]["url"]["dropped"] == 1
    # exact dedup on survivors: 50..53 are byte-dups of doc 0
    assert rep["stages"]["exact"]["dropped"] == 4
    assert rep["rows_out"] == 60 - 2 - 1 - 4
    assert rep["pii"] == {"emails": 1, "phones": 1, "ips": 1}

    got = pq.read_table(res.corpus_dir).to_pandas()
    assert sorted(got["doc_id"]) == sorted(
        set(range(60)) - {50, 51, 52, 53, 54, 55, 57}
    )
    red = got.loc[got["doc_id"] == 56, "text"].iloc[0]
    assert "<EMAIL>" in red and "<PHONE>" in red and "<IP>" in red
    assert "alice@example.com" not in red
    # report landed on disk
    assert json.load(open(os.path.join(out, "report.json")))["rows_out"] == 53


def test_export_resume_reuses_decisions(ray_session, tmp_path):
    inp = _mk_corpus(str(tmp_path))
    out = os.path.join(str(tmp_path), "out2")
    cfg = CurateConfig(url_col="url", url_dedup=True)
    r1 = run_export(inp, out, cfg, resume=True)
    assert r1.report["resumed_stages"] == []
    r2 = run_export(inp, out, cfg, resume=True)
    assert set(r2.report["resumed_stages"]) == {"quality", "url", "exact", "apply"}
    assert r2.report["rows_out"] == r1.report["rows_out"]
    # a torn decision dir (no manifest record) is recomputed, not trusted:
    # drop the 'exact' manifest record and rerun
    os.remove(os.path.join(out, "manifest", "part-decision:exact.json"))
    r3 = run_export(inp, out, cfg, resume=True)
    assert "exact" not in r3.report["resumed_stages"]
    assert r3.report["stages"]["exact"]["dropped"] == 4


def test_export_neardup_and_line_dedup(ray_session, tmp_path):
    """Near-dup drop (MinHash chain) and line-dedup rewrite both engage."""
    body = " ".join(f"token{i} word{i % 7} item{i % 13}" for i in range(60))
    near = body.replace("token3 ", "tokenX ")  # ~near-identical
    docs = [
        (0, body + "\nshared line alpha"),
        (1, near + "\nshared line alpha"),  # near-dup of 0 → dropped
        (2, "totally different content about rivers and mountains and "
            "forests spreading wide\nshared line alpha"),
    ]
    t = pa.table(
        {
            "doc_id": pa.array([d[0] for d in docs], pa.int64()),
            "text": pa.array([d[1] for d in docs], pa.string()),
            "lang": pa.array(["en"] * 3, pa.string()),
        }
    )
    d = os.path.join(str(tmp_path), "in3")
    os.makedirs(d)
    pq.write_table(t, os.path.join(d, "p.parquet"))
    cfg = CurateConfig(
        quality_filter=False,
        exact_dedup=False,
        neardup=True,
        line_dedup=True,
        pii_redact=False,
        jaccard_threshold=0.5,
    )
    res = run_export(d, os.path.join(str(tmp_path), "out3"), cfg, resume=False)
    got = pq.read_table(res.corpus_dir).to_pandas().sort_values("doc_id")
    assert list(got["doc_id"]) == [0, 2]
    assert res.report["stages"]["neardup"]["dropped"] == 1
    # line dedup: "shared line alpha" survives only in doc 0
    t0, t2 = got["text"].tolist()
    assert "shared line alpha" in t0
    assert "shared line alpha" not in t2
    assert "rivers and mountains" in t2


def test_export_requires_url_col(ray_session, tmp_path):
    with pytest.raises(ValueError):
        run_export("/nonexistent", str(tmp_path), CurateConfig(url_dedup=True))


def test_export_bucketed_drop_path(ray_session, tmp_path):
    """broadcast_limit=0 forces every drop-set through the bucketed
    exchange anti-join; funnel output must be unchanged."""
    inp = _mk_corpus(str(tmp_path))
    cfg = CurateConfig(
        url_col="url", url_dedup=True, broadcast_limit=0, partition_col=None
    )
    res = run_export(inp, os.path.join(str(tmp_path), "outb"), cfg, resume=False)
    rep = res.report
    assert rep["stages"]["quality"]["dropped"] == 2
    assert rep["stages"]["url"]["dropped"] == 1
    assert rep["stages"]["exact"]["dropped"] == 4
    assert rep["rows_out"] == 53
    got = pq.read_table(res.corpus_dir).to_pandas()
    assert sorted(got["doc_id"]) == sorted(
        set(range(60)) - {50, 51, 52, 53, 54, 55, 57}
    )


def test_run_export_execution_budget(ray_session, tmp_path, executions):
    """One near-dup export of the planted corpus (quality, exact and
    near-dup decisions, the apply write, the PII totals) launches at
    most 2 Ray Data executions (counted by the ``executions`` fixture):
    the one feature scan that the three decisions share and the apply
    write. Every other step maps landed blocks with raw tasks, and the
    PII totals read the written files in raw tasks. The count is
    deterministic for one input and session size, so a new execution
    in the funnel fails here without timing noise."""
    inp = _mk_corpus(str(tmp_path))
    cfg = CurateConfig(neardup=True, partition_col="lang")
    with executions() as chains:
        res = run_export(
            inp, os.path.join(str(tmp_path), "oute"), cfg, resume=False
        )
    rep = res.report
    assert rep["stages"]["quality"]["dropped"] == 2
    assert rep["stages"]["exact"]["dropped"] == 4
    assert rep["rows_out"] == len(pq.read_table(res.corpus_dir))
    assert len(chains) <= 2, "\n".join(chains)


_VOCAB = [f"word{i:04d}" for i in range(2000)] + [
    "the", "of", "and", "to", "in", "is", "was", "for", "with", "on",
]
_BENCH = " ".join(f"bench{i}" for i in range(16))


def _funnel_corpus(tmp_path):
    """119 docs in two shards, each decision with work to do: 100 unique
    bodies (0..99), 5 short docs (100..104), 5 exact dups of 0..4
    (105..109), 5 near dups of 5..9 (110..114, three tokens swapped).
    Two cases need the decisions in funnel order: doc 115 is a URL dup
    of doc 12 and doc 116 an exact dup of 115, so 116 survives only
    because the URL decision drops 115 before the exact one runs; doc
    117 carries a benchmark text and doc 118 is its near dup without
    it, so 118 survives only because decontamination drops 117 before
    the near-dup decision runs. Docs 0..9 carry PII."""
    rng = np.random.default_rng(5)

    def body(i):
        words = rng.choice(_VOCAB, int(rng.integers(60, 100))).tolist()
        return " ".join(words) + f" marker{i}"

    def near(text):
        toks = text.split()
        for j in (3, 20, 40):
            toks[j] = "swapped"
        return " ".join(toks)

    text = {i: body(i) for i in range(100)}
    for i in range(10):
        text[i] += f" write to u{i}@example.org"
    text.update({100 + j: "too short" for j in range(5)})
    text.update({105 + j: text[j] for j in range(5)})
    text.update({110 + j: near(text[5 + j]) for j in range(5)})
    text[115] = text[116] = body(115)
    text[117] = body(117) + " " + _BENCH
    text[118] = near(text[117][: -len(_BENCH) - 1])
    url = {i: f"https://s{i}.org/p" for i in text}
    url[115] = "HTTPS://S12.ORG/p?utm_source=feed"
    ids = sorted(text)
    d = os.path.join(tmp_path, "funnel_in")
    os.makedirs(d)
    for k, part in enumerate((ids[::2], ids[1::2])):
        pq.write_table(
            pa.table(
                {
                    "doc_id": pa.array(part, pa.int64()),
                    "text": pa.array([text[i] for i in part], pa.string()),
                    "url": pa.array([url[i] for i in part], pa.string()),
                }
            ),
            os.path.join(d, f"part-{k}.parquet"),
        )
    return d


_FUNNEL_CFG = dict(
    url_col="url",
    url_dedup=True,
    neardup=True,
    decontaminate_texts=["the eval item reads " + _BENCH + " and ends"],
    jaccard_threshold=0.5,
)


def _sequential_funnel(inp, cfg):
    """Reference funnel: one pass over the surviving docs per decision,
    in funnel order, on the driver (near-dup and decontamination
    through their text-scan library paths). Returns (drop set per
    decision, the expected corpus as sorted (doc_id, text) pairs)."""
    import hashlib

    import ray.data as rd

    from sod_ray.stages.dedup import decontaminate, neardup_drop_ids
    from sod_ray.stages.textstage import (
        gopher_stats_batch,
        normalize_url_array,
        redact_pii_batch,
    )

    t = pq.read_table(inp).sort_by("doc_id")
    ids = t["doc_id"].to_numpy()
    alive = np.ones(len(ids), bool)
    drops = {}

    def survivors():
        return t.filter(pa.array(alive))

    def drop(name, nodes):
        drops[name] = {int(i) for i in nodes}
        alive[np.isin(ids, list(drops[name]))] = False

    def losers(keys):
        df = survivors().select(["doc_id"]).to_pandas().assign(k=keys)
        df = df.sort_values(["k", "doc_id"])
        return df.loc[df["k"].duplicated(), "doc_id"]

    ok = gopher_stats_batch(t, "text", "doc_id")["quality_pass"]
    drop("quality", ids[~ok.to_numpy(zero_copy_only=False).astype(bool)])
    drop("url", losers(normalize_url_array(survivors()["url"]).to_pylist()))
    texts = survivors()["text"].to_pylist()
    drop("exact", losers([hashlib.md5(s.encode()).hexdigest() for s in texts]))
    dec = decontaminate(
        rd.from_arrow(survivors()), cfg.decontaminate_texts, "text", "doc_id",
        n=cfg.decontaminate_n,
    )
    drop("decontaminate", dec.to_pandas()["node"])
    nd = neardup_drop_ids(
        rd.from_arrow(survivors().select(["doc_id", "text"])), "text", "doc_id",
        jaccard_threshold=cfg.jaccard_threshold, **cfg.lsh_kwargs,
    )
    drop("neardup", [] if nd is None else nd.to_pandas()["node"])
    out = redact_pii_batch(survivors(), "text", "__red")
    return drops, sorted(zip(out["doc_id"].to_pylist(), out["__red"].to_pylist()))


def _funnel_result(res):
    """(drop set per decision, sorted (doc_id, text) corpus) of a run."""
    ddir = os.path.join(res.out_dir, "decisions")
    drops = {
        name: set(pq.read_table(os.path.join(ddir, name))["node"].to_pylist())
        for name in ("quality", "url", "exact", "decontaminate", "neardup")
    }
    c = pq.read_table(res.corpus_dir, columns=["doc_id", "text"])
    return drops, sorted(zip(c["doc_id"].to_pylist(), c["text"].to_pylist()))


def test_run_export_decisions_match_sequential_funnel(ray_session, tmp_path):
    """The three decisions read the one feature scan, with URL dedup and
    decontamination running between them: every decision's drop set,
    ``rows_out`` and the corpus content equal a reference that scans
    the surviving docs once per decision, in funnel order."""
    inp = _funnel_corpus(str(tmp_path))
    cfg = CurateConfig(**_FUNNEL_CFG)
    res = run_export(inp, os.path.join(str(tmp_path), "out"), cfg, resume=False)
    want_drops, want_corpus = _sequential_funnel(inp, cfg)
    got_drops, got_corpus = _funnel_result(res)
    assert got_drops == want_drops
    assert want_drops["url"] == {115} and 116 not in want_drops["exact"]
    assert want_drops["decontaminate"] == {117}
    assert 118 not in want_drops["neardup"]
    assert want_drops["neardup"] >= {110, 111, 112, 113, 114}
    assert res.report["rows_out"] == len(want_corpus) == 119 - sum(
        map(len, want_drops.values())
    )
    assert got_corpus == want_corpus


def test_run_export_resume_after_quality_commit(ray_session, tmp_path):
    """A run killed right after the quality commit resumes with the
    feature rows rebuilt over the quality-filtered corpus: only
    ``quality`` is reused, and every drop set, ``rows_out`` and the
    corpus equal the sequential reference."""
    inp = _funnel_corpus(str(tmp_path))
    out = os.path.join(str(tmp_path), "out")
    cfg = CurateConfig(**_FUNNEL_CFG)
    run_export(inp, out, cfg, resume=False)
    mdir = os.path.join(out, "manifest")
    for f in os.listdir(mdir):
        if f != "part-decision:quality.json":
            os.remove(os.path.join(mdir, f))
    res = run_export(inp, out, cfg, resume=True)
    assert res.report["resumed_stages"] == ["quality"]
    want_drops, want_corpus = _sequential_funnel(inp, cfg)
    assert _funnel_result(res) == (want_drops, want_corpus)
    assert res.report["rows_out"] == len(want_corpus)


def test_export_rejects_config_change_on_resume(ray_session, tmp_path):
    inp = _mk_corpus(str(tmp_path))
    out = os.path.join(str(tmp_path), "outc")
    run_export(inp, out, CurateConfig(), resume=True)
    with pytest.raises(ValueError, match="different CurateConfig"):
        run_export(inp, out, CurateConfig(jaccard_threshold=0.9), resume=True)
    # resume=False overwrites the fingerprint and recomputes
    r = run_export(inp, out, CurateConfig(jaccard_threshold=0.9), resume=False)
    assert r.report["rows_out"] == 54  # no url dedup in this config


def test_export_rejects_input_change_on_resume(ray_session, tmp_path):
    """Same out_dir + same config but a different/updated input corpus
    must refuse to resume (checkpointed drop ids were computed on the
    old corpus) — ADVICE r2."""
    inp = _mk_corpus(str(tmp_path))
    out = os.path.join(str(tmp_path), "outi")
    run_export(inp, out, CurateConfig(), resume=True)
    # grow the input in place (new shard) — resume must refuse
    extra = pa.table(
        {
            "doc_id": pa.array([1000], pa.int64()),
            "text": pa.array([GOOD + " brand new arrival doc"], pa.string()),
            "url": pa.array(["https://new.org/n"], pa.string()),
            "lang": pa.array(["en"], pa.string()),
        }
    )
    pq.write_table(extra, os.path.join(inp, "part-1.parquet"))
    with pytest.raises(ValueError, match="different CurateConfig"):
        run_export(inp, out, CurateConfig(), resume=True)
    # resume=False recomputes against the new input
    r = run_export(inp, out, CurateConfig(), resume=False)
    assert r.report["rows_in"] == 61


def test_summarize_cfg_nested_values_fingerprint():
    """Non-scalar values inside dict fields must change the resume
    fingerprint (ADVICE r2: they were silently dropped)."""
    from sod_ray.pipelines.export import _summarize_cfg

    a = _summarize_cfg(CurateConfig(lsh_kwargs={"x": [1, 2]}))
    b = _summarize_cfg(CurateConfig(lsh_kwargs={"x": [1, 3]}))
    c = _summarize_cfg(CurateConfig(lsh_kwargs={"x": 1}))
    assert a != b and a != c


def test_pair_emission_validated(ray_session):
    """A pair_emission typo must raise, not silently run all-pairs."""
    import ray.data as rd

    from sod_ray.stages.dedup import minhash_lsh_dedup

    ds = rd.from_items([{"doc_id": 1, "text": "a b c"}])
    with pytest.raises(ValueError, match="pair_emission"):
        minhash_lsh_dedup(ds, "text", "doc_id", pair_emission="Star")


def test_export_null_url_and_empty_output(ray_session, tmp_path):
    """Null URLs are exempt from canonical-url dedup; an all-dropped
    corpus produces an empty output without crashing the PII totals."""
    t = pa.table(
        {
            "doc_id": pa.array([0, 1, 2], pa.int64()),
            "text": pa.array(
                ["short one", "short two", "short three"], pa.string()
            ),
            "url": pa.array([None, None, "https://a.org"], pa.string()),
            "lang": pa.array(["en"] * 3, pa.string()),
        }
    )
    d = os.path.join(str(tmp_path), "in_null")
    os.makedirs(d)
    pq.write_table(t, os.path.join(d, "p.parquet"))
    res = run_export(
        d,
        os.path.join(str(tmp_path), "out_null"),
        CurateConfig(url_col="url", url_dedup=True),
        resume=False,
    )
    # two null-URL docs must NOT be deduped against each other
    assert res.report["stages"]["url"]["dropped"] == 0
    # every doc fails quality → empty corpus, report still written
    assert res.report["rows_out"] == 0
    assert res.report["pii"] == {"emails": 0, "phones": 0, "ips": 0}


def test_export_shuffle_seed(ray_session, tmp_path):
    """shuffle_seed reorders the corpus deterministically: same seed →
    same order, different seed → different order, identical row set."""
    inp = _mk_corpus(str(tmp_path))

    def rows(seed, tag):
        cfg = CurateConfig(shuffle_seed=seed)
        res = run_export(
            inp, os.path.join(str(tmp_path), f"outs_{tag}"), cfg, resume=False
        )
        import glob

        files = sorted(glob.glob(os.path.join(res.corpus_dir, "*.parquet")))
        t = pa.concat_tables([pq.read_table(f) for f in files])
        return t["doc_id"].to_pylist()

    a1, a2, b = rows(7, "a1"), rows(7, "a2"), rows(8, "b")
    assert a1 == a2  # deterministic
    assert sorted(a1) == sorted(b)  # same set
    assert a1 != b  # different order


def test_export_decontaminate(ray_session, tmp_path):
    """Docs sharing a 5-gram with the benchmark suite are dropped."""
    snippet = "colorless green ideas sleep furiously tonight again"
    docs = [
        (0, GOOD + " " + snippet),  # contaminated
        (1, GOOD + " unique marker one ends here"),
        (2, GOOD + " unique marker two ends here"),
    ]
    t = pa.table(
        {
            "doc_id": pa.array([d[0] for d in docs], pa.int64()),
            "text": pa.array([d[1] for d in docs], pa.string()),
            "lang": pa.array(["en"] * 3, pa.string()),
        }
    )
    d = os.path.join(str(tmp_path), "in_dec")
    os.makedirs(d)
    pq.write_table(t, os.path.join(d, "p.parquet"))
    cfg = CurateConfig(
        quality_filter=False,
        exact_dedup=False,
        pii_redact=False,
        decontaminate_texts=["an eval question mentioning " + snippet + " verbatim"],
        decontaminate_n=5,
    )
    res = run_export(d, os.path.join(str(tmp_path), "out_dec"), cfg, resume=False)
    assert res.report["stages"]["decontaminate"]["dropped"] == 1
    got = pq.read_table(res.corpus_dir).to_pandas()
    assert sorted(got["doc_id"]) == [1, 2]


def _write_shard(d, name, ids, texts):
    os.makedirs(d, exist_ok=True)
    t = pa.table(
        {
            "doc_id": pa.array(ids, pa.int64()),
            "text": pa.array(texts, pa.string()),
        }
    )
    tmp = os.path.join(d, "." + name + ".tmp")
    pq.write_table(t, tmp)
    os.replace(tmp, os.path.join(d, name))


def test_export_incremental_cross_batch_dedup(ray_session, tmp_path):
    """r2 verdict #6: two arrival batches with cross-batch duplicates —
    the second batch drops every doc already ingested by the first; a
    crash mid-batch retries into the same batch id and resumes clean."""
    from sod_ray.pipelines import export as ex

    landing = os.path.join(str(tmp_path), "landing")
    out = os.path.join(str(tmp_path), "inc_out")
    cfg = ex.CurateConfig(quality_filter=False, pii_redact=False)

    texts1 = [f"document body number {i} with words" for i in range(10)]
    _write_shard(landing, "b1.parquet", list(range(10)), texts1)
    s1 = ex.run_export_incremental(landing, out, cfg, max_polls=1)
    assert len(s1["batches"]) == 1
    b1 = s1["batches"][0]
    assert b1["rows_arrived"] == 10 and b1["rows_new"] == 10
    assert b1["rows_out"] == 10
    assert s1["index_rows"] == 10

    # batch 2: 5 cross-batch dups of batch 1 + 5 genuinely new docs
    texts2 = texts1[:5] + [f"fresh body {i} arrives later" for i in range(5)]
    _write_shard(landing, "b2.parquet", list(range(100, 110)), texts2)
    s2 = ex.run_export_incremental(landing, out, cfg, max_polls=1)
    b2 = s2["batches"][0]
    assert b2["rows_arrived"] == 10 and b2["rows_new"] == 5
    assert b2["rows_out"] == 5
    assert s2["index_rows"] == 15
    got = pq.ParquetDataset(os.path.join(b2["out_dir"], "corpus")).read()
    assert sorted(got["doc_id"].to_pylist()) == list(range(105, 110))

    # batch 3 arrives; the funnel crashes mid-batch → shards stay
    # uncommitted; the retry resumes into the SAME batch dir and the
    # same-batch index exclusion keeps its own docs alive
    texts3 = texts2[5:8] + [f"third wave body {i}" for i in range(3)]
    _write_shard(landing, "b3.parquet", list(range(200, 206)), texts3)

    real_run_export = ex.run_export
    calls = {"n": 0}

    def crashing_run_export(*a, **k):
        calls["n"] += 1
        res = real_run_export(*a, **k)
        raise RuntimeError("simulated crash after funnel, before commit")

    ex.run_export = crashing_run_export
    try:
        with pytest.raises(RuntimeError, match="simulated crash"):
            ex.run_export_incremental(landing, out, cfg, max_polls=1)
    finally:
        ex.run_export = real_run_export
    assert calls["n"] == 1
    # index must NOT contain batch 3 yet (kill was before index append)
    s3 = ex.run_export_incremental(landing, out, cfg, max_polls=1)
    b3 = s3["batches"][0]
    assert b3["rows_arrived"] == 6 and b3["rows_new"] == 3  # 3 dups of b2
    assert b3["rows_out"] == 3
    assert s3["index_rows"] == 18
    got3 = pq.ParquetDataset(os.path.join(b3["out_dir"], "corpus")).read()
    assert sorted(got3["doc_id"].to_pylist()) == [203, 204, 205]

    # an all-duplicate batch ingests nothing but still commits cleanly
    _write_shard(landing, "b4.parquet", [300, 301], [texts1[0], texts1[1]])
    s4 = ex.run_export_incremental(landing, out, cfg, max_polls=1)
    b4 = s4["batches"][0]
    assert b4["rows_new"] == 0 and b4["rows_out"] == 0
    assert s4["index_rows"] == 18


def test_export_incremental_cross_batch_neardup(ray_session, tmp_path):
    """cross_batch_neardup=True extends "seen" to NEAR duplicates: a
    token-edited copy of a previously-ingested doc (exact md5 differs)
    is dropped by the accumulated signature index; a crash between the
    funnel and the index append retries into the same batch without
    dropping its own docs (same-batch shard exclusion)."""
    import numpy as np

    from sod_ray.pipelines import export as ex

    landing = os.path.join(str(tmp_path), "landing")
    out = os.path.join(str(tmp_path), "ndinc_out")
    cfg = ex.CurateConfig(quality_filter=False, pii_redact=False)

    rng = np.random.default_rng(17)
    base = [rng.integers(0, 5000, 60) for _ in range(10)]
    mk = lambda r: " ".join(f"w{t}" for t in r)  # noqa: E731
    texts1 = [mk(r) for r in base]
    _write_shard(landing, "b1.parquet", list(range(10)), texts1)
    s1 = ex.run_export_incremental(
        landing, out, cfg, max_polls=1, cross_batch_neardup=True
    )
    b1 = s1["batches"][0]
    assert b1["rows_new"] == 10 and b1["rows_out"] == 10
    assert s1["sig_index_rows"] == 10

    # batch 2: 4 NEAR dups (one token edited → different md5),
    # 1 EXACT dup, 5 fresh docs
    near = []
    for i in range(4):
        r = base[i].copy()
        r[7] = 4999 - i
        near.append(mk(r))
    fresh = [mk(rng.integers(0, 5000, 60)) for _ in range(5)]
    texts2 = near + [texts1[9]] + fresh
    _write_shard(landing, "b2.parquet", list(range(100, 110)), texts2)
    s2 = ex.run_export_incremental(
        landing, out, cfg, max_polls=1, cross_batch_neardup=True
    )
    b2 = s2["batches"][0]
    assert b2["rows_arrived"] == 10
    assert b2["rows_new"] == 5 and b2["rows_out"] == 5  # 4 near + 1 exact gone
    assert s2["sig_index_rows"] == 15
    got = pq.ParquetDataset(os.path.join(b2["out_dir"], "corpus")).read()
    assert sorted(got["doc_id"].to_pylist()) == list(range(105, 110))

    # crash between funnel and index appends → retry must keep its own
    # docs (probe excludes the same-batch shards) and converge
    texts3 = [mk(base[5].copy())] + [mk(rng.integers(0, 5000, 60)) for _ in range(2)]
    texts3[0] = texts3[0].replace("w", "x", 1)  # near-dup of base[5]
    _write_shard(landing, "b3.parquet", [200, 201, 202], texts3)
    real_run_export = ex.run_export

    def crashing(*a, **k):
        res = real_run_export(*a, **k)
        raise RuntimeError("simulated crash")

    ex.run_export = crashing
    try:
        with pytest.raises(RuntimeError, match="simulated crash"):
            ex.run_export_incremental(
                landing, out, cfg, max_polls=1, cross_batch_neardup=True
            )
    finally:
        ex.run_export = real_run_export
    s3 = ex.run_export_incremental(
        landing, out, cfg, max_polls=1, cross_batch_neardup=True
    )
    b3 = s3["batches"][0]
    assert b3["rows_new"] == 2 and b3["rows_out"] == 2  # near-dup of b1 gone
    assert s3["sig_index_rows"] == 17
    got3 = pq.ParquetDataset(os.path.join(b3["out_dir"], "corpus")).read()
    assert sorted(got3["doc_id"].to_pylist()) == [201, 202]


def test_export_token_budget(ray_session, tmp_path):
    """Funnel with the token-budget stage: per-key kept tokens stay
    under budget, higher-quality docs win (max dropped q6 <= min kept
    q6), and resume reuses the checkpointed decision."""
    import numpy as np

    # two keys: "a" docs are GOOD quality; "b" docs are mixed — some
    # junk-quality bodies that still pass gopher is hard to craft, so
    # run with quality_filter off to isolate the budget stage
    rows = []
    did = 0
    for _ in range(30):
        rows.append((did, GOOD + f" body variant {did} for key a", "a"))
        did += 1
    for i in range(30):
        body = (
            GOOD + f" body variant {did} for key b"
            if i % 2
            else "!!! ??? " * 30 + f" junk {did}"
        )
        rows.append((did, body, "b"))
        did += 1
    t = pa.table(
        {
            "doc_id": pa.array([r[0] for r in rows], pa.int64()),
            "text": pa.array([r[1] for r in rows], pa.string()),
            "lang": pa.array([r[2] for r in rows], pa.string()),
        }
    )
    d = os.path.join(tmp_path, "in")
    os.makedirs(d, exist_ok=True)
    pq.write_table(t, os.path.join(d, "part-0.parquet"))

    BUDGET = 700
    cfg = CurateConfig(
        quality_filter=False,
        exact_dedup=False,
        pii_redact=False,
        token_budget=BUDGET,
        token_budget_key="lang",
    )
    out = os.path.join(tmp_path, "out")
    res = run_export(d, out, cfg)
    corpus = pd.concat(
        [pq.read_table(os.path.join(res.corpus_dir, f)).to_pandas()
         for f in sorted(os.listdir(res.corpus_dir))
         if f.endswith(".parquet")]
    )
    assert len(corpus) < len(rows)
    assert res.report["stages"]["token_budget"]["dropped"] > 0

    in_df = t.to_pandas().set_index("doc_id")
    for key, g in corpus.groupby("lang"):
        toks = in_df.loc[g["doc_id"], "text"].str.split().str.len()
        assert toks.sum() <= BUDGET, key
    # best-first: no dropped doc outranks a kept doc on quality
    from sod_ray.functions.text import quality_score

    q6 = {
        i: int(np.floor(quality_score(tx) * 1e6))
        for i, tx in zip(in_df.index, in_df["text"])
    }
    for key in ("a", "b"):
        kept = [q6[i] for i in corpus[corpus["lang"] == key]["doc_id"]]
        dropped = [
            q6[i]
            for i in in_df.index[in_df["lang"] == key]
            if i not in set(corpus[corpus["lang"] == key]["doc_id"])
        ]
        if kept and dropped:
            assert max(dropped) <= min(kept), key

    # resume: the decision checkpoint is reused, corpus identical
    res2 = run_export(d, out, cfg)
    assert "token_budget" in res2.report["resumed_stages"]
    corpus2 = pd.concat(
        [pq.read_table(os.path.join(res2.corpus_dir, f)).to_pandas()
         for f in sorted(os.listdir(res2.corpus_dir))
         if f.endswith(".parquet")]
    )
    assert sorted(corpus2["doc_id"]) == sorted(corpus["doc_id"])


def test_export_incremental_finalize_budget(ray_session, tmp_path):
    """Whole-corpus budget finalize (r5 queue #2): after the arrival
    batches, one GLOBAL budget cut over the accumulated corpus — not
    per batch. Unchanged batch set skips re-consolidation and resumes
    the final run's checkpoints; a new batch reruns it."""
    from sod_ray.pipelines import export as ex

    landing = os.path.join(str(tmp_path), "landing")
    out = os.path.join(str(tmp_path), "inc_out")
    cfg = ex.CurateConfig(quality_filter=False, pii_redact=False)

    _write_shard(
        landing, "b1.parquet", list(range(8)),
        [GOOD + f" arrival one body {i}" for i in range(8)],
    )
    ex.run_export_incremental(landing, out, cfg, max_polls=1)
    _write_shard(
        landing, "b2.parquet", list(range(100, 108)),
        [GOOD + f" arrival two body {i}" for i in range(8)],
    )
    BUDGET = 500
    s = ex.run_export_incremental(
        landing, out, cfg, max_polls=1, finalize_budget=BUDGET
    )
    fin = s["finalize"]
    assert fin["batches"] == 2 and fin["consolidated"]
    got = pq.ParquetDataset(fin["final_out"]).read().to_pandas()
    toks = got["text"].str.split().str.len()
    assert 0 < toks.sum() <= BUDGET
    assert len(got) < 16  # the cut actually dropped docs

    # no new arrivals: consolidation skipped, final decisions resumed
    s2 = ex.run_export_incremental(
        landing, out, cfg, max_polls=1, max_empty_polls=1,
        finalize_budget=BUDGET,
    )
    fin2 = s2["finalize"]
    assert not fin2["consolidated"]
    assert "token_budget" in fin2["report"]["resumed_stages"]
    got2 = pq.ParquetDataset(fin2["final_out"]).read().to_pandas()
    assert sorted(got2["doc_id"]) == sorted(got["doc_id"])

    # a third batch invalidates and reruns the final cut
    _write_shard(
        landing, "b3.parquet", list(range(200, 204)),
        [GOOD + f" arrival three body {i}" for i in range(4)],
    )
    s3 = ex.run_export_incremental(
        landing, out, cfg, max_polls=1, finalize_budget=BUDGET
    )
    fin3 = s3["finalize"]
    assert fin3["batches"] == 3 and fin3["consolidated"]
    got3 = pq.ParquetDataset(fin3["final_out"]).read().to_pandas()
    assert got3["text"].str.split().str.len().sum() <= BUDGET


def test_export_pack_chunks_sidecar(ray_session, tmp_path):
    """Funnel with pack_chunk_tokens: the chunks/ manifest matches a
    sequential reference over the CURATED corpus in (key, id) order,
    independent of the shuffled corpus file order; resume reuses it."""
    import numpy as np

    rows = [
        (i, GOOD + f" body variant number {i} here", "a" if i % 2 else "b")
        for i in range(40)
    ] + [(40, "  lead " + GOOD, "a"), (41, " \t ", "b"), (42, None, "a")]
    t = pa.table(
        {
            "doc_id": pa.array([r[0] for r in rows], pa.int64()),
            "text": pa.array([r[1] for r in rows], pa.string()),
            "lang": pa.array([r[2] for r in rows], pa.string()),
        }
    )
    d = os.path.join(tmp_path, "in")
    os.makedirs(d, exist_ok=True)
    pq.write_table(t, os.path.join(d, "part-0.parquet"))

    cfg = CurateConfig(
        quality_filter=False,
        exact_dedup=False,
        pii_redact=False,
        partition_col="lang",
        shuffle_seed=7,  # shuffled corpus — manifest must not care
        pack_chunk_tokens=128,
    )
    out = os.path.join(tmp_path, "out")
    res = run_export(d, out, cfg)
    assert res.report["stages"]["pack_chunks"]["max_chunks_per_key"] >= 1
    spans = (
        pq.ParquetDataset(os.path.join(out, "chunks")).read().to_pandas()
        .sort_values("doc_id").reset_index(drop=True)
    )
    assert len(spans) == 43
    # sequential reference over the curated docs in (lang, doc_id) order,
    # counting \S+ runs as the docs_pack_chunks oracle does
    src = t.to_pandas().sort_values(["lang", "doc_id"])
    prev_by = {}
    ref = {}
    n_tok = {}
    for _, r in src.iterrows():
        nt = n_tok[r["doc_id"]] = len(re.findall(r"\S+", r["text"] or ""))
        prev = prev_by.get(r["lang"], 0)
        ref[r["doc_id"]] = (prev // 128, (prev + max(nt, 1) - 1) // 128, prev % 128)
        prev_by[r["lang"]] = prev + nt
    for _, r in spans.iterrows():
        assert (
            r["chunk_start"], r["chunk_end"], r["chunk_offset"]
        ) == ref[r["doc_id"]], r["doc_id"]
        assert r["n_tokens"] == n_tok[r["doc_id"]], r["doc_id"]

    # resume reuses the committed manifest
    res2 = run_export(d, out, cfg)
    assert "pack_chunks" in res2.report["resumed_stages"]


def test_export_incremental_bloom_prefilter_large_path(ray_session, tmp_path):
    """Bloom pre-filter in front of the LARGE-index anti-join path
    (index_broadcast_limit=0 forces it): cross-batch dedup results are
    identical with and without the bloom, the sidecar exists and covers
    the whole index (bloom superset invariant), and a pre-bloom index
    (sidecar deleted) is rebuilt at the next append while probing falls
    back to the full anti-join meanwhile."""
    import pyarrow as pa

    from sod_ray.pipelines import export as ex
    from sod_ray.state.sketches import BloomFilter

    cfg = ex.CurateConfig(quality_filter=False, pii_redact=False)
    texts1 = [f"bloom path doc {i} body words" for i in range(12)]
    texts2 = texts1[:6] + [f"later bloom arrival {i}" for i in range(6)]

    results = {}
    for variant, bloom_on in (("with", True), ("without", False)):
        landing = os.path.join(str(tmp_path), f"landing_{variant}")
        out = os.path.join(str(tmp_path), f"out_{variant}")
        _write_shard(landing, "b1.parquet", list(range(12)), texts1)
        ex.run_export_incremental(
            landing, out, cfg, max_polls=1,
            index_broadcast_limit=0, bloom_prefilter=bloom_on,
        )
        _write_shard(
            landing, "b2.parquet", list(range(100, 112)), texts2
        )
        s2 = ex.run_export_incremental(
            landing, out, cfg, max_polls=1,
            index_broadcast_limit=0, bloom_prefilter=bloom_on,
        )
        b2 = s2["batches"][0]
        results[variant] = (b2["rows_new"], b2["rows_out"])
        got = pq.ParquetDataset(
            os.path.join(b2["out_dir"], "corpus")
        ).read()
        assert sorted(got["doc_id"].to_pylist()) == list(range(106, 112))
        bf = ex.load_bloom_sidecar(os.path.join(out, "hash_index"))
        assert (bf is not None) == bloom_on
        if bloom_on:
            # superset invariant: every indexed md5 hits the bloom
            shards = [
                os.path.join(out, "hash_index", s)
                for s in os.listdir(os.path.join(out, "hash_index"))
                if s.endswith(".parquet")
            ]
            all_h = pa.concat_tables(
                [pq.read_table(s, columns=["h"]) for s in shards]
            )["h"]
            assert bf.contains_array(all_h).all()
    assert results["with"] == results["without"] == (6, 6)

    # pre-bloom index: delete the sidecar, a third batch still dedups
    # (anti-join fallback) and the append rebuilds a FULL-index bloom
    landing = os.path.join(str(tmp_path), "landing_with")
    out = os.path.join(str(tmp_path), "out_with")
    shutil.rmtree(os.path.join(out, "hash_index", "_bloom.d"))
    texts3 = texts2[6:9] + [f"third bloom wave {i}" for i in range(3)]
    _write_shard(landing, "b3.parquet", list(range(200, 206)), texts3)
    s3 = ex.run_export_incremental(
        landing, out, cfg, max_polls=1,
        index_broadcast_limit=0, bloom_prefilter=True,
    )
    b3 = s3["batches"][0]
    assert (b3["rows_new"], b3["rows_out"]) == (3, 3)
    bf = ex.load_bloom_sidecar(os.path.join(out, "hash_index"))
    shards = [
        os.path.join(out, "hash_index", s)
        for s in os.listdir(os.path.join(out, "hash_index"))
        if s.endswith(".parquet")
    ]
    all_h = pa.concat_tables(
        [pq.read_table(s, columns=["h"]) for s in shards]
    )["h"]
    assert bf.contains_array(all_h).all()


def test_export_incremental_bloom_autogrow(ray_session, tmp_path):
    """A deliberately tiny sidecar (bloom_bits=64) saturates on the
    first batch; the append must rebuild it larger (fp rate back under
    5%) while keeping the superset invariant and exact dedup."""
    import pyarrow as pa

    from sod_ray.pipelines import export as ex
    from sod_ray.state.sketches import BloomFilter

    cfg = ex.CurateConfig(quality_filter=False, pii_redact=False)
    landing = os.path.join(str(tmp_path), "landing")
    out = os.path.join(str(tmp_path), "out")
    texts1 = [f"autogrow doc {i} body" for i in range(50)]
    _write_shard(landing, "b1.parquet", list(range(50)), texts1)
    ex.run_export_incremental(
        landing, out, cfg, max_polls=1,
        index_broadcast_limit=0, bloom_bits=64,
    )
    bf = ex.load_bloom_sidecar(os.path.join(out, "hash_index"))
    assert bf.m_bits > 64
    assert bf.fp_rate() <= 0.05
    # second batch with overlaps still dedups exactly through the
    # grown bloom
    texts2 = texts1[:20] + [f"autogrow fresh {i}" for i in range(10)]
    _write_shard(landing, "b2.parquet", list(range(100, 130)), texts2)
    s2 = ex.run_export_incremental(
        landing, out, cfg, max_polls=1,
        index_broadcast_limit=0, bloom_bits=64,
    )
    b2 = s2["batches"][0]
    assert (b2["rows_new"], b2["rows_out"]) == (10, 10)
    shards = [
        os.path.join(out, "hash_index", s)
        for s in os.listdir(os.path.join(out, "hash_index"))
        if s.endswith(".parquet")
    ]
    bf2 = ex.load_bloom_sidecar(os.path.join(out, "hash_index"))
    all_h = pa.concat_tables(
        [pq.read_table(s, columns=["h"]) for s in shards]
    )["h"]
    assert bf2.contains_array(all_h).all()


def test_bloom_sidecar_canary_mismatch_forces_rebuild(ray_session, tmp_path):
    """A sidecar written under a DIFFERENT hash function (simulated by
    corrupting the header canary) must load as None — a mismatched
    bloom would return false negatives and silently admit duplicates
    (the exactness break ADVICE flagged). The next append then rebuilds
    a full-index sidecar and dedup stays exact."""
    from sod_ray.pipelines import export as ex

    cfg = ex.CurateConfig(quality_filter=False, pii_redact=False)
    landing = os.path.join(str(tmp_path), "landing")
    out = os.path.join(str(tmp_path), "out")
    texts1 = [f"canary doc {i} body words" for i in range(12)]
    _write_shard(landing, "b1.parquet", list(range(12)), texts1)
    ex.run_export_incremental(
        landing, out, cfg, max_polls=1,
        index_broadcast_limit=0, bloom_prefilter=True,
    )
    idx_dir = os.path.join(out, "hash_index")
    assert ex.load_bloom_sidecar(idx_dir) is not None

    # simulate a polars/aHash change across engine restarts
    hdr_path = os.path.join(idx_dir, "_bloom.d", "header.json")
    with open(hdr_path) as f:
        hdr = json.load(f)
    hdr["canary"] = hdr["canary"] ^ 1
    with open(hdr_path, "w") as f:
        json.dump(hdr, f)
    assert ex.load_bloom_sidecar(idx_dir) is None  # stale → untrusted

    # next append: dedup still exact (anti-join fallback), sidecar
    # rebuilt with the CURRENT canary and full-index coverage
    texts2 = texts1[:6] + [f"fresh canary {i}" for i in range(6)]
    _write_shard(landing, "b2.parquet", list(range(100, 112)), texts2)
    s2 = ex.run_export_incremental(
        landing, out, cfg, max_polls=1,
        index_broadcast_limit=0, bloom_prefilter=True,
    )
    b2 = s2["batches"][0]
    assert (b2["rows_new"], b2["rows_out"]) == (6, 6)
    bf = ex.load_bloom_sidecar(idx_dir)
    assert bf is not None
    shards = [
        os.path.join(idx_dir, s)
        for s in os.listdir(idx_dir)
        if s.endswith(".parquet")
    ]
    all_h = pa.concat_tables(
        [pq.read_table(s, columns=["h"]) for s in shards]
    )["h"]
    assert bf.contains_array(all_h).all()


def test_bloom_sidecar_legacy_v1_upgrade(ray_session, tmp_path):
    """A pre-v2 single-file `_bloom.bin` sidecar loads (wrapped
    1-shard, bit-identical) and is upgraded to the canary-checked
    `_bloom.d/` dir at the next save; probes see the same members."""
    import pyarrow as pa

    from sod_ray.pipelines import export as ex
    from sod_ray.state.sketches import BloomFilter

    idx_dir = os.path.join(str(tmp_path), "hash_index")
    os.makedirs(idx_dir)
    vals = pa.array([f"h{i:032x}"[:32] for i in range(500)])
    flat = BloomFilter(1 << 14, 7).add_array(vals)
    with open(os.path.join(idx_dir, "_bloom.bin"), "wb") as f:
        f.write(flat.to_bytes())

    sb = ex.load_bloom_sidecar(idx_dir)
    assert sb is not None and sb.n_shards == 1
    assert sb.contains_array(vals).all()
    assert (sb.shards[0].words == flat.words).all()

    ex.save_bloom_sidecar(idx_dir, sb)
    assert not os.path.exists(os.path.join(idx_dir, "_bloom.bin"))
    sb2 = ex.load_bloom_sidecar(idx_dir)
    assert sb2 is not None and sb2.contains_array(vals).all()


def test_bloom_sidecar_sharded_roundtrip(ray_session, tmp_path):
    """Multi-shard sidecar: per-shard files land, only DIRTY shards
    rewrite on a second save, and the loaded filter matches the
    in-memory one bit for bit."""
    import pyarrow as pa

    from sod_ray.pipelines import export as ex
    from sod_ray.state.sketches import ShardedBloom

    idx_dir = os.path.join(str(tmp_path), "hash_index")
    os.makedirs(idx_dir)
    sb = ShardedBloom(n_shards=4, m_bits_per_shard=1 << 12, k=7)
    sb.add_array(pa.array([f"url-{i}" for i in range(2000)]))
    ex.save_bloom_sidecar(idx_dir, sb)
    files = sorted(os.listdir(os.path.join(idx_dir, "_bloom.d")))
    assert files == ["header.json", "s0000.bin", "s0001.bin",
                     "s0002.bin", "s0003.bin"]
    assert not sb.dirty  # cleared by save

    got = ex.load_bloom_sidecar(idx_dir)
    assert got.n_shards == 4
    for a, b in zip(got.shards, sb.shards):
        assert (a.words == b.words).all()

    # dirty-shard-only rewrite: touch ONE value, check mtimes
    mt0 = {
        f: os.path.getmtime(os.path.join(idx_dir, "_bloom.d", f))
        for f in files
    }
    import time as _t

    _t.sleep(0.05)
    sb.add_array(pa.array(["one-more-url"]))
    assert len(sb.dirty) == 1
    touched = next(iter(sb.dirty))
    ex.save_bloom_sidecar(idx_dir, sb)
    for f in files:
        mt1 = os.path.getmtime(os.path.join(idx_dir, "_bloom.d", f))
        if f == f"s{touched:04d}.bin" or f == "header.json":
            assert mt1 > mt0[f]
        else:
            assert mt1 == mt0[f]

    # geometry sanity for the auto-sizer
    assert ex.new_bloom_sidecar(1 << 20).n_shards == 1
    big = ex.new_bloom_sidecar(1 << 34)
    assert big.n_shards >= 2
    assert big.shards[0].m_bits <= 1 << 30
    assert big.m_bits >= 1 << 34


def test_export_dsir_stage(ray_session, tmp_path):
    """DSIR selection as a funnel decision stage: plant target-like
    docs among noise, keep the top-K most-target-like — the kept set
    must be exactly the target slice + the planted docs, the decision
    checkpoints like every stage (resume reuses it), and it runs
    BEFORE the token budget in the report order."""
    import numpy as np

    from sod_ray.pipelines import export as ex

    rng = np.random.default_rng(21)
    tgt_vocab = [f"t{i}" for i in range(50)]
    noise_vocab = [f"zz{i}" for i in range(500)]
    # 8 target docs (lang=en), 40 noise, 4 planted target-like (xx)
    texts, langs = [], []
    for _ in range(8):
        texts.append(" ".join(rng.choice(tgt_vocab, size=30)))
        langs.append("en")
    for _ in range(40):
        texts.append(" ".join(rng.choice(noise_vocab, size=30)))
        langs.append("xx")
    for _ in range(4):
        texts.append(" ".join(rng.choice(tgt_vocab, size=25)))
        langs.append("xx")
    inp = os.path.join(str(tmp_path), "docs")
    os.makedirs(inp, exist_ok=True)
    pq.write_table(
        pa.table(
            {
                "doc_id": pa.array(range(len(texts)), pa.int64()),
                "text": pa.array(texts, pa.string()),
                "lang": pa.array(langs, pa.string()),
            }
        ),
        os.path.join(inp, "d.parquet"),
    )
    cfg = ex.CurateConfig(
        quality_filter=False,
        exact_dedup=False,
        pii_redact=False,
        dsir_keep=12,
        dsir_target_col="lang",
        dsir_target_value="en",
    )
    out = os.path.join(str(tmp_path), "out")
    res = ex.run_export(inp, out, cfg)
    got = pq.ParquetDataset(res.corpus_dir).read()
    kept = sorted(got["doc_id"].to_pylist())
    # exactly the 8 target + 4 planted docs survive
    assert kept == list(range(8)) + list(range(48, 52))
    assert res.report["rows_out"] == 12

    # resume: the dsir decision is reloaded, corpus identical
    res2 = ex.run_export(inp, out, cfg, resume=True)
    assert "dsir" in res2.report["resumed_stages"]
    got2 = pq.ParquetDataset(res2.corpus_dir).read()
    assert sorted(got2["doc_id"].to_pylist()) == kept

    # misconfiguration fails loudly
    import pytest

    bad = ex.CurateConfig(
        quality_filter=False, exact_dedup=False, pii_redact=False,
        dsir_keep=5,
    )
    with pytest.raises(ValueError, match="dsir_keep needs"):
        ex.run_export(inp, os.path.join(str(tmp_path), "out2"), bad)


def test_export_overlap_dedup_stage(ray_session, tmp_path):
    """Containment dedup as a funnel stage: a doc embedded inside a
    longer one is dropped (keep-lowest-id keeps the container, which
    arrived first) while Jaccard-near-dup stages would miss it; the
    decision checkpoints and resumes like every stage."""
    import numpy as np

    from sod_ray.pipelines import export as ex

    rng = np.random.default_rng(33)
    vocab = [f"ov{i}" for i in range(5000)]
    texts = [" ".join(rng.choice(vocab, size=300))]  # container (id 0)
    texts += [" ".join(rng.choice(vocab, size=80)) for _ in range(30)]
    texts.append(texts[0][500:1100])  # contained span (id 31)
    inp = os.path.join(str(tmp_path), "docs")
    os.makedirs(inp, exist_ok=True)
    pq.write_table(
        pa.table(
            {
                "doc_id": pa.array(range(len(texts)), pa.int64()),
                "text": pa.array(texts, pa.string()),
            }
        ),
        os.path.join(inp, "d.parquet"),
    )
    cfg = ex.CurateConfig(
        quality_filter=False,
        exact_dedup=False,
        pii_redact=False,
        overlap_dedup=True,
        overlap_min_shared=15,
    )
    out = os.path.join(str(tmp_path), "out")
    res = ex.run_export(inp, out, cfg)
    got = pq.ParquetDataset(res.corpus_dir).read()
    kept = sorted(got["doc_id"].to_pylist())
    assert 31 not in kept and 0 in kept
    assert len(kept) == len(texts) - 1
    assert res.report["stages"]["overlap"]["dropped"] == 1

    res2 = ex.run_export(inp, out, cfg, resume=True)
    assert "overlap" in res2.report["resumed_stages"]


def test_bloom_sidecar_multishard_in_export_loop(
    ray_session, tmp_path, monkeypatch
):
    """Force the sidecar past the flat threshold so the export loop
    runs the REAL multi-shard path end-to-end: sidecar lands as
    multiple shard files, probes route through ShardedBloom, and
    cross-batch dedup stays exact."""
    from sod_ray.pipelines import export as ex

    # shard at >64 bits, <=64 bits per shard file
    monkeypatch.setattr(ex, "_BLOOM_FLAT_MAX_BITS", 64)
    monkeypatch.setattr(ex, "_BLOOM_SHARD_BITS", 64)

    cfg = ex.CurateConfig(quality_filter=False, pii_redact=False)
    landing = os.path.join(str(tmp_path), "landing")
    out = os.path.join(str(tmp_path), "out")
    texts1 = [f"multishard doc {i} body words" for i in range(40)]
    _write_shard(landing, "b1.parquet", list(range(40)), texts1)
    ex.run_export_incremental(
        landing, out, cfg, max_polls=1,
        index_broadcast_limit=0, bloom_bits=1024,
    )
    idx_dir = os.path.join(out, "hash_index")
    files = sorted(os.listdir(os.path.join(idx_dir, "_bloom.d")))
    n_shards = sum(1 for f in files if f.startswith("s") and f.endswith(".bin"))
    assert n_shards >= 2, files  # genuinely sharded
    sb = ex.load_bloom_sidecar(idx_dir)
    assert sb.n_shards == n_shards

    texts2 = texts1[:25] + [f"multishard fresh {i}" for i in range(5)]
    _write_shard(landing, "b2.parquet", list(range(100, 130)), texts2)
    s2 = ex.run_export_incremental(
        landing, out, cfg, max_polls=1,
        index_broadcast_limit=0, bloom_bits=1024,
    )
    b2 = s2["batches"][0]
    assert (b2["rows_new"], b2["rows_out"]) == (5, 5)
    # superset invariant over the full index, through the sharded form
    sb = ex.load_bloom_sidecar(idx_dir)
    shards = [
        os.path.join(idx_dir, s)
        for s in os.listdir(idx_dir)
        if s.endswith(".parquet")
    ]
    all_h = pa.concat_tables(
        [pq.read_table(s, columns=["h"]) for s in shards]
    )["h"]
    assert sb.contains_array(all_h).all()

def test_parallel_bloom_rebuild_parity(ray_session, tmp_path):
    """rebuild_bloom_sidecar_parallel must produce a sidecar
    BIT-IDENTICAL to the sequential add_array build, in both the flat
    (n_shards=1) and hash-prefix-sharded regimes, across multiple
    index shards."""
    import hashlib

    import pyarrow.parquet as pq

    from sod_ray.pipelines import export as ex

    paths = []
    for s in range(5):
        t = pa.table(
            {
                "h": pa.array(
                    [
                        hashlib.md5(f"doc {s} {i}".encode()).hexdigest()
                        for i in range(400)
                    ],
                    pa.string(),
                )
            }
        )
        p = os.path.join(str(tmp_path), f"idx{s}.parquet")
        pq.write_table(t, p)
        paths.append(p)

    for bits in (1 << 16, None):
        if bits is None:
            # force the sharded regime by dropping the flat cap
            orig = ex._BLOOM_FLAT_MAX_BITS
            ex._BLOOM_FLAT_MAX_BITS = 1 << 14
            bits = 1 << 16
        else:
            orig = None
        try:
            seq = ex.new_bloom_sidecar(bits)
            for p in paths:
                seq.add_array(pq.read_table(p, columns=["h"])["h"])
            par = ex.rebuild_bloom_sidecar_parallel(paths, bits)
            assert par.n_shards == seq.n_shards
            assert par.to_bytes() == seq.to_bytes()
        finally:
            if orig is not None:
                ex._BLOOM_FLAT_MAX_BITS = orig


def test_run_export_over_budget_execution_budget(ray_session, tmp_path, executions):
    """The funnel corpus with ``broadcast_limit=0``: every drop set goes
    through ``bucketed_anti_join``, whose key maps run as raw tasks
    over landed blocks (``blocks.map_blocks``), so the run launches at
    most 27 Ray Data executions (39 when those maps were lazy
    ``map_batches``). Drop sets and the corpus
    still equal the sequential reference."""
    inp = _funnel_corpus(str(tmp_path))
    cfg = CurateConfig(**_FUNNEL_CFG, broadcast_limit=0)
    with executions() as chains:
        res = run_export(inp, os.path.join(str(tmp_path), "out"), cfg, resume=False)
    assert _funnel_result(res) == _sequential_funnel(inp, cfg)
    assert len(chains) <= 27, "\n".join(chains)

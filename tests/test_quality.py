"""Gopher-style quality metrics, C4-style line dedup, URL
normalization — tested on hand-built non-degenerate inputs (the
testdata documents are single-line, so the oracle check alone would
not exercise multi-line reassembly or messy whitespace)."""

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest

from sod_ray.stages.dedup import line_dedup
from sod_ray.stages.textstage import (
    gopher_stats_batch,
    normalize_url_array,
    normalize_url_batch,
)


def test_gopher_stats_reference():
    texts = [
        "the cat sat on the mat",          # 6 words, top 'the' x2
        "  spaced   out words  ",          # messy whitespace, 3 words
        "aaa aaa aaa aaa",                 # pure repetition
        "",                                # zero words
        "solo",                            # single word
    ]
    t = pa.table({"doc_id": pa.array(range(5), pa.int64()), "text": texts})
    out = gopher_stats_batch(t).to_pandas()

    def ref(s):
        ws = s.split()
        if not ws:
            return 0, np.nan, np.nan
        from collections import Counter

        c = Counter(ws)
        return (
            len(ws),
            sum(len(w) for w in ws) / len(ws),
            max(c.values()) / len(ws),
        )

    for i, s in enumerate(texts):
        wc, mwl, twf = ref(s)
        assert out.word_count[i] == wc
        if wc:
            assert out.mean_word_len[i] == pytest.approx(mwl)
            assert out.top_word_frac[i] == pytest.approx(twf)
        else:
            assert np.isnan(out.mean_word_len[i])
            assert not out.quality_pass[i]
    # repetition fails the top-word filter, short docs fail word_count
    assert not out.quality_pass[2]
    assert not out.quality_pass[4]


def test_gopher_pass_flag_thresholds():
    good = " ".join(f"word{i % 40}x" for i in range(200))  # 200 words, varied
    bad_rep = " ".join(["dup"] * 200)
    t = pa.table({"doc_id": pa.array([1, 2], pa.int64()), "text": [good, bad_rep]})
    out = gopher_stats_batch(t).to_pandas()
    assert bool(out.quality_pass[0]) is True
    assert bool(out.quality_pass[1]) is False


def test_gopher_top_bigram():
    texts = [
        "a b a b a b",          # bigrams: ab ba ab ba ab → top 'a b' 3/5
        "x y z w",              # all bigrams distinct → 1/3
        "solo",                 # no bigrams → NaN
        "r r r r r",            # 'r r' × 4 of 4 → 1.0
    ]
    t = pa.table({"doc_id": pa.array(range(4), pa.int64()), "text": texts})
    out = gopher_stats_batch(t).to_pandas()
    assert out.top_bigram_frac[0] == pytest.approx(3 / 5)
    assert out.top_bigram_frac[1] == pytest.approx(1 / 3)
    assert np.isnan(out.top_bigram_frac[2])
    assert out.top_bigram_frac[3] == pytest.approx(1.0)


def test_gopher_null_text():
    t = pa.table({"doc_id": pa.array([1], pa.int64()), "text": pa.array([None], pa.string())})
    out = gopher_stats_batch(t).to_pandas()
    assert out.word_count[0] == 0 and not out.quality_pass[0]


def _top_bigram_frac_ref(texts) -> np.ndarray:
    """The lexsort path ``gopher_stats_batch`` used to count 2-grams
    with, on ``str.split()`` tokens: consecutive same-doc token pairs
    run-length counted after one 3-key lexsort, top count per doc over
    its (word count - 1) bigrams, NaN below two words."""
    toks = [t.split() if t else [] for t in texts]
    n = len(texts)
    wc = np.array([len(x) for x in toks], np.int64)
    doc_idx = np.repeat(np.arange(n, dtype=np.int64), wc)
    flat = [w for x in toks for w in x]
    codes = np.unique(flat, return_inverse=True)[1].astype(np.int64) if flat else doc_idx
    top2 = np.zeros(n, np.int64)
    same = doc_idx[1:] == doc_idx[:-1]
    if same.any():
        bd, b1, b2 = doc_idx[:-1][same], codes[:-1][same], codes[1:][same]
        order = np.lexsort((b2, b1, bd))
        bd, b1, b2 = bd[order], b1[order], b2[order]
        new = np.concatenate(
            ([True],
             (bd[1:] != bd[:-1]) | (b1[1:] != b1[:-1]) | (b2[1:] != b2[:-1]))
        )
        cnt2 = np.bincount(np.cumsum(new) - 1)
        np.maximum.at(top2, bd[new], cnt2)
    nbig = np.maximum(wc - 1, 0)
    return np.where(nbig > 0, top2 / np.maximum(nbig, 1), np.nan)


def test_gopher_bigrams_match_lexsort_reference(monkeypatch):
    """The packed-key 2-gram counts equal the lexsort reference on edge
    texts and random batches, and the dense-bigram-code branch (taken
    when rows × vocab² would leave int64) gives the same table."""
    from sod_ray.stages import textstage
    from test_dedup import EDGE_TEXTS, random_texts

    rng = np.random.default_rng(23)
    for texts in (EDGE_TEXTS, random_texts(rng, 400), [None], ["solo"]):
        t = pa.table(
            {
                "doc_id": pa.array(np.arange(len(texts)), pa.int64()),
                "text": pa.array(texts, pa.string()),
            }
        )
        out = gopher_stats_batch(t)
        np.testing.assert_array_equal(
            out["top_bigram_frac"].to_numpy(), _top_bigram_frac_ref(texts)
        )
        assert out["word_count"].to_pylist() == [
            len(x.split()) if x else 0 for x in texts
        ]
        monkeypatch.setattr(textstage, "_BIGRAM_KEY_LIMIT", 0)
        pd.testing.assert_frame_equal(
            gopher_stats_batch(t).to_pandas(), out.to_pandas(), check_exact=True
        )
        monkeypatch.undo()


def _docs(texts) -> pa.Table:
    return pa.table(
        {"doc_id": pa.array(np.arange(len(texts)), pa.int64()), "text": texts}
    )


def _token_consumers():
    """Every kernel that tokenizes through ``textstage.tokens``, as
    ``name -> fn(string array) -> output``."""
    from sod_ray.pipelines.export import _pack_token_rows
    from sod_ray.pipelines.queries import _blocklist_survivors, _tf_rows
    from sod_ray.stages.dedup import minhash_signatures, simhash128_signatures
    from sod_ray.stages.dsir import _hash64_flat_buckets
    from sod_ray.stages.stats import _cm_fold, _mg_fold
    from sod_ray.stages.textstage import tokens

    return {
        "tokens": tokens,
        "minhash": lambda a: minhash_signatures(a, 16, 1),
        "gopher": lambda a: gopher_stats_batch(_docs(a)),
        "dsir_buckets": lambda a: _hash64_flat_buckets(_docs(a), "text", 64),
        "misra_gries": lambda a: _mg_fold(a, 64, True),
        "count_min": lambda a: _cm_fold(a, 256, 2),
        "simhash": simhash128_signatures,
        "tf_rows": lambda a: _tf_rows(_docs(a)),
        "blocklist": lambda a: _blocklist_survivors(_docs(a)),
        "pack_count": lambda a: _pack_token_rows(_docs(a), "doc_id", "text", None),
    }


def _same(x, y) -> bool:
    if isinstance(x, tuple):
        return len(x) == len(y) and all(map(_same, x, y))
    if isinstance(x, pa.Table):  # NaN-aware
        return x.to_pandas().equals(y.to_pandas())
    if isinstance(x, pa.Array):
        return x.equals(y)
    if isinstance(x, np.ndarray):
        return np.array_equal(x, y)
    return x == y


@pytest.mark.parametrize(
    "consumer",
    ["tokens", "minhash", "gopher", "dsir_buckets", "misra_gries",
     "count_min", "simhash", "tf_rows", "blocklist", "pack_count"],
)
def test_tokens_ignore_bytes_past_the_last_doc(consumer):
    """A batch's last doc tokenizes the same whatever lies past its
    array's data buffer, in every token consumer: pyarrow's
    ``utf8_split_whitespace`` alone reads the byte after a string that
    ends in whitespace and, when that byte is not valid UTF-8 (any stray
    byte >= 0x80), keeps the trailing space in the last token
    ("spark " instead of "spark"), so the output for the batch's last
    doc depended on memory."""
    from test_dedup import EDGE_TEXTS

    from sod_ray.stages.textstage import tokens

    texts = EDGE_TEXTS + ["w1 w2 spark "]
    clean = pa.array(texts, pa.string())
    validity, offsets, data = clean.buffers()
    end = int(np.frombuffer(offsets, np.int32)[len(texts)])
    stray = pa.StringArray.from_buffers(
        len(texts), offsets, pa.py_buffer(data.to_pybytes()[:end] + b"\x80"),
        validity, clean.null_count,
    )
    assert stray.to_pylist() == texts
    words = [w for t in texts if t for w in t.split()]
    assert tokens(stray)[0].to_pylist() == words
    fn = _token_consumers()[consumer]
    assert _same(fn(stray), fn(clean))


def _line_dedup_ref(docs: dict[int, str]) -> dict[int, str]:
    """Brute-force reference: global first-occurrence line dedup.
    Empty lines are structural (paragraph separators) and exempt —
    they always pass through."""
    seen = {}
    for did in sorted(docs):
        for no, line in enumerate(docs[did].split("\n")):
            if line not in seen:
                seen[line] = (did, no)
    out = {}
    for did in sorted(docs):
        kept = [
            line
            for no, line in enumerate(docs[did].split("\n"))
            if line == "" or seen[line] == (did, no)
        ]
        if kept:
            out[did] = "\n".join(kept)
    return out


def test_line_dedup_multiline(ray_session):
    import ray.data as rd

    docs = {
        1: "alpha\nbeta\ngamma",
        2: "beta\ndelta\nalpha",          # loses alpha+beta to doc 1
        3: "unique one\nunique two",
        4: "alpha\nbeta\ngamma",          # full duplicate of doc 1 → vanishes
        5: "echo\necho\necho",            # within-doc dups: keeps first only
    }
    ds = rd.from_items(
        [{"doc_id": k, "text": v} for k, v in docs.items()]
    ).repartition(3)
    got = {
        r["doc_id"]: r["text_deduped"]
        for r in line_dedup(ds, "text", "doc_id").take_all()
    }
    assert got == _line_dedup_ref(docs)


def test_line_dedup_single_line_equals_exact_dedup(ray_session):
    import ray.data as rd

    docs = {1: "same text", 2: "same text", 3: "other"}
    ds = rd.from_items([{"doc_id": k, "text": v} for k, v in docs.items()])
    got = {
        r["doc_id"]: r["text_deduped"]
        for r in line_dedup(ds, "text", "doc_id").take_all()
    }
    assert got == {1: "same text", 3: "other"}


URL_CASES = [
    # (raw, normalized)
    ("HTTP://WWW.Example.COM/Path/To?x=1#frag", "http://www.example.com/Path/To?x=1"),
    ("https://a.b/", "https://a.b"),
    ("https://a.b/p/?utm_source=x", "https://a.b/p"),
    ("https://a.b/p?utm_source=x&q=2", "https://a.b/p?q=2"),
    ("https://a.b/p?q=2&utm_source=x&utm_medium=y", "https://a.b/p?q=2"),
    ("https://a.b/p?utm_a=1&utm_b=2", "https://a.b/p"),
    ("FTP://Host.Org/File", "ftp://host.org/File"),
    ("no-scheme/path/", "no-scheme/path"),
    ("https://a.b/p#only-frag", "https://a.b/p"),
    ("https://CASE.host/QueryCase?Key=Val", "https://case.host/QueryCase?Key=Val"),
]


def test_normalize_url_cases():
    raw = pa.array([r for r, _ in URL_CASES], pa.string())
    got = normalize_url_array(raw).to_pylist()
    for (r, want), g in zip(URL_CASES, got):
        assert g == want, f"{r!r}: {g!r} != {want!r}"


def test_normalize_url_batch_appends():
    t = pa.table({"url": pa.array(["https://X.Y/a/"], pa.string())})
    out = normalize_url_batch(t)
    assert out["norm_url"].to_pylist() == ["https://x.y/a"]


def test_normalize_url_matches_duckdb():
    """Parity with the oracle's regexp_replace chain on the tricky cases
    (both engines are RE2, so these must agree byte-for-byte)."""
    import duckdb

    raw = [r for r, _ in URL_CASES]
    con = duckdb.connect()
    con.execute("CREATE TABLE u AS SELECT * FROM (VALUES " +
                ",".join(f"('{r}')" for r in raw) + ") t(url)")
    sql = r"""
    WITH s1 AS (SELECT url, regexp_replace(url, '#.*$', '', 'g') AS u FROM u),
    s2 AS (SELECT url,
            concat(lower(regexp_extract(u, '^[A-Za-z][A-Za-z0-9+.-]*://[^/?#]*')),
                   regexp_replace(u, '^[A-Za-z][A-Za-z0-9+.-]*://[^/?#]*', '')) AS u
           FROM s1),
    s3 AS (SELECT url, regexp_replace(u, '&utm_[A-Za-z0-9_]*=[^&]*', '', 'g') AS u FROM s2),
    s4 AS (SELECT url, regexp_replace(u, '\?utm_[A-Za-z0-9_]*=[^&]*&', '?', 'g') AS u FROM s3),
    s5 AS (SELECT url, regexp_replace(u, '\?utm_[A-Za-z0-9_]*=[^&]*$', '', 'g') AS u FROM s4)
    SELECT url, regexp_replace(u, '/$', '', 'g') AS norm FROM s5
    """
    oracle = dict(con.sql(sql).fetchall())
    got = normalize_url_array(pa.array(raw, pa.string())).to_pylist()
    for r, g in zip(raw, got):
        assert g == oracle[r], f"{r!r}: ray {g!r} != duckdb {oracle[r]!r}"


from hypothesis import given, settings
from hypothesis import strategies as st

_line_st = st.text(alphabet="ab \n", min_size=0, max_size=30)


@settings(max_examples=15, deadline=None)
@given(st.lists(_line_st, min_size=1, max_size=8))
def test_line_dedup_property(texts):
    """Property: line_dedup == the brute-force first-occurrence
    reference on arbitrary small multi-line docs (incl. empty lines,
    repeated lines, whole-doc dups)."""
    import ray.data as rd

    docs = {i: t for i, t in enumerate(texts)}
    ds = rd.from_items([{"doc_id": k, "text": v} for k, v in docs.items()])
    got = {
        r["doc_id"]: r["text_deduped"]
        for r in line_dedup(ds, "text", "doc_id").take_all()
    }
    assert got == _line_dedup_ref(docs)


def test_redact_pii_cases():
    from sod_ray.stages.textstage import redact_pii_batch

    cases = [
        ("mail a@b.co and c.d+x@e-f.org now", "mail <EMAIL> and <EMAIL> now", 2, 0, 0),
        ("call +4915123456789 ok", "call <PHONE> ok", 0, 1, 0),
        ("+123 too short", "+123 too short", 0, 0, 0),
        ("host 192.168.0.1 and 10.0.0.255.", "host <IP> and <IP>.", 0, 0, 2),
        ("clean text only", "clean text only", 0, 0, 0),
        ("x@y.io at 8.8.8.8 via +77777777", "<EMAIL> at <IP> via <PHONE>", 1, 1, 1),
    ]
    t = pa.table(
        {
            "doc_id": pa.array(range(len(cases)), pa.int64()),
            "text": [c[0] for c in cases],
        }
    )
    out = redact_pii_batch(t).to_pandas()
    for i, (_, want, ne, np_, ni) in enumerate(cases):
        assert out.text_redacted[i] == want, out.text_redacted[i]
        assert (out.n_emails[i], out.n_phones[i], out.n_ips[i]) == (ne, np_, ni)


def test_redact_pii_null_text():
    from sod_ray.stages.textstage import redact_pii_batch

    t = pa.table(
        {"doc_id": pa.array([1], pa.int64()), "text": pa.array([None], pa.string())}
    )
    out = redact_pii_batch(t).to_pandas()
    assert out.text_redacted[0] == "" and out.n_emails[0] == 0


def test_dup_text_fractions_cases():
    from sod_ray.stages.textstage import dup_text_fractions

    texts = ["a\nb\na\nc", "", "x\nx\nx", "p\n\np\n\nq"]
    t = pa.table(
        {"doc_id": pa.array(range(4), pa.int64()), "text": texts}
    )
    out = dup_text_fractions(t).to_pandas().set_index("doc_id")
    assert out.loc[0, "n_lines"] == 4
    assert out.loc[0, "dup_line_frac"] == 0.25          # 'a' twice
    assert out.loc[0, "dup_line_char_frac"] == 0.25
    assert out.loc[1, "n_lines"] == 1                    # "" -> one empty line
    assert out.loc[1, "dup_line_frac"] == 0.0
    assert out.loc[1, "dup_line_char_frac"] == 0.0       # zero chars -> 0
    assert abs(out.loc[2, "dup_line_frac"] - 2 / 3) < 1e-12
    assert abs(out.loc[2, "dup_line_char_frac"] - 2 / 3) < 1e-12
    # "p\n\np\n\nq": lines p,'',p,'',q -> 2 dups of 5; paras p,p,q -> 1 of 3
    assert out.loc[3, "n_lines"] == 5
    assert abs(out.loc[3, "dup_line_frac"] - 0.4) < 1e-12
    assert out.loc[3, "n_paras"] == 3
    assert abs(out.loc[3, "dup_para_frac"] - 1 / 3) < 1e-12


def test_c4_line_filter_boundaries(ray_session):
    """Line predicate boundaries: exactly 5 words + punct kept, 4
    words dropped, no-punct dropped; doc survives at exactly 3 kept
    lines, dies at 2; empty/null text never crashes."""
    import pyarrow as pa
    import ray.data as rd

    import sod_ray.pipelines.queries as Q

    keep = "one two three four five."
    short = "one two three four."
    nopunct = "one two three four five six"
    texts = [
        "\n".join([keep, keep, keep]),          # 3 kept -> survives
        "\n".join([keep, keep, short]),         # 2 kept -> dropped
        "\n".join([keep, nopunct, keep, keep]), # 3 kept -> survives
        "",
        None,
    ]
    tbl = pa.table(
        {
            "doc_id": pa.array(range(len(texts)), pa.int64()),
            "text": pa.array(texts, pa.string()),
        }
    )
    import os
    import tempfile

    import pyarrow.parquet as pq

    with tempfile.TemporaryDirectory() as d:
        pq.write_table(tbl, os.path.join(d, "documents.parquet"))
        out = Q.docs_c4_line_filter(d).to_pandas()
    assert sorted(out["doc_id"]) == [0, 2]
    assert out.set_index("doc_id").loc[0, "text_f"] == "\n".join(
        [keep, keep, keep]
    )
    # the non-qualifying line is excised, order preserved
    assert out.set_index("doc_id").loc[2, "text_f"] == "\n".join(
        [keep, keep, keep]
    )


def test_blocklist_token_exactness(ray_session):
    """Blocklist matches WHOLE tokens only: 'dup' fires, 'duplicate'
    does not (substring matching would over-drop)."""
    import os
    import tempfile

    import pyarrow as pa
    import pyarrow.parquet as pq

    import sod_ray.pipelines.queries as Q

    texts = [
        "clean words only here",
        "contains dup token",
        "contains duplicate token",
        "",
    ]
    tbl = pa.table(
        {
            "doc_id": pa.array(range(len(texts)), pa.int64()),
            "text": pa.array(texts, pa.string()),
        }
    )
    with tempfile.TemporaryDirectory() as d:
        pq.write_table(tbl, os.path.join(d, "documents.parquet"))
        out = Q.docs_blocklist_checked(d).to_pandas()
    assert sorted(out["doc_id"]) == [0, 2, 3]

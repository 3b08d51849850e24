"""Text kernels: extraction, tokenization, lang-id, quality, fingerprint."""

import pytest

from sod_ray.functions.text import (
    extract_text,
    lang_id,
    md5_hex,
    quality_features,
    quality_score,
    rolling_fingerprint,
    subtoken_count,
    token_count,
)


def test_extract_text_basic():
    html = b"<html><head><title>T</title><style>p{}</style></head>" \
           b"<body><p>Hello   <b>world</b> &amp; friends</p>" \
           b"<script>var x=1;</script></body></html>"
    assert extract_text(html) == "T Hello world & friends"


def test_extract_text_null_and_entities():
    assert extract_text(None) is None
    assert extract_text(b"a &lt;b&gt; &quot;c&quot; &#39;d&#39;&nbsp;e") == 'a <b> "c" \'d\' e'


def test_token_counts():
    assert token_count("  hello   world \n foo ") == 3
    assert token_count("") == 0
    assert token_count(None) == 0
    assert subtoken_count("don't stop2000") == 5  # don ' t stop 2000
    assert subtoken_count(None) == 0


def test_lang_id():
    assert lang_id("the cat sat on the mat and it was a good day for the dog") == "en"
    assert lang_id("el perro y el gato en la casa de los vecinos que se fueron") == "es"
    assert lang_id("der Hund und die Katze sind nicht mit der Maus auf der Straße") == "de"
    assert lang_id("это не просто что и как в не на с") == "ru"
    assert lang_id("猫は外で遊んでいます。犬も一緒です。こんにちは") == "ja"
    assert lang_id("這是一個中文句子測試中文偵測器的能力與精確度") == "zh"
    assert lang_id("") == "other"
    assert lang_id(None) == "other"
    assert lang_id("zzz qqq xxx") == "other"


def test_quality():
    good = "the quick brown fox jumps over the lazy dog and it was good"
    assert quality_score(good) == 1.0
    assert quality_score("a b") == 0.0  # too short
    assert quality_score(None) == 0.0
    junk = "!!! ??? ### $$$ %%% ^^^ &&& *** ((( )))"
    assert quality_score(junk) < 0.6
    f = quality_features(good)
    assert f["n_tokens"] == 13.0
    assert f["stopword_ratio"] > 0.2


def test_fingerprint_stability():
    a = rolling_fingerprint("hello world")
    assert a == rolling_fingerprint("hello world")
    assert a != rolling_fingerprint("hello worlds")
    assert rolling_fingerprint(None) == 0
    assert 0 <= a < (1 << 61) - 1


def test_md5_matches_duckdb():
    import duckdb

    s = "hello wörld"
    expected = duckdb.sql("SELECT md5(?) AS h", params=[s]).fetchone()[0]
    assert md5_hex(s) == expected
    assert md5_hex(None) == ""


def test_extract_text_arrow_parity():
    """The Arrow/RE2 fast path must match the Python reference
    byte-for-byte on the synthetic corpus (incl. planted anomalies)."""
    import pyarrow as pa

    from sod_ray.functions.text import extract_text, extract_text_arrow
    from sod_ray.sources.webpages import synth_shard

    table, _ = synth_shard(3000, shard=1, seed=7)
    fast = extract_text_arrow(table["html"]).to_pylist()
    slow = [extract_text(h) for h in table["html"].to_pylist()]
    assert fast == slow
    # hand-built edge cases
    cases = [
        b"<html><body><p>a &amp; b</p><script>x</script></body></html>",
        b"<style>p{}</style>text  here",
        None,
        b"",
        "unicode é中文 <b>ok</b>".encode(),
    ]
    arr = pa.array(cases, pa.binary())
    assert extract_text_arrow(arr).to_pylist() == [extract_text(c) for c in cases]


def test_extract_arrow_parity():
    """extract_text_arrow's one path (tag alternation, entity decode when
    a batch holds an ``&``, collapse of only the whitespace runs that
    change) must match extract_text byte-for-byte, on batches with and
    without entities."""
    import pyarrow as pa

    from sod_ray.functions.text import extract_text, extract_text_arrow

    entity_free = [
        b"<html><body>hello <b>world</b>\n\n  spaced</body></html>",
        b"<script>var x = '<div>';</script>plain <style>a{}</style>tail",
        b"a<br/>b<br />c",
        b"   leading <p>mid</p> trailing   ",
        b"no tags at all",
        b"",
        None,
        "unicode é中文 <i>tags</i>".encode(),
    ]
    with_entities = [
        b"a &amp; b &lt;tag&gt; &quot;q&quot; &#39;s&#39; x&nbsp;y",
        b"<p>&nbsp;  spaced&nbsp;&nbsp;entities</p>",
        b"&amp;&amp;&amp;",
        b"mixed <b>&lt;literal&gt;</b> \t tags",
    ]
    # cases only the run-collapse pattern ([ws]{2,} | one non-space ws)
    # could get wrong: one \t/\n (or \r, \f, \v) alone between words,
    # a tag next to a single space, an entity inside a whitespace run,
    # script blocks separated by whitespace
    collapse = [
        b"one\ttab",
        b"one\nnewline",
        b"cr\rff\fvt\vend",
        b"single space",
        b"tag <b>next</b> to space",
        b"x <br> y",
        b"<i>a</i> <i>b</i>",
        b"\tlead and trail\n",
        b"run \t\n of mixed",
        b"a \t&amp;\n b",
        b"a &nbsp; b",
        b"a&nbsp;\tb",
        b"<script>x</script> <script>y</script>\n<script>z</script>kept",
        b"<style>p{}</style>\t<script>q</script> text",
    ]
    for batch in (
        entity_free,
        with_entities,
        entity_free + with_entities,
        collapse,
        [c for c in collapse if b"&" not in c],
    ):
        got = extract_text_arrow(pa.array(batch, pa.binary())).to_pylist()
        want = [extract_text(h) for h in batch]
        assert got == want, (got, want)


def test_winnow_select_guarantee_and_ties():
    import hashlib

    import numpy as np

    from sod_ray.functions.text import winnow_select

    rng = np.random.default_rng(7)
    # brute-force parity incl. rightmost tie-break (small alphabet → ties)
    h = rng.integers(0, 12, 200)
    sel = winnow_select(h, 8)
    ref = set()
    for s in range(len(h) - 7):
        win = h[s : s + 8]
        m = win.min()
        ref.add(s + max(i for i in range(8) if win[i] == m))
    assert sel.tolist() == sorted(ref)
    assert winnow_select(np.array([3, 1]), 8).size == 0

    # the w+k-1 guarantee: docs sharing a >= 12-char substring share
    # at least one selected fingerprint (k=5, w=8)
    K, W = 5, 8
    shared = "the quick brown fox jumps"

    def fps(txt):
        hx = [
            hashlib.md5(txt[i : i + K].encode()).hexdigest()[:8]
            for i in range(len(txt) - K + 1)
        ]
        h = np.array([int(x, 16) for x in hx], dtype=np.uint32)
        return {hx[s] for s in winnow_select(h, W)}

    a = fps("prefix words here " + shared + " and a suffix tail")
    b = fps(shared + " totally different continuation text follows")
    assert a & b


def test_winnow_fast_path_matches_selection_semantics():
    import numpy as np

    from sod_ray.functions.text import winnow_fingerprints_fast

    # identical texts → identical fingerprints; shared >= w+k-1 byte
    # substring → shared fingerprint (same guarantee as the md5 path)
    shared = "the quick brown fox jumps"
    pa_, fa = winnow_fingerprints_fast("x " + shared + " trailing words here")
    pb_, fb = winnow_fingerprints_fast(shared + " other continuation entirely")
    assert set(fa.tolist()) & set(fb.tolist())
    p1, f1 = winnow_fingerprints_fast(shared * 3)
    p2, f2 = winnow_fingerprints_fast(shared * 3)
    assert np.array_equal(p1, p2) and np.array_equal(f1, f2)
    p0, f0 = winnow_fingerprints_fast("abc")
    assert p0.size == 0 and f0.size == 0

"""TextFeatures Arrow/pandas parity and the RE2 ``\\S+`` run counter."""

import pytest


def test_textfeatures_arrow_pandas_parity(ray_session):
    """The Arrow single-pass path must produce exactly the pandas
    path's features (same compiled regexes, same per-doc functions)."""
    import pandas as pd
    import pyarrow as pa

    from sod_ray.stages.textstage import TextFeatures

    texts = [
        "The quick brown fox! Jumps; over 42 lazy dogs?",
        "",
        None,
        "word " * 50,
        "ALL CAPS AND PUNCT!!! ###",
        "mixed 语言 tokens, and the of a an in to is",
    ]
    t = pa.table({"doc_id": list(range(len(texts))), "text": pa.array(texts, pa.string())})
    tf = TextFeatures()
    a = tf(t).to_pandas()
    p = tf(t.to_pandas())
    for col in ["n_chars", "n_tokens", "punct_ratio", "stopword_ratio", "quality"]:
        assert a[col].tolist() == pytest.approx(p[col].tolist()), col


def test_count_nonspace_runs_matches_re2():
    """count_nonspace_runs equals pc.count_substring_regex(r"\\S+") on
    nulls, empty and whitespace-only strings, \\v (not whitespace in
    RE2), U+00A0/U+3000, multi-byte text, every slice of the array
    (offset != 0) and a multi-chunk column; null slots stay null even
    when their data span is not empty."""
    import numpy as np
    import pyarrow as pa
    import pyarrow.compute as pc

    from sod_ray.stages.textstage import count_nonspace_runs

    texts = [
        None,
        "",
        "   ",
        " \t\n\r\f ",
        "\v",
        "a\vb",
        "a\u00a0b",
        "a\u3000b c",
        "\u00a0",
        "héllo wörld 中文 字",
        " lead",
        "trail ",
        "a\tb\nc\rd\fe",
        "x",
        "two  spaces\n\nand lines",
    ]
    arr = pa.array(texts, pa.string())

    def check(a):
        got = count_nonspace_runs(a)
        assert got.type == pa.int64()
        assert got.to_pylist() == pc.count_substring_regex(a, r"\S+").to_pylist()

    check(arr)
    check(arr.cast(pa.large_string()))
    for off in range(len(texts)):
        for n in range(len(texts) - off + 1):
            check(arr.slice(off, n))
    chunked = pa.chunked_array([arr.slice(0, 4), arr.slice(4, 0), arr.slice(4)])
    assert count_nonspace_runs(chunked).to_pylist() == (
        pc.count_substring_regex(chunked, r"\S+").to_pylist()
    )
    # a null slot whose offsets still span bytes ("b c" between "a" and "d")
    data = pa.py_buffer(b"ab cd")
    offsets = pa.py_buffer(np.array([0, 1, 4, 5], np.int32).tobytes())
    validity = pa.py_buffer(np.packbits([1, 0, 1], bitorder="little").tobytes())
    odd = pa.Array.from_buffers(pa.string(), 3, [validity, offsets, data])
    assert count_nonspace_runs(odd).to_pylist() == [1, None, 1]

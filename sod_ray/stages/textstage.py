"""Text-analysis Ray stages: extraction, features, language ID,
fingerprints — actor pools with setup in ``__init__`` (compiled
regexes / stopword tables once per actor, work per batch)."""

from __future__ import annotations

import hashlib

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from ..functions import text as T


def extract_text_batch(batch: pa.Table) -> pa.Table:
    """html(binary) → extracted_text(string) + match flag vs the `text`
    column (the byte-identical per-row invariant, BASELINE.json
    input_hint). Stateless task — pure function of the batch."""
    htmls = batch["html"].to_pylist()
    extracted = [T.extract_text(h) for h in htmls]
    match = [
        (e == t) if (e is not None and t is not None) else False
        for e, t in zip(extracted, batch["text"].to_pylist())
    ]
    out = batch.append_column("extracted_text", pa.array(extracted, pa.string()))
    return out.append_column("extract_match", pa.array(match, pa.bool_()))


class TextFeatures:
    """Actor-pool stage: per-doc quality features. Regexes compiled once
    per actor (__init__); accepts Arrow tables (zero-copy from the
    object store, ONE pass over the texts computing every feature) or
    pandas frames (legacy multi-pass .str path) — both produce
    identical values (same compiled regexes and per-doc functions)."""

    def __init__(self, text_col: str = "text"):
        import re

        self.text_col = text_col
        self.token = re.compile(r"\S+")
        self.word = re.compile(r"[^\W\d_]+", re.UNICODE)
        self.punct = re.compile(r"[^\w\s]", re.UNICODE)
        self.stop_en = frozenset(T._STOPWORDS["en"])

    def _call_arrow(self, batch: pa.Table) -> pa.Table:
        texts = batch[self.text_col].to_pylist()
        n = len(texts)
        n_chars = np.empty(n, np.int64)
        n_tokens = np.empty(n, np.int64)
        punct_ratio = np.empty(n, np.float64)
        stop_ratio = np.empty(n, np.float64)
        quality = np.empty(n, np.float64)
        stop, token, word, punct = (
            self.stop_en, self.token, self.word, self.punct,
        )
        for i, t in enumerate(texts):
            if t is None:
                t = ""
            nc = len(t)
            n_chars[i] = nc
            n_tokens[i] = len(token.findall(t))
            punct_ratio[i] = len(punct.findall(t)) / nc if nc > 0 else 0.0
            ws = word.findall(t.lower())
            stop_ratio[i] = (
                sum(w in stop for w in ws) / len(ws) if ws else 0.0
            )
            quality[i] = T.quality_score(t)
        out = batch
        for name, arr in (
            ("n_chars", n_chars),
            ("n_tokens", n_tokens),
            ("punct_ratio", punct_ratio),
            ("stopword_ratio", stop_ratio),
            ("quality", quality),
        ):
            out = out.append_column(name, pa.array(arr))
        return out

    def __call__(self, batch):
        if isinstance(batch, pa.Table):
            return self._call_arrow(batch)
        texts = batch[self.text_col].fillna("")
        n_chars = texts.str.len().astype(np.int64)
        toks = texts.str.findall(self.token)
        n_tokens = toks.map(len).astype(np.int64)
        n_punct = texts.str.count(self.punct)
        batch["n_chars"] = n_chars
        batch["n_tokens"] = n_tokens
        batch["punct_ratio"] = np.where(n_chars > 0, n_punct / n_chars, 0.0)
        words = texts.str.lower().str.findall(self.word)
        stop = self.stop_en
        batch["stopword_ratio"] = words.map(
            lambda ws: sum(w in stop for w in ws) / len(ws) if ws else 0.0
        )
        batch["quality"] = texts.map(T.quality_score)
        return batch


class LangId:
    """Actor-pool language-ID stage (heuristic n-gram/stopword)."""

    def __init__(self, text_col: str = "text", out_col: str = "lang_pred"):
        self.text_col = text_col
        self.out_col = out_col

    def __call__(self, batch: pd.DataFrame) -> pd.DataFrame:
        batch[self.out_col] = batch[self.text_col].map(T.lang_id)
        return batch


def fingerprint_batch(batch: pa.Table, text_col: str = "text") -> pa.Table:
    """md5 + rolling fingerprint per doc. Hashing is per-doc by nature;
    md5 over the already-encoded buffer keeps the loop tight."""
    texts = batch[text_col].to_pylist()
    md5s = [
        hashlib.md5(t.encode("utf-8")).hexdigest() if t is not None else ""
        for t in texts
    ]
    fps = [T.rolling_fingerprint(t if t is None or len(t) <= 4096 else t[:4096]) for t in texts]
    out = batch.append_column("text_md5", pa.array(md5s, pa.string()))
    return out.append_column(
        "fingerprint", pa.array(np.asarray(fps, dtype=np.uint64), pa.uint64())
    )


def tokens(arr, lower: bool = False) -> tuple[pa.Array, np.ndarray]:
    """The engine's one whitespace tokenizer. Returns (the flat string
    array of every doc's tokens in doc order, the int64 doc index of
    each token); ``arr`` is an Arrow string column or a list of
    str/None, ``lower`` lowercases first (``utf8_lower``).

    Token convention: a token is a maximal run of non-whitespace, where
    whitespace is Unicode whitespace as ``utf8_split_whitespace``
    defines it; no token is empty, and a null, empty or all-whitespace
    doc has none. Known divergence: the DuckDB oracles count RE2
    ``\\S+`` runs, and RE2's ``\\s`` is ASCII-only, so a doc joining two
    words with non-ASCII whitespace (U+00A0, U+3000 ...) has two tokens
    here and one in SQL. The two agree on ASCII text (all testdata).

    The text is trimmed before the split: pyarrow 16's split reads the
    byte after a string that ends in whitespace, and when that byte does
    not start valid UTF-8 (a stray byte >= 0x80 past the data buffer's
    logical end, so only an array's last string) it keeps the trailing
    whitespace in the last token ("w3 " instead of "w3"). Trimming also
    removes the empty edge tokens the split emits; a doc that trims to
    "" is nulled so it does not split to [""]."""
    if isinstance(arr, pa.ChunkedArray):  # one chunk: no copy
        arr = arr.chunk(0) if arr.num_chunks == 1 else arr.combine_chunks()
    if isinstance(arr, pa.Array):
        arr = arr.cast(pa.string())
    else:
        arr = pa.array(arr, pa.string())
    if lower:
        arr = pc.utf8_lower(arr)
    arr = pc.utf8_trim_whitespace(arr)
    blank = pc.equal(pc.binary_length(arr), 0)
    if pc.any(blank).as_py():
        arr = pc.if_else(blank, pa.scalar(None, pa.string()), arr)
    words = pc.utf8_split_whitespace(arr)
    per_doc = pc.fill_null(pc.list_value_length(words), 0).to_numpy()
    doc = np.repeat(np.arange(len(arr), dtype=np.int64), per_doc)
    return pc.list_flatten(words), doc


# RE2's \s: the five bytes [\t\n\f\r ] (\v is NOT whitespace in RE2)
_RE2_SPACE = np.zeros(256, dtype=bool)
_RE2_SPACE[[9, 10, 12, 13, 32]] = True


def count_nonspace_runs(arr) -> pa.Array:
    """Per-string count of RE2 ``\\S+`` runs, the oracles' token count
    (``len(regexp_extract_all(text, '\\S+'))``), as int64 with nulls
    kept null. Equal to ``pc.count_substring_regex(arr, r"\\S+")`` on
    valid UTF-8, without the regex engine: one numpy scan over the
    UTF-8 data buffer marks every token start — a byte outside RE2's
    ASCII ``\\s`` class ``[\\t\\n\\f\\r ]`` that begins its string or
    follows a whitespace byte — and ``searchsorted`` on the offsets
    counts the starts per string. Offset-safe on sliced arrays; a
    chunked column is counted chunk by chunk and concatenated.

    Not :func:`tokens`' convention: ``tokens`` splits on Unicode
    whitespace, so U+00A0 or U+3000 between two words makes two tokens
    there and one run here, and ``\\v`` separates tokens there but not
    here. Use this counter where a result must match the SQL oracles,
    ``tokens`` where the tokens themselves are needed."""
    if isinstance(arr, pa.ChunkedArray):
        chunks = [count_nonspace_runs(c) for c in arr.chunks]
        return (
            pa.concat_arrays(chunks) if chunks else pa.array([], pa.int64())
        )
    n = len(arr)
    if n == 0:
        return pa.array([], pa.int64())
    big = pa.types.is_large_string(arr.type)
    _, offs_buf, data_buf = arr.buffers()[:3]
    offs = np.frombuffer(offs_buf, np.int64 if big else np.int32)[
        arr.offset : arr.offset + n + 1
    ].astype(np.int64)
    lo = int(offs[0])
    data = (
        np.frombuffer(data_buf, np.uint8)[lo : int(offs[-1])]
        if data_buf is not None
        else np.empty(0, np.uint8)
    )
    bounds = offs - lo
    space = _RE2_SPACE[data]
    after_space = np.empty_like(space)
    if space.size:
        after_space[0] = True
        after_space[1:] = space[:-1]
        firsts = bounds[:-1]
        after_space[firsts[firsts < space.size]] = True  # string starts
    starts = np.flatnonzero(after_space & ~space)
    counts = np.diff(np.searchsorted(starts, bounds))
    mask = ~np.asarray(arr.is_valid()) if arr.null_count else None
    return pa.array(counts, pa.int64(), mask=mask)


# rows × bigram-key range at or past which gopher_stats_batch densifies
# its bigram codes first (the packed (doc, bigram) key stays in int64)
_BIGRAM_KEY_LIMIT = 1 << 63


def gopher_stats_batch(
    batch: pa.Table, text_col: str = "text", id_col: str = "doc_id"
) -> pa.Table:
    """Gopher-style repetition/quality metrics (Rae et al. 2021, public):
    per-doc word count, mean word length, and top-1-gram / top-2-gram
    repetition fractions (occurrence-fraction variants of Gopher's
    top-n-gram filters), plus the combined pass flag. Entirely per-doc
    → pure ``map_batches``, no shuffle; vectorized via Arrow whitespace
    split + dictionary-encode and numpy bincount/unique (no Python loop
    over rows or tokens).

    Counting keys are packed int64s, counted with one sort each:
    (doc, word code) for 1-grams and (doc, code, next code) for 2-grams.
    The 2-gram key needs rows × vocab² < 2^63; a batch past that first
    maps (code, next code) to a dense bigram code (``_BIGRAM_KEY_LIMIT``).
    Every factor is then below the batch's row or token count, so no
    key can overflow int64 while both stay under 3·10^9 — far past any
    batch that fits in memory (3·10^9 tokens is 24 GB of int64 codes).

    Tokens come from :func:`tokens`."""
    flat, doc_idx = tokens(batch[text_col])
    wl = pc.utf8_length(flat).to_numpy().astype(np.int64)
    n = len(batch)
    wc = np.bincount(doc_idx, minlength=n).astype(np.int64)
    csum = np.bincount(doc_idx, weights=wl, minlength=n)
    top = np.zeros(n, dtype=np.int64)
    top2 = np.zeros(n, dtype=np.int64)
    if len(doc_idx):
        codes = pc.dictionary_encode(flat).indices.to_numpy().astype(np.int64)
        vocab = int(codes.max()) + 1
        uk, cnt = np.unique(doc_idx * vocab + codes, return_counts=True)
        np.maximum.at(top, uk // vocab, cnt)
        # top 2-gram count per doc over consecutive same-doc token pairs
        same = doc_idx[1:] == doc_idx[:-1]
        if same.any():
            bd = doc_idx[:-1][same]
            bg = codes[:-1][same] * vocab + codes[1:][same]
            nb = vocab * vocab
            if n * nb >= _BIGRAM_KEY_LIMIT:
                big, bg = np.unique(bg, return_inverse=True)
                bg, nb = bg.reshape(-1), big.shape[0]
            uk2, cnt2 = np.unique(bd * nb + bg, return_counts=True)
            np.maximum.at(top2, uk2 // nb, cnt2)
    has = wc > 0
    denom = np.maximum(wc, 1).astype(np.float64)
    mwl = np.where(has, csum / denom, np.nan)
    twf = np.where(has, top / denom, np.nan)
    nbig = np.maximum(wc - 1, 0)
    tbf = np.where(nbig > 0, top2 / np.maximum(nbig, 1), np.nan)
    qpass = (
        has
        & (wc >= 50)
        & (wc <= 100_000)
        & (mwl >= 3.0)
        & (mwl <= 10.0)
        & (twf <= 0.3)
        & (np.isnan(tbf) | (tbf <= 0.2))
    )
    return pa.table(
        {
            id_col: batch[id_col],
            "word_count": pa.array(wc, pa.int64()),
            "mean_word_len": pa.array(mwl, pa.float64()),
            "top_word_frac": pa.array(twf, pa.float64()),
            "top_bigram_frac": pa.array(tbf, pa.float64()),
            "quality_pass": pa.array(qpass, pa.bool_()),
        }
    )


# RE2 patterns shared by the Ray kernel and the DuckDB oracle (both are
# RE2 engines, so semantics match byte for byte).
_URL_PFX_RE = r"^[A-Za-z][A-Za-z0-9+.-]*://[^/?#]*"


def normalize_url_array(arr) -> pa.Array:
    """Canonicalize URLs for dedup, vectorized over an Arrow string
    array: strip the fragment, lowercase scheme+host (path/query case
    preserved), drop utm_* tracking params, strip one trailing slash.
    Every rule is a single RE2 rewrite so the same normalization is
    expressible in DuckDB regexp_replace for the oracle check."""
    if isinstance(arr, pa.ChunkedArray):
        arr = arr.combine_chunks()
    a = pc.replace_substring_regex(arr, r"#.*$", "")
    m = pc.extract_regex(a, r"^(?P<p>[A-Za-z][A-Za-z0-9+.-]*://[^/?#]*)")
    pfx = pc.coalesce(pc.struct_field(m, "p"), pa.scalar("", pa.string()))
    rest = pc.replace_substring_regex(a, _URL_PFX_RE, "")
    a = pc.binary_join_element_wise(pc.utf8_lower(pfx), rest, "")
    a = pc.replace_substring_regex(a, r"&utm_[A-Za-z0-9_]*=[^&]*", "")
    a = pc.replace_substring_regex(a, r"\?utm_[A-Za-z0-9_]*=[^&]*&", "?")
    a = pc.replace_substring_regex(a, r"\?utm_[A-Za-z0-9_]*=[^&]*$", "")
    return pc.replace_substring_regex(a, r"/$", "")


def normalize_url_batch(
    batch: pa.Table, url_col: str = "url", out_col: str = "norm_url"
) -> pa.Table:
    """map_batches wrapper: append the normalized-URL column."""
    return batch.append_column(out_col, normalize_url_array(batch[url_col]))


# PII patterns shared verbatim with the DuckDB oracle (both RE2).
# Applied in this order — email first so its local part's digits are
# gone before the phone pass, phone before IP so a '+'-prefixed number
# never half-matches as an address.
PII_EMAIL_RE = r"[A-Za-z0-9._%+-]+@[A-Za-z0-9.-]+\.[A-Za-z]{2,}"
PII_PHONE_RE = r"\+[0-9]{7,15}"
PII_IPV4_RE = r"\b(?:[0-9]{1,3}\.){3}[0-9]{1,3}\b"


def redact_pii_batch(
    batch: pa.Table, text_col: str = "text", out_col: str = "text_redacted"
) -> pa.Table:
    """PII scrubbing (the CCNet/Dolma-style pre-training hygiene pass):
    replace emails, international phone numbers and IPv4 addresses with
    typed placeholder tokens, and count each per doc. Pure map_batches,
    vectorized — three RE2 rewrites + three RE2 counts per batch, no
    Python loop over rows."""
    txt = pc.fill_null(batch[text_col].combine_chunks(), "")
    n_email = pc.count_substring_regex(txt, PII_EMAIL_RE).cast(pa.int64())
    red = pc.replace_substring_regex(txt, PII_EMAIL_RE, "<EMAIL>")
    n_phone = pc.count_substring_regex(red, PII_PHONE_RE).cast(pa.int64())
    red = pc.replace_substring_regex(red, PII_PHONE_RE, "<PHONE>")
    n_ip = pc.count_substring_regex(red, PII_IPV4_RE).cast(pa.int64())
    red = pc.replace_substring_regex(red, PII_IPV4_RE, "<IP>")
    out = batch.append_column(out_col, red)
    out = out.append_column("n_emails", n_email)
    out = out.append_column("n_phones", n_phone)
    return out.append_column("n_ips", n_ip)


def token_count_batch(batch: pa.Table, text_col: str = "text") -> pa.Table:
    """Whitespace + BPE-ish token counts (SQL-replicable; see
    __ray_entry__.oracle_sql)."""
    import re

    tok = re.compile(r"\S+")
    sub = re.compile(r"[A-Za-z]+|[0-9]+|[^\sA-Za-z0-9]")
    texts = batch[text_col].to_pylist()
    n_ws = [len(tok.findall(t)) if t else 0 for t in texts]
    n_sub = [len(sub.findall(t)) if t else 0 for t in texts]
    out = batch.append_column("n_tokens_ws", pa.array(n_ws, pa.int64()))
    return out.append_column("n_tokens_bpe", pa.array(n_sub, pa.int64()))


def _dup_fracs(txt: pa.Array, sep: str, n_docs: int):
    """Per-doc duplicate-unit fractions for one separator: (n_units,
    dup_unit_frac, dup_char_frac), where a unit occurring c times in a
    doc contributes c-1 duplicates and (c-1)*len(unit) duplicate chars
    (Rae et al. 2021 Table A1's dup_line/para filters). Vectorized:
    one Arrow split + one hash64 over the batch's flat units + one
    lexsort run-length pass — no Python loop over docs or units."""
    from ..state.sketches import hash64

    parts = pc.split_pattern(txt, sep)
    flat = pc.list_flatten(parts)
    n_per = pc.fill_null(pc.list_value_length(parts), 0).to_numpy(
        zero_copy_only=False
    )
    doc_idx = np.repeat(np.arange(n_docs, dtype=np.int64), n_per)
    n_items = np.bincount(doc_idx, minlength=n_docs).astype(np.float64)
    if len(doc_idx) == 0:
        zero = np.zeros(n_docs)
        return n_items.astype(np.int64), zero, zero
    h = hash64(flat)
    lens = pc.utf8_length(flat).to_numpy(zero_copy_only=False).astype(np.int64)
    order = np.lexsort((h, doc_idx))
    d, hh, ll = doc_idx[order], h[order], lens[order]
    new = np.concatenate(([True], (d[1:] != d[:-1]) | (hh[1:] != hh[:-1])))
    run_id = np.cumsum(new) - 1
    run_counts = np.bincount(run_id).astype(np.int64)
    run_doc = d[new]
    run_len = ll[new]  # identical units share a length (collision-free)
    dup_n = (run_counts - 1).astype(np.float64)
    dup_items = np.bincount(run_doc, weights=dup_n, minlength=n_docs)
    tot_chars = np.bincount(doc_idx, weights=lens, minlength=n_docs)
    dup_chars = np.bincount(
        run_doc, weights=dup_n * run_len, minlength=n_docs
    )
    frac = dup_items / np.maximum(n_items, 1.0)
    char_frac = np.where(tot_chars > 0, dup_chars / np.maximum(tot_chars, 1.0), 0.0)
    return n_items.astype(np.int64), frac, char_frac


def dup_text_fractions(
    batch: pa.Table,
    text_col: str = "text",
    id_col: str = "doc_id",
    line_sep: str = "\n",
    para_sep: str = "\n\n",
) -> pa.Table:
    """Gopher repetition filters, part 2 (Rae et al. 2021, public):
    per-doc duplicate-LINE and duplicate-PARAGRAPH fractions, by unit
    count and by character mass. Pure per-doc ``map_batches`` — no
    shuffle; complements ``gopher_stats_batch``'s top-n-gram fractions.
    Empty units (adjacent separators) count as units, matching SQL
    string_split semantics."""
    txt = pc.fill_null(batch[text_col].combine_chunks(), "")
    n = len(batch)
    n_lines, dlf, dlcf = _dup_fracs(txt, line_sep, n)
    n_paras, dpf, dpcf = _dup_fracs(txt, para_sep, n)
    return pa.table(
        {
            id_col: batch[id_col],
            "n_lines": pa.array(n_lines, pa.int64()),
            "dup_line_frac": pa.array(dlf, pa.float64()),
            "dup_line_char_frac": pa.array(dlcf, pa.float64()),
            "n_paras": pa.array(n_paras, pa.int64()),
            "dup_para_frac": pa.array(dpf, pa.float64()),
            "dup_para_char_frac": pa.array(dpcf, pa.float64()),
        }
    )

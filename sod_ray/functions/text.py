"""Pure text kernels: HTML→text extraction, tokenization, language ID,
quality scoring, fingerprinting (SURVEY.md §7.3 step 6 + the
training-data-pipeline text-analysis surface).

All functions are deterministic and wall-clock-free. The batch/Ray
wrappers live in sod_ray.stages.textstage; these are the exact
semantics pinned by tests.

The HTML extractor is the per-row invariant of BASELINE.json
``input_hint``: for pages produced by sod_ray.sources.webpages (the
deterministic Common-Crawl-style synthesizer) ``extract_text(html)``
must reproduce the ``text`` column byte-identically per ``url``.
"""

from __future__ import annotations

import hashlib
import re
import unicodedata

# ---------------------------------------------------------------------------
# HTML → text extraction
# ---------------------------------------------------------------------------

_SCRIPT_STYLE = re.compile(
    rb"<(script|style)\b[^>]*>.*?</\1\s*>", re.IGNORECASE | re.DOTALL
)
_TAG = re.compile(rb"<[^>]*>")
_ENTITIES = {
    b"&amp;": b"&",
    b"&lt;": b"<",
    b"&gt;": b">",
    b"&quot;": b'"',
    b"&#39;": b"'",
    b"&nbsp;": b" ",
}
_WS_RUN = re.compile(rb"[ \t\r\n\f\v]+")


def extract_text(html: bytes | None) -> str | None:
    """Deterministic HTML→text: drop script/style blocks, strip tags,
    decode the five standard entities, collapse whitespace runs to a
    single space, strip. Returns None for NULL html (schema violation
    recorded separately). UTF-8 with errors replaced."""
    if html is None:
        return None
    if isinstance(html, str):
        html = html.encode("utf-8", errors="replace")
    s = _SCRIPT_STYLE.sub(b" ", html)
    s = _TAG.sub(b" ", s)
    for ent, ch in _ENTITIES.items():
        s = s.replace(ent, ch)
    s = _WS_RUN.sub(b" ", s).strip()
    return s.decode("utf-8", errors="replace")


def extract_text_arrow(html_col, out_null_on_error: bool = True):
    """Vectorized Arrow/RE2 twin of :func:`extract_text` — identical
    output byte-for-byte on valid-UTF-8 html (verified in tests).

    All work happens in pyarrow compute kernels (C++/RE2): cast
    binary→string, then one path of three rewrites and a trim:

    1. one alternation pass replaces every script block, style block
       and bare tag with " " (RE2 has no backreferences, so script and
       style are separate alternatives; leftmost-first matching makes
       the pass equivalent to the reference's sequential passes for
       non-interleaved tags);
    2. the five standard entities are decoded, only in a batch that
       holds an ``&`` at all;
    3. whitespace runs collapse to one space. The pattern matches only
       the runs that change — two or more whitespace bytes, or one that
       is not a space — so the single spaces between words (most of the
       matches of a plain ``[ \t\r\n\f\v]+``) are left alone.

    Rows whose bytes are not valid UTF-8 come back null (they are
    schema violations upstream anyway)."""
    import pyarrow as pa
    import pyarrow.compute as pc

    if isinstance(html_col, pa.ChunkedArray):
        html_col = html_col.combine_chunks()
    try:
        s = pc.cast(html_col, pa.string())
    except pa.ArrowInvalid:
        if not out_null_on_error:
            raise
        # rare fallback: per-row decode, invalid rows → null
        vals = html_col.to_pylist()
        dec = []
        for v in vals:
            if v is None:
                dec.append(None)
            else:
                try:
                    dec.append(v.decode("utf-8"))
                except UnicodeDecodeError:
                    dec.append(None)
        s = pa.array(dec, pa.string())
    s = pc.replace_substring_regex(
        s,
        r"(?is)<script\b[^>]*>.*?</script\s*>|<style\b[^>]*>.*?</style\s*>|<[^>]*>",
        " ",
    )
    if pc.any(pc.match_substring(s, "&")).as_py():
        for ent, ch in _ENTITIES.items():
            s = pc.replace_substring(s, ent.decode(), ch.decode())
    s = pc.replace_substring_regex(s, r"[ \t\r\n\f\v]{2,}|[\t\r\n\f\v]", " ")
    return pc.utf8_trim(s, " \t\r\n\f\v")


# ---------------------------------------------------------------------------
# Tokenization / counting
# ---------------------------------------------------------------------------

_TOKEN = re.compile(r"\S+")
# BPE-ish word/number/punct splitter (public GPT-2-style pattern, simplified,
# no lookahead so it stays fast and SQL-replicable where needed)
_SUBTOKEN = re.compile(r"[A-Za-z]+|[0-9]+|[^\sA-Za-z0-9]")


def token_count(text: str | None) -> int:
    """Whitespace token count: len(re.findall(r'\\S+', text)).
    DuckDB oracle: len(regexp_extract_all(text, '\\S+'))."""
    if text is None:
        return 0
    return len(_TOKEN.findall(text))


def subtoken_count(text: str | None) -> int:
    """BPE-ish token count (letter runs, digit runs, single punct).
    DuckDB oracle: len(regexp_extract_all(text, '[A-Za-z]+|[0-9]+|[^\\sA-Za-z0-9]'))."""
    if text is None:
        return 0
    return len(_SUBTOKEN.findall(text))


# ---------------------------------------------------------------------------
# Language ID (n-gram / stopword heuristic — no external models)
# ---------------------------------------------------------------------------

# Small public stopword lists; the heuristic scores by stopword hits and
# script class. Deterministic; intended for the synthetic corpus, not SOTA.
_STOPWORDS = {
    "en": {"the", "and", "of", "to", "a", "in", "is", "that", "it", "for", "was", "with"},
    "es": {"el", "la", "de", "que", "y", "en", "un", "los", "se", "del", "las", "por"},
    "de": {"der", "die", "und", "das", "ist", "von", "den", "mit", "für", "auf", "ein", "nicht"},
    "fr": {"le", "la", "les", "de", "des", "et", "est", "un", "une", "du", "que", "pour"},
    "ru": {"и", "в", "не", "на", "что", "с", "это", "как", "по", "но", "из", "за"},
}
_WORD = re.compile(r"[^\W\d_]+", re.UNICODE)


def lang_id(text: str | None) -> str:
    """Heuristic language ID: CJK/kana script detection first, then
    best stopword-hit ratio, else 'other'. Deterministic tie-break by
    language code."""
    if not text:
        return "other"
    sample = text[:2000]
    han = kana = cyr = 0
    for ch in sample:
        o = ord(ch)
        if 0x4E00 <= o <= 0x9FFF:
            han += 1
        elif 0x3040 <= o <= 0x30FF:
            kana += 1
        elif 0x0400 <= o <= 0x04FF:
            cyr += 1
    n = len(sample)
    if kana > 0.05 * n:
        return "ja"
    if han > 0.25 * n:
        return "zh"
    words = [w.lower() for w in _WORD.findall(sample)]
    if not words:
        return "other"
    if cyr > 0.25 * n:
        hits = sum(1 for w in words if w in _STOPWORDS["ru"])
        return "ru" if hits else "other"
    best, best_ratio = "other", 0.0
    for code in sorted(_STOPWORDS):
        hits = sum(1 for w in words if w in _STOPWORDS[code])
        ratio = hits / len(words)
        if ratio > best_ratio:
            best, best_ratio = code, ratio
    return best if best_ratio >= 0.03 else "other"


# ---------------------------------------------------------------------------
# Quality scoring
# ---------------------------------------------------------------------------

_PUNCT = re.compile(r"[^\w\s]", re.UNICODE)


def quality_features(text: str | None) -> dict[str, float]:
    """Length / punctuation / stopword / digit ratios + mean word length.
    Used by the quality-gate stage; each feature SQL-replicable."""
    if not text:
        return {
            "n_chars": 0.0,
            "n_tokens": 0.0,
            "punct_ratio": 0.0,
            "digit_ratio": 0.0,
            "stopword_ratio": 0.0,
            "mean_token_len": 0.0,
        }
    toks = _TOKEN.findall(text)
    n = len(text)
    n_punct = len(_PUNCT.findall(text))
    n_digit = sum(ch.isdigit() for ch in text)
    words = [w.lower() for w in _WORD.findall(text)]
    en_stop = _STOPWORDS["en"]
    stop_hits = sum(1 for w in words if w in en_stop)
    return {
        "n_chars": float(n),
        "n_tokens": float(len(toks)),
        "punct_ratio": n_punct / n,
        "digit_ratio": n_digit / n,
        "stopword_ratio": stop_hits / len(words) if words else 0.0,
        "mean_token_len": sum(map(len, toks)) / len(toks) if toks else 0.0,
    }


def quality_score(text: str | None) -> float:
    """Scalar quality in [0,1]: penalize too-short docs, extreme
    punctuation/digit density, and zero stopwords (English-ish prior).
    Deterministic; thresholds documented in tests."""
    f = quality_features(text)
    if f["n_tokens"] < 5:
        return 0.0
    score = 1.0
    if f["punct_ratio"] > 0.2:
        score -= 0.3
    if f["digit_ratio"] > 0.3:
        score -= 0.3
    if f["stopword_ratio"] == 0.0:
        score -= 0.2
    if not (2.0 <= f["mean_token_len"] <= 12.0):
        score -= 0.2
    return max(0.0, score)


# ---------------------------------------------------------------------------
# Fingerprinting / hashing
# ---------------------------------------------------------------------------

_MOD = (1 << 61) - 1
_BASE = 257


def rolling_fingerprint(text: str | None) -> int:
    """Polynomial rolling hash over the NFC-normalized text bytes
    (mod 2^61-1, base 257). Stable across runs/processes — document
    fingerprint for incremental dedup."""
    if text is None:
        return 0
    data = unicodedata.normalize("NFC", text).encode("utf-8")
    h = 0
    for b in data:
        h = (h * _BASE + b) % _MOD
    return h


def md5_hex(text: str | None) -> str:
    """md5 hex digest of UTF-8 text; '' for None. Matches DuckDB's
    md5() for exact-dedup oracle parity."""
    if text is None:
        return ""
    return hashlib.md5(text.encode("utf-8")).hexdigest()


def winnow_select(h, w: int):
    """Winnowing fingerprint selection (Schleimer/Wilkerson/Aiken,
    SIGMOD'03): over the k-gram hash sequence ``h``, each window of
    ``w`` consecutive grams selects its minimum (RIGHTMOST on ties);
    returns the sorted distinct selected positions. Guarantee: two
    texts sharing a substring of ≥ w + k - 1 chars share at least one
    selected fingerprint. Sequences shorter than ``w`` select nothing
    (no complete window — mirrors the SQL twin's window filter).

    Vectorized: one sliding-window view + argmin over the REVERSED
    window (numpy argmin takes the first minimum, so the reversed
    first-min is the rightmost-min of the original)."""
    import numpy as _np

    h = _np.asarray(h)
    n = h.shape[0]
    if n < w:
        return _np.empty(0, dtype=_np.int64)
    sw = _np.lib.stride_tricks.sliding_window_view(h, w)
    pick = (w - 1) - sw[:, ::-1].argmin(1)
    pos = _np.arange(n - w + 1) + pick
    return _np.unique(pos).astype(_np.int64)


def winnow_fingerprints_fast(text: str | None, k: int = 5, w: int = 8):
    """Production-path winnowing (same selection kernel as the
    md5-oracle twin, different gram hash): BYTE k-grams packed into
    uint64 by base-256 positional weights — for k ≤ 8 one window, an
    exact injective encoding; for 8 < k ≤ 16 TWO overlapping 8-byte
    windows ([0:8) and [k-8:k), which jointly cover every gram byte,
    so the pair is still injective) mixed together — then
    splitmix64-mixed so window minima are uniform. Equal grams ⇔
    equal fingerprints in both regimes. Fully vectorized per doc.

    WHY k > 8 exists: fingerprint document-frequency must stay below
    any pair-mining df cap, and k-char gram recurrence falls steeply
    with k — at 10^6 web-scale docs, 8-char grams recur ~10²× (common
    words, digit runs) while 16-char grams recur only in genuinely
    repeated text (measured in tools/winnow_bench.py; the
    winnow-overlap miner defaults to k=16 for exactly this reason).
    Returns (positions int64, fingerprints uint64)."""
    import numpy as _np

    from ..state.sketches import _splitmix64

    if k > 16:
        raise ValueError("winnow_fingerprints_fast supports k <= 16")
    if text is None:
        return _np.empty(0, _np.int64), _np.empty(0, _np.uint64)
    data = _np.frombuffer(text.encode("utf-8"), dtype=_np.uint8)
    n = data.shape[0] - k + 1
    if n < w:
        return _np.empty(0, _np.int64), _np.empty(0, _np.uint64)
    if k <= 8:
        win = _np.lib.stride_tricks.sliding_window_view(data, k)
        weights = (256 ** _np.arange(k - 1, -1, -1, dtype=_np.uint64))
        h = _splitmix64(win.astype(_np.uint64) @ weights)
    else:
        w8 = _np.lib.stride_tricks.sliding_window_view(data, 8)
        weights = (256 ** _np.arange(7, -1, -1, dtype=_np.uint64))
        packed = w8.astype(_np.uint64) @ weights  # pack at every pos
        with _np.errstate(over="ignore"):
            h = _splitmix64(packed[:n]) ^ _splitmix64(
                packed[k - 8 : k - 8 + n]
                + _np.uint64(0x9E3779B97F4A7C15)
            )
    sel = winnow_select(h, w)
    return sel, h[sel]

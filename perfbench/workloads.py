"""The benchmark's workloads: seeded input generators, references
recomputed in one process, the job each run repeats, and the
correctness gate that checks every job's output against the reference.

Generators and references run without Ray; only ``Workload.job``
needs a Ray session. References are exact recomputations from the
generated files (or, for LOF, a single-process replay of the same
kernel), so a gate never trusts the code it checks for its expected
values."""

from __future__ import annotations

import glob
import json
import math
import os
import shutil
import warnings
from dataclasses import dataclass
from typing import Callable

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq
from numpy.lib.stride_tricks import sliding_window_view

# --- sizes (the input size of each workload; see BENCHMARK.json) -----------

WEB_ROWS = 20_000
WEB_SHARDS = 8
WEB_MEAN_TOKENS = 120

LOF_USERS = 150
LOF_EVENTS_PER_USER = (45, 99)
LOF_SHARDS = 4
LOF_K = 3
LOF_MAX_ITEMS = 128

# warm-up inputs: the untimed first job of a session runs on these, so it
# starts Ray's workers and fills caches at a fraction of a timed job's cost
WARM_WEB_ROWS = 4_000
WARM_LOF_USERS = 40

CORPUS_DOCS = 10_000
CORPUS_SHARDS = 8
# run_export's MinHash chain takes its single-task path below this many
# rows; it is lowered so the distributed chain (bands, exchange, verify
# joins, connected components) runs at a size one core finishes in seconds
NEARDUP_SMALL_CORPUS_ROWS = 2_000
# tools/export_bench.py requires near-dup drops >= 95% of the planted
# near-dups, a bar set on 5M-doc corpora where the drop ratio's sampling
# error is ~1e-4. Here ~500 are planted, so the ratio of a program whose
# recall is exactly 95% scatters by ~1% (seeds 1-8 measured 0.946-0.984,
# mean 0.970): the gate rejects a ratio that recall >= 95% yields with
# probability < 1e-3 (one-sided normal bound on the binomial count).
NEARDUP_MIN_RECALL = 0.95
NEARDUP_Z = 3.09

SHORT_TEXT = "too short to pass quality"


class GateError(AssertionError):
    """A job's output differs from its reference."""


def _require(ok: bool, msg: str) -> None:
    if not ok:
        raise GateError(msg)


# --- validate_lang -----------------------------------------------------------


def gen_web(out_dir: str, seed: int, n_rows: int = WEB_ROWS,
            n_shards: int = WEB_SHARDS) -> None:
    from sod_ray.sources.webpages import write_webpages

    write_webpages(out_dir, n_rows=n_rows, n_shards=n_shards, seed=seed,
                   with_refs=True, mean_tokens=WEB_MEAN_TOKENS)


def _zscore_flags(x: np.ndarray, window: int, min_periods: int,
                  threshold: float) -> np.ndarray:
    """Trailing-window z-score flags computed window by window (sample
    std, window includes the current row) — the documented semantics of
    ``ValidateConfig.zscore_*``, written independently of the engine."""
    w = sliding_window_view(np.concatenate([np.full(window - 1, np.nan), x]), window)
    n = np.sum(~np.isnan(w), axis=1)
    with warnings.catch_warnings(), np.errstate(divide="ignore", invalid="ignore"):
        warnings.simplefilter("ignore", RuntimeWarning)  # windows of one row
        sd = np.nanstd(w, axis=1, ddof=1)
        z = np.abs(x - np.nanmean(w, axis=1)) / sd
    return (n >= min_periods) & (sd > 0) & (z > threshold)


def ref_web(in_dir: str) -> dict:
    """Per-lang exact counts recomputed from the generated files."""
    from sod_ray.pipelines.validate import ValidateConfig
    from sod_ray.sources.webpages import HTML_PREFIX, HTML_SUFFIX

    cfg = ValidateConfig()
    t = pq.read_table(os.path.join(in_dir, "webpages"))
    truth = json.load(open(os.path.join(in_dir, "truth.json")))
    html = t["html"].to_pylist()
    text = t["text"].to_pylist()
    url = t["url"].to_pylist()
    lang = t["lang"].to_pylist()
    ts = t["warc_ts"].cast(pa.int64()).to_numpy()
    n_chars = np.array([len(s) for s in text], dtype=np.float64)
    parts: dict[str, dict] = {}
    for i, k in enumerate(lang):
        p = parts.setdefault(k, {"rows": 0, "html_nulls": 0, "mismatches": 0,
                                 "_urls": set(), "_idx": []})
        p["rows"] += 1
        p["html_nulls"] += html[i] is None
        p["mismatches"] += (
            html[i] is None
            or html[i] != HTML_PREFIX + text[i].encode() + HTML_SUFFIX
        )
        p["_urls"].add(url[i])
        p["_idx"].append(i)
    for p in parts.values():
        idx = np.array(p.pop("_idx"))
        p["dups"] = p["rows"] - len(p.pop("_urls"))
        order = idx[np.lexsort((np.array(url, dtype=object)[idx].astype(str),
                                ts[idx]))]
        flags = _zscore_flags(n_chars[order], cfg.zscore_window,
                              cfg.zscore_min_periods, cfg.zscore_threshold)
        p["peak_urls"] = sorted(url[j] for j in order[flags])
    return {
        "rows": t.num_rows,
        "partitions": parts,
        "n_dangling": len(truth["refs"]["dangling"]),
        "max_dup_rate": cfg.max_dup_rate,
    }


def read_validate_out(res, out_dir: str) -> dict:
    """The checkable facts of one ``run_validation`` result, in plain
    Python: what the gate compares with the reference."""
    stats = res.stats.to_pandas()
    first = stats[stats["column"] == stats["column"].iloc[0]]
    out = {"partitions": {}, "n_dangling": int(res.referential["n_dangling"])}
    for v in res.verdicts.to_pylist():
        k = v["partition"]
        row = first[first["part_key"] == k]
        kinds: dict[str, int] = {}
        peaks: list[str] = []
        for f in glob.glob(os.path.join(out_dir, "violations", f"lang={k}",
                                        "*.parquet")):
            t = pq.read_table(f, columns=["url", "violation"])
            for kind, n in zip(*np.unique(t["violation"].to_numpy(
                    zero_copy_only=False), return_counts=True)):
                kinds[str(kind)] = kinds.get(str(kind), 0) + int(n)
            peaks += t.filter(pc.equal(t["violation"], "peak"))["url"].to_pylist()
        out["partitions"][k] = {
            "rows": int(v["rows"]),
            "html_nulls": int(row["html_nulls"].iloc[0]) if len(row) else -1,
            "mismatches": kinds.get("extract_mismatch", 0),
            "uniqueness": v["c_uniqueness"],
            "peak_urls": sorted(peaks),
        }
    return out


def gate_web(got: dict, ref: dict) -> None:
    want = ref["partitions"]
    _require(sorted(got["partitions"]) == sorted(want),
             f"partitions {sorted(got['partitions'])} != {sorted(want)}")
    for k, w in want.items():
        g = got["partitions"][k]
        for field in ("rows", "html_nulls", "mismatches"):
            _require(g[field] == w[field],
                     f"{k}: {field} {g[field]} != {w[field]}")
        exp = "pass" if w["dups"] <= ref["max_dup_rate"] * w["rows"] else "fail"
        _require(g["uniqueness"] == exp,
                 f"{k}: uniqueness {g['uniqueness']} != {exp} ({w['dups']} dups)")
        _require(g["peak_urls"] == w["peak_urls"],
                 f"{k}: {len(g['peak_urls'])} peak rows flagged, "
                 f"recomputation flags {len(w['peak_urls'])}")
    _require(got["n_dangling"] == ref["n_dangling"],
             f"n_dangling {got['n_dangling']} != {ref['n_dangling']}")


def job_web(in_dir: str, out_dir: str) -> dict:
    from sod_ray.pipelines.validate import ValidateConfig, run_validation

    cfg = ValidateConfig(refs_path=os.path.join(in_dir, "webpage_refs"))
    res = run_validation(os.path.join(in_dir, "webpages"), out_dir, cfg,
                         resume=False)
    sketch_bytes = int(pc.sum(res.stats["sketch_bytes"]).as_py() or 0)
    return read_validate_out(res, out_dir) | {"sketch_bytes": sketch_bytes}


# --- lof_collect ---------------------------------------------------------------


def gen_events(out_dir: str, seed: int, n_users: int = LOF_USERS) -> None:
    """Per-user event streams shaped like the sf0.1 ``events`` table:
    45-99 events per user, interleaved in time, right-skewed ``value``
    (exponential, cents precision, so ties occur as in the real table)."""
    rng = np.random.default_rng([seed, 2])
    lo, hi = LOF_EVENTS_PER_USER
    counts = rng.integers(lo, hi + 1, n_users)
    users = rng.permutation(np.repeat(np.arange(n_users, dtype=np.int64), counts))
    n = len(users)
    ts = 1_704_067_200_000_000 + np.cumsum(rng.integers(1, 60_000_000, n))
    value = np.round(rng.exponential(50.0, n), 2)
    t = pa.table({
        "event_id": pa.array(np.arange(n, dtype=np.int64)),
        "ts": pa.array(ts, pa.timestamp("us")),
        "user_id": pa.array(users),
        "value": pa.array(value),
    })
    os.makedirs(out_dir, exist_ok=True)
    for s, part in enumerate(np.array_split(np.arange(n), LOF_SHARDS)):
        pq.write_table(t.take(pa.array(part)),
                       os.path.join(out_dir, f"part-{s}.parquet"))


def ref_events(in_dir: str) -> dict:
    """Single-process replay: ``functions.lof.score_stream`` per user,
    rows in (ts, event_id) order."""
    from sod_ray.functions.lof import score_stream

    df = pq.read_table(in_dir).to_pandas()
    flagged: list[int] = []
    for _, g in df.groupby("user_id"):
        g = g.sort_values(["ts", "event_id"], kind="stable")
        vecs = list(g[["value"]].to_numpy(dtype=np.float64))
        ts = g["ts"].astype("int64").to_numpy()
        verdicts = score_stream(vecs, ts, k=LOF_K, max_items=LOF_MAX_ITEMS)
        flagged += [int(e) for e, v in zip(g["event_id"], verdicts) if v.outlier]
    return {"flagged": sorted(flagged), "rows": len(df)}


def gate_events(got: dict, ref: dict) -> None:
    g, w = got["flagged"], ref["flagged"]
    _require(len(g) == len(set(g)), "duplicate flagged event_id")
    extra, missing = set(g) - set(w), set(w) - set(g)
    _require(not extra and not missing,
             f"flagged set differs: {len(extra)} extra, {len(missing)} missing")


def job_events(in_dir: str, out_dir: str) -> dict:
    import ray.data as rd
    from sod_ray.stages.window import windowed_lof

    ds = rd.read_parquet(in_dir, columns=["event_id", "user_id", "ts", "value"])
    out = windowed_lof(ds, key="user_id", ts_col="ts", feature_cols=["value"],
                       id_cols=["event_id"], k=LOF_K, max_items=LOF_MAX_ITEMS,
                       flagged_only=True)
    out.select_columns(["event_id", "user_id", "ts", "value", "lof"]) \
        .write_parquet(out_dir)
    ids = pq.read_table(out_dir, columns=["event_id"])["event_id"]
    return {"flagged": sorted(ids.to_pylist())}


# --- export_neardup -------------------------------------------------------------

_VOCAB = np.array(
    [f"word{i:04d}" for i in range(4000)]
    + ["the", "of", "and", "to", "in", "is", "was", "for", "with", "on"]
)


def gen_corpus(out_dir: str, seed: int, n_docs: int = CORPUS_DOCS,
               n_shards: int = CORPUS_SHARDS) -> None:
    """The planted mix of ``tools/kill_resume_export.gen_corpus``: ~70%
    good unique docs, 10% too short (quality fail), 10% exact dups of
    good docs, 5% near-dups (3 tokens swapped), 5% with PII."""
    rng = np.random.default_rng([seed, 3])
    os.makedirs(out_dir, exist_ok=True)
    per = n_docs // n_shards
    for s in range(n_shards):
        ids = np.arange(s * per, (s + 1) * per, dtype=np.int64)
        texts: list[str] = []
        base: list[str] = []
        for i in ids:
            r = rng.random()
            words = _VOCAB[rng.integers(0, len(_VOCAB), int(rng.integers(60, 120)))]
            body = " ".join(words.tolist()) + f" marker{i}"
            if r < 0.10:
                texts.append(SHORT_TEXT)
            elif r < 0.20 and base:
                texts.append(base[int(rng.integers(0, len(base)))])
            elif r < 0.25 and base:
                toks = base[int(rng.integers(0, len(base)))].split()
                for j in rng.integers(0, len(toks), 3):
                    toks[int(j)] = "swapped"
                texts.append(" ".join(toks))
            elif r < 0.30:
                texts.append(body + f" mail u{i}@example.org or +1415555{i % 10000:04d}")
            else:
                texts.append(body)
                if len(base) < 50:
                    base.append(body)
        pq.write_table(pa.table({
            "doc_id": pa.array(ids),
            "text": pa.array(texts, pa.string()),
            "lang": pa.array(np.array(["en", "de", "fr", "es"])[ids % 4], pa.string()),
        }), os.path.join(out_dir, f"shard-{s:03d}.parquet"))


def ref_corpus(in_dir: str) -> dict:
    """The truth counts of ``tools/export_bench.py``, recomputed here."""
    texts = pq.read_table(in_dir, columns=["text"])["text"].to_pylist()
    kept = [t for t in texts if t != SHORT_TEXT]
    return {
        "rows": len(texts),
        "quality": len(texts) - len(kept),
        "exact": len(kept) - len(set(kept)),
        "neardup_planted": sum("swapped" in t for t in texts),
    }


def gate_corpus(got: dict, ref: dict) -> None:
    st = got["stages"]
    q, e, n = (st[k]["dropped"] for k in ("quality", "exact", "neardup"))
    _require(got["rows_in"] == ref["rows"], f"rows_in {got['rows_in']} != {ref['rows']}")
    _require(q == ref["quality"], f"quality drops {q} != {ref['quality']}")
    _require(e == ref["exact"], f"exact-dup drops {e} != {ref['exact']}")
    planted = max(1, ref["neardup_planted"])
    p = NEARDUP_MIN_RECALL
    floor = p - NEARDUP_Z * math.sqrt(p * (1 - p) / planted)
    _require(n / planted >= floor,
             f"near-dup drops {n} are {n / planted:.3f} of {planted} planted, "
             f"below {floor:.3f} (recall {p} at {planted} trials)")
    _require(got["rows_out"] == ref["rows"] - q - e - n,
             f"rows_out {got['rows_out']} != {ref['rows']} - {q} - {e} - {n}")
    ids = got["out_ids"]
    _require(len(ids) == got["rows_out"],
             f"corpus holds {len(ids)} rows, report says {got['rows_out']}")
    _require(len(set(ids)) == len(ids), "duplicate doc_id in the corpus")
    _require(got["out_short"] == 0, f"{got['out_short']} too-short docs kept")


def job_corpus(in_dir: str, out_dir: str) -> dict:
    import pyarrow.dataset as pads
    from sod_ray.pipelines.export import CurateConfig, run_export

    cfg = CurateConfig(neardup=True, partition_col="lang", lsh_kwargs={
        "seed": 1337, "small_corpus_rows": NEARDUP_SMALL_CORPUS_ROWS})
    res = run_export(in_dir, out_dir, cfg, resume=False)
    corpus = pads.dataset(res.corpus_dir, format="parquet",
                          partitioning="hive").to_table(columns=["doc_id", "text"])
    return {
        "rows_in": res.report["rows_in"],
        "rows_out": res.report["rows_out"],
        "stages": res.report["stages"],
        "out_ids": corpus["doc_id"].to_pylist(),
        "out_short": int(pc.sum(pc.equal(corpus["text"], SHORT_TEXT)).as_py() or 0),
    }


def warm_batch(batch, modules: tuple = ()):
    """Worker warm-up: import the job's modules in a Ray worker."""
    import importlib

    for m in modules:
        importlib.import_module(m)
    return batch


# --- registry ---------------------------------------------------------------------


@dataclass(frozen=True)
class Workload:
    name: str
    gen: Callable[[str, int], None]
    ref: Callable[[str], dict]
    job: Callable[[str, str], dict]
    gate: Callable[[dict, dict], None]
    modules: tuple  # sod_ray modules the job imports (worker warm-up)
    # generator of the small input the untimed warm-up job runs on (same
    # shards, fewer rows); None warms up on the full input
    gen_warm: Callable[[str, int], None] | None = None


WORKLOADS = {
    w.name: w
    for w in (
        Workload("validate_lang", gen_web, ref_web, job_web, gate_web,
                 ("sod_ray.pipelines.validate", "sod_ray.functions.text",
                  "sod_ray.state.sketches", "sod_ray.stages.window"),
                 lambda d, s: gen_web(d, s, n_rows=WARM_WEB_ROWS)),
        Workload("lof_collect", gen_events, ref_events, job_events, gate_events,
                 ("sod_ray.stages.window", "sod_ray.functions.lof"),
                 lambda d, s: gen_events(d, s, n_users=WARM_LOF_USERS)),
        # run_export's chain costs about as much at 2.4k docs as at 10k
        # (1 CPU: 4.5 s each), so a smaller warm-up input saves nothing
        Workload("export_neardup", gen_corpus, ref_corpus, job_corpus,
                 gate_corpus,
                 ("sod_ray.pipelines.export", "sod_ray.stages.dedup",
                  "sod_ray.stages.textstage", "sod_ray.stages.cc")),
    )
}

INPUT_VERSION = "v4"


def _cached(d: str, gen: Callable[[str], None], ref: Callable[[str], dict]) -> dict:
    """``d/in`` made by ``gen`` and ``d/ref.json`` by ``ref``, once."""
    ref_path = os.path.join(d, "ref.json")
    if not os.path.exists(ref_path):
        shutil.rmtree(d, ignore_errors=True)
        tmp = d + f".tmp{os.getpid()}"
        shutil.rmtree(tmp, ignore_errors=True)
        gen(os.path.join(tmp, "in"))
        with open(os.path.join(tmp, "ref.json"), "w") as f:
            json.dump(ref(os.path.join(tmp, "in")), f)
        os.replace(tmp, d)
    with open(ref_path) as f:
        return json.load(f)


def prepare(name: str, seed: int, cache: str) -> tuple[str, dict, str, dict]:
    """Inputs and references of (workload, seed), generated once and
    cached side by side: ``<cache>/<name>-<seed>-<version>/{in,ref.json}``
    for the timed jobs and ``.../warm/{in,ref.json}`` for the warm-up job.
    Returns ``(in_dir, ref, warm_in_dir, warm_ref)``."""
    w = WORKLOADS[name]
    d = os.path.join(cache, f"{name}-{seed}-{INPUT_VERSION}")
    ref = _cached(d, lambda p: w.gen(p, seed), w.ref)
    if w.gen_warm is None:
        return os.path.join(d, "in"), ref, os.path.join(d, "in"), ref
    warm_ref = _cached(os.path.join(d, "warm"), lambda p: w.gen_warm(p, seed), w.ref)
    return os.path.join(d, "in"), ref, os.path.join(d, "warm", "in"), warm_ref

"""The flagship pipeline: a per-partition data-quality pass over a
Common-Crawl-style web table (BASELINE.json north_star, SURVEY.md §3.1
translated to Ray Data).

    read_parquet (resume-filtered, row-group pruned)
      → ONE fused Arrow/RE2 pass: html→text extraction + byte-identity
        check + null flags + text features; html DROPPED on output
        (wide payloads never reach a shuffle or the object store twice)
      → slim feature table landed ONCE (object-store materialize, or
        parquet via intermediate_dir — the 100 TB path); every
        downstream constraint consumes it without recomputing the scan
      → CONCURRENTLY, as raw tasks over the landed blocks:
        · combined sketch partials (one row set per landed block) →
          two-level salted merge on ``exchange_reduce`` (stats, nulls,
          uniqueness — only sketch rows cross the exchange)
        · exact uniqueness hash count on ``exchange_reduce`` for every
          partition (the HLL's 3σ band is wider than a dup threshold
          of 0.5%, so its estimate alone cannot decide a verdict)
        · extraction-mismatch rows → per-key parquet files written by
          the tasks; the per-partition mismatch counts are rows −
          extract_matches of the merge's counters, so nothing re-reads
          the rows
        · windowed z-score peaks: raw-task range sort
          (``exchange.range_sort``) + per-range scoring with
          (window-1)-row overlap context — exact, parallel even within
          one hot entity key; flagged rows written by the scoring
          tasks themselves
        · run-level referential FK containment (refs_path): parent
          urls from raw per-block unique tasks over the slim table, a
          broadcast anti-join, the violation set written from the
          driver when it fits the broadcast budget
      → optional drift check vs baseline sketches (actor pool)
      → per-partition verdicts + manifest commit (atomic rename),
        in waves (partitions_per_wave) for checkpoint granularity

A default run with the refs check is two Ray Data executions: the
fused scan (read → fused map → materialize) and the refs read with its
broadcast anti-join probe. Every other step maps landed blocks with
raw tasks (the ``stages/blocks.py`` rule).

At 100 TB the materialize step becomes a write of the slim feature
table to intermediate parquet (same shape, spillable); everything else
is unchanged — the shuffles only ever carry sketch rows, flag counts
and violation rows.

Resume: committed partitions are filtered OUT of the parquet read via a
pushed-down filter expression (their row groups never leave storage);
see sod_ray.state.manifest.
"""

from __future__ import annotations

import os
import shutil
from dataclasses import dataclass, field

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.dataset as pads
import ray

try:
    # ray.data's read path lazily imports this inside
    # _is_http_filesystem on EVERY read_parquet call; in this
    # container the import always fails (no aiohttp), Python does not
    # cache failed imports, and two reader threads racing the failing
    # import can observe a half-initialized module — surfacing as a
    # plain ImportError that ray's ModuleNotFoundError guard does not
    # catch (observed killing the concurrent referential thread).
    import fsspec.implementations.http  # noqa: F401
except Exception:  # pragma: no cover - aiohttp absent in container
    # register a stub with a never-matching HTTPFileSystem class: the
    # import becomes deterministic and isinstance() stays False, which
    # is semantically identical (no aiohttp → no HTTP filesystems)
    import sys as _sys
    import types as _types

    try:
        import fsspec  # noqa: F401

        _m = _types.ModuleType("fsspec.implementations.http")

        class _NoHTTPFileSystem:  # pragma: no cover - sentinel only
            pass

        _m.HTTPFileSystem = _NoHTTPFileSystem
        _sys.modules["fsspec.implementations.http"] = _m
    except Exception:
        pass

from ..state.manifest import Manifest, PartitionRecord, _is_flag
from ..stages.exchange import broadcast_rows_budget
from ..stages.constraints import schema_check
from ..stages.stats import _group_indices, column_stats
from ..stages.blocks import (
    arrow_block_refs,
    block_groups,
    dataset_from_refs,
    read_parquet,
)

WEBPAGE_SCHEMA = {
    "url": pa.string(),
    "warc_ts": pa.timestamp("us"),
    "html": pa.binary(),
    "text": pa.string(),
    "lang": pa.string(),
}


def host_of(urls) -> pa.Array:
    """Vectorized host(url) — Arrow RE2 extract, null-safe (non-URL
    and null rows yield null). The derived entity key of the host
    partitioning profile (SURVEY.md §1.1 Entity: "lang (or
    host(url))")."""
    if isinstance(urls, pa.ChunkedArray):
        urls = urls.combine_chunks()
    m = pc.extract_regex(urls, r"^[A-Za-z][A-Za-z0-9+.-]*://(?P<host>[^/]+)")
    return pc.struct_field(m, "host")


def derive_part_key(batch: pa.Table, part_key: str, expr: str) -> pa.Table:
    """Append the derived partition-key column. Only ``expr="host"``
    is wired; new derivations slot in here."""
    if expr != "host":
        raise ValueError(f"unknown part_key_expr: {expr!r}")
    if part_key in batch.column_names:
        return batch
    return batch.append_column(part_key, host_of(batch["url"]))


class FusedFeatures:
    """One pass per batch: extraction invariant + null flags + text
    features — ALL in pyarrow compute kernels (C++/RE2), zero Python
    objects per row. This matters beyond elegance: per-row Python
    (to_pylist + re) is allocator/memory-bound and stops scaling past
    ~10 cores on commodity VMs, while the Arrow kernels scale linearly.
    Output is the slim feature table — html and text are dropped here.
    ``extra_cols`` (e.g. a derived host partition key) pass through.

    The map takes no ``batch_size``, so Ray Data can fuse it into its
    Parquet read (``blocks.read_parquet``) and hand it whole read
    blocks: the kernels run on slices of at most ``batch_size`` rows
    (the ``ValidateConfig.batch_size`` of the run), which bounds the
    memory of one kernel call as a batched map would."""

    def __init__(
        self, batch_size: int, extra_cols: tuple = (), quality: bool = False
    ):
        self.extra_cols = tuple(extra_cols)
        self.quality = quality
        self.batch_size = batch_size

    def __call__(self, batch: pa.Table) -> pa.Table:
        n = self.batch_size
        if batch.num_rows <= n:
            return self._features(batch)
        return pa.concat_tables(
            [self._features(batch.slice(i, n)) for i in range(0, batch.num_rows, n)]
        )

    def _features(self, batch: pa.Table) -> pa.Table:
        from ..functions.text import extract_text_arrow
        from ..stages.textstage import count_nonspace_runs

        extracted = extract_text_arrow(batch["html"])
        text = batch["text"].combine_chunks() if isinstance(
            batch["text"], pa.ChunkedArray
        ) else batch["text"]
        match = pc.fill_null(pc.equal(extracted, text), False)
        html_null = pc.is_null(batch["html"])
        text_null = pc.is_null(text)
        n_chars = pc.fill_null(pc.utf8_length(text), 0)
        n_tokens = pc.fill_null(count_nonspace_runs(text), 0)
        out = {
            "url": batch["url"],
            "warc_ts": batch["warc_ts"],
            "lang": batch["lang"],
            "n_chars": pc.cast(n_chars, pa.int64()),
            "n_tokens": pc.cast(n_tokens, pa.int64()),
            "extract_match": match,
            "html_null": html_null,
            "text_null": text_null,
        }
        if self.quality:
            # Gopher-style pass flag while the text is still in hand
            # (it is dropped below — a post-hoc quality consumer would
            # need a second corpus scan). Zero-word/null docs fail.
            from ..stages.textstage import gopher_stats_batch

            q = gopher_stats_batch(
                pa.table(
                    {
                        "doc_id": pa.array(
                            np.arange(len(batch), dtype=np.int64)
                        ),
                        "text": text,
                    }
                )
            )
            out["quality_fail"] = pc.invert(q["quality_pass"])
        for c in self.extra_cols:
            if c not in out and c in batch.column_names:
                out[c] = batch[c]
        return pa.table(out)


@ray.remote
def _partials_group(partials, *blocks: pa.Table) -> pa.Table:
    """``partials`` on each block of a group on its own, the row sets
    concatenated in block order."""
    outs = [partials(b) for b in blocks if b.num_rows]
    if not outs:
        return partials(pa.table({}))
    return pa.concat_tables(outs, promote_options="default")


def _combined_partials_merge(featured, cfg: "ValidateConfig"):
    """One partial+merge pass computing, per partition key: Welford +
    t-digest sketches for every stat column, the url-uniqueness HLL,
    and the null/match counters. One partial row set per block of a
    landed ``featured`` (raw tasks over ``blocks.block_groups``; per
    read block of a parquet-landed one), then raw-task ``exchange_reduce``
    levels keyed on ``hash64(part_key)`` — the exchange carries a
    handful of sketch rows per (key, block) and no Ray Data execution
    runs. Rows come out per key in ``stat_columns`` order; the order
    of the keys follows the buckets."""
    from ..state.sketches import (
        HyperLogLog,
        Welford,
        hash64,
        new_quantile_sketch,
        quantile_sketch_from_bytes,
    )
    from ..stages.exchange import exchange_reduce

    stat_cols = list(cfg.stat_columns)
    key = cfg.part_key
    qs_kind = getattr(cfg, "quantile_sketch", "tdigest")

    def partials(batch: pa.Table) -> pa.Table:
        has_q = "quality_fail" in batch.column_names
        rows = {
            "part_key": [],
            "rows": [],
            "html_nulls": [],
            "text_nulls": [],
            "extract_matches": [],
            "url_hll": [],
        }
        if has_q:
            rows["quality_fails"] = []
        for c in stat_cols:
            rows[f"wf_{c}"] = []
            rows[f"td_{c}"] = []
        # a zero-column empty block has no key and yields no rows
        groups = _group_indices(batch, key) if key in batch.column_names else ()
        for key_val, idx in groups:
            sub = batch if idx is None else batch.take(pa.array(idx))
            rows["part_key"].append(key_val)
            rows["rows"].append(len(sub))
            rows["html_nulls"].append(
                int(pc.sum(sub["html_null"]).as_py() or 0)
            )
            rows["text_nulls"].append(int(pc.sum(sub["text_null"]).as_py() or 0))
            rows["extract_matches"].append(
                int(pc.sum(sub["extract_match"]).as_py() or 0)
            )
            if has_q:
                rows["quality_fails"].append(
                    int(pc.sum(sub["quality_fail"]).as_py() or 0)
                )
            hll = HyperLogLog()
            urls = sub["url"]
            if cfg.normalize_urls:
                from ..stages.textstage import normalize_url_array

                urls = normalize_url_array(urls)
            hll.update_hashes(hash64(urls))
            rows["url_hll"].append(hll.to_bytes())
            for c in stat_cols:
                rows[f"wf_{c}"].append(Welford().update_array(sub[c]).to_bytes())
                rows[f"td_{c}"].append(
                    new_quantile_sketch(qs_kind).update_array(sub[c]).to_bytes()
                )
        t = {
            "part_key": pa.array(rows["part_key"], pa.string()),
            "rows": pa.array(rows["rows"], pa.int64()),
            "html_nulls": pa.array(rows["html_nulls"], pa.int64()),
            "text_nulls": pa.array(rows["text_nulls"], pa.int64()),
            "extract_matches": pa.array(rows["extract_matches"], pa.int64()),
            "url_hll": pa.array(rows["url_hll"], pa.binary()),
        }
        if has_q:
            t["quality_fails"] = pa.array(rows["quality_fails"], pa.int64())
        for c in stat_cols:
            t[f"wf_{c}"] = pa.array(rows[f"wf_{c}"], pa.binary())
            t[f"td_{c}"] = pa.array(rows[f"td_{c}"], pa.binary())
        h = hash64(t["part_key"])
        if cfg.merge_salt > 1:
            # the salt is a deterministic hash of each partial's url-HLL
            # bytes (unique per batch), so re-execution lands in the
            # same bucket
            salt = hash64(t["url_hll"]) % np.uint64(cfg.merge_salt)
            t["salt"] = pa.array(salt.astype(np.int64))
            h = h ^ salt
        t["__k"] = pa.array(h.view(np.int64))
        return pa.table(t)

    def combine(group: pa.Table) -> pa.Table:
        """Level-1 (salted) merge: fold a group's partial rows into ONE
        partial row of the same shape — associative, so it can run
        per salt bucket before the final merge. Welford and quantile
        partials fold in the order of their serialized bytes (as in
        ``stats.merge_sketch_group``), not the order the shuffle
        delivers them, so ``combine`` and ``merge`` give the same row
        for any block layout or task timing."""
        hll = HyperLogLog()
        for b in group["url_hll"].to_pylist():
            hll.merge(HyperLogLog.from_bytes(b))
        t = {
            "part_key": pa.array([group["part_key"][0].as_py()], pa.string()),
            "rows": pa.array([int(pc.sum(group["rows"]).as_py())], pa.int64()),
            "html_nulls": pa.array(
                [int(pc.sum(group["html_nulls"]).as_py())], pa.int64()
            ),
            "text_nulls": pa.array(
                [int(pc.sum(group["text_nulls"]).as_py())], pa.int64()
            ),
            "extract_matches": pa.array(
                [int(pc.sum(group["extract_matches"]).as_py())], pa.int64()
            ),
            "url_hll": pa.array([hll.to_bytes()], pa.binary()),
        }
        if "quality_fails" in group.column_names:
            t["quality_fails"] = pa.array(
                [int(pc.sum(group["quality_fails"]).as_py())], pa.int64()
            )
        for c in stat_cols:
            wf = Welford()
            td = new_quantile_sketch(qs_kind)
            for b in sorted(group[f"wf_{c}"].to_pylist()):
                wf.merge(Welford.from_bytes(b))
            for b in sorted(group[f"td_{c}"].to_pylist()):
                td.merge(quantile_sketch_from_bytes(b))
            t[f"wf_{c}"] = pa.array([wf.to_bytes()], pa.binary())
            t[f"td_{c}"] = pa.array([td.to_bytes()], pa.binary())
        return pa.table(t)

    def merge(group: pa.Table) -> pa.Table:
        key_val = group["part_key"][0].as_py()
        n_rows = int(pc.sum(group["rows"]).as_py())
        hll = HyperLogLog()
        sketch_bytes = 0
        for b in group["url_hll"].to_pylist():
            hll.merge(HyperLogLog.from_bytes(b))
            sketch_bytes += len(b)
        distinct = hll.cardinality()
        out = []
        n_quality_fails = (
            int(pc.sum(group["quality_fails"]).as_py())
            if "quality_fails" in group.column_names
            else None
        )
        for c in stat_cols:
            wf = Welford()
            td = new_quantile_sketch(qs_kind)
            for b in sorted(group[f"wf_{c}"].to_pylist()):
                wf.merge(Welford.from_bytes(b))
                sketch_bytes += len(b)
            for b in sorted(group[f"td_{c}"].to_pylist()):
                td.merge(quantile_sketch_from_bytes(b))
                sketch_bytes += len(b)
            r = wf.result()
            out.append(
                {
                    "part_key": key_val,
                    "column": c,
                    "count": r["count"],
                    "total": r["total"],
                    "mean": r["mean"],
                    "std": r["std"],
                    "min": r["min"],
                    "max": r["max"],
                    "p50": td.quantile(0.5),
                    "p90": td.quantile(0.9),
                    "p99": td.quantile(0.99),
                    "rows": n_rows,
                    "html_nulls": int(pc.sum(group["html_nulls"]).as_py()),
                    "text_nulls": int(pc.sum(group["text_nulls"]).as_py()),
                    "extract_matches": int(pc.sum(group["extract_matches"]).as_py()),
                    **(
                        {"quality_fails": n_quality_fails}
                        if n_quality_fails is not None
                        else {}
                    ),
                    "distinct_est": distinct,
                    "dup_est": max(0.0, n_rows - distinct),
                    "sketch_bytes": sketch_bytes,
                    # merged sketches ride along (KB per key×column):
                    # drift scoring + the persisted baseline use them
                    "welford": wf.to_bytes(),
                    "tdigest": td.to_bytes(),
                }
            )
        return pa.Table.from_pylist(out)

    def combine_salted(t: pa.Table) -> pa.Table:
        """Level-1 reduce of one bucket: ``combine`` per (key, salt)
        group, keyed for level 2 on ``hash64(part_key)``."""
        out = []
        for _, idx in _group_indices(t, "part_key"):
            salts = t["salt"].to_numpy()[idx]
            for s in np.unique(salts):
                out.append(combine(t.take(pa.array(idx[salts == s]))))
        if not out:
            return pa.table({})
        out = pa.concat_tables(out)
        return out.append_column(
            "__k", pa.array(hash64(out["part_key"]).view(np.int64))
        )

    def merge_keys(t: pa.Table) -> pa.Table:
        """Level-2 (final) reduce of one bucket: ``merge`` per key, keys
        in sorted order."""
        groups = sorted(_group_indices(t, "part_key"), key=lambda g: g[0])
        if not groups:
            return pa.table({})
        return pa.concat_tables(
            [merge(t.take(pa.array(idx))) for _, idx in groups]
        )

    from ray.data.dataset import MaterializedDataset

    if isinstance(featured, MaterializedDataset):
        # one partial row set per landed block, never per concatenated
        # group: the Welford fold must not depend on the task grouping
        partial_rows = dataset_from_refs(
            [_partials_group.remote(partials, *g) for g in block_groups(featured)]
            or [ray.put(partials(pa.table({})))]
        )
    else:  # parquet-landed slim table: stream it (no batch_size, so it
        # can fuse into its read)
        partial_rows = featured.map_batches(partials, batch_format="pyarrow")
    if cfg.merge_salt > 1:
        # two-level salted merge (SURVEY.md §7.5.6): the hot key's
        # partial rows (one per landed block, so their count grows with
        # the table) first fold within `merge_salt` buckets in parallel
        # (level 1 is keyed on hash64(part_key) ^ salt), then the final
        # merge folds only `merge_salt` rows per key
        partial_rows = exchange_reduce(partial_rows, "__k", combine_salted)
    return exchange_reduce(partial_rows, "__k", merge_keys)


@dataclass
class ValidateConfig:
    part_key: str = "lang"
    # derived-key profile: when set (only "host" wired), part_key is
    # COMPUTED from url per batch instead of read from storage —
    # e.g. part_key="host", part_key_expr="host" partitions by
    # host(url) (~10^3-10^6 skewed keys). Resume still works, but the
    # committed-partition filter applies AFTER the scan (no parquet
    # row-group pruning for derived keys) — at 100 TB, write the
    # derived key as a physical partition column at ingest (the
    # landing-zone source does) to get pushdown back.
    part_key_expr: str | None = None
    stat_columns: tuple = ("n_chars", "n_tokens")
    # quantile backend for the per-column sketches: "tdigest" (default,
    # value-interpolating) or "kll" (uniform RANK guarantee — the right
    # contract for skewed web columns; see state/sketches.KLL). The
    # bytes travel in the same td_* binary columns (tag-dispatched
    # decode), so verdict schema/semantics are identical. Don't switch
    # backends when resuming against an existing manifest/baseline —
    # the homogeneous merge will fail loudly on mixed tags.
    quantile_sketch: str = "tdigest"
    zscore_value: str = "n_chars"
    zscore_window: int = 64
    zscore_min_periods: int = 8
    zscore_threshold: float = 3.0
    max_null_rate: float = 0.01
    max_dup_rate: float = 0.005
    max_extract_mismatch_rate: float = 0.01
    max_peak_rate: float = 0.02
    # opt-in Gopher-style quality constraint: the fused pass also
    # computes the per-doc quality_pass flag (the text is only in hand
    # there) and the verdict gains a `quality` outcome comparing the
    # partition's low-quality rate against the threshold
    quality_check: bool = False
    max_low_quality_rate: float = 0.5
    # uniqueness over CANONICAL urls: strip fragment/utm/trailing
    # slash + lowercase scheme+host before hashing into the HLL and
    # the exact fallback — mirror-crawl duplicates (http://A.com/x/ vs
    # http://a.com/x) then count as dups. Off by default (raw-url
    # uniqueness is the reference contract).
    normalize_urls: bool = False
    batch_size: int = 4096
    feature_concurrency: tuple = (1, 16)
    # partitions committed per DAG execution. None = all remaining in
    # one streaming DAG (max throughput); a small number gives
    # finer-grained checkpoints (a killed run loses at most one wave).
    partitions_per_wave: int | None = None
    # two-level salted sketch merge: hot keys' per-batch partial rows
    # pre-fold across this many parallel buckets before the final merge
    # (1 disables). See _combined_partials_merge.
    merge_salt: int = 8
    # when set, the slim feature table is written to parquet here and
    # re-read instead of pinned in the object store — the 100 TB path
    # (spillable, reusable across retries). None = materialize().
    intermediate_dir: str | None = None
    # optional referential side table (parquet with src_url/dst_url):
    # dst_url ⊆ webpages.url is checked run-level (HLL containment
    # estimate → broadcast/bucketed anti-join exact path).
    refs_path: str | None = None
    max_dangling_rate: float = 0.001
    # drift baseline: a baseline.parquet written by a PREVIOUS run
    # (every run writes one to its out_dir); when set, each partition
    # gets a drift outcome (PSI/KS vs the baseline sketches).
    baseline_path: str | None = None
    baseline: dict | None = None  # (key, col) -> sketch bytes for drift


@dataclass
class ValidationResult:
    verdicts: "pa.Table"
    stats: "pa.Table"
    partitions_run: list = field(default_factory=list)
    partitions_skipped: list = field(default_factory=list)
    rows_scanned: int = 0
    out_dir: str = ""
    referential: dict | None = None

    def all_passed(self) -> bool:
        return bool(pc.all(self.verdicts["passed"]).as_py())


def list_partitions(
    input_path: str,
    part_key: str,
    distributed_over_files: int = 64,
    part_key_expr: str | None = None,
) -> list[str]:
    """Distinct partition keys, column-pruned. Few files → a local
    pyarrow scan of just the key column. Many files (the 100 TB case,
    or a fine key like host) → a distributed per-batch-unique pass;
    only the deduped key values return to the driver. Derived keys
    (``part_key_expr``) compute the key from ``url`` per batch on
    either path."""
    dataset = pads.dataset(input_path, format="parquet")
    scan_col = "url" if part_key_expr else part_key

    def keys_of(t: pa.Table) -> pa.Array:
        if part_key_expr:
            t = derive_part_key(t, part_key, part_key_expr)
        return pc.unique(t[part_key])

    if len(dataset.files) > distributed_over_files:
        uniq = (
            read_parquet(input_path, dataset, columns=[scan_col])
            .map_batches(
                lambda t: pa.table({part_key: keys_of(t)}),
                batch_format="pyarrow",
            )
            .to_pandas()[part_key]
            .dropna()
            .unique()
        )
        return sorted(uniq.tolist())
    vals = set()
    for batch in dataset.to_batches(columns=[scan_col]):
        vals.update(keys_of(pa.Table.from_batches([batch])).to_pylist())
    return sorted(v for v in vals if v is not None)


def run_validation(
    input_path: str,
    out_dir: str,
    cfg: ValidateConfig | None = None,
    resume: bool = True,
) -> ValidationResult:
    """Run the full constraint suite. Ray must already be initialised
    by the caller (driver contract)."""
    import ray.data as rd

    import time

    _t0 = time.perf_counter()
    _timing = os.environ.get("SOD_TIMING") == "1"

    def _mark(label):
        if _timing:
            print(f"[validate] {label}: {time.perf_counter() - _t0:.2f}s", flush=True)

    cfg = cfg or ValidateConfig()
    os.makedirs(out_dir, exist_ok=True)
    manifest = Manifest(os.path.join(out_dir, "manifest"))

    all_parts = list_partitions(
        input_path, cfg.part_key, part_key_expr=cfg.part_key_expr
    )
    done = manifest.committed_partitions() if resume else set()
    remaining = [p for p in all_parts if p not in done]
    result = ValidationResult(
        verdicts=None,
        stats=None,
        partitions_skipped=sorted(done),
        partitions_run=remaining,
        out_dir=out_dir,
    )
    if not remaining:
        result.verdicts = _verdicts_from_manifest(manifest, all_parts)
        result.stats = pa.table({})
        _ensure_referential(result, input_path, cfg, manifest, out_dir, resume)
        return result

    for p in remaining:  # wipe partial output of uncommitted partitions
        shutil.rmtree(
            os.path.join(out_dir, "violations", f"{cfg.part_key}={p}"),
            ignore_errors=True,
        )
    _scrub_verdict_files(out_dir, remaining)

    _mark("setup")
    wave_size = cfg.partitions_per_wave or len(remaining)
    all_verdicts = []
    all_stats = []
    total_rows_all = 0
    # fresh full runs can reuse the fused pass's url column as the
    # referential parent side — no second parquet scan of the corpus
    collect_urls = bool(cfg.refs_path) and not done
    # single-wave fresh run: the referential check runs INSIDE the
    # wave's consumer pool (4th thread), overlapping its fixed
    # overhead (refs read, anti-join spin-up, violation write) with
    # the sketch-merge / mismatch / peak consumers instead of paying
    # it serially after the wave
    inline_ref = collect_urls and wave_size >= len(remaining)
    url_blocks = []
    inline_ref_result = None
    for w0 in range(0, len(remaining), wave_size):
        wave = remaining[w0 : w0 + wave_size]
        vt, st, nrows, wave_urls, ref_res = _run_wave(
            input_path, wave, cfg, manifest, out_dir, w0 + len(done), _mark,
            collect_urls=collect_urls and not inline_ref,
            inline_referential=inline_ref,
        )
        all_verdicts.append(vt)
        all_stats.append(st)
        total_rows_all += nrows
        if wave_urls is not None:
            url_blocks.extend(wave_urls)
        if ref_res is not None:
            inline_ref_result = ref_res
        # (this wave's sketches were already folded into baseline.parquet
        # inside _run_wave, BEFORE its manifest commits)

    # previously committed partitions keep their verdicts (from the
    # manifest outcomes) so all_passed()/the CLI exit code cover the
    # WHOLE run after a kill+resume, not just the recomputed wave
    skipped_verdicts = _verdicts_from_manifest(
        manifest, [p for p in sorted(done) if p != "__referential__"]
    )
    tables = (
        [skipped_verdicts] if skipped_verdicts.num_rows else []
    ) + all_verdicts
    result.verdicts = (
        pa.concat_tables(tables, promote_options="default")
        if tables
        else pa.table({})
    )
    result.stats = pa.Table.from_pandas(
        pd.concat(all_stats, ignore_index=True), preserve_index=False
    ) if all_stats else pa.table({})
    result.rows_scanned = total_rows_all

    if inline_ref_result is not None:
        result.referential = inline_ref_result
    else:
        parent_keys = (
            pa.concat_arrays(
                [c for b in url_blocks for c in (b.chunks if isinstance(b, pa.ChunkedArray) else [b])]
            )
            if collect_urls and url_blocks
            else None
        )
        _ensure_referential(
            result, input_path, cfg, manifest, out_dir, resume,
            parent_keys=parent_keys,
        )
    _mark("referential")
    return result


def _scrub_verdict_files(out_dir: str, uncommitted) -> None:
    """Drop uncommitted partitions' rows from on-disk verdict files
    before re-running them — a kill between a wave's verdict write and
    its manifest commits would otherwise leave rows that the resumed
    wave duplicates. A torn verdict file (kill mid-write under an
    older build) implies its wave never committed, so it is deleted
    whole; current writes are tmp+rename and cannot tear."""
    import glob

    import pyarrow.parquet as pq

    uncommitted = set(uncommitted)
    for f in sorted(glob.glob(os.path.join(out_dir, "verdicts-*.parquet"))):
        try:
            t = pq.read_table(f)
        except Exception:
            os.remove(f)
            continue
        if t.num_rows == 0 or "partition" not in t.column_names:
            continue
        mask = pc.is_in(
            t["partition"], value_set=pa.array(sorted(uncommitted), pa.string())
        )
        if not pc.any(mask).as_py():
            continue
        keep = t.filter(pc.invert(mask))
        if keep.num_rows:
            tmp = f + ".tmp"
            pq.write_table(keep, tmp)
            os.replace(tmp, f)
        else:
            os.remove(f)


def _verdicts_from_manifest(manifest: Manifest, partitions) -> pa.Table:
    """Rebuild verdict rows for committed partitions from their manifest
    records (same shape as _run_wave's verdict rows). Robust even if a
    verdicts-*.parquet file was lost between commit and write."""
    rows = []
    for p in partitions:
        if p == "__referential__":
            continue
        rec = manifest.load(p)
        if rec is None:
            continue
        flags = {k: v for k, v in rec.constraint_outcomes.items() if _is_flag(v)}
        rows.append(
            {
                "partition": p,
                "rows": rec.rows_scanned,
                "violations": rec.rows_violating,
                "passed": rec.passed(),
                **{f"c_{k}": v for k, v in flags.items()},
            }
        )
    return pa.Table.from_pylist(rows) if rows else pa.table({})


def _ensure_referential(
    result, input_path, cfg, manifest, out_dir, resume, parent_keys=None
):
    """Run-level referential constraint (north_star: url foreign-key
    containment). Runs once per run; its own manifest record makes it
    resume-safe like any partition."""
    if not cfg.refs_path:
        return
    done = manifest.committed_partitions() if resume else set()
    if "__referential__" in done:
        rec = manifest.load("__referential__")
        result.referential = (
            {**rec.constraint_outcomes, **rec.evidence} if rec else None
        )
    else:
        result.referential = _run_referential(
            input_path, cfg, manifest, out_dir, parent_keys=parent_keys
        )


def save_baseline(stats_pdf, path: str) -> None:
    """Persist merged (part_key, column) sketches for the next run's
    drift check. MERGES with an existing file so a resumed run (which
    only recomputed some partitions) never clobbers the others' rows.
    Atomic write-then-rename."""
    import tempfile

    import pyarrow.parquet as pq

    new = stats_pdf[["part_key", "column", "tdigest", "welford"]]
    if os.path.exists(path):
        old = pq.read_table(path).to_pandas()
        keep = old[
            ~old.set_index(["part_key", "column"]).index.isin(
                new.set_index(["part_key", "column"]).index
            )
        ]
        new = pd.concat([new, keep], ignore_index=True)
    t = pa.Table.from_pandas(new, preserve_index=False)
    fd, tmp = tempfile.mkstemp(dir=os.path.dirname(path) or ".", suffix=".tmp")
    os.close(fd)
    pq.write_table(t, tmp)
    os.replace(tmp, path)


def load_baseline(path: str) -> dict:
    """baseline.parquet → {(part_key, column): {"tdigest","welford"}}
    (the broadcast dict for sod_ray.stages.drift.DriftScorer)."""
    import pyarrow.parquet as pq

    t = pq.read_table(path)
    return {
        (r["part_key"], r["column"]): {"tdigest": r["tdigest"], "welford": r["welford"]}
        for r in t.to_pylist()
    }


def _run_referential(input_path, cfg, manifest, out_dir, parent_keys=None):
    """dst_url ⊆ webpages.url: HLL containment estimate first; exact
    violations via the broadcast/bucketed anti-join. ``parent_keys``
    (deduped url blocks harvested from the fused pass of a fresh full
    run) skips the second parquet scan of the corpus entirely.

    The violation set lands in ``violations/referential`` (clear →
    write to tmp → rename, so a killed run's landing is replaced, never
    mixed in). A set within ``broadcast_rows_budget()`` rows — dangling
    refs are a tiny fraction by construction — comes to the driver and
    is written there with ``pq.write_table``, so the anti-join is the
    check's one execution; a larger set keeps ``write_parquet``."""
    import pyarrow.parquet as pq

    from ..stages.blocks import arrow_block_refs_with_rows
    from ..stages.constraints import broadcast_anti_join, referential_check

    refs = read_parquet(cfg.refs_path)
    if parent_keys is not None and len(parent_keys) <= broadcast_rows_budget():
        violations = broadcast_anti_join(refs, parent_keys, "dst_url")
        est = {"dangling_est": float("nan"), "exact_path": "broadcast_fused"}
    else:
        parent = read_parquet(input_path, columns=["url"])
        violations, est = referential_check(refs, parent, "dst_url", "url")
    vdir = os.path.join(out_dir, "violations", "referential")
    refs_out, n_dangling, schema = arrow_block_refs_with_rows(violations)
    if n_dangling is None:
        n_dangling = sum(t.num_rows for t in ray.get(refs_out))
    shutil.rmtree(vdir, ignore_errors=True)
    tmp = vdir + ".tmp"
    shutil.rmtree(tmp, ignore_errors=True)
    if n_dangling > broadcast_rows_budget():
        dataset_from_refs(refs_out).write_parquet(tmp)
    else:
        tables = [t for t in ray.get(refs_out) if t.num_rows]
        os.makedirs(tmp)
        if tables or schema is not None:
            pq.write_table(
                pa.concat_tables(tables) if tables else schema.empty_table(),
                os.path.join(tmp, "part-0.parquet"),
            )
    os.rename(tmp, vdir)
    n_refs = refs.count()  # parquet metadata only
    passed = n_dangling <= cfg.max_dangling_rate * max(n_refs, 1)
    evidence = {
        "n_dangling": n_dangling,
        "n_refs": n_refs,
        "dangling_est": est["dangling_est"],
        "exact_path": est["exact_path"],
    }
    manifest.commit(
        PartitionRecord(
            partition="__referential__",
            rows_scanned=n_refs,
            rows_violating=n_dangling,
            # flags only — numeric evidence lives in its own field so
            # passed()/summary() never confuse counts with pass markers
            constraint_outcomes={"referential": "pass" if passed else "fail"},
            outputs=[vdir],
            evidence=evidence,
        )
    )
    return {"referential": "pass" if passed else "fail", **evidence}


def _run_wave(
    input_path, remaining, cfg, manifest, out_dir, wave_id, _mark,
    collect_urls: bool = False,
    inline_referential: bool = False,
):
    """One DAG over one wave of partitions; commits each partition's
    manifest record when the wave's outputs land. With ``collect_urls``
    the wave also returns its deduped url blocks (referential parent
    side, harvested from the already-landed slim table). With
    ``inline_referential`` (single-wave fresh runs) the referential
    check itself runs as a 4th concurrent consumer of the slim table
    and its result is returned instead of the url blocks."""
    # one dataset object: its file count plans the read (see
    # blocks.read_parquet) and its row count sizes the auto-spill
    # estimate
    dataset = pads.dataset(input_path, format="parquet")
    if cfg.part_key_expr:
        # derived key: no storage-level pushdown possible — read all,
        # derive the key per batch, drop committed partitions' rows at
        # the first stage (see ValidateConfig.part_key_expr note)
        raw = read_parquet(input_path, dataset)
        schema_verdict = schema_check(raw, WEBPAGE_SCHEMA)
        keep = pa.array(remaining, pa.string())

        def derive_filter(t: pa.Table) -> pa.Table:
            t = derive_part_key(t, cfg.part_key, cfg.part_key_expr)
            return t.filter(pc.is_in(t[cfg.part_key], value_set=keep))

        ds = raw.map_batches(derive_filter, batch_format="pyarrow")
        extra_cols = (cfg.part_key,)
    else:
        ds = read_parquet(
            input_path,
            dataset,
            filter=pc.field(cfg.part_key).isin(remaining),
        )
        schema_verdict = schema_check(ds, WEBPAGE_SCHEMA)
        extra_cols = ()
    _mark("schema")

    # ONE scan: fused extraction + features; html dropped inside the
    # stage, which Ray Data fuses into the read when read_parquet plans
    # one task per file (html and text then never land in the object
    # store). No batch_size on the map, as one would block that fusion:
    # FusedFeatures slices each read block to cfg.batch_size rows.
    featured_stream = ds.map_batches(
        FusedFeatures(
            cfg.batch_size, extra_cols=extra_cols, quality=cfg.quality_check
        ),
        batch_format="pyarrow",
    )
    intermediate_dir = cfg.intermediate_dir
    if intermediate_dir is None:
        # auto-spill: the slim table is ~64 B/row; when the estimate
        # would crowd the object store (>15%), land it on disk instead
        # of pinning it — the flagged-on-size version of the explicit
        # intermediate_dir flag. 15% not 25%: the store also carries
        # the concurrent consumers' sort/aggregate intermediates, and
        # the 150M-row run (slim 9.6 GB = 24% of a 37.6 GiB store)
        # missed the old threshold by 5% and thrashed raylet spill
        try:
            store_bytes = int(
                ray.cluster_resources().get("object_store_memory", 0)
            )
            est_rows = dataset.count_rows()
            if store_bytes and est_rows * 64 > 0.15 * store_bytes:
                intermediate_dir = os.path.join(out_dir, "_intermediate")
        except Exception:
            pass
    if intermediate_dir:
        # 100 TB path: land the slim table on storage (spillable,
        # survives worker loss) and stream it back per consumer
        # through blocks.read_parquet
        inter = os.path.join(intermediate_dir, f"featured-{wave_id}")
        shutil.rmtree(inter, ignore_errors=True)
        featured_stream.write_parquet(inter)
        featured = read_parquet(inter)
    else:
        featured = featured_stream.materialize()
    _mark("fused+materialize")

    # --- independent consumers of the landed feature table, executed
    # CONCURRENTLY (threads share the Ray cluster) as raw tasks over
    # its blocks; only the referential check's refs read is a Ray Data
    # execution: (1) combined partial+merge for stats/nulls/uniqueness
    # — only sketch rows and counters cross its exchange (SURVEY.md
    # §2.5 G7); (2) the exact uniqueness count; (3) extraction mismatch
    # rows; (4) the windowed peak scorer on the raw-task range sort
    # (the one real data shuffle); (5) the inline referential check ---
    from concurrent.futures import ThreadPoolExecutor

    viol_dir = os.path.join(out_dir, "violations")
    os.makedirs(viol_dir, exist_ok=True)

    def _merged():
        # stable key order whatever the exchange's bucket layout
        return (
            _combined_partials_merge(featured, cfg)
            .to_pandas()
            .sort_values("part_key", kind="stable")
            .reset_index(drop=True)
        )

    def _peaks():
        # hot-key-parallel scorer: range sort + per-range scoring with
        # (window-1)-row overlaps — one skewed entity (lang=en at 62%)
        # no longer serializes on a single reduce task
        from ..stages.window import windowed_zscore_sorted

        counts = windowed_zscore_sorted(
            featured,
            key=cfg.part_key,
            ts_col="warc_ts",
            value_col=cfg.zscore_value,
            id_cols=["url"],
            window=cfg.zscore_window,
            min_periods=cfg.zscore_min_periods,
            threshold=cfg.zscore_threshold,
            sink_dir=viol_dir,
            sink_key_prefix=cfg.part_key,
        )
        return counts.set_index(cfg.part_key)

    def _referential_inline():
        # row count of the materialized slim table is metadata-only;
        # above the broadcast bound, skip the driver-side url harvest
        # entirely and let _run_referential take the two-sided path
        if featured.count() > broadcast_rows_budget():
            return _run_referential(input_path, cfg, manifest, out_dir)
        urls = _harvest_urls(featured)
        keys = (
            pa.concat_arrays(
                [
                    c
                    for b in urls
                    for c in (b.chunks if isinstance(b, pa.ChunkedArray) else [b])
                ]
            )
            if urls
            else pa.array([], pa.string())
        )
        return _run_referential(
            input_path, cfg, manifest, out_dir, parent_keys=keys
        )

    def _exact_dups():
        """HLL-noise-aware exact uniqueness (SURVEY.md §7.3.4): with
        2^14 registers the distinct estimate carries ~0.81% relative
        error, so its 3σ band (2.44% of rows) is wider than a 0.5%
        dup threshold itself and the estimate alone would flip
        verdicts per run. Every partition of the wave is counted
        EXACTLY via an 8-byte-hash bucket exchange (url values never
        move; the exchange sizes its fan-out to the data), started
        with the merge and overlapped with the other consumers."""
        from ..stages.constraints import exact_dup_counts

        transform = None
        if cfg.normalize_urls:
            from ..stages.textstage import normalize_url_array

            transform = normalize_url_array
        return exact_dup_counts(
            featured,
            "url",
            cfg.part_key,
            remaining,
            transform=transform,
        )

    with ThreadPoolExecutor(max_workers=5) as pool:
        f_merged = pool.submit(_merged)
        f_uniq = pool.submit(_exact_dups)
        f_mismatch = pool.submit(
            write_mismatches, featured, viol_dir, cfg.part_key
        )
        f_peaks = pool.submit(_peaks)
        f_ref = pool.submit(_referential_inline) if inline_referential else None
        merged = f_merged.result()
        _mark("combined-merge")
        f_mismatch.result()
        _mark("mismatches")
        peak_counts = f_peaks.result()
        _mark("peaks")
        ref_result = f_ref.result() if f_ref is not None else None
        if f_ref is not None:
            _mark("referential-inline")
        uniq_tbl = (
            merged[merged["column"] == cfg.stat_columns[0]]
            [["part_key", "rows", "distinct_est", "dup_est"]]
            .copy()
        )
        for pk, nd in f_uniq.result().items():
            uniq_tbl.loc[uniq_tbl["part_key"] == pk, "dup_est"] = float(nd)
        _mark("uniqueness-exact")

    stats_tbl = merged  # per (part_key, column) sketch stats
    flag_cols = ["rows", "html_nulls", "text_nulls", "extract_matches"]
    if "quality_fails" in merged.columns:
        flag_cols.append("quality_fails")
    flags = (
        merged[merged["column"] == cfg.stat_columns[0]]
        .set_index("part_key")[flag_cols]
    )

    drift_tbl = None
    baseline = cfg.baseline
    if baseline is None and cfg.baseline_path and os.path.exists(cfg.baseline_path):
        baseline = load_baseline(cfg.baseline_path)
    if baseline:
        # score the ALREADY-merged sketches against the baseline (no
        # recompute); DriftScorer actor pool with the broadcast baseline
        import ray.data as rd

        from ..stages.drift import drift_check

        cur = rd.from_pandas(
            merged[["part_key", "column", "tdigest", "welford"]]
        )
        drift_tbl = drift_check(cur, baseline).to_pandas()

    # --- per-partition verdicts + manifest commit (violation rows are
    # already ON DISK, written by the distributed sinks; only counts
    # flow through here). Durability order within the wave: verdict
    # file and baseline sketches land (atomically) BEFORE the first
    # manifest commit — a kill can then never strand a committed
    # partition without its on-disk verdict/baseline rows; the
    # opposite kill (verdicts written, commit missed) is healed at
    # resume setup, which scrubs uncommitted partitions' rows from
    # existing verdict files before re-running them. ---
    import pyarrow.parquet as pq

    verdict_rows = []
    records = []
    total_rows = 0
    for p in remaining:
        p_stats = stats_tbl[stats_tbl["part_key"] == p]
        p_uniq = uniq_tbl[uniq_tbl["part_key"] == p]
        n_mismatch = (
            int(flags.loc[p, "rows"] - flags.loc[p, "extract_matches"])
            if p in flags.index
            else 0
        )
        n_peaks = (
            int(peak_counts.loc[p, "n_flagged"]) if p in peak_counts.index else 0
        )
        n_viol = n_mismatch + n_peaks
        rows = int(flags.loc[p, "rows"]) if p in flags.index else 0
        total_rows += rows

        outcomes = {"schema": "pass" if schema_verdict["passed"] else "fail"}
        html_null_rate = (
            float(flags.loc[p, "html_nulls"]) / rows if rows else 0.0
        )
        outcomes["null_rate"] = (
            "pass" if html_null_rate <= cfg.max_null_rate else "fail"
        )
        dup_est = float(p_uniq["dup_est"].iloc[0]) if len(p_uniq) else 0.0
        outcomes["uniqueness"] = (
            "pass" if dup_est <= cfg.max_dup_rate * max(rows, 1) else "fail"
        )
        outcomes["extraction"] = (
            "pass"
            if n_mismatch <= cfg.max_extract_mismatch_rate * max(rows, 1)
            else "fail"
        )
        outcomes["peaks"] = (
            "pass" if n_peaks <= cfg.max_peak_rate * max(rows, 1) else "fail"
        )
        if cfg.quality_check and "quality_fails" in flags.columns:
            n_q = int(flags.loc[p, "quality_fails"]) if p in flags.index else 0
            outcomes["quality"] = (
                "pass"
                if n_q <= cfg.max_low_quality_rate * max(rows, 1)
                else "fail"
            )
        if drift_tbl is not None:
            p_drift = drift_tbl[
                (drift_tbl["part_key"] == p) & drift_tbl["has_baseline"]
            ]
            outcomes["drift"] = (
                "fail" if len(p_drift) and p_drift["drifted"].any() else "pass"
            )

        pdir = os.path.join(viol_dir, f"{cfg.part_key}={p}")
        os.makedirs(pdir, exist_ok=True)  # exists unless the key had no rows

        sketch_bytes = (
            int(p_stats["sketch_bytes"].sum()) if "sketch_bytes" in p_stats else 0
        )
        records.append(
            PartitionRecord(
                partition=p,
                rows_scanned=rows,
                rows_violating=n_viol,
                constraint_outcomes=outcomes,
                outputs=[pdir],
                sketch_bytes=sketch_bytes,
            )
        )
        verdict_rows.append(
            {
                "partition": p,
                "rows": rows,
                "violations": n_viol,
                "passed": all(v == "pass" for v in outcomes.values()),
                **{f"c_{k}": v for k, v in outcomes.items()},
            }
        )

    _mark(f"verdict-loop wave={wave_id}")
    verdicts = pa.Table.from_pylist(verdict_rows) if verdict_rows else pa.table({})
    vpath = os.path.join(out_dir, f"verdicts-{wave_id}.parquet")
    vtmp = vpath + ".tmp"
    pq.write_table(verdicts, vtmp)
    os.replace(vtmp, vpath)
    save_baseline(stats_tbl, os.path.join(out_dir, "baseline.parquet"))
    for rec in records:
        manifest.commit(rec)
    wave_urls = _harvest_urls(featured) if collect_urls else None
    return verdicts, stats_tbl, total_rows, wave_urls, ref_result


def _flag_mismatches(t: pa.Table, part_key: str) -> pa.Table:
    bad = t.filter(pc.invert(t["extract_match"])).select(
        [part_key, "url", "warc_ts"]
    )
    return bad.append_column(
        "violation", pa.array(["extract_mismatch"] * len(bad), pa.string())
    )


@ray.remote
def _write_mismatch_group(viol_dir: str, part_key: str, name: str, *blocks):
    import pyarrow.parquet as pq

    bad = [_flag_mismatches(b, part_key) for b in blocks if b.num_rows]
    bad = [b for b in bad if b.num_rows]
    if not bad:
        return
    bad = pa.concat_tables(bad)
    for key_val, idx in _group_indices(bad, part_key):
        pdir = os.path.join(viol_dir, f"{part_key}={key_val}")
        os.makedirs(pdir, exist_ok=True)
        pq.write_table(
            bad.take(pa.array(idx)).drop_columns([part_key]),
            os.path.join(pdir, name),
        )


def write_mismatches(featured, viol_dir: str, part_key: str) -> None:
    """Extraction-mismatch sink: the rows of ``featured`` whose
    extracted text differs from the stored one, as (url, warc_ts,
    violation) files under ``viol_dir/<part_key>=<k>/`` — the layout of
    a hive-partitioned ``write_parquet``, written by the workers, never
    through the driver. On a landed table one raw task per
    ``blocks.block_groups`` group writes ``mismatch-g<i>.parquet`` per
    key, so a retried task overwrites its own file; a lazy input (the
    parquet-landed slim table) streams through ``write_parquet``. The
    per-key counts come from the merge (rows − extract_matches, as
    ``extract_match`` has no nulls), so nothing re-reads the rows."""
    from ray.data.dataset import MaterializedDataset

    if not isinstance(featured, MaterializedDataset):
        featured.map_batches(
            _flag_mismatches, batch_format="pyarrow", fn_args=(part_key,)
        ).write_parquet(viol_dir, partition_cols=[part_key])
        return
    ray.get(
        [
            _write_mismatch_group.remote(
                viol_dir, part_key, f"mismatch-g{i}.parquet", *g
            )
            for i, g in enumerate(block_groups(featured))
        ]
    )


def _harvest_urls(featured):
    """Referential parent side from the slim table: one raw unique task
    per block of ``featured`` (no Ray Data execution when it is
    materialized), so only deduped url arrays reach the driver."""
    uniq = ray.get(
        [_unique_urls.remote(r) for r in arrow_block_refs(featured)]
    )
    return [u for u in uniq if len(u)]


@ray.remote
def _unique_urls(t: pa.Table) -> pa.Array:
    return pc.unique(t["url"]).drop_null()


def _load_verdicts(out_dir: str):
    import glob

    import pyarrow.parquet as pq

    files = sorted(glob.glob(os.path.join(out_dir, "verdicts-*.parquet")))
    if not files:
        return pa.table({})
    return pa.concat_tables(
        [pq.read_table(f) for f in files], promote_options="default"
    )

"""Corpus curation / export pipeline — the rewrite-side complement of
the validation flagship.

``run_validation`` (validate.py) *judges* a web corpus; ``run_export``
*produces* the curated training corpus from it: the Dolma/CCNet-style
funnel of quality filter → URL dedup → exact dedup → benchmark
decontamination → near-dup dedup → line-level dedup → PII redaction →
optional deterministic global shuffle, writing a partitioned Parquet
corpus plus a funnel report. (The reference engine has no export surface —
this is part of the LLM-training-data extension the brief requires as
first-class; the validation side's Gopher/PII/dedup kernels are reused
unchanged.)

Scale shape — decisions are slim, text crosses the wire only when it
must:

- every dedup/filter DECISION is computed as a slim id Dataset
  ({"node": int64}, 8 B/doc) and checkpointed to
  ``out_dir/decisions/<stage>/`` with a manifest commit, so a killed
  run resumes without re-running the expensive scans;
- the quality, exact and near-dup decisions share ONE text scan: it
  lands slim per-doc feature rows (Gopher fail flag, md5 key, MinHash
  signature), and each of the three reads those rows instead of the
  corpus;
- stages are SEQUENTIAL (each decision applies the accumulated
  drop-set to its input first, via broadcast searchsorted or the
  bucketed anti-join), so e.g. an exact-dup group whose canonical
  member failed the quality filter still keeps its next-lowest
  surviving member — the semantics a sequential SQL pipeline (and the
  DuckDB oracle twin) produces;
- each decision reads ONLY the columns it needs (url dedup never
  touches text; exact dedup shuffles 16-byte md5 keys, never text;
  near-dup shuffles band hashes per stages/dedup.py);
- the APPLY phase is one full-column scan: accumulated anti-join →
  optional line-dedup rewrite → PII redaction → partitioned
  ``write_parquet`` (one directory per partition key value → a failed
  export resumes by stage, and downstream readers prune by partition).
"""

from __future__ import annotations

import json
import os
import shutil
import time
from dataclasses import dataclass, field

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import ray

from ..state.manifest import Manifest, PartitionRecord


@dataclass
class CurateConfig:
    text_col: str = "text"
    id_col: str = "doc_id"
    url_col: str | None = None  # required for url_dedup
    quality_filter: bool = True  # Gopher-style per-doc pass flag
    url_dedup: bool = False  # canonical-URL keep-min-id
    exact_dedup: bool = True  # md5(text) keep-min-id
    neardup: bool = False  # MinHash+LSH → CC → keep canonical
    # winnow-overlap containment dedup (stages/dedup.
    # winnow_overlap_drop_ids — catches doc-inside-doc partial overlap
    # that Jaccard under-weights; runs AFTER neardup so full near-dups
    # are already gone). k=16/w=16 fingerprints; see the stage
    # docstring for the df-cap and fp_sample scale contracts.
    overlap_dedup: bool = False
    overlap_min_shared: int = 20
    overlap_max_df: int = 256
    overlap_fp_sample: int = 1  # >1 = sampled candidacy + exact verify
    # benchmark decontamination: drop docs sharing any word-level
    # n-gram with these eval-suite texts (GPT-3 appendix-C hygiene)
    decontaminate_texts: list | None = None
    decontaminate_n: int = 13
    line_dedup: bool = False  # C4-style global line dedup (rewrites text)
    # per-key token-budget cut over the funnel SURVIVORS (runs after
    # every dedup decision): keep highest-quality docs first while the
    # running whitespace-token total stays ≤ budget — the data-mixing
    # stage of a training-data funnel. None disables. The key column
    # (e.g. lang / source); None = one global budget. Semantics +
    # bounded-driver shape: stages/budget.py (oracle-checked by the
    # docs_token_budget_sample query). NOTE: in the incremental loop
    # (run_export_incremental) each arrival batch is its own funnel
    # run, so the budget applies PER BATCH — for a whole-corpus budget
    # use run_export_incremental(finalize_budget=...) /
    # finalize_corpus_budget (end-of-ingest global cut).
    token_budget: int | None = None
    token_budget_key: str | None = None
    # DSIR data selection (Xie et al. 2023; stages/dsir.py) over the
    # funnel SURVIVORS: keep only the `dsir_keep` most-target-like
    # docs by hashed-ngram log importance weight, with the target
    # distribution defined by rows whose `dsir_target_col` equals
    # `dsir_target_value` (e.g. lang == 'en'). Runs after every dedup
    # decision and BEFORE the token budget (select the distribution
    # first, then cap volume). Docs with zero tokens carry no
    # evidence and are dropped. None disables.
    dsir_keep: int | None = None
    dsir_target_col: str | None = None
    dsir_target_value: str | None = None
    dsir_buckets: int = 65536
    # training-chunk manifest sidecar: after the corpus write, emit
    # ``chunks/`` — per-doc concat-and-chunk spans (chunk_start/
    # chunk_end/chunk_offset at this many whitespace tokens per chunk,
    # keyed by partition_col or global; stages/budget.pack_chunks) so
    # the curated corpus ships directly trainable. Deterministic in
    # (key, id) order — independent of shuffle_seed/file order.
    pack_chunk_tokens: int | None = None
    pii_redact: bool = True  # emails/phones/IPv4 → typed placeholders
    partition_col: str | None = None  # output partition directory key
    # deterministic global shuffle of the curated corpus before the
    # write (training-data prep: decorrelate adjacent examples).
    # This is a full all-to-all exchange — the ONE stage of the funnel
    # that moves every payload byte — so it is opt-in.
    shuffle_seed: int | None = None
    jaccard_threshold: float = 0.7
    # drop-ids broadcast vs bucketed join; None = derive from the
    # per-node object store (stages.exchange.broadcast_rows_budget)
    broadcast_limit: int | None = None
    lsh_kwargs: dict = field(default_factory=dict)


@dataclass
class ExportResult:
    out_dir: str
    report: dict

    @property
    def corpus_dir(self) -> str:
        return os.path.join(self.out_dir, "corpus")


def _meta_row_count(path: str) -> int:
    """Input row count from parquet footers — no data scan."""
    import pyarrow.dataset as pads

    return sum(
        f.metadata.num_rows if f.metadata else f.count_rows()
        for f in pads.dataset(path, format="parquet").get_fragments()
    )


def _drop_budget(cfg: CurateConfig) -> int:
    """Largest drop set the funnel pulls into the driver and broadcasts
    (``cfg.broadcast_limit``, or derived from the object store)."""
    if cfg.broadcast_limit is not None:
        return cfg.broadcast_limit
    from ..stages.exchange import broadcast_rows_budget

    # drop ids are packed int64 broadcast ONCE via ray.put and probed
    # zero-copy with searchsorted — per-node cost is 8 B × n in the
    # store, no per-worker hash build, so the budget is far looser than
    # the generic 16-B-object-row default (~94M ids on a 37.6 GB store
    # vs 5M). The generic budget here sent a 60M-doc funnel's 6M
    # quality drops down the acc_big anti-join path, which exchanges
    # the TEXT-bearing corpus per later stage — measured: raylet spill
    # past the 95% disk monitor on this VM. Truly huge drop sets (10^11
    # at the 10^12-doc tier) still take the anti-join.
    return broadcast_rows_budget(bytes_per_row=8, fraction=0.02)


def _write_decision(drop_ds, pdir: str, budget: int):
    """Land a decision's drop ids under ``pdir`` (clear → write to tmp
    → rename, so a torn write is invisible) without executing
    ``drop_ds`` again. ``drop_ds`` is the decision's MATERIALIZED slim
    {"node": int64} Dataset, or None for 'nothing to drop'; its row
    count and block refs come from the RefBundle metadata.

    A set of at most ``budget`` ids is pulled into the driver (the
    funnel broadcasts it from there anyway) and written with
    ``pq.write_table``: the decision's one execution is its compute. A
    larger set keeps ``write_parquet``. An empty set lands an empty
    file — 'decided: nothing to drop' is itself checkpointable state.
    Returns (drop, n): the int64 id array for a set within budget, else
    the lazy checkpoint Dataset."""
    import pyarrow.parquet as pq

    from ..stages.blocks import arrow_block_refs_with_rows

    refs, n = [], 0
    if drop_ds is not None:
        refs, n, _ = arrow_block_refs_with_rows(drop_ds)
        if n is None:
            n = drop_ds.count()  # materialized: metadata, no execution
    shutil.rmtree(pdir, ignore_errors=True)
    tmp = pdir + ".tmp"
    shutil.rmtree(tmp, ignore_errors=True)
    if n > budget:
        drop_ds.write_parquet(tmp)
        os.rename(tmp, pdir)
        return _load_decision(pdir, budget)
    drop = np.concatenate(
        [np.empty(0, np.int64)]
        + [t["node"].to_numpy() for t in ray.get(refs) if t.num_rows]
    ).astype(np.int64, copy=False)
    os.makedirs(tmp)
    pq.write_table(
        pa.table({"node": pa.array(drop, pa.int64())}),
        os.path.join(tmp, "drops.parquet"),
    )
    os.rename(tmp, pdir)
    return drop, n


def _load_decision(pdir: str, budget: int):
    """(drop, n) of a landed decision: ``n`` from the parquet footers;
    a set of at most ``budget`` ids is read on the driver with pyarrow
    into an int64 array, a larger one stays a lazy ``read_parquet``
    Dataset (the funnel anti-joins it)."""
    import pyarrow.parquet as pq
    import ray.data as rd

    n = _meta_row_count(pdir)
    if n > budget:
        return rd.read_parquet(pdir), n
    ids = pq.read_table(pdir, columns=["node"])["node"]
    return ids.to_numpy().astype(np.int64, copy=False), n


def _summarize_cfg(cfg: CurateConfig) -> dict:
    """JSON-safe config view for report.json and the resume
    fingerprint: list fields (e.g. a multi-MB benchmark suite) are
    replaced by a count + sha256 — same identity, bounded size.
    Non-scalar values INSIDE dict fields (e.g. a nested lsh_kwargs
    value) are hashed the same way rather than dropped, so two configs
    differing only there cannot share a fingerprint."""
    import hashlib

    out = {}
    for k, v in sorted(cfg.__dict__.items()):
        if isinstance(v, dict):
            sub = {}
            for kk, vv in sorted(v.items()):
                if isinstance(vv, (int, float, str, bool, type(None))):
                    sub[kk] = vv
                else:
                    sub[kk] = {
                        "sha256": hashlib.sha256(repr(vv).encode()).hexdigest()
                    }
            out[k] = sub
        elif isinstance(v, (list, tuple)):
            h = hashlib.sha256()
            for item in v:
                h.update(str(item).encode())
                h.update(b"\x00")
            out[k] = {"n": len(v), "sha256": h.hexdigest()}
        else:
            out[k] = v
    return out


def _loser_nodes(d, key_col: str, node_col: str = "node"):
    """Vectorized keep-min-id loser selection over the (node, key)
    columns of ``d``: hash-exchange by hash64(key) then ONE sort +
    shifted-compare per bucket — every row that is not the first of its
    key group is a loser (key strings are compared only where the
    64-bit hashes collide, so collisions cannot merge distinct keys). Replaces
    ``groupby(key).map_groups(losers)``, which paid a Python call per
    distinct key (≈ per doc at corpus scale)."""
    from ..stages.blocks import map_blocks
    from ..stages.exchange import exchange_reduce
    from ..state.sketches import hash64

    def add_kh(t: pa.Table) -> pa.Table:
        if key_col not in t.column_names:  # schema-less empty block
            return t
        t = t.select([node_col, key_col])
        kh = hash64(t[key_col].combine_chunks()).view(np.int64)
        return t.append_column("__kh", pa.array(kh, pa.int64()))

    keyed = map_blocks(d, add_kh)

    def losers_bucket(t: pa.Table) -> pa.Table:
        empty = pa.table({node_col: pa.array([], pa.int64())})
        if t.num_rows == 0 or key_col not in t.column_names:
            return empty
        df = t.to_pandas()
        df.sort_values(
            ["__kh", key_col, node_col], kind="stable", inplace=True
        )
        kh = df["__kh"].to_numpy()
        kv = df[key_col].to_numpy()
        first = np.empty(len(df), dtype=bool)
        first[0] = True
        first[1:] = kh[1:] != kh[:-1]
        same = np.flatnonzero(~first)
        if same.shape[0]:
            first[same] = kv[same] != kv[same - 1]
        nodes = df.loc[~first, node_col].to_numpy().astype(np.int64)
        if nodes.shape[0] == 0:
            return empty
        return pa.table({node_col: pa.array(nodes, pa.int64())})

    return exchange_reduce(keyed, "__kh", losers_bucket)


def _input_signature(input_path: str) -> dict:
    """Cheap input-corpus identity for the resume fingerprint: absolute
    path + sorted (relative file name, size) list hash + parquet-footer
    row count. No data scan. A resume against a different or updated
    input must refuse instead of applying drop-id checkpoints computed
    on the old corpus (ADVICE r2)."""
    import hashlib

    root = os.path.abspath(input_path)
    entries = []
    if os.path.isdir(root):
        for dirpath, _dirnames, filenames in os.walk(root):
            for fn in filenames:
                p = os.path.join(dirpath, fn)
                entries.append((os.path.relpath(p, root), os.path.getsize(p)))
    elif os.path.exists(root):
        entries.append((os.path.basename(root), os.path.getsize(root)))
    entries.sort()
    h = hashlib.sha256()
    for name, size in entries:
        h.update(f"{name}:{size}".encode())
        h.update(b"\x00")
    return {
        "path": root,
        "n_files": len(entries),
        "files_sha256": h.hexdigest(),
        "rows": _meta_row_count(input_path),
    }


def _pack_token_rows(
    t: pa.Table, id_col: str, text_col: str, partition_col: str | None
) -> pa.Table:
    """``pack_chunks`` input rows of a corpus batch: (id, n_tokens
    [, partition]), n_tokens counting the doc's ``textstage.tokens``."""
    from ..stages.textstage import tokens

    n_tokens = np.bincount(tokens(t[text_col])[1], minlength=t.num_rows)
    out = {
        id_col: t[id_col].cast(pa.int64()),
        "n_tokens": pa.array(n_tokens, pa.int64()),
    }
    if partition_col:
        out[partition_col] = t[partition_col].cast(pa.string())
    return pa.table(out)


@ray.remote
def _column_sums(path: str, cols: list[str]) -> list[int]:
    """Sum of each of ``cols`` over one parquet file (nulls count 0)."""
    import pyarrow.parquet as pq

    t = pq.read_table(path, columns=cols)
    return [int(pc.sum(t[c]).as_py() or 0) for c in cols]


def _md5_keys(texts) -> pa.Array:
    """md5 hex key of every text. There is no Arrow md5 kernel — the one
    per-row loop of the funnel emits only the 32-byte hex; text never
    leaves the scan task. Null text gets a sentinel distinct from
    md5("") so null-text and empty-text docs stay separate groups,
    matching the SQL twin's GROUP BY md5(text) (all NULLs group
    together, apart from the '' group)."""
    import hashlib

    return pa.array(
        [
            hashlib.md5(s.encode("utf-8")).hexdigest()
            if s is not None
            else "\x00null"
            for s in texts.to_pylist()
        ],
        pa.string(),
    )


def _feature_rows(
    text_col: str, id_col: str, quality: bool, exact: bool, sig_kw: dict | None
):
    """The export funnel's one text scan: batch (id, text) → one slim
    row per doc: ``node`` (int64 id), and for each decision still to
    compute its feature — ``qfail`` (the Gopher quality flag failed),
    ``h`` (the md5 key of ``_md5_keys``) and ``pl`` (the MinHash
    signature payload of ``dedup._sig_rows`` with ``sig_kw``). With
    ``quality``, ``h`` and ``pl`` are built only for the docs that pass
    it (null for the rest): a failing doc is dropped before the exact
    and near-dup decisions read the rows."""
    from ..stages.dedup import _sig_rows
    from ..stages.textstage import gopher_stats_batch

    encode = None if sig_kw is None else _sig_rows(text_col, id_col, **sig_kw)

    def features(t: pa.Table) -> pa.Table:
        cols = {"node": t[id_col].cast(pa.int64())}
        sub, back = t, None
        if quality:
            ok = gopher_stats_batch(t, text_col, id_col)["quality_pass"]
            ok = ok.to_numpy(zero_copy_only=False).astype(bool)
            cols["qfail"] = pa.array(~ok)
            sub = t.filter(pa.array(ok))
            # each row's position among the passing rows, null if failing
            back = pa.array(np.cumsum(ok) - 1, mask=~ok)
        if exact:
            h = _md5_keys(sub[text_col])
            cols["h"] = h if back is None else h.take(back)
        if encode is not None:
            pl = encode(sub)["pl"]
            cols["pl"] = pl if back is None else pl.take(back)
        return pa.table(cols)

    return features


def _failing_nodes(t: pa.Table) -> pa.Table:
    """Quality decision over feature rows: the ids whose ``qfail`` is set."""
    if "qfail" not in t.column_names:  # schema-less empty block
        return pa.table({"node": pa.array([], pa.int64())})
    return pa.table({"node": t.filter(t["qfail"])["node"]})


def _sig_payload(t: pa.Table) -> pa.Table:
    """Near-dup input over feature rows: the (id, pl) signature rows of
    the docs that carry one."""
    if "pl" not in t.column_names:  # schema-less empty block
        t = pa.table(
            {"node": pa.array([], pa.int64()), "pl": pa.array([], pa.binary())}
        )
    t = t.filter(pc.is_valid(t["pl"]))
    return pa.table({"id": t["node"], "pl": t["pl"]})


def run_export(
    input_path: str,
    out_dir: str,
    cfg: CurateConfig | None = None,
    resume: bool = True,
) -> ExportResult:
    """Run the curation funnel over a documents/webpages parquet dir.

    The quality, exact and near-dup decisions share one scan of the
    (id, text) columns: a single ``map_batches`` (``_feature_rows``)
    lands one slim row per doc — the Gopher fail flag, the md5 key and
    the MinHash signature payload, each only while its decision is
    still to compute, and the md5 key and signature only for the docs
    that pass quality in the same batch (a failing doc never reaches
    the later decisions). The landing goes through ``land`` with the
    ``spill`` of ``cfg.lsh_kwargs``, like the signature landing of the
    near-dup chain. Each of the three decisions then reads those rows,
    filtered by the drops so far with the survivors helper the corpus
    scans use, and maps them with raw tasks (``blocks.map_blocks``):
    no decision rescans the corpus. A resumed run rebuilds the rows
    over the corpus filtered by the committed decisions. The other
    decisions (url, decontamination, overlap, DSIR, token budget) scan
    the columns they need themselves.

    Output layout::

        out_dir/
          decisions/<stage>/*.parquet   slim drop-id checkpoints
          corpus/[key=*/]*.parquet      the curated corpus
          manifest/                     per-stage lineage records
          report.json                   funnel counts + timings
    """
    import ray.data as rd

    import pyarrow.dataset as pads

    from ..stages.blocks import map_blocks, read_parquet
    from ..stages.dedup import apply_drops, neardup_drop_ids
    from ..stages.exchange import land, sorted_lookup
    from ..stages.textstage import normalize_url_array, redact_pii_batch

    cfg = cfg or CurateConfig()
    if cfg.url_dedup and not cfg.url_col:
        raise ValueError("url_dedup=True requires url_col")
    os.makedirs(out_dir, exist_ok=True)
    ddir = os.path.join(out_dir, "decisions")
    os.makedirs(ddir, exist_ok=True)

    # config+input fingerprint: a checkpointed decision is only valid
    # under the config AND input corpus that computed it — refuse to
    # resume across a config change or an input change (same out_dir,
    # different/updated input_path would otherwise silently apply old
    # drop ids to new docs). resume=False clears ALL prior checkpoint
    # state first, so a crashed fresh run can never poison a later
    # resume with stale decisions; the fingerprint itself is committed
    # tmp+rename (a kill mid-write must not brick the checkpoint dir).
    cfg_fp = {**_summarize_cfg(cfg), "__input__": _input_signature(input_path)}
    cfg_path = os.path.join(out_dir, "config.json")
    if not resume:
        for sub in ("manifest", "decisions", "corpus", "corpus.tmp"):
            shutil.rmtree(os.path.join(out_dir, sub), ignore_errors=True)
        for f in (cfg_path, os.path.join(out_dir, "report.json")):
            if os.path.exists(f):
                os.remove(f)
        os.makedirs(ddir, exist_ok=True)
    elif os.path.exists(cfg_path):
        try:
            with open(cfg_path) as f:
                prev = json.load(f)
        except json.JSONDecodeError:
            prev = None  # torn legacy write — treat as absent
        if prev is not None and prev != json.loads(json.dumps(cfg_fp)):
            raise ValueError(
                f"{out_dir} holds checkpoints from a different CurateConfig "
                "or input corpus; pass resume=False or use a fresh out_dir"
            )
    tmp_cfg = cfg_path + ".tmp"
    with open(tmp_cfg, "w") as f:
        json.dump(cfg_fp, f)
        f.flush()
        os.fsync(f.fileno())
    os.replace(tmp_cfg, cfg_path)

    manifest = Manifest(os.path.join(out_dir, "manifest"))
    committed = manifest.committed_partitions() if resume else set()

    id_col, text_col = cfg.id_col, cfg.text_col
    n_in = _meta_row_count(input_path)
    report: dict = {
        "rows_in": n_in,
        "stages": {},
        "resumed_stages": [],
        # benchmark suites can be MBs of text — the report carries a
        # count + content hash, never the texts themselves
        "config": _summarize_cfg(cfg),
    }

    # accumulated drop-set across sequential decision stages. Small
    # drop-sets are pulled ONCE into a merged sorted int64 array and
    # broadcast ONCE per change (ray.put) — every later scan filters in
    # a single searchsorted pass instead of chained anti-joins.
    # Oversized drop-sets (> broadcast_limit) stay as slim Datasets and
    # go through the bucketed exchange anti-join.
    acc_ids: list[np.ndarray] = []
    acc_big: list = []  # (Dataset, n) pairs too large to broadcast
    acc_n = 0
    _merged_ref = [None]  # cache: invalidated when acc_ids grows

    def _drops_ref():
        if _merged_ref[0] is None and acc_ids:
            _merged_ref[0] = ray.put(np.sort(np.concatenate(acc_ids)))
        return _merged_ref[0]

    def survivors(ds, key: str):
        """The rows of ``ds`` whose ``key`` no prior decision dropped."""
        ref = _drops_ref()
        if ref is not None:

            def keep_batch(t: pa.Table) -> pa.Table:
                if key not in t.column_names:  # schema-less empty block
                    return t
                ids = t[key].to_numpy(zero_copy_only=False)
                member, _ = sorted_lookup(ray.get(ref), ids)
                return t.filter(pa.array(~member))

            ds = map_blocks(ds, keep_batch)
        for d, n in acc_big:
            ds = apply_drops(
                ds, d, key, broadcast_limit=cfg.broadcast_limit, n_drop=n
            )
        return ds

    # opened once: every filtered() read is planned from its file list
    input_files = pads.dataset(input_path, format="parquet")

    def filtered(columns: list[str] | None):
        """Column-pruned corpus view with all prior drops applied."""
        return survivors(
            read_parquet(input_path, input_files, columns=columns), id_col
        )

    def resumed(name: str) -> bool:
        return f"decision:{name}" in committed and os.path.isdir(
            os.path.join(ddir, name)
        )

    spill = cfg.lsh_kwargs.get("spill")
    feats = []  # the landed feature rows, once the first reader asks

    def features():
        """Survivors among the funnel's per-doc feature rows; the first
        call scans the corpus and lands the rows."""
        if not feats:
            quality = cfg.quality_filter and not resumed("quality")
            sig_kw = None
            if cfg.neardup and not resumed("neardup"):
                sig_kw = {
                    k: cfg.lsh_kwargs[k]
                    for k in ("n_perm", "shingle_k", "seed")
                    if k in cfg.lsh_kwargs
                }
            fn = _feature_rows(
                text_col,
                id_col,
                quality,
                cfg.exact_dedup and not resumed("exact"),
                sig_kw,
            )
            scan = filtered([id_col, text_col]).map_batches(
                fn, batch_format="pyarrow"
            )
            feats.append(land(scan, spill, "features"))
        return survivors(feats[0], "node")

    def decision(name: str, compute):
        """Checkpointed decision stage: recompute or reload the slim
        drop-id set; fold it into the accumulated drop-set. A computed
        set is materialized once, and that is its only Ray Data
        execution when it fits the broadcast budget."""
        nonlocal acc_n
        key = f"decision:{name}"
        pdir = os.path.join(ddir, name)
        t0 = time.perf_counter()
        if resumed(name):
            drop, n = _load_decision(pdir, _drop_budget(cfg))
            report["resumed_stages"].append(name)
        else:
            d = compute()
            d = None if d is None else d.materialize()
            drop, n = _write_decision(d, pdir, _drop_budget(cfg))
            manifest.commit(
                PartitionRecord(
                    partition=key,
                    rows_scanned=n_in,
                    rows_violating=n,
                    constraint_outcomes={name: "pass"},
                    outputs=[pdir],
                )
            )
        if n and isinstance(drop, np.ndarray):
            acc_ids.append(drop)
            _merged_ref[0] = None  # invalidate the broadcast cache
        elif n:
            acc_big.append((drop, n))
        acc_n += n
        report["stages"][name] = {
            "dropped": n,
            "seconds": round(time.perf_counter() - t0, 3),
        }

    # ---- decision stages, in funnel order -------------------------------
    if cfg.quality_filter:
        decision("quality", lambda: map_blocks(features(), _failing_nodes))

    if cfg.url_dedup:

        def url_drops():
            base = filtered([id_col, cfg.url_col])

            def norm(t: pa.Table) -> pa.Table:
                # null/missing URLs are exempt from dedup (grouping them
                # would collapse every url-less doc into one "duplicate"
                # cluster and silently drop all but one)
                t = t.filter(pc.is_valid(t[cfg.url_col]))
                return pa.table(
                    {
                        "node": t[id_col].cast(pa.int64()),
                        "norm_url": normalize_url_array(t[cfg.url_col]),
                    }
                )

            return _loser_nodes(
                base.map_batches(norm, batch_format="pyarrow"), "norm_url"
            )

        decision("url", url_drops)

    if cfg.exact_dedup:
        decision("exact", lambda: _loser_nodes(features(), "h"))

    if cfg.decontaminate_texts:

        def decon_drops():
            from ..stages.dedup import decontaminate

            base = filtered([id_col, text_col])
            return decontaminate(
                base,
                list(cfg.decontaminate_texts),
                text_col,
                id_col,
                n=cfg.decontaminate_n,
            ).map_batches(lambda t: t.select(["node"]), batch_format="pyarrow")

        decision("decontaminate", decon_drops)

    if cfg.neardup:

        def near_drops():
            return neardup_drop_ids(
                map_blocks(features(), _sig_payload),
                None,
                "id",
                jaccard_threshold=cfg.jaccard_threshold,
                **cfg.lsh_kwargs,
            )

        decision("neardup", near_drops)
    if feats and spill is not None:
        spill.free("features")  # the near-dup decision was its last reader

    if cfg.overlap_dedup:

        def overlap_drops():
            from ..stages.dedup import winnow_overlap_drop_ids

            base = filtered([id_col, text_col])
            return winnow_overlap_drop_ids(
                base,
                text_col,
                id_col,
                k=16,
                w=16,
                min_shared=cfg.overlap_min_shared,
                max_df=cfg.overlap_max_df,
                fp_sample=cfg.overlap_fp_sample,
            )

        decision("overlap", overlap_drops)

    if cfg.dsir_keep is not None:
        if not (cfg.dsir_target_col and cfg.dsir_target_value is not None):
            raise ValueError(
                "dsir_keep needs dsir_target_col and dsir_target_value "
                "to define the target distribution"
            )

        def dsir_drops():

            from ..stages.dsir import (
                dsir_log_ratio,
                dsir_log_weights,
                dsir_top_k,
                gram_bucket_counts,
            )

            base = filtered([id_col, text_col, cfg.dsir_target_col])
            raw = gram_bucket_counts(
                base, text_col=text_col, n_buckets=cfg.dsir_buckets
            )
            tgt = gram_bucket_counts(
                base.filter(
                    expr=f"{cfg.dsir_target_col} == "
                    f"{cfg.dsir_target_value!r}"
                ),
                text_col=text_col,
                n_buckets=cfg.dsir_buckets,
            )
            lr = dsir_log_ratio(raw, tgt)
            w = dsir_log_weights(
                base, lr, text_col=text_col, id_col=id_col
            ).materialize()
            top = dsir_top_k(w, cfg.dsir_keep, id_col=id_col)
            keep_ids = np.sort(
                top[id_col].to_numpy(zero_copy_only=False).astype(
                    np.int64
                )
            )
            kref = ray.put(keep_ids)

            def not_kept(t: pa.Table) -> pa.Table:
                ids = t[id_col].to_numpy(zero_copy_only=False).astype(
                    np.int64
                )
                member, _ = sorted_lookup(ray.get(kref), ids)
                return pa.table({"node": pa.array(ids[~member], pa.int64())})

            return w.select_columns([id_col]).map_batches(
                not_kept, batch_format="pyarrow"
            )

        decision("dsir", dsir_drops)

    if cfg.token_budget is not None:

        def budget_drops():
            from ..stages.budget import (
                token_budget_mask,
                token_budget_thresholds,
            )
            from ..stages.textstage import TextFeatures

            cols = [id_col, text_col] + (
                [cfg.token_budget_key] if cfg.token_budget_key else []
            )
            base = filtered(cols)
            feats = base.map_batches(
                TextFeatures,
                fn_constructor_kwargs={"text_col": text_col},
                batch_format="pyarrow",
                concurrency=(1, 8),
                batch_size=4096,
            )

            def slim(t: pa.Table) -> pa.Table:
                q = t["quality"].to_numpy(zero_copy_only=False)
                out = {
                    "id": t[id_col].cast(pa.int64()),
                    "n_tokens": t["n_tokens"].cast(pa.int64()),
                    "q6": pa.array(np.floor(q * 1e6).astype(np.int64)),
                }
                if cfg.token_budget_key:
                    out[cfg.token_budget_key] = t[cfg.token_budget_key]
                return pa.table(out)

            sl = feats.map_batches(slim, batch_format="pyarrow").materialize()
            th = token_budget_thresholds(
                sl,
                cfg.token_budget,
                key_col=cfg.token_budget_key,
                id_col="id",
                tokens_col="n_tokens",
                q6_col="q6",
            )
            fn = token_budget_mask(th)

            def over_budget(t: pa.Table) -> pa.Table:
                m = fn(t)
                return pa.table(
                    {"node": t["id"].filter(pa.array(~m)).cast(pa.int64())}
                )

            return sl.map_batches(over_budget, batch_format="pyarrow")

        decision("token_budget", budget_drops)

    # ---- apply phase: one full-column scan → rewrite → write ------------
    corpus_dir = os.path.join(out_dir, "corpus")
    t0 = time.perf_counter()
    if resume and "apply" in committed and os.path.isdir(corpus_dir):
        report["resumed_stages"].append("apply")
    else:
        kept = filtered(None)  # all columns
        if cfg.line_dedup:
            from ..stages.dedup import line_dedup

            from ..stages.joins import bucketed_equi_join

            # line_dedup's input is pruned to (id, text): its side of
            # the join re-scans only those columns, the metadata side
            # scans everything but text — the corpus' payload columns
            # cross the apply phase exactly once
            ld = line_dedup(filtered([id_col, text_col]), text_col, id_col)
            others = kept.drop_columns([text_col])
            # hash equi-join on the id: both sides are corpus-sized but
            # slim (new text on one side, metadata on the other); docs
            # whose every line lost vanish (inner join = C4 semantics)
            kept = bucketed_equi_join(others, ld, key=id_col)

            def rename_text(t: pa.Table) -> pa.Table:
                return t.rename_columns(
                    [text_col if c == "text_deduped" else c for c in t.column_names]
                )

            kept = kept.map_batches(rename_text, batch_format="pyarrow")
        if cfg.pii_redact:

            def redact(t: pa.Table) -> pa.Table:
                r = redact_pii_batch(t, text_col, "__red")
                idx = r.column_names.index(text_col)
                return r.set_column(idx, text_col, r["__red"]).drop_columns(
                    ["__red"]
                )

            kept = kept.map_batches(redact, batch_format="pyarrow")
        if cfg.shuffle_seed is not None:
            kept = kept.random_shuffle(seed=cfg.shuffle_seed)
        tmp = corpus_dir + ".tmp"
        shutil.rmtree(tmp, ignore_errors=True)
        shutil.rmtree(corpus_dir, ignore_errors=True)
        if cfg.partition_col:
            kept.write_parquet(tmp, partition_cols=[cfg.partition_col])
        else:
            kept.write_parquet(tmp)
        # an all-dropped corpus writes no files at all — an empty
        # output dir is still a valid, committable result
        os.makedirs(tmp, exist_ok=True)
        os.rename(tmp, corpus_dir)
        manifest.commit(
            PartitionRecord(
                partition="apply",
                rows_scanned=n_in,
                constraint_outcomes={"apply": "pass"},
                outputs=[corpus_dir],
            )
        )
    n_out = _meta_row_count(corpus_dir)
    report["stages"]["apply"] = {
        "seconds": round(time.perf_counter() - t0, 3)
    }
    if cfg.line_dedup:
        # docs whose every line lost vanish in the inner join — account
        # for them so rows_in - rows_dropped == rows_out always holds
        report["stages"]["line_dedup"] = {
            "dropped": (n_in - acc_n) - n_out
        }
        acc_n = n_in - n_out
    report["rows_out"] = n_out
    report["rows_dropped"] = acc_n

    if cfg.pii_redact:  # totals from the output's slim columns
        pii_cols = ["n_emails", "n_phones", "n_ips"]
        totals = np.zeros(len(pii_cols), np.int64)
        if n_out:
            # one raw task per written file reads only the count columns
            # and returns their sums, added up on the driver
            files = [
                os.path.join(d, f)
                for d, _, names in os.walk(corpus_dir)
                for f in names
                if f.endswith(".parquet")
            ]
            for sums in ray.get([_column_sums.remote(f, pii_cols) for f in files]):
                totals += sums
        report["pii"] = {
            k: int(v) for k, v in zip(("emails", "phones", "ips"), totals)
        }

    if cfg.pack_chunk_tokens is not None:
        chunks_dir = os.path.join(out_dir, "chunks")
        t0 = time.perf_counter()
        if resume and "pack_chunks" in committed and os.path.isdir(chunks_dir):
            report["resumed_stages"].append("pack_chunks")
        else:
            from ..stages.budget import pack_chunks

            cols = [id_col, text_col] + (
                [cfg.partition_col] if cfg.partition_col else []
            )
            spans_tmp = chunks_dir + ".tmp"
            shutil.rmtree(spans_tmp, ignore_errors=True)
            shutil.rmtree(chunks_dir, ignore_errors=True)
            if n_out:
                base = rd.read_parquet(corpus_dir, columns=cols)
                slim = base.map_batches(
                    _pack_token_rows,
                    fn_args=(id_col, text_col, cfg.partition_col),
                    batch_format="pyarrow",
                )
                spans = pack_chunks(
                    slim,
                    cfg.pack_chunk_tokens,
                    key_col=cfg.partition_col,
                    id_col=id_col,
                )
                spans.write_parquet(spans_tmp)
            os.makedirs(spans_tmp, exist_ok=True)
            os.rename(spans_tmp, chunks_dir)
            manifest.commit(
                PartitionRecord(
                    partition="pack_chunks",
                    rows_scanned=n_out,
                    constraint_outcomes={"pack_chunks": "pass"},
                    outputs=[chunks_dir],
                )
            )
        n_chunks = 0
        if os.path.isdir(chunks_dir) and any(
            f.endswith(".parquet") for f in os.listdir(chunks_dir)
        ):
            ce = rd.read_parquet(chunks_dir, columns=["chunk_end"]).max(
                "chunk_end"
            )
            n_chunks = int(ce) + 1 if ce is not None else 0
        report["stages"]["pack_chunks"] = {
            "chunk_tokens": cfg.pack_chunk_tokens,
            "max_chunks_per_key": n_chunks,
            "seconds": round(time.perf_counter() - t0, 3),
        }

    with open(os.path.join(out_dir, "report.json"), "w") as f:
        json.dump(report, f, indent=1)
    return ExportResult(out_dir=out_dir, report=report)


def finalize_corpus_budget(
    out_root: str,
    token_budget: int,
    token_budget_key: str | None = None,
    text_col: str = "text",
    id_col: str = "doc_id",
    partition_col: str | None = None,
) -> dict:
    """Whole-corpus token-budget pass over an incremental export's
    accumulated corpus (the per-batch ``CurateConfig.token_budget``
    applies batch-by-batch; this is the end-of-ingest global cut).

    Consolidates every ``batch-*/out/corpus`` into ``final/input`` by
    HARDLINK (copy fallback) preserving the hive partition layout —
    deterministic names (``<batch-id>-<file>``), no payload copy — and
    skips the consolidation entirely when the batch set is unchanged
    (``final/input.meta.json`` ledger), so repeated calls with no new
    batches resume ``run_export``'s own decision checkpoints instead
    of recomputing. Then runs a budget-ONLY funnel into ``final/out``
    (every other stage off — the per-batch funnels already applied
    them)."""
    import glob as _glob

    batch_dirs = sorted(
        d
        for d in _glob.glob(os.path.join(out_root, "batch-*", "out", "corpus"))
        if os.path.isdir(d)
    )
    final_root = os.path.join(out_root, "final")
    inp = os.path.join(final_root, "input")
    meta_path = os.path.join(final_root, "input.meta.json")
    if not batch_dirs:
        return {"batches": 0, "final_out": None}

    manifest_entries = []
    for d in batch_dirs:
        rid = os.path.basename(os.path.dirname(os.path.dirname(d)))
        for dirpath, _dn, filenames in os.walk(d):
            for fn in sorted(filenames):
                if not fn.endswith(".parquet"):
                    continue
                src = os.path.join(dirpath, fn)
                rel = os.path.relpath(dirpath, d)
                manifest_entries.append((src, rel, f"{rid}-{fn}"))
    ledger = sorted(
        (rel, name, os.path.getsize(src)) for src, rel, name in manifest_entries
    )
    prev = None
    if os.path.exists(meta_path):
        with open(meta_path) as f:
            prev = json.load(f)
    consolidated = False
    if prev != [list(e) for e in ledger] or not os.path.isdir(inp):
        tmp = inp + ".tmp"
        shutil.rmtree(tmp, ignore_errors=True)
        for src, rel, name in manifest_entries:
            dst_dir = os.path.join(tmp, rel) if rel != "." else tmp
            os.makedirs(dst_dir, exist_ok=True)
            dst = os.path.join(dst_dir, name)
            try:
                os.link(src, dst)
            except OSError:
                shutil.copy2(src, dst)
        shutil.rmtree(inp, ignore_errors=True)
        os.replace(tmp, inp)
        with open(meta_path + ".tmp", "w") as f:
            json.dump([list(e) for e in ledger], f)
        os.replace(meta_path + ".tmp", meta_path)
        consolidated = True

    cfg = CurateConfig(
        text_col=text_col,
        id_col=id_col,
        quality_filter=False,
        exact_dedup=False,
        neardup=False,
        line_dedup=False,
        pii_redact=False,
        token_budget=token_budget,
        token_budget_key=token_budget_key,
        partition_col=partition_col,
    )
    # a changed batch set invalidates final/out's input fingerprint —
    # run_export would refuse the stale checkpoints, so clear them
    res = run_export(
        inp, os.path.join(final_root, "out"), cfg, resume=not consolidated
    )
    return {
        "batches": len(batch_dirs),
        "consolidated": consolidated,
        "final_out": res.corpus_dir,
        "report": res.report,
    }


# ---------------------------------------------------------------------------
# Incremental export: landing zone → per-batch funnel with CROSS-BATCH
# exact dedup against the accumulated corpus hash index (r2 verdict #6)
# ---------------------------------------------------------------------------


def _batch_run_id(files: list[str]) -> str:
    import hashlib as _hl

    return "batch-" + _hl.sha1("\n".join(sorted(files)).encode()).hexdigest()[:12]


_BLOOM_SHARD_BITS = 1 << 30  # ≤128 MB bitset per sidecar shard file
_BLOOM_FLAT_MAX_BITS = 1 << 33  # above this, shard the sidecar


def new_bloom_sidecar(bits: int):
    """ShardedBloom sized for ``bits`` total: one shard below 2^33
    bits (the flat regime — one object, one ray.put), then hash-prefix
    shards of ≤2^30 bits each so the 10^9-10^10-hash tier keeps
    per-file / per-merge / per-probe memory bounded."""
    from ..state.sketches import ShardedBloom

    bits = max(int(bits), 64)
    if bits <= _BLOOM_FLAT_MAX_BITS:
        n_shards = 1
    else:
        n_shards = 1 << max(
            0, (bits + _BLOOM_SHARD_BITS - 1) // _BLOOM_SHARD_BITS - 1
        ).bit_length()
    per = -(-bits // n_shards)
    per = ((per + 63) // 64) * 64  # multiple of 64
    return ShardedBloom(n_shards=n_shards, m_bits_per_shard=per, k=7)


def load_bloom_sidecar(index_dir: str):
    """Load the hash-index Bloom sidecar: the v2 dir form
    (``_bloom.d/`` — per-shard files + canary header), else the legacy
    v1 single file (wrapped as a 1-shard ShardedBloom, bit-identical
    layout; upgraded to v2 at the next save). Returns None when absent
    or NOT TRUSTWORTHY:

    - **canary mismatch** — the persisted bit positions came from a
      polars aHash that differs from this process's (``hash64``'s
      string path is documented stable only within a
      process/container). A silently mismatched bloom returns FALSE
      NEGATIVES, and a bloom miss skips the exact anti-join entirely,
      so exactness would break with no error; treating the sidecar as
      absent forces a rebuild from the index shards instead.
    - **torn sidecar** — missing/short shard file or unreadable
      header from a crashed pre-v2 writer.
    """
    from ..state.sketches import BloomFilter, ShardedBloom, hash_canary

    bloom_dir = os.path.join(index_dir, "_bloom.d")
    bloom_path = os.path.join(index_dir, "_bloom.bin")
    if os.path.isdir(bloom_dir):
        try:
            with open(os.path.join(bloom_dir, "header.json")) as f:
                hdr = json.load(f)
        except (OSError, json.JSONDecodeError):
            return None
        if int(hdr.get("canary", -1)) != hash_canary():
            return None  # stale hash function — force rebuild
        sb = ShardedBloom(
            n_shards=int(hdr["n_shards"]),
            m_bits_per_shard=int(hdr["m_bits_per_shard"]),
            k=int(hdr["k"]),
        )
        step = sb.shards[0].m_bits // 8
        for s in range(sb.n_shards):
            try:
                with open(
                    os.path.join(bloom_dir, f"s{s:04d}.bin"), "rb"
                ) as f:
                    words = np.frombuffer(f.read(), dtype=np.uint64)
            except OSError:
                return None  # torn sidecar — rebuild
            if words.nbytes != step:
                return None
            sb.shards[s].words = words.copy()
        return sb
    if os.path.exists(bloom_path):
        # legacy flat file: no canary (pre-v2 contract: same
        # container). Wrap 1-shard so the next save upgrades it to
        # the canary-checked dir form.
        with open(bloom_path, "rb") as f:
            flat = BloomFilter.from_bytes(f.read())
        sb = ShardedBloom(1, flat.m_bits, flat.k)
        sb.shards[0] = flat
        return sb
    return None


def save_bloom_sidecar(index_dir: str, sb) -> None:
    """Per-shard atomic writes (tmp + replace) of DIRTY shards only,
    header last — a maintenance batch rewrites ~shard_bytes per
    touched shard, never a monolithic file. A crash mid-save leaves
    some shards updated and some not — safe, because the caller
    writes the bloom BEFORE the batch's index shard lands (bloom ⊇
    index still holds) and the re-run's OR-adds are idempotent."""
    import polars as pl

    from ..state.sketches import hash_canary

    bloom_dir = os.path.join(index_dir, "_bloom.d")
    bloom_path = os.path.join(index_dir, "_bloom.bin")
    fresh = not os.path.isdir(bloom_dir)
    if not fresh:
        # geometry change (autogrow / reshard) invalidates every file
        try:
            with open(os.path.join(bloom_dir, "header.json")) as f:
                hdr = json.load(f)
            fresh = (
                int(hdr.get("n_shards", -1)) != sb.n_shards
                or int(hdr.get("m_bits_per_shard", -1))
                != sb.shards[0].m_bits
            )
        except (OSError, json.JSONDecodeError):
            fresh = True
    os.makedirs(bloom_dir, exist_ok=True)
    todo = range(sb.n_shards) if fresh else sorted(sb.dirty)
    for s in todo:
        tmp = os.path.join(bloom_dir, f"s{s:04d}.bin.tmp")
        with open(tmp, "wb") as f:
            f.write(sb.shards[s].words.tobytes())
        os.replace(tmp, os.path.join(bloom_dir, f"s{s:04d}.bin"))
    hdr = {
        "canary": hash_canary(),
        "polars": pl.__version__,
        "n_shards": sb.n_shards,
        "m_bits_per_shard": sb.shards[0].m_bits,
        "k": sb.k,
    }
    tmp = os.path.join(bloom_dir, "header.json.tmp")
    with open(tmp, "w") as f:
        json.dump(hdr, f)
    os.replace(tmp, os.path.join(bloom_dir, "header.json"))
    sb.dirty.clear()
    if os.path.exists(bloom_path):
        os.remove(bloom_path)  # retire the legacy v1 file


def rebuild_bloom_sidecar_parallel(shard_paths: list[str], bits: int):
    """Shard-parallel rebuild of the Bloom sidecar from the hash-index
    parquet shards — the autogrow/canary-mismatch rebuild was the one
    single-process stretch left in the bloom maintenance path (a 10⁹-
    hash rebuild is ~10¹⁰ scattered bit-sets; one process grinds for
    minutes while 31 cores idle).

    Two raw-task phases, same exchange shape as the bench's per-shard
    merges:

    1. one task per index shard reads its ``h`` column (column-pruned),
       computes ``hash64`` once, and splits the hashes by bloom-shard
       prefix (``num_returns=n_shards``) — only 8-byte hashes cross
       plasma, never hex strings;
    2. one task per BLOOM shard ORs exactly its slices into a fresh
       :class:`BloomFilter` and returns the compact codec bytes —
       per-task memory is one shard's bitset + its hash slices.

    In the flat regime (``n_shards == 1``) phase 2 would be one task,
    so instead each task builds a full-size PARTIAL bloom over a group
    of index shards and the driver word-ORs them — group count capped
    so transient partial bitsets stay ≲2 GB. Hash positions are
    identical either way (``hash64`` is process-stable within a
    container — the canary guards the container boundary), so the
    rebuilt sidecar is bit-identical to the sequential build
    (parity-tested)."""
    import pyarrow.parquet as pq

    from ..state.sketches import BloomFilter, hash64

    sb = new_bloom_sidecar(bits)
    if not shard_paths:
        return sb
    n_shards, per, k = sb.n_shards, sb.shards[0].m_bits, sb.k
    shift = sb._shift

    if n_shards == 1:
        cpus = int(ray.cluster_resources().get("CPU", 8))
        max_by_mem = max(1, (2 << 30) // max(1, per // 8))
        G = max(1, min(len(shard_paths), cpus, max_by_mem))

        @ray.remote
        def build_group(paths):
            bf = BloomFilter(per, k)
            for p in paths:
                bf.add_array(pq.read_table(p, columns=["h"])["h"])
            return bf.to_bytes()

        groups = [shard_paths[g::G] for g in range(G)]
        parts = ray.get([build_group.remote(g) for g in groups if g])
        out = BloomFilter.from_bytes(parts[0])
        for b in parts[1:]:
            out.merge(BloomFilter.from_bytes(b))
        sb.shards[0] = out
        sb.dirty.add(0)
        return sb

    @ray.remote
    def hash_route(path):
        h = hash64(pq.read_table(path, columns=["h"])["h"])
        sid = (h >> shift).astype(np.int64)
        order = np.argsort(sid, kind="stable")
        hs = h[order]
        bounds = np.searchsorted(sid[order], np.arange(n_shards + 1))
        return tuple(
            hs[bounds[s]:bounds[s + 1]] for s in range(n_shards)
        )

    @ray.remote
    def build_shard(*slices):
        bf = BloomFilter(per, k)
        for hs in slices:
            bf.add_hashes(hs)
        return bf.to_bytes()

    splits = [
        hash_route.options(num_returns=n_shards).remote(p)
        for p in shard_paths
    ]
    outs = ray.get(
        [build_shard.remote(*[sp[s] for sp in splits])
         for s in range(n_shards)]
    )
    for s, b in enumerate(outs):
        sb.shards[s] = BloomFilter.from_bytes(b)
        sb.dirty.add(s)
    return sb


def run_export_incremental(
    landing_dir: str,
    out_root: str,
    cfg: CurateConfig | None = None,
    interval_s: float = 0.2,
    max_polls: int | None = None,
    max_empty_polls: int | None = 1,
    quarantine_grace_s: float = 5.0,
    index_broadcast_limit: int | None = None,
    cross_batch_neardup: bool = False,
    finalize_budget: int | None = None,
    finalize_budget_key: str | None = None,
    bloom_prefilter: bool = True,
    bloom_bits: int = 1 << 24,
) -> dict:
    """Continuous curation loop: poll the landing zone, run the export
    funnel over each arrival batch with cross-batch exact dedup against
    the accumulated corpus hash index.

    Layout::

        out_root/
          hash_index/batch-<id>.parquet   md5 of every doc each batch INGESTED
          batch-<id>/staged/input/        batch minus already-seen docs (atomic)
          batch-<id>/staged/new_hashes/   this batch's distinct md5s
          batch-<id>/out/                 that batch's run_export directory

    Cross-batch semantics: "seen" = every doc a previous batch INGESTED
    (post-filter input), so a doc the funnel later rejected (quality,
    near-dup loser) stays rejected when it arrives again — this is
    dedup-against-history, not re-curation. The index probe broadcasts
    a sorted fixed-width (S32) md5 array below ``index_broadcast_limit``
    entries (one searchsorted per batch block); above it the filter is
    the bucketed hash-exchange anti-join on the md5 string.

    Crash safety: the landing ledger commits a batch only after the
    funnel AND the index shard land. A kill mid-batch retries into the
    SAME batch id (content hash of the shard list): the staged filter
    is one atomic directory rename, ``run_export`` resumes from its own
    checkpoints, and the index-shard write is idempotent tmp+rename.
    The probe excludes the same-batch index shard, so a retry can never
    drop its own documents.

    ``cross_batch_neardup=True`` extends "seen" from exact to NEAR
    duplicates: an accumulated MinHash signature index
    (``neardup_index/``, per-batch sig + band parquet shards — see
    stages.dedup.minhash_index_probe) is probed after the exact filter,
    and new docs whose signature agreement with any previously-ingested
    doc reaches ``cfg.jaccard_threshold`` are dropped before curation.
    Surviving docs' signatures are staged with the batch and appended
    next to the hash-index shard under the same crash contract
    (idempotent write, same-batch exclusion on retry). LSH parameters
    come from ``cfg.lsh_kwargs`` (n_perm/bands/shingle_k/seed).

    ``bloom_prefilter`` (default on): the LARGE-index probe path keeps
    a Bloom sidecar (``hash_index/_bloom.d/`` — per-shard files +
    canary header, see :func:`load_bloom_sidecar`; ``bloom_bits`` bits)
    covering every indexed md5; arrival rows whose hash MISSES the
    bloom provably aren't in the index and skip the anti-join
    entirely — only bloom hits (≈ true dups + the fp rate) pay the
    exchange. Exactness is preserved (a Bloom has no false negatives).
    Crash contract: the bloom is updated BEFORE the index shard lands
    (bloom ⊇ index always holds; extra bloom bits from a crashed
    attempt only cost a redundant exact check), updates are idempotent
    OR-merges, and a missing sidecar (pre-bloom index) is rebuilt from
    all shards at the next append — probing just falls back to the
    full anti-join until then."""
    import ray.data as rd

    from ..sources.landing import LandingZone
    from ..stages.constraints import bucketed_anti_join
    from ..stages.exchange import sorted_lookup

    cfg = cfg or CurateConfig()
    id_col, text_col = cfg.id_col, cfg.text_col
    os.makedirs(out_root, exist_ok=True)
    index_dir = os.path.join(out_root, "hash_index")
    os.makedirs(index_dir, exist_ok=True)
    nd_dir = os.path.join(out_root, "neardup_index")
    _lk = cfg.lsh_kwargs or {}
    nd_perm = int(_lk.get("n_perm", 64))
    nd_bands = int(_lk.get("bands", 16))
    nd_shingle = int(_lk.get("shingle_k", 3))
    nd_seed = int(_lk.get("seed", 1337))
    lz = LandingZone(
        landing_dir,
        expected_columns=[id_col, text_col],
        quarantine_grace_s=quarantine_grace_s,
    )
    batches: list[dict] = []

    def _index_shards(exclude_rid: str) -> list[str]:
        return [
            os.path.join(index_dir, f)
            for f in sorted(os.listdir(index_dir))
            if f.endswith(".parquet") and f != f"{exclude_rid}.parquet"
        ]

    def _load_bloom():
        return load_bloom_sidecar(index_dir)

    def _update_bloom(new_hashes: pa.Table, rid: str) -> None:
        """OR the batch's md5s into the sidecar — idempotent, written
        BEFORE the index shard so bloom ⊇ index always holds. A
        missing sidecar over a non-empty index (pre-bloom state, a
        deleted file, or a CANARY MISMATCH after a hash-function
        change) is rebuilt from every shard first. When the
        accumulated corpus saturates the bitset (fp rate > 5% — a
        saturated bloom silently degrades to "everything hits", i.e.
        the plain anti-join), the sidecar is REBUILT at 4x bits from
        the shards: one index read, amortized over every later batch.
        Past 2^33 bits the rebuild lands in the hash-prefix-sharded
        form (per-shard files / merges / probes), and the rebuild
        itself runs shard-parallel (one hash-route task per index
        shard, one OR task per bloom shard — see
        :func:`rebuild_bloom_sidecar_parallel`)."""

        def rebuild(bits: int):
            return rebuild_bloom_sidecar_parallel(_index_shards(rid), bits)

        bf = _load_bloom()
        if bf is None:
            bf = rebuild(bloom_bits)
        bf.add_array(new_hashes["h"])
        while bf.fp_rate() > 0.05:
            grown = rebuild(bf.m_bits * 4)
            grown.add_array(new_hashes["h"])
            bf = grown
        save_bloom_sidecar(index_dir, bf)

    def _md5_col(t: pa.Table) -> pa.Table:
        return t.append_column("__h", _md5_keys(t[text_col]))

    def _stage_batch(paths: list[str], staged: str, rid: str) -> None:
        tmp = staged + ".tmp"
        shutil.rmtree(tmp, ignore_errors=True)
        os.makedirs(tmp, exist_ok=True)
        batch = rd.read_parquet(paths).map_batches(
            _md5_col, batch_format="pyarrow"
        )
        shards = _index_shards(rid)
        if shards:
            n_idx = _meta_row_count(shards)
            ibl = index_broadcast_limit
            if ibl is None:
                from ..stages.exchange import broadcast_rows_budget

                # md5 hashes: 32 B + arrow overhead per index row
                ibl = broadcast_rows_budget(bytes_per_row=40)
            if n_idx <= ibl:
                import pyarrow.parquet as pq

                seen = np.sort(
                    np.asarray(
                        pa.concat_tables(
                            [pq.read_table(s, columns=["h"]) for s in shards]
                        )["h"].to_pylist(),
                        dtype="S32",
                    )
                )
                ref = ray.put(seen)

                def drop_seen(t: pa.Table) -> pa.Table:
                    if t.num_rows == 0:
                        return t
                    hs = np.asarray(t["__h"].to_pylist(), dtype="S32")
                    seen, _ = sorted_lookup(ray.get(ref), hs)
                    return t.filter(pa.array(~seen))

                batch = batch.map_batches(drop_seen, batch_format="pyarrow")
            else:
                idx_ds = rd.read_parquet(shards)
                bf = _load_bloom() if bloom_prefilter else None
                if bf is not None:
                    # bloom miss ⇒ provably not in the index. The HITS
                    # (≈ true dups + fp rate) resolve via the
                    # minhash_index_probe shape — broadcast the sorted
                    # hit hashes, scan the index COLUMN-PRUNED with a
                    # searchsorted filter (no shuffle), broadcast back
                    # the found set — instead of an anti-join that
                    # exchanges every index row. Dup-heavy batches
                    # (hits above the broadcast budget) fall back to
                    # the anti-join of the hits.
                    bref = ray.put(bf)

                    def add_hit(t: pa.Table) -> pa.Table:
                        b = ray.get(bref)
                        return t.append_column(
                            "__bh", pa.array(b.contains_array(t["__h"]))
                        )

                    probed = batch.map_batches(
                        add_hit, batch_format="pyarrow"
                    ).materialize()
                    miss = probed.filter(expr="__bh == False").drop_columns(
                        ["__bh"]
                    )
                    hits = probed.filter(expr="__bh == True").drop_columns(
                        ["__bh"]
                    )
                    n_hits = hits.count()
                    if n_hits == 0:
                        batch = miss
                    elif n_hits <= ibl:
                        from ..state.sketches import hash64 as _h64

                        hh_tbl = hits.select_columns(["__h"]).to_pandas()
                        hh = np.unique(
                            np.asarray(hh_tbl["__h"], dtype="S32")
                        )
                        hh64 = np.sort(
                            _h64(pa.array(hh_tbl["__h"])).view(np.int64)
                        )
                        href = ray.put((hh, hh64))

                        def found_in_shard(t: pa.Table) -> pa.Table:
                            # vectorized route on hash64 (no Python
                            # string objects over the index), exact
                            # string confirm only on the rare matches
                            s, s64 = ray.get(href)
                            hit, _ = sorted_lookup(
                                s64, _h64(t["h"]).view(np.int64)
                            )
                            cand = t.filter(pa.array(hit))
                            if cand.num_rows == 0:
                                return cand
                            hs = np.asarray(
                                cand["h"].to_pylist(), dtype="S32"
                            )
                            return cand.filter(
                                pa.array(sorted_lookup(s, hs)[0])
                            )

                        found = np.unique(
                            np.asarray(
                                rd.read_parquet(shards)
                                .map_batches(
                                    found_in_shard,
                                    batch_format="pyarrow",
                                )
                                .to_pandas()["h"],
                                dtype="S32",
                            )
                        )
                        fref = ray.put(found)

                        def drop_found(t: pa.Table) -> pa.Table:
                            if t.num_rows == 0:
                                return t
                            hs = np.asarray(
                                t["__h"].to_pylist(), dtype="S32"
                            )
                            found, _ = sorted_lookup(ray.get(fref), hs)
                            return t.filter(pa.array(~found))

                        batch = miss.union(
                            hits.map_batches(
                                drop_found, batch_format="pyarrow"
                            )
                        )
                    else:
                        batch = miss.union(
                            bucketed_anti_join(
                                hits, idx_ds, fk="__h", pk="h"
                            )
                        )
                else:
                    batch = bucketed_anti_join(batch, idx_ds, fk="__h", pk="h")
        batch = batch.materialize()
        if cross_batch_neardup:
            from ..stages.dedup import (
                collect_minhash_sigs,
                minhash_index_probe,
            )

            nd_ids, nd_sigs = collect_minhash_sigs(
                batch, text_col, id_col, nd_perm, nd_shingle, nd_seed
            )
            nd_drop = minhash_index_probe(
                nd_dir,
                nd_ids,
                nd_sigs,
                threshold=cfg.jaccard_threshold,
                bands=nd_bands,
                exclude_rid=rid,
                shingle_k=nd_shingle,
                seed=nd_seed,
            )
            if nd_drop.shape[0]:
                drop_ref = ray.put(np.sort(nd_drop))

                def drop_neardups(t: pa.Table) -> pa.Table:
                    tid = t[id_col].cast(pa.int64()).to_numpy(
                        zero_copy_only=False
                    )
                    dropped, _ = sorted_lookup(ray.get(drop_ref), tid)
                    return t.filter(pa.array(~dropped))

                batch = batch.map_batches(
                    drop_neardups, batch_format="pyarrow"
                ).materialize()
            # stage the SURVIVORS' signatures (the docs this batch
            # ingests) for the idempotent index append after the funnel
            keep = (
                ~np.isin(nd_ids, nd_drop)
                if nd_drop.shape[0]
                else np.ones(nd_ids.shape[0], bool)
            )
            import pyarrow.parquet as pq

            pq.write_table(
                pa.table(
                    {
                        "id": pa.array(nd_ids[keep], pa.int64()),
                        "sig": pa.array(
                            [row.tobytes() for row in nd_sigs[keep]],
                            pa.binary(),
                        ),
                    }
                ),
                os.path.join(tmp, "new_sigs.parquet"),
            )
        batch.map_batches(
            lambda t: t.drop_columns(["__h"]) if "__h" in t.column_names else t,
            batch_format="pyarrow",
        ).write_parquet(os.path.join(tmp, "input"))
        (
            batch.map_batches(
                lambda t: pa.table(
                    {"h": t["__h"] if "__h" in t.column_names
                     else pa.array([], pa.string())}
                ),
                batch_format="pyarrow",
            )
            .groupby("h")
            .count()
            .map_batches(
                lambda t: t.select(["h"]) if "h" in t.column_names
                else pa.table({"h": pa.array([], pa.string())}),
                batch_format="pyarrow",
            )
            .write_parquet(os.path.join(tmp, "new_hashes"))
        )
        # an all-duplicates batch writes no files — pin empty schemas so
        # a later resume can still read the staged dirs
        import pyarrow.parquet as pq

        schema = rd.read_parquet(paths).schema().base_schema
        for sub, sch in (
            ("input", schema),
            ("new_hashes", pa.schema([("h", pa.string())])),
        ):
            p = os.path.join(tmp, sub)
            os.makedirs(p, exist_ok=True)
            if not any(f.endswith(".parquet") for f in os.listdir(p)):
                pq.write_table(sch.empty_table(), os.path.join(p, "empty.parquet"))
        os.rename(tmp, staged)

    def export_batch(_ds, files):
        rid = _batch_run_id(files)
        bdir = os.path.join(out_root, rid)
        os.makedirs(bdir, exist_ok=True)
        staged = os.path.join(bdir, "staged")
        paths = [os.path.join(lz.landing_dir, f) for f in files]
        if not os.path.exists(staged):
            _stage_batch(paths, staged, rid)
        inp = os.path.join(staged, "input")
        n_new = _meta_row_count(inp)
        rec = {
            "batch_id": rid,
            "files": files,
            "rows_arrived": _meta_row_count(paths),
            "rows_new": n_new,
        }
        if n_new:
            res = run_export(inp, os.path.join(bdir, "out"), cfg, resume=True)
            rec["rows_out"] = res.report["rows_out"]
            rec["out_dir"] = res.out_dir
        else:
            rec["rows_out"] = 0
        # idempotent index append — the ledger commit comes after this,
        # so a kill here retries the whole batch into the same state
        import pyarrow.parquet as pq

        nh = pq.ParquetDataset(os.path.join(staged, "new_hashes")).read()
        if bloom_prefilter:
            _update_bloom(nh, rid)  # MUST precede the shard rename
        tmpf = os.path.join(index_dir, f".{rid}.tmp")
        pq.write_table(nh, tmpf)
        os.replace(tmpf, os.path.join(index_dir, f"{rid}.parquet"))
        if cross_batch_neardup and os.path.exists(
            os.path.join(staged, "new_sigs.parquet")
        ):  # exists unless the batch was staged with the flag off
            from ..stages.dedup import minhash_index_append

            ns = pq.read_table(os.path.join(staged, "new_sigs.parquet"))
            sig_ids = ns["id"].to_numpy(zero_copy_only=False)
            sig_arr = (
                np.frombuffer(
                    b"".join(ns["sig"].to_pylist()), dtype=np.uint64
                ).reshape(-1, nd_perm)
                if len(ns)
                else np.empty((0, nd_perm), np.uint64)
            )
            minhash_index_append(
                nd_dir, rid, sig_ids, sig_arr, nd_bands,
                shingle_k=nd_shingle, seed=nd_seed,
            )
        batches.append(rec)

    n = lz.run_loop(
        export_batch,
        interval_s=interval_s,
        max_polls=max_polls,
        max_empty_polls=max_empty_polls,
    )
    finalize = None
    if finalize_budget is not None:
        # end-of-ingest WHOLE-corpus budget cut (the per-batch
        # cfg.token_budget is per arrival batch by construction)
        finalize = finalize_corpus_budget(
            out_root,
            finalize_budget,
            token_budget_key=finalize_budget_key,
            text_col=text_col,
            id_col=id_col,
            partition_col=cfg.partition_col,
        )
    return {
        "shards_processed": n,
        "finalize": finalize,
        "batches": batches,
        "quarantined": lz.quarantined(),
        "index_dir": index_dir,
        "index_rows": _meta_row_count(index_dir)
        if os.listdir(index_dir)
        else 0,
        "sig_index_rows": (
            _meta_row_count(
                [
                    os.path.join(nd_dir, f)
                    for f in os.listdir(nd_dir)
                    if f.endswith(".sig.parquet")
                ]
            )
            if cross_batch_neardup and os.path.isdir(nd_dir)
            and any(f.endswith(".sig.parquet") for f in os.listdir(nd_dir))
            else 0
        ),
    }

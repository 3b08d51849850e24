"""End-to-end export/curation funnel benchmark at scale, truth-checked.

Planted corpus (same mix as tools/kill_resume_export.py: ~70% good
unique, 10% quality-fail, 10% exact dups, 5% 3-token-swap near-dups,
5% PII-laced), full funnel (Gopher quality → exact dedup → MinHash
near-dup → PII redact → partitioned corpus write), fresh uncapped run
at 32 CPUs. Stage drop counts are verified against DuckDB-computed
ground truth on the SAME corpus:

- quality drops  == exact count of the planted too-short docs,
- exact-dup drops == (rows - distinct texts) among quality survivors,
- near-dup drops >= 95% of the planted swap docs (similarity ~0.95,
  well above the 0.7 threshold; star emission, recall not exactly 1
  by construction — measured rate reported),
- rows_out == input - sum(drops)  (funnel arithmetic).

Usage: python tools/export_bench.py [n_docs] [n_shards] [token_budget]
       [pack_chunk_tokens] [--spill DIR [--phases N]]

--spill lands the near-dup chain's sig/band/pruned tables as parquet
and runs its exchange and verify joins on disk under DIR.
"""
from __future__ import annotations

import json
import os
import shutil
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

ROOT = "/tmp/sod_export_bench"


def main(n_docs: int = 5_000_000, n_shards: int = 64,
         token_budget: int | None = None,
         pack_chunk_tokens: int | None = None,
         spill=None):
    import duckdb
    import ray

    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    import kill_resume_export as kre

    kre.INP = os.path.join(ROOT, "corpus")
    inp, out = kre.INP, os.path.join(ROOT, "out")
    meta = os.path.join(ROOT, "corpus-meta.json")
    want = {"n_docs": n_docs, "n_shards": n_shards}
    have = None
    try:
        have = json.load(open(meta))
    except (OSError, json.JSONDecodeError):
        pass
    if have == want:
        # reuse the deterministic corpus (a prior run's funnel may
        # have failed after gen — e.g. the 60M in-plasma ENOSPC)
        shutil.rmtree(out, ignore_errors=True)
        gen_sec = 0.0
    else:
        shutil.rmtree(ROOT, ignore_errors=True)
        t0 = time.perf_counter()
        kre.gen_corpus(n_docs, n_shards)
        gen_sec = time.perf_counter() - t0
        os.makedirs(ROOT, exist_ok=True)
        with open(meta, "w") as f:
            json.dump(want, f)

    con = duckdb.connect()
    con.execute(
        f"CREATE VIEW c AS SELECT * FROM read_parquet('{inp}/*.parquet')"
    )
    truth_quality = con.execute(
        "SELECT COUNT(*) FROM c WHERE text = 'too short to pass quality'"
    ).fetchone()[0]
    truth_exact = con.execute(
        "SELECT COUNT(*) - COUNT(DISTINCT text) FROM c "
        "WHERE text != 'too short to pass quality'"
    ).fetchone()[0]
    truth_neardup_planted = con.execute(
        "SELECT COUNT(*) FROM c WHERE text LIKE '%swapped%'"
    ).fetchone()[0]

    if not ray.is_initialized():
        ray.init(address="local", num_cpus=32, include_dashboard=False,
                 logging_level="ERROR")
    import ray.data as rd

    rd.DataContext.get_current().enable_progress_bars = False
    from sod_ray.pipelines.export import CurateConfig, run_export

    lsh = {"seed": 1337}
    if spill is not None:
        # the 10^9 shape: what lets a funnel whose near-dup working set
        # rivals the object store finish on a disk-tight host
        lsh["spill"] = spill
    cfg = CurateConfig(neardup=True, partition_col="lang",
                       lsh_kwargs=lsh,
                       token_budget=token_budget,
                       token_budget_key="lang" if token_budget else None,
                       pack_chunk_tokens=pack_chunk_tokens)
    t1 = time.perf_counter()
    res = run_export(inp, out, cfg, resume=False)
    funnel_sec = time.perf_counter() - t1

    st = res.report["stages"]
    q_drop = st["quality"]["dropped"]
    e_drop = st["exact"]["dropped"]
    n_drop = st["neardup"]["dropped"]
    ok_quality = q_drop == truth_quality
    ok_exact = e_drop == truth_exact
    nd_rate = n_drop / max(1, truth_neardup_planted)
    b_drop = st.get("token_budget", {}).get("dropped", 0)
    ok_funnel = (
        res.report["rows_out"] == n_docs - q_drop - e_drop - n_drop - b_drop
    )
    # token-budget truth: per-lang INPUT-text token sums of the kept
    # ids must respect the budget (input texts — the decision ran
    # before PII placeholder rewrites)
    budget_ok = None
    if token_budget:
        over = con.execute(
            f"SELECT COUNT(*) FROM ("
            f"  SELECT o.lang, SUM(len(regexp_extract_all(c.text, '\\S+')))"
            f"         AS toks"
            f"  FROM read_parquet('{res.corpus_dir}/**/*.parquet') o"
            f"  JOIN c ON c.doc_id = o.doc_id GROUP BY o.lang"
            f") WHERE toks > {token_budget}"
        ).fetchone()[0]
        budget_ok = over == 0

    from bench import contention_probe

    print(json.dumps({
        "n_docs": n_docs,
        "probe_post": contention_probe(),
        "gen_sec": round(gen_sec, 1),
        "funnel_sec": round(funnel_sec, 1),
        "docs_per_sec": round(n_docs / funnel_sec, 1),
        "quality_drop": int(q_drop), "quality_exact_match": bool(ok_quality),
        "exact_drop": int(e_drop), "exact_exact_match": bool(ok_exact),
        "neardup_drop": int(n_drop),
        "neardup_planted": int(truth_neardup_planted),
        "neardup_rate": round(nd_rate, 5),
        "rows_out": int(res.report["rows_out"]),
        "funnel_arith_ok": bool(ok_funnel),
        "token_budget": token_budget,
        "token_budget_drop": int(b_drop),
        "token_budget_ok": budget_ok,
        "pack_chunks": res.report["stages"].get("pack_chunks"),
        "pii": res.report.get("pii", {}),
    }))
    assert ok_quality and ok_exact and ok_funnel and nd_rate >= 0.95
    assert budget_ok is None or budget_ok
    ray.shutdown()


if __name__ == "__main__":
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    from spill_flags import spill_from_argv

    argv = sys.argv[1:]
    spill = spill_from_argv(argv)
    main(
        int(argv[0]) if len(argv) > 0 else 5_000_000,
        int(argv[1]) if len(argv) > 1 else 64,
        int(argv[2]) if len(argv) > 2 else None,
        int(argv[3]) if len(argv) > 3 else None,
        spill=spill,
    )

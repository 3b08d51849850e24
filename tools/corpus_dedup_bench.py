"""End-to-end near-dup CORPUS dedup benchmark (the new composite op):
planted-family corpus → neardup_dedup_corpus → surviving docs written
to parquet (sink included in the timing). Verifies against the planted
truth: ≥99.9% of truth pairs must have at most one survivor, and every
doc outside a family must survive.

Usage: python tools/corpus_dedup_bench.py [n_docs] [n_shards]
       [--spill DIR [--phases N]]

From 50M docs on, the chain lands its tables and runs its exchange and
joins on disk under <corpus dir>/_spill unless --spill names another
directory.
"""
from __future__ import annotations

import json
import os
import shutil
import sys
import time

import numpy as np

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

from dedup_bench import gen_corpus  # noqa: E402  (sibling tool)


def main(n_docs: int = 10_000_000, n_shards: int = 64, spill=None):
    import ray

    if not ray.is_initialized():
        ray.init(address="local", num_cpus=32, include_dashboard=False,
                 logging_level="ERROR")
    import ray.data as rd

    rd.DataContext.get_current().enable_progress_bars = False

    from sod_ray.stages.dedup import neardup_dedup_corpus

    d = f"/tmp/sod_dedup/corpus-{n_docs}"
    if not os.path.exists(f"{d}/truth.json"):
        shutil.rmtree(d, ignore_errors=True)
        os.makedirs(d, exist_ok=True)
        gen_s, truth = gen_corpus(f"{d}/docs", n_docs, n_shards)
        with open(f"{d}/truth.json", "w") as f:
            json.dump(sorted(truth), f)
    else:
        gen_s = 0.0
        truth = {tuple(p) for p in json.load(open(f"{d}/truth.json"))}

    out = f"/tmp/sod_dedup/deduped-{n_docs}"
    shutil.rmtree(out, ignore_errors=True)

    ds = rd.read_parquet(f"{d}/docs")
    # past ~50M the sig/band tables rival the object store: land them
    # as parquet instead of pinning plasma
    if spill is None and n_docs >= 50_000_000:
        from sod_ray.stages.exchange import Spill

        spill = Spill(f"{d}/_spill")
    t0 = time.perf_counter()
    kept = neardup_dedup_corpus(ds, "text", "doc_id", spill=spill)
    kept.write_parquet(out)
    wall = time.perf_counter() - t0

    survivors = set()
    for b in rd.read_parquet(out, columns=["doc_id"]).iter_batches(
        batch_format="pyarrow"
    ):
        survivors.update(b["doc_id"].to_numpy().tolist())
    n_kept = len(survivors)

    fam_members = {m for p in truth for m in p}
    both_alive = sum(1 for a, b in truth if a in survivors and b in survivors)
    pair_dedup_rate = 1 - both_alive / max(1, len(truth))
    non_family_alive = all(
        i in survivors
        for i in np.random.default_rng(0).integers(0, n_docs, size=2000)
        if i not in fam_members
    )

    res = {
        "n_docs": n_docs,
        "kept": n_kept,
        "removed": n_docs - n_kept,
        "truth_pairs": len(truth),
        "pair_dedup_rate": round(pair_dedup_rate, 5),
        "non_family_all_survive": bool(non_family_alive),
        "gen_sec": round(gen_s, 1),
        "dedup_sec": round(wall, 1),
        "docs_per_sec": round(n_docs / wall, 1),
    }
    print(json.dumps(res))
    ray.shutdown()
    return res


if __name__ == "__main__":
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    from spill_flags import spill_from_argv

    spill = spill_from_argv(sys.argv)
    n = int(sys.argv[1]) if len(sys.argv) > 1 else 10_000_000
    s = int(sys.argv[2]) if len(sys.argv) > 2 else 64
    main(n, s, spill)

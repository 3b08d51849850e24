"""SemDedup scale bench with planted-truth recovery.

Corpus: the embedding_neardup_bench generator — random unit vectors;
odd id 2k+1 copies 2k (+ tiny noise) when k % 10 == 0, so those
(2k, 2k+1) pairs sit at cos >= ~0.999 and are the planted truth (one
per 20 ids). semdedup_drop_ids at threshold 0.99 must drop EXACTLY
the odd member of every planted pair (keep-lowest-id): recall <1.0
only if a planted pair straddled clusters (the pair is near-identical,
so assignments agree unless the pair sits on a centroid boundary);
precision <1.0 only if random 64-d vectors hit cos >= 0.99 (P ~ 0).

Usage: python tools/semdedup_bench.py [n_docs] [dim] [n_centroids] [--two-level] [--n-super N]
       [--spill DIR [--phases N]]

--two-level runs semdedup_drop_ids_twolevel (centroid-sharded: top
shards route the exchange, per-shard LOCAL k-means into
~target_cluster_rows sub-clusters, same blocked kernel) — the 10^8
path where single-level's Σc²·d within-cluster wall hits ~10^14
flops. n_centroids then means the TOP shard count (0 = auto).

--n-super N adds the THREE-level hierarchical top assignment
(super->top multi-probe routing — the 10^9 shape where the flat
n x n_top x d assignment matmul itself reaches ~10^14 flops).

--spill DIR runs the two-level shard exchange on disk under DIR
(default from 20M docs: /tmp/sod_semdedup/spill-<n_docs>, with 2 phases
from 50M); --phases N splits it into N phases.
"""
from __future__ import annotations

import json
import os
import shutil
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def main(
    n_docs: int = 1_000_000,
    dim: int = 64,
    n_centroids: int = 0,
    two_level: bool = False,
    n_super: int | None = None,
    spill=None,
):
    import ray

    if not ray.is_initialized():
        ray.init(
            address="local",
            num_cpus=32,
            include_dashboard=False,
            logging_level="ERROR",
        )
    import ray.data as rd

    rd.DataContext.get_current().enable_progress_bars = False
    from bench import contention_probe
    from sod_ray.stages.similarity import (
        semdedup_drop_ids,
        semdedup_drop_ids_twolevel,
    )
    from tools.embedding_neardup_bench import PLANT_EVERY, gen_block

    if not n_centroids:
        # one cluster/shard per ~100k vectors (the documented heap contract)
        n_centroids = max(8, n_docs // 100_000)

    corpus_dir = f"/tmp/sod_semdedup/corpus-{n_docs}-{dim}"
    if not os.path.exists(corpus_dir):
        shutil.rmtree(corpus_dir, ignore_errors=True)
        base = rd.range(
            n_docs, override_num_blocks=max(32, n_docs // 250_000)
        )
        base.map_batches(
            lambda b: gen_block(b, dim, 12345), batch_format="pyarrow"
        ).write_parquet(corpus_dir)

    ds = rd.read_parquet(corpus_dir)
    probe_pre = contention_probe()
    t0 = time.perf_counter()
    if two_level:
        # past ~20M the corpus rivals the object store: route the
        # shard exchange through the partitioned-parquet spill path,
        # and free the corpus the moment the landing commits (the
        # landing is its last read) — this 93 GB volume cannot hold
        # corpus + landed copy + reduce temps at 1e8 x 64d otherwise
        if spill is None and n_docs >= 20_000_000:
            from sod_ray.stages.exchange import Spill

            spill = Spill(
                f"/tmp/sod_semdedup/spill-{n_docs}",
                phases=2 if n_docs >= 50_000_000 else 1,
            )
        drops = semdedup_drop_ids_twolevel(
            ds,
            "embedding",
            "vec_id",
            n_top=n_centroids,
            target_cluster_rows=1024,
            threshold=0.99,
            spill=spill,
            after_land=(
                (lambda: shutil.rmtree(corpus_dir, ignore_errors=True))
                if spill
                else None
            ),
            n_super=n_super,
        ).to_pandas()
    else:
        drops = semdedup_drop_ids(
            ds,
            "embedding",
            "vec_id",
            n_centroids=n_centroids,
            threshold=0.99,
        ).to_pandas()
    wall = time.perf_counter() - t0
    probe_post = contention_probe()

    got = set(drops["node"].tolist())
    # planted truth: odd ids 2k+1 with k % PLANT_EVERY == 0
    want = {
        2 * k + 1
        for k in range(0, n_docs // 2, PLANT_EVERY)
        if 2 * k + 1 < n_docs
    }
    tp = len(got & want)
    print(
        json.dumps(
            {
                "n_docs": n_docs,
                "dim": dim,
                "mode": (
                    "three_level" if (two_level and n_super)
                    else "two_level" if two_level else "single"
                ),
                "n_centroids": n_centroids,
                "n_super": n_super,
                "wall_s": round(wall, 1),
                "docs_per_sec": round(n_docs / wall, 1),
                "n_dropped": len(got),
                "n_planted": len(want),
                "recall": round(tp / max(1, len(want)), 4),
                "precision": round(tp / max(1, len(got)), 4),
                "probe_pre": probe_pre,
                "probe_post": probe_post,
            }
        )
    )
    ray.shutdown()


if __name__ == "__main__":
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    from spill_flags import spill_from_argv

    ns = None
    argv = sys.argv[1:]
    spill = spill_from_argv(argv)
    if "--n-super" in argv:
        i = argv.index("--n-super")
        ns = int(argv[i + 1])
        argv = argv[:i] + argv[i + 2:]
    args = [a for a in argv if a != "--two-level"]
    main(
        int(float(args[0])) if len(args) > 0 else 1_000_000,
        int(args[1]) if len(args) > 1 else 64,
        int(args[2]) if len(args) > 2 else 0,
        two_level="--two-level" in sys.argv,
        n_super=ns,
        spill=spill,
    )

"""Embedding near-dup (hyperplane LSH, large path) at scale: planted
near-dup families, measure wall time + planted-pair recall.

Generation is distributed and deterministic (seeded rng per block, no
driver-side matrix): even ids are random unit vectors, and each odd id
2k+1 is a tiny perturbation of 2k when k % plant_every == 0 — those
(2k, 2k+1) pairs sit at cos >= ~0.999 and are the planted truth.

Usage: python tools/embedding_neardup_bench.py [n_docs] [dim] [n_bands]
       [--spill DIR [--phases N]]

The chain always runs disk-backed (normalized vectors, band and pruned
rows landed as parquet, exchange and verify joins on disk); --spill
moves the landings from the default /tmp/embed_bench/spill.
"""

from __future__ import annotations

import json
import os
import sys
import time

import numpy as np
import pyarrow as pa
import ray

PLANT_EVERY = 10  # one planted pair per 2*PLANT_EVERY ids


def gen_block(batch, dim: int, seed: int):
    ids = batch["id"].to_numpy(zero_copy_only=False)
    rng = np.random.default_rng(seed + int(ids[0]) if len(ids) else seed)
    V = rng.normal(size=(len(ids), dim))
    V /= np.linalg.norm(V, axis=1, keepdims=True)
    # odd id 2k+1 in a planted slot copies 2k (+ tiny noise); pairs
    # never span blocks because block sizes are even
    odd = (ids % 2 == 1) & ((ids // 2) % PLANT_EVERY == 0)
    prev = np.flatnonzero(odd) - 1
    ok = prev >= 0
    V[np.flatnonzero(odd)[ok]] = V[prev[ok]] + rng.normal(
        scale=0.004, size=(int(ok.sum()), dim)
    )
    return pa.table(
        {
            "vec_id": pa.array(ids, pa.int64()),
            "embedding": pa.array(
                list(V.astype(np.float32)), pa.list_(pa.float32())
            ),
        }
    )


def main(n_docs: int, dim: int, n_bands: int, spill=None) -> None:
    sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
    from sod_ray.stages.dedup import embedding_neardup

    ray.init(
        address="local", num_cpus=32, include_dashboard=False,
        logging_level="ERROR",
    )
    # even block size so planted pairs never span generator blocks
    ds = ray.data.range(n_docs, override_num_blocks=max(32, n_docs // 250_000))
    gen = ds.map_batches(
        lambda b: gen_block(b, dim, 12345), batch_format="pyarrow"
    )
    # land the corpus on disk instead of pinning ~8-16 GB of
    # incompressible vectors in the object store for the whole run —
    # at 30M x 64d the pinned corpus + pinned normalized copy +
    # shuffle spill exceeded this VM's real disk headroom (ENOSPC)
    import shutil
    corpus_dir = "/tmp/embed_bench/corpus"
    shutil.rmtree("/tmp/embed_bench", ignore_errors=True)
    gen.write_parquet(corpus_dir)
    ds = ray.data.read_parquet(corpus_dir)

    t0 = time.time()
    pairs = embedding_neardup(
        ds, "embedding", "vec_id", threshold=0.99,
        n_bands=(n_bands or None),  # 0 → corpus-aware auto-tune
        spill=spill,
    )
    pdf = pairs.to_pandas()
    wall = time.time() - t0

    planted = {
        (2 * k, 2 * k + 1)
        for k in range(0, n_docs // 2, PLANT_EVERY)
        if 2 * k + 1 < n_docs
    }
    found = {tuple(sorted(p)) for p in zip(pdf["id_a"], pdf["id_b"])}
    recall = len(found & planted) / len(planted) if planted else 1.0
    extras = len(found - planted)  # genuinely-similar random pairs
    print(
        json.dumps(
            {
                "n_docs": n_docs,
                "dim": dim,
                "n_bands": n_bands,
                "wall_sec": round(wall, 1),
                "docs_per_sec": round(n_docs / wall),
                "pairs_found": len(found),
                "planted": len(planted),
                "planted_recall": round(recall, 5),
                "non_planted_pairs": extras,
            }
        )
    )
    ray.shutdown()


if __name__ == "__main__":
    from spill_flags import spill_from_argv

    spill = spill_from_argv(sys.argv, "/tmp/embed_bench/spill")
    n = int(sys.argv[1]) if len(sys.argv) > 1 else 1_000_000
    d = int(sys.argv[2]) if len(sys.argv) > 2 else 64
    b = int(sys.argv[3]) if len(sys.argv) > 3 else 0  # 0 = auto
    main(n, d, b, spill)

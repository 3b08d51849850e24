"""SimHash near-dup at scale: planted one-edit families (the
dedup_bench corpus), measure wall time + family-pair recall at the
default 4x16-bit banding / hamming <= 3.

SimHash recall on 1-2-token-edit 120-token docs is softer than
MinHash's (an edit flips several signature bits), so the number
reported is the honest recall of the op at its defaults, not a target.

Usage: python tools/simhash_bench.py [n_docs] [n_shards] [n_bands]
       [max_hamming] [sig_bits] [table_design] [--spill DIR [--phases N]]
sig_bits=128 runs the Manku combination-banding variant (28 block-pair
tables, 32-bit keys — flat occupancy at 10^8; pass max_hamming≈6, the
128-bit distance scale is ~2x the 64-bit one). --spill DIR lands the
band-row table and the PRUNED rows as parquet and runs the verify
exchange disk-backed — required at 10^8 docs, where band rows (4-28 x
32 B/doc) outgrow the object store; --phases N splits the exchange.
"""

from __future__ import annotations

import json
import os
import sys
import time

import ray

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

from tools.dedup_bench import gen_corpus  # noqa: E402


def main(n_docs: int, n_shards: int, n_bands: int = 4,
         max_hamming: int = 3, sig_bits: int = 64,
         table_design: str = "all",
         spill=None) -> None:
    from sod_ray.stages.dedup import simhash_dedup

    ray.init(
        address="local", num_cpus=32, include_dashboard=False,
        logging_level="ERROR",
    )
    out = f"/tmp/simhash_bench/corpus-{n_docs}"
    gen_s, truth = gen_corpus(out, n_docs, n_shards)

    ds = ray.data.read_parquet(out)
    t0 = time.time()
    pairs = simhash_dedup(
        ds, "text", "doc_id", max_hamming=max_hamming, n_bands=n_bands,
        sig_bits=sig_bits, table_design=table_design, spill=spill,
    ).to_pandas()
    wall = time.time() - t0

    found = {tuple(sorted(p)) for p in zip(pairs["id_a"], pairs["id_b"])}
    recall = len(found & truth) / len(truth) if truth else 1.0
    print(
        json.dumps(
            {
                "n_docs": n_docs,
                "sig_bits": sig_bits,
                "table_design": table_design,
                "spill": spill.dir if spill else None,
                "phases": spill.phases if spill else None,
                "n_bands": n_bands,
                "max_hamming": max_hamming,
                "gen_sec": round(gen_s, 1),
                "wall_sec": round(wall, 1),
                "docs_per_sec": round(n_docs / wall),
                "pairs_found": len(found),
                "truth_pairs": len(truth),
                "family_pair_recall": round(recall, 4),
            }
        )
    )
    ray.shutdown()


if __name__ == "__main__":
    from spill_flags import spill_from_argv

    argv = sys.argv[1:]
    spill = spill_from_argv(argv)
    main(
        int(argv[0]) if len(argv) > 0 else 1_000_000,
        int(argv[1]) if len(argv) > 1 else 32,
        int(argv[2]) if len(argv) > 2 else 4,
        int(argv[3]) if len(argv) > 3 else 3,
        int(argv[4]) if len(argv) > 4 else 64,
        argv[5] if len(argv) > 5 else "all",
        spill,
    )

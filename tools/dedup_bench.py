"""Near-dup chain benchmark at scale: synthetic corpus with PLANTED
near-dup families → minhash_lsh_dedup (large distributed path) →
connected_components_bucketed → recall/precision vs planted truth.

Corpus: N docs of ~80 tokens drawn from a 50k-word vocab (random pairs
have Jaccard ≈ 0). A `fam_frac` fraction of docs form families of 2-4
members; non-base members are the base doc with 1-2 token edits
(3-shingle Jaccard ≥ ~0.85, comfortably above the 0.7 verify
threshold; 16×4 LSH banding catches J=0.85 with P ≈ 1-2e-4).
Deterministic per shard; truth pairs are collected (∼N/100 pairs, tiny)
for exact recall/precision scoring.

Usage: python tools/dedup_bench.py [n_docs] [n_shards] [n_perm] [bands]
       [pair_emission] [--spill DIR [--phases N]]

The trailing knobs exist for the disk-bounded 10^8-doc run on this VM:
n_perm=32 halves sig bytes (verify granularity 1/32 — families are
planted at J≥0.85, far from the 0.7 threshold), bands=8 halves band-row
volume (P[catch J=0.85] = 1-(1-0.85^4)^8 ≈ 0.997), star emission keeps
candidate volume ∝ bucket members, and --spill DIR lands the signature,
band and pruned tables as parquet (instead of pinning ~n_perm*8 B/doc of
signatures in the object store) and runs the candidate exchange and the
verify joins disk-backed; --phases N splits the exchange into N phases
for volumes that cannot hold one full landed copy.
"""
from __future__ import annotations

import json
import os
import shutil
import sys
import time

import numpy as np
import pyarrow as pa

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

VOCAB_SIZE = 50_000
DOC_TOKENS = 80
FAM_FRAC = 0.01  # fraction of docs that belong to a near-dup family


def gen_corpus(out_dir: str, n_docs: int, n_shards: int, seed: int = 5):
    """Parallel corpus gen; returns (gen_seconds, truth_pairs set)."""
    import ray

    @ray.remote(num_cpus=1)
    def gen_shard(s: int, per: int):
        import pyarrow.parquet as pq

        rng = np.random.default_rng(seed * 100_003 + s)
        idx = rng.integers(0, VOCAB_SIZE, size=(per, DOC_TOKENS))
        # family block at the head of the shard: consecutive docs
        # copy the base row with 1-2 token edits
        n_fam_docs = int(per * FAM_FRAC)
        pairs = []
        i = 0
        fam_size_cycle = (2, 3, 4, 2, 3)
        f = 0
        base = s * per
        while i + 1 < n_fam_docs:
            size = fam_size_cycle[f % len(fam_size_cycle)]
            size = min(size, n_fam_docs - i)
            if size < 2:
                break
            members = list(range(i, i + size))
            for m in members[1:]:
                idx[m] = idx[members[0]]
                n_edits = int(rng.integers(1, 3))
                pos = rng.choice(DOC_TOKENS, size=n_edits, replace=False)
                idx[m, pos] = rng.integers(0, VOCAB_SIZE, size=n_edits)
            for a in range(size):
                for b in range(a + 1, size):
                    pairs.append((base + members[a], base + members[b]))
            i += size
            f += 1
        texts = [" ".join(f"w{t}" for t in row) for row in idx]
        tbl = pa.table(
            {
                "doc_id": pa.array(np.arange(base, base + per, dtype=np.int64)),
                "text": pa.array(texts, pa.string()),
            }
        )
        pq.write_table(tbl, f"{out_dir}/shard={s:05d}.parquet")
        return pairs

    os.makedirs(out_dir, exist_ok=True)
    per = n_docs // n_shards
    t0 = time.perf_counter()
    all_pairs = ray.get([gen_shard.remote(s, per) for s in range(n_shards)])
    truth = {(a, b) for shard in all_pairs for (a, b) in shard}
    return time.perf_counter() - t0, truth


def main(
    n_docs: int = 1_000_000,
    n_shards: int = 32,
    n_perm: int = 64,
    bands: int = 16,
    pair_emission: str = "pairs",
    spill=None,
):
    import ray

    if not ray.is_initialized():
        ray.init(address="local", num_cpus=32, include_dashboard=False,
                 logging_level="ERROR")
    import ray.data as rd

    rd.DataContext.get_current().enable_progress_bars = False

    from sod_ray.stages.cc import connected_components_bucketed
    from sod_ray.stages.dedup import minhash_lsh_dedup

    d = f"/tmp/sod_dedup/corpus-{n_docs}"
    if not os.path.exists(f"{d}/docs/shard={n_shards - 1:05d}.parquet"):
        shutil.rmtree(d, ignore_errors=True)
        os.makedirs(d, exist_ok=True)
        gen_s, truth = gen_corpus(f"{d}/docs", n_docs, n_shards)
        with open(f"{d}/truth.json", "w") as f:
            json.dump(sorted(truth), f)
    else:
        gen_s = 0.0
        truth = {tuple(p) for p in json.load(open(f"{d}/truth.json"))}

    ds = rd.read_parquet(f"{d}/docs")
    t0 = time.perf_counter()
    pairs = minhash_lsh_dedup(
        ds,
        "text",
        "doc_id",
        n_perm=n_perm,
        bands=bands,
        pair_emission=pair_emission,
        spill=spill,
    ).to_pandas()
    pairs_s = time.perf_counter() - t0
    found = {
        (min(a, b), max(a, b))
        for a, b in zip(
            pairs["id_a"].to_numpy().tolist(), pairs["id_b"].to_numpy().tolist()
        )
    }
    hit = len(found & truth)
    recall = hit / max(1, len(truth))
    precision = hit / max(1, len(found))

    t0 = time.perf_counter()
    labels = connected_components_bucketed(
        rd.from_pandas(pairs[["id_a", "id_b"]])
    )
    lab = labels.to_pandas()
    cc_s = time.perf_counter() - t0
    # family-level check: every truth-connected pair that was FOUND must
    # share a label (CC correctness over the found graph)
    lmap = dict(zip(lab["node"], lab["label"]))
    cc_ok = all(lmap.get(a) == lmap.get(b) for a, b in found)
    # family-level recovery: pair recall undercounts because
    # member↔member pairs (both 1-2 edits from base) sit near the 0.7
    # threshold by construction — CC recovers them transitively through
    # the base doc. A family counts as recovered iff all members share
    # one found label.
    parent = {}

    def find(x):
        while parent.get(x, x) != x:
            parent[x] = parent.get(parent[x], parent[x])
            x = parent[x]
        return x

    for a, b in truth:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[ra] = rb
    fams = {}
    for a, b in truth:
        fams.setdefault(find(a), set()).update((a, b))
    fam_ok = sum(
        1
        for members in fams.values()
        if len({lmap.get(m) for m in members}) == 1 and None not in {
            lmap.get(m) for m in members
        }
    )
    fam_recall = fam_ok / max(1, len(fams))

    print(json.dumps({
        "n_docs": n_docs,
        "truth_pairs": len(truth),
        "found_pairs": len(found),
        "recall": round(recall, 5),
        "precision": round(precision, 5),
        "gen_sec": round(gen_s, 1),
        "minhash_lsh_sec": round(pairs_s, 1),
        "cc_sec": round(cc_s, 1),
        "cc_consistent": bool(cc_ok),
        "families": len(fams),
        "family_recall": round(fam_recall, 5),
        "docs_per_sec": round(n_docs / pairs_s, 1),
        "n_perm": n_perm,
        "bands": bands,
        "pair_emission": pair_emission,
        "spill": spill.dir if spill else None,
        "phases": spill.phases if spill else None,
    }))
    ray.shutdown()


if __name__ == "__main__":
    from spill_flags import spill_from_argv

    argv = sys.argv[1:]
    spill = spill_from_argv(argv)
    main(
        int(argv[0]) if len(argv) > 0 else 1_000_000,
        int(argv[1]) if len(argv) > 1 else 32,
        int(argv[2]) if len(argv) > 2 else 64,
        int(argv[3]) if len(argv) > 3 else 16,
        argv[4] if len(argv) > 4 else "pairs",
        spill,
    )

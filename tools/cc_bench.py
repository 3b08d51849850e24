"""Planted-graph benchmark for connected_components_bucketed.

Builds a deterministic edge Dataset with KNOWN component structure —
long chains (stress pointer jumping / diameter), stars (hub fan-in),
and 2-node pairs — as consecutive-id ranges, so the expected component
count AND the expected label sum (= sum of each component's min id)
are computable analytically. Runs the distributed CC and checks both.

Usage: python tools/cc_bench.py [n_edges] [num_cpus]
"""

from __future__ import annotations

import json
import sys
import time

import numpy as np
import pyarrow as pa

sys.path.insert(0, ".")

CHAIN_LEN = 1024
STAR_SIZE = 256


def planted_edges(n_edges: int):
    """Returns (id_a, id_b arrays, expected_components, expected_label_sum).

    ~1/3 of edges in CHAIN_LEN chains, ~1/3 in STAR_SIZE stars, the
    rest as isolated pairs; components occupy consecutive id ranges."""
    per_kind = n_edges // 3
    a_parts, b_parts = [], []
    n_components = 0
    label_sum = 0  # expected sum over NODE rows of component-min labels
    next_id = 0

    n_chains = per_kind // (CHAIN_LEN - 1)
    for _ in range(n_chains):
        s = next_id
        ids = np.arange(s, s + CHAIN_LEN, dtype=np.int64)
        a_parts.append(ids[:-1])
        b_parts.append(ids[1:])
        n_components += 1
        label_sum += s * CHAIN_LEN  # every node of the chain labels s
        next_id += CHAIN_LEN

    n_stars = per_kind // (STAR_SIZE - 1)
    for _ in range(n_stars):
        s = next_id
        a_parts.append(np.full(STAR_SIZE - 1, s, dtype=np.int64))
        b_parts.append(np.arange(s + 1, s + STAR_SIZE, dtype=np.int64))
        n_components += 1
        label_sum += s * STAR_SIZE
        next_id += STAR_SIZE

    n_pairs = n_edges - n_chains * (CHAIN_LEN - 1) - n_stars * (STAR_SIZE - 1)
    s = next_id
    pair_a = np.arange(s, s + 2 * n_pairs, 2, dtype=np.int64)
    a_parts.append(pair_a)
    b_parts.append(pair_a + 1)
    n_components += n_pairs
    label_sum += int(pair_a.sum()) * 2
    next_id += 2 * n_pairs

    a = np.concatenate(a_parts)
    b = np.concatenate(b_parts)
    # deterministic shuffle so edges of one component are spread
    # across blocks (the realistic layout after an LSH bucket pass)
    rng = np.random.default_rng(7)
    perm = rng.permutation(a.shape[0])
    return a[perm], b[perm], n_components, label_sum


def main(n_edges: int = 2_000_000, num_cpus: int = 32):
    import ray
    import ray.data as rd

    from sod_ray.stages.cc import connected_components_bucketed

    if not ray.is_initialized():
        ray.init(
            address="local", num_cpus=num_cpus, include_dashboard=False,
            logging_level="ERROR",
        )
    a, b, n_comp, label_sum = planted_edges(n_edges)
    pairs = rd.from_arrow(
        pa.table({"id_a": pa.array(a), "id_b": pa.array(b)})
    ).repartition(max(8, num_cpus)).materialize()

    t0 = time.perf_counter()
    labels = connected_components_bucketed(pairs)
    from ray.data.aggregate import Sum

    got_sum = labels.aggregate(Sum("label"))["sum(label)"]
    n_labels = labels.map_batches(
        lambda t: pa.table({"label": t["label"].combine_chunks().unique()}),
        batch_format="pyarrow",
    ).to_pandas()["label"].nunique()
    wall = time.perf_counter() - t0

    ok = (n_labels == n_comp) and (got_sum == label_sum)
    print(
        json.dumps(
            {
                "n_edges": int(n_edges),
                "n_components_expected": n_comp,
                "n_components_got": int(n_labels),
                "label_sum_ok": bool(got_sum == label_sum),
                "correct": bool(ok),
                "wall_sec": round(wall, 2),
                "edges_per_sec": round(n_edges / wall),
                "num_cpus": num_cpus,
            }
        )
    )
    ray.shutdown()
    return 0 if ok else 1


if __name__ == "__main__":
    n = int(sys.argv[1]) if len(sys.argv) > 1 else 2_000_000
    c = int(sys.argv[2]) if len(sys.argv) > 2 else 32
    sys.exit(main(n, c))

"""Dup-heavy uniqueness_check profile (the r3 verdict's 'weak' item,
fixed r4): 10M rows with a planted ~30% duplicate-ROW rate (web-corpus
shape) through the composite constraint. The exact fallback is ONE
raw-task hash exchange emitting (value, dup_count) summary rows —
duplicate rows never reach the driver (the r3 path collected every dup
row via to_pandas and paid a Python call per distinct value; it did
not finish at this scale).

Usage: python tools/uniqueness_bench.py [n_rows] [dup_rate]
"""

from __future__ import annotations

import json
import os
import sys
import time

import numpy as np
import pyarrow as pa
import ray

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def main(n_rows: int, dup_rate: float) -> None:
    import ray.data as rd

    from sod_ray.stages.constraints import uniqueness_check

    ray.init(
        address="local", num_cpus=32, include_dashboard=False,
        logging_level="ERROR",
    )
    n_dup = int(n_rows * dup_rate)
    n_hot = max(1, n_dup // 10)  # ~10 extra copies per duplicated value

    def gen(t: pa.Table) -> pa.Table:
        i = t["id"].to_numpy(zero_copy_only=False)
        # rows [0, n_dup) collapse onto n_hot values; the rest unique
        v = np.where(i < n_dup, i % n_hot, i)
        return pa.table(
            {"u": pa.array(np.char.add("u", v.astype("U12")))}
        )

    ds = rd.range(n_rows, override_num_blocks=64).map_batches(
        gen, batch_format="pyarrow"
    ).materialize()
    t0 = time.time()
    verdict, viol = uniqueness_check(ds, "u", max_dup_rate=0.01)
    n_groups = viol.count() if viol is not None else 0
    wall = time.time() - t0
    expect_dup_rows = n_dup - n_hot
    print(
        json.dumps(
            {
                "n_rows": n_rows,
                "dup_rate": dup_rate,
                "path": verdict["path"],
                "passed": verdict["passed"],
                "dup_rows": verdict.get("dup_rows"),
                "expect_dup_rows": expect_dup_rows,
                "exact": verdict.get("dup_rows") == expect_dup_rows,
                "evidence_groups": n_groups,
                "wall_sec": round(wall, 1),
                "rows_per_sec": round(n_rows / wall),
            }
        )
    )
    ray.shutdown()


if __name__ == "__main__":
    main(
        int(sys.argv[1]) if len(sys.argv) > 1 else 10_000_000,
        float(sys.argv[2]) if len(sys.argv) > 2 else 0.3,
    )

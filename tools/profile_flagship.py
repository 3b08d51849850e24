"""Per-stage profile of the flagship pipeline: phase wall times
(SOD_TIMING) + the fused stage's Ray Data operator stats.

Usage: python tools/profile_flagship.py [n_rows] [num_cpus]
"""

from __future__ import annotations

import os
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def main(n_rows: int = 500_000, ncpu: int = 32):
    os.environ["SOD_TIMING"] = "1"
    import ray

    ray.init(
        address="local",
        num_cpus=ncpu,
        include_dashboard=False,
        logging_level="ERROR",
    )
    import ray.data as rd

    ctx = rd.DataContext.get_current()
    ctx.enable_progress_bars = False
    ctx.op_resource_reservation_enabled = False

    from sod_ray.pipelines.validate import (
        FusedFeatures,
        ValidateConfig,
        run_validation,
    )
    from sod_ray.sources.webpages import write_webpages
    from sod_ray.stages.blocks import read_parquet

    d = f"/tmp/sod_profile/web-{n_rows}"
    if not os.path.exists(f"{d}/truth.json"):
        os.makedirs(d, exist_ok=True)
        write_webpages(d, n_rows=n_rows, n_shards=64, seed=42, mean_tokens=120)

    web = f"{d}/webpages"
    rd.read_parquet(web).count()  # warm page cache

    print(f"=== flagship run: {n_rows} rows, {ncpu} CPUs ===")
    t0 = time.perf_counter()
    res = run_validation(
        web, f"/tmp/sod_profile/out-{os.getpid()}", ValidateConfig(), resume=False
    )
    dt = time.perf_counter() - t0
    print(f"total: {dt:.2f}s → {res.rows_scanned / dt:.0f} rows/s")

    # the scan run_validation runs: blocks.read_parquet's plan (one
    # read task per file, the feature map fused into it, when the files
    # are at least as many as the CPUs; Ray's split read otherwise)
    print("\n=== fused-stage operator stats (isolated) ===")
    f = (
        read_parquet(web)
        .map_batches(
            FusedFeatures(ValidateConfig().batch_size),
            batch_format="pyarrow",
        )
        .materialize()
    )
    print(f.stats())
    ray.shutdown()


if __name__ == "__main__":
    main(
        int(sys.argv[1]) if len(sys.argv) > 1 else 500_000,
        int(sys.argv[2]) if len(sys.argv) > 2 else 32,
    )

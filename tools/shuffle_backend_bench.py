"""Groupby shuffle-backend evaluation (ROADMAP round-3 #5): the same
band-bucket-shaped aggregation (N rows, ~N distinct (band, band_hash)
keys — the worst case: nearly every group is a singleton) timed under
Ray Data's three shuffle strategies, vs the repo's raw-task hash-bucket
key exchange (``stages.exchange.exchange_reduce``, as the near-dup
prune's hot-key pass runs it).

Each strategy runs in a FRESH subprocess + fresh ray.init so executor
state can't leak between trials.

Usage: python tools/shuffle_backend_bench.py [n_rows] [n_cpus]
"""
from __future__ import annotations

import json
import os
import subprocess
import sys

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

TRIAL = """
import json, time, sys
sys.path.insert(0, "__REPO__")
import numpy as np
import pyarrow as pa
import ray
ray.init(address="local", num_cpus=__CPUS__, include_dashboard=False,
         logging_level="ERROR")
import ray.data as rd
from ray.data.context import DataContext, ShuffleStrategy
ctx = DataContext.get_current()
ctx.enable_progress_bars = False
strategy = "__STRATEGY__"
if strategy != "raw_exchange":
    ctx.shuffle_strategy = getattr(ShuffleStrategy, strategy)

N = __N__
SHARDS = 64
def gen(row):
    s = row["id"]
    rng = np.random.default_rng(s)
    per = N // SHARDS
    # ~90% singleton keys, 10% of rows share hot keys (dup buckets)
    hot = rng.integers(0, per // 20 + 1, size=per // 10)
    uniq = np.arange(per // 10, per) + s * per
    band_hash = np.concatenate([hot, uniq]).astype(np.int64)
    band = rng.integers(0, 16, size=per).astype(np.int32)
    return pa.table({"band": band, "band_hash": band_hash})

ds = rd.range(SHARDS).map_batches(
    lambda t: gen({"id": int(t["id"][0].as_py())}),
    batch_size=1, batch_format="pyarrow",
).materialize()

t0 = time.perf_counter()
if strategy == "raw_exchange":
    # the near-dup prune's hot-key pass: the composite 8-byte bucket
    # key through one exchange_reduce whose reduce keeps repeated keys
    from sod_ray.stages.dedup import _repeated_keys
    from sod_ray.stages.exchange import exchange_reduce

    def to_bk(t):
        band = t["band"].to_numpy().astype(np.uint64) << np.uint64(56)
        key = t["band_hash"].to_numpy().astype(np.uint64) & np.uint64((1 << 56) - 1)
        return pa.table({"bk": (band | key).view(np.int64)})

    keys = ds.map_batches(to_bk, batch_format="pyarrow")
    n_hot = exchange_reduce(keys, "bk", _repeated_keys, num_buckets=32).count()
else:
    from ray.data.aggregate import Count
    counts = ds.groupby(["band", "band_hash"]).aggregate(Count(alias_name="c"))
    import pyarrow.compute as pc
    hot = counts.map_batches(
        lambda t: t.filter(pc.greater_equal(t["c"], pa.scalar(2))),
        batch_format="pyarrow",
    ).materialize()
    n_hot = hot.count()
took = time.perf_counter() - t0
print("RESULT:" + json.dumps({"strategy": strategy, "sec": round(took, 2), "n_hot": n_hot}))
ray.shutdown()
"""


def main(n_rows: int = 16_000_000, cpus: int = 32):
    repo = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    out = []
    for strategy in (
        "SORT_SHUFFLE_PULL_BASED",
        "SORT_SHUFFLE_PUSH_BASED",
        "HASH_SHUFFLE",
        "raw_exchange",
    ):
        code = (
            TRIAL.replace("__REPO__", repo)
            .replace("__CPUS__", str(cpus))
            .replace("__STRATEGY__", strategy)
            .replace("__N__", str(n_rows))
        )
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True,
            timeout=1200,
        )
        res = None
        for line in proc.stdout.splitlines():
            if line.startswith("RESULT:"):
                res = json.loads(line[len("RESULT:"):])
        if res is None:
            res = {
                "strategy": strategy,
                "error": (proc.stderr or "no output")[-500:],
            }
        out.append(res)
        print(json.dumps(res))
    print(json.dumps({"n_rows": n_rows, "cpus": cpus, "trials": out}))


if __name__ == "__main__":
    main(
        int(sys.argv[1]) if len(sys.argv) > 1 else 16_000_000,
        int(sys.argv[2]) if len(sys.argv) > 2 else 32,
    )

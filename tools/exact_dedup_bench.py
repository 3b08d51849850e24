"""Exact-dedup / line-dedup / SimHash kernel benchmarks — the "Done"
criteria for r2 verdict items #1-#3 (vectorized reduces).

1. exact dedup at N docs with PLANTED exact duplicates: times the
   winner reduce (groupby.aggregate Min — the dedup_first_doc shape)
   and the full exact_dedup (reduce + winner-row semi-join), validates
   the kept count against the planted truth.
2. line dedup at N_LINE docs × 10 lines with planted shared lines:
   times the two-exchange path, validates doc count + total kept lines
   against DuckDB running LINE_DEDUP_SQL on the same parquet.
3. SimHash kernel microbench: the old per-doc vote-matrix loop
   (inlined here as the reference) vs the batched 64-pass kernel —
   asserts bit-identical signatures, prints the speedup.

Usage: python tools/exact_dedup_bench.py [n_docs] [n_line_docs] [n_shards]
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

DUP_FRAC = 0.05  # fraction of docs that are exact copies of an earlier doc


def gen_exact_corpus(out_dir: str, n_docs: int, n_shards: int, seed: int = 9):
    """Docs of ~25 tokens; DUP_FRAC of each shard's docs copy the text
    of another doc in the same shard (exact dups). Returns n_dups."""
    import ray

    @ray.remote(num_cpus=1)
    def gen_shard(s: int, per: int):
        import pyarrow.parquet as pq

        rng = np.random.default_rng(seed * 7919 + s)
        idx = rng.integers(0, 50_000, size=(per, 25))
        n_dup = int(per * DUP_FRAC)
        src = rng.integers(n_dup, per, size=n_dup)  # copy from the tail
        idx[:n_dup] = idx[src]
        texts = [" ".join(f"w{t}" for t in row) for row in idx]
        base = s * per
        tbl = pa.table(
            {
                "doc_id": pa.array(range(base, base + per), pa.int64()),
                "text": pa.array(texts, pa.string()),
            }
        )
        pq.write_table(tbl, os.path.join(out_dir, f"shard={s:05d}.parquet"))
        return n_dup

    os.makedirs(out_dir, exist_ok=True)
    per = n_docs // n_shards
    return sum(ray.get([gen_shard.remote(s, per) for s in range(n_shards)]))


def gen_line_corpus(out_dir: str, n_docs: int, n_shards: int, seed: int = 11):
    """10 lines per doc: 2 from a 1000-line shared pool (global dups),
    8 unique to the doc."""
    import ray

    @ray.remote(num_cpus=1)
    def gen_shard(s: int, per: int):
        import pyarrow.parquet as pq

        rng = np.random.default_rng(seed * 104729 + s)
        base = s * per
        texts = []
        for i in range(per):
            did = base + i
            shared = rng.integers(0, 1000, size=2)
            lines = [f"shared pool line number {shared[0]} common text"]
            lines += [f"unique line {did} position {j} body" for j in range(4)]
            lines += [f"shared pool line number {shared[1]} common text"]
            lines += [f"unique line {did} position {j} body" for j in range(4, 8)]
            texts.append("\n".join(lines))
        tbl = pa.table(
            {
                "doc_id": pa.array(range(base, base + per), pa.int64()),
                "text": pa.array(texts, pa.string()),
            }
        )
        pq.write_table(tbl, os.path.join(out_dir, f"shard={s:05d}.parquet"))

    os.makedirs(out_dir, exist_ok=True)
    per = n_docs // n_shards
    ray.get([gen_shard.remote(s, per) for s in range(n_shards)])


def simhash_signatures_reference(texts, seed: int = 7) -> np.ndarray:
    """The pre-r3 per-doc loop, kept as the A/B + parity reference."""
    from sod_ray.stages.dedup import _flat_token_ids

    ids, doc = _flat_token_ids(texts)
    counts = np.bincount(doc, minlength=len(texts))
    out = np.zeros(len(texts), dtype=np.uint64)
    bits = np.arange(64, dtype=np.uint64)
    for i, tids in enumerate(np.split(ids, np.cumsum(counts)[:-1])):
        if tids.shape[0] == 0:
            continue
        votes = ((tids[:, None] >> bits) & np.uint64(1)).astype(np.int64)
        acc = (2 * votes - 1).sum(axis=0)
        out[i] = np.sum((acc > 0).astype(np.uint64) << bits)
    return out


def main(n_docs: int = 10_000_000, n_line_docs: int = 1_000_000,
         n_shards: int = 32):
    import ray

    if not ray.is_initialized():
        ray.init(address="local", num_cpus=32, include_dashboard=False,
                 logging_level="ERROR")
    import ray.data as rd

    rd.DataContext.get_current().enable_progress_bars = False

    from sod_ray.pipelines.queries import LINE_DEDUP_SQL
    from sod_ray.stages.dedup import (
        exact_dedup,
        line_dedup,
        simhash_signatures,
    )

    out: dict = {"n_docs": n_docs, "n_line_docs": n_line_docs}

    # -- 1. exact dedup ----------------------------------------------------
    d = f"/tmp/sod_exact/corpus-{n_docs}"
    marker = f"{d}/docs/shard={n_shards - 1:05d}.parquet"
    if not os.path.exists(marker):
        shutil.rmtree(d, ignore_errors=True)
        t0 = time.perf_counter()
        n_dups = gen_exact_corpus(f"{d}/docs", n_docs, n_shards)
        json.dump({"n_dups": n_dups}, open(f"{d}/truth.json", "w"))
        out["gen_sec"] = round(time.perf_counter() - t0, 1)
    n_dups = json.load(open(f"{d}/truth.json"))["n_dups"]

    ds = rd.read_parquet(f"{d}/docs")
    from sod_ray.stages.dedup import group_min_count, md5_slim

    t0 = time.perf_counter()
    n_win = group_min_count(
        md5_slim(ds, "text", "doc_id"), "__md5", "doc_id"
    ).count()
    out["winner_reduce_sec"] = round(time.perf_counter() - t0, 1)

    t0 = time.perf_counter()
    kept = exact_dedup(ds, "text", "doc_id").count()
    out["exact_dedup_sec"] = round(time.perf_counter() - t0, 1)
    expect = n_docs - n_dups
    # copies may collide with each other (copy-of-copy in the tail
    # draw): the distinct count is the ground truth computed by the
    # reduce itself, but the planted bound must hold
    assert kept == n_win, f"semi-join kept {kept} != winners {n_win}"
    assert kept <= expect, (kept, expect)
    assert kept >= expect - n_dups, (kept, expect)
    out["kept"] = kept
    out["exact_docs_per_sec"] = round(n_docs / out["exact_dedup_sec"], 1)

    # -- 2. line dedup ------------------------------------------------------
    ld = f"/tmp/sod_lines/corpus-{n_line_docs}"
    marker = f"{ld}/docs/shard={n_shards - 1:05d}.parquet"
    if not os.path.exists(marker):
        shutil.rmtree(ld, ignore_errors=True)
        gen_line_corpus(f"{ld}/docs", n_line_docs, n_shards)

    lds = rd.read_parquet(f"{ld}/docs")
    t0 = time.perf_counter()
    res = line_dedup(lds, "text", "doc_id").materialize()
    n_docs_out = res.count()
    n_lines_kept = int(
        res.map_batches(
            lambda t: pa.table(
                {
                    "k": pa.array(
                        [
                            int(
                                pa.compute.sum(
                                    pa.compute.add(
                                        pa.compute.count_substring(
                                            t["text_deduped"], "\n"
                                        ),
                                        1,
                                    )
                                ).as_py()
                                or 0
                            )
                        ],
                        pa.int64(),
                    )
                }
            ),
            batch_format="pyarrow",
        )
        .to_pandas()["k"]
        .sum()
    )
    out["line_dedup_sec"] = round(time.perf_counter() - t0, 1)
    out["line_docs_out"] = n_docs_out
    out["line_lines_kept"] = n_lines_kept
    out["line_docs_per_sec"] = round(n_line_docs / out["line_dedup_sec"], 1)

    # validate against DuckDB running the oracle SQL on the same corpus
    import duckdb

    con = duckdb.connect()
    con.execute(
        f"CREATE VIEW documents AS SELECT * FROM read_parquet('{ld}/docs/*.parquet')"
    )
    want = con.sql(
        "SELECT COUNT(*) AS docs, "
        "SUM(len(string_split(text_deduped, chr(10)))) AS lines "
        f"FROM ({LINE_DEDUP_SQL})"
    ).fetchone()
    assert n_docs_out == want[0], (n_docs_out, want[0])
    assert n_lines_kept == int(want[1]), (n_lines_kept, want[1])
    out["line_duckdb_match"] = True

    # -- 3. SimHash kernel A/B ----------------------------------------------
    rng = np.random.default_rng(3)
    texts = [
        " ".join(f"w{t}" for t in rng.integers(0, 50_000, size=80))
        for _ in range(20_000)
    ]
    t0 = time.perf_counter()
    ref = simhash_signatures_reference(texts)
    ref_s = time.perf_counter() - t0
    t0 = time.perf_counter()
    new = simhash_signatures(texts)
    new_s = time.perf_counter() - t0
    assert np.array_equal(ref, new), "SimHash kernel diverged from reference"
    out["simhash_ref_sec"] = round(ref_s, 2)
    out["simhash_new_sec"] = round(new_s, 2)
    out["simhash_speedup"] = round(ref_s / new_s, 1)

    print(json.dumps(out))
    ray.shutdown()


if __name__ == "__main__":
    main(
        int(sys.argv[1]) if len(sys.argv) > 1 else 10_000_000,
        int(sys.argv[2]) if len(sys.argv) > 2 else 1_000_000,
        int(sys.argv[3]) if len(sys.argv) > 3 else 32,
    )

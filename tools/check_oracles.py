"""Driver-mimicking harness: run every queries() entry at a given sf
and compare against oracle_sql() via DuckDB (row count + sorted-column
value frame equality). Usage:
python tools/check_oracles.py [sf_dir] [only_query1,only_query2,...]"""

from __future__ import annotations

import sys
import time

import duckdb
import pandas as pd

sys.path.insert(0, ".")

TABLES = [
    "region", "nation", "customer", "supplier", "part", "orders",
    "lineitem", "events", "documents", "embeddings",
]


def to_pandas(res):
    """A query result as a pandas frame. A Dataset converts through its
    Arrow blocks: ``Dataset.to_pandas()`` drops 0-row blocks, so an
    empty typed result would lose every column. With no row anywhere,
    the frame takes its columns from a typed block, else from the
    Dataset's schema."""
    import pyarrow as pa
    import ray
    import ray.data

    if isinstance(res, ray.data.Dataset):
        from sod_ray.stages.blocks import arrow_block_refs

        tables = [t for t in ray.get(arrow_block_refs(res)) if t.num_columns]
        full = [t for t in tables if t.num_rows] or tables[:1]
        if full:
            return pa.concat_tables(full, promote_options="default").to_pandas()
        schema = getattr(res.schema(), "base_schema", None)
        if isinstance(schema, pa.Schema):
            return schema.empty_table().to_pandas()
        return pd.DataFrame()
    if isinstance(res, pa.Table):
        return res.to_pandas()
    return res


def canon(df: pd.DataFrame) -> pd.DataFrame:
    df = df[sorted(df.columns)].copy()
    for c in df.columns:
        if pd.api.types.is_float_dtype(df[c]):
            df[c] = df[c].round(9)
        if pd.api.types.is_integer_dtype(df[c]):
            df[c] = df[c].astype("int64")
    return df.sort_values(list(df.columns), kind="stable").reset_index(drop=True)


def main(sf_dir: str, only: set[str] | None = None):
    import ray

    ray.init(
        address="local", num_cpus=8, include_dashboard=False,
        ignore_reinit_error=True, logging_level="ERROR",
    )
    import __ray_entry__ as entrymod

    con = duckdb.connect()
    for t in TABLES:
        con.execute(
            f"CREATE VIEW {t} AS SELECT * FROM read_parquet('{sf_dir}/{t}.parquet')"
        )
    qs = entrymod.queries()
    if only:
        qs = {k: v for k, v in qs.items() if k in only}
    oracles = entrymod.oracle_sql()
    failures = []
    for name, fn in qs.items():
        t0 = time.time()
        try:
            mine = canon(to_pandas(fn(sf_dir)))
        except Exception as e:
            failures.append(name)
            print(f"FAIL {name}: query raised {type(e).__name__}: {e}")
            continue
        dt = time.time() - t0
        if name not in oracles:
            print(f"ok   {name}: rows={len(mine)} (rows-only, {dt:.1f}s)")
            continue
        try:
            oracle = canon(con.sql(oracles[name]).df())
        except Exception as e:
            failures.append(name)
            print(f"FAIL {name}: oracle raised {e}")
            continue
        if len(mine) != len(oracle):
            failures.append(name)
            print(f"FAIL {name}: rows {len(mine)} != {len(oracle)}")
            continue
        if list(mine.columns) != list(oracle.columns):
            failures.append(name)
            print(f"FAIL {name}: cols {list(mine.columns)} != {list(oracle.columns)}")
            continue
        try:
            pd.testing.assert_frame_equal(
                mine, oracle, check_dtype=False, check_exact=False, rtol=1e-9, atol=1e-9
            )
            print(f"PASS {name}: rows={len(mine)} ({dt:.1f}s)")
        except AssertionError as e:
            failures.append(name)
            print(f"FAIL {name}: value mismatch: {str(e)[:300]}")
    print(f"\n{len(qs) - len(failures)}/{len(qs)} ok; failures: {failures}")
    ray.shutdown()
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(
        main(
            sys.argv[1] if len(sys.argv) > 1 else "/root/testdata/sf0.01",
            set(sys.argv[2].split(",")) if len(sys.argv) > 2 else None,
        )
    )

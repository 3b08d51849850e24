"""asof_join / range_join_broadcast / windowed_rolling_sorted parity
tests (pandas reference implementations on deterministic synthetic
frames)."""

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest


def _mk_frames(seed=7, n_left=400, n_right=300, n_keys=6):
    rng = np.random.default_rng(seed)
    left = pd.DataFrame(
        {
            "lid": np.arange(n_left),
            "k": rng.integers(0, n_keys, n_left),
            "ts": rng.integers(0, 10_000, n_left).astype("datetime64[us]"),
        }
    )
    right = pd.DataFrame(
        {
            "rid": np.arange(n_right) + 10_000,
            "k": rng.integers(0, n_keys + 2, n_right),  # some keys missing
            "ts": rng.integers(0, 10_000, n_right).astype("datetime64[us]"),
            "payload": rng.normal(size=n_right),
        }
    )
    # unique (k, ts) per side so the as-of match is deterministic
    left = left.drop_duplicates(["k", "ts"]).reset_index(drop=True)
    right = right.drop_duplicates(["k", "ts"]).reset_index(drop=True)
    return left, right


def _expected_asof(left, right, direction="backward"):
    out = []
    for k, lg in left.groupby("k"):
        rg = right[right["k"] == k].sort_values("ts")
        merged = pd.merge_asof(
            lg.sort_values("ts"),
            rg[["ts", "rid", "payload"]].rename(columns={"ts": "rts"}),
            left_on="ts",
            right_on="rts",
            direction=direction,
        )
        out.append(merged)
    return (
        pd.concat(out, ignore_index=True)
        .sort_values("lid")
        .reset_index(drop=True)
    )


def test_asof_join_matches_pandas(ray_session):
    import ray.data as rd

    from sod_ray.stages.joins import asof_join

    left, right = _mk_frames()
    got = (
        asof_join(
            rd.from_pandas(left),
            rd.from_pandas(right),
            on="ts",
            by="k",
            right_cols=["rid", "ts", "payload"],
            suffix="_r",
        )
        .to_pandas()
        .sort_values("lid")
        .reset_index(drop=True)
    )
    exp = _expected_asof(left, right)
    assert len(got) == len(left)
    assert got["lid"].tolist() == exp["lid"].tolist()
    assert got["lid"].dtype == np.int64  # null-padding must not float left ints
    pd.testing.assert_series_equal(
        got["rid"].astype("float64"), exp["rid"].astype("float64"), check_names=False
    )
    pd.testing.assert_series_equal(
        got["payload"], exp["payload"], check_names=False
    )
    # matched right timestamp rides along
    matched = got[got["rid"].notna()]
    exp_m = exp[exp["rid"].notna()]
    assert (
        matched["ts_r"].astype("int64").tolist()
        == exp_m["rts"].astype("int64").tolist()
    )
    # as-of contract: matched right ts <= left ts
    assert (matched["ts_r"] <= matched["ts"]).all()


def test_asof_join_forward(ray_session):
    import ray.data as rd

    from sod_ray.stages.joins import asof_join

    left, right = _mk_frames(seed=11)
    got = (
        asof_join(
            rd.from_pandas(left),
            rd.from_pandas(right),
            on="ts",
            by="k",
            right_cols=["rid"],
            direction="forward",
        )
        .to_pandas()
        .sort_values("lid")
        .reset_index(drop=True)
    )
    exp = []
    for k, lg in left.groupby("k"):
        rg = right[right["k"] == k].sort_values("ts")
        exp.append(
            pd.merge_asof(
                lg.sort_values("ts"),
                rg[["ts", "rid"]],
                on="ts",
                direction="forward",
            )
        )
    exp = pd.concat(exp).sort_values("lid").reset_index(drop=True)
    pd.testing.assert_series_equal(
        got["rid"].astype("float64"), exp["rid"].astype("float64"), check_names=False
    )


def test_range_join_broadcast_overlapping(ray_session):
    import ray.data as rd

    from sod_ray.stages.joins import range_join_broadcast

    rng = np.random.default_rng(3)
    df = pd.DataFrame({"id": np.arange(500), "v": rng.uniform(0, 100, 500)})
    ranges = pd.DataFrame(
        {
            "band": ["a", "b", "overlap"],
            "lo": [0.0, 50.0, 25.0],
            "hi": [50.0, 100.0, 75.0],
        }
    )
    got = (
        range_join_broadcast(rd.from_pandas(df), ranges, "v")
        .to_pandas()
        .sort_values(["id", "band"])
        .reset_index(drop=True)
    )
    exp_rows = []
    for _, r in ranges.iterrows():
        sub = df[(df["v"] >= r["lo"]) & (df["v"] < r["hi"])].copy()
        sub["band"] = r["band"]
        exp_rows.append(sub)
    exp = (
        pd.concat(exp_rows).sort_values(["id", "band"]).reset_index(drop=True)
    )
    assert len(got) == len(exp)
    assert got["id"].tolist() == exp["id"].tolist()
    assert got["band"].tolist() == exp["band"].tolist()


def test_windowed_rolling_sorted_matches_pandas(ray_session, monkeypatch):
    """Exact against pandas' per-key rolling mean, with the range sort
    cut into several ranges (a small ``ROWS_PER_TASK``) so hot keys
    span range boundaries."""
    import ray.data as rd

    from sod_ray.stages import blocks
    from sod_ray.stages.window import windowed_rolling_sorted

    monkeypatch.setattr(blocks, "ROWS_PER_TASK", 100)

    rng = np.random.default_rng(5)
    n = 3000
    df = pd.DataFrame(
        {
            "eid": np.arange(n),
            "k": rng.integers(0, 3, n).astype(str),  # few hot keys → multi-block runs
            "ts": rng.integers(0, 10_000_000, n).astype("datetime64[us]"),
            "v": rng.normal(size=n),
        }
    )
    ds = rd.from_pandas(df).repartition(8)
    got = (
        windowed_rolling_sorted(
            ds, key="k", ts_col="ts", value_col="v", id_cols=["eid"], window=8
        )
        .to_pandas()
        .sort_values("eid")
        .reset_index(drop=True)
    )
    exp = df.sort_values(["k", "ts", "eid"]).copy()
    exp["rolling_mean"] = exp.groupby("k")["v"].transform(
        lambda s: s.rolling(8, min_periods=1).mean()
    )
    exp = exp.sort_values("eid").reset_index(drop=True)
    assert len(got) == n
    np.testing.assert_allclose(
        got["rolling_mean"].to_numpy(), exp["rolling_mean"].to_numpy(), rtol=1e-9
    )


def test_asof_join_salted_parity(ray_session):
    """Salted (time-bucketed) as-of join must produce EXACTLY the
    unsalted join's output, including across bucket boundaries and on
    a skewed hot key."""
    import ray.data as rd

    from sod_ray.stages.joins import asof_join, asof_join_salted

    rng = np.random.default_rng(21)
    n_l, n_r = 800, 600
    # one hot key (0) holds ~70% of rows — the salting target
    hot = rng.uniform(size=n_l) < 0.7
    left = pd.DataFrame(
        {
            "lid": np.arange(n_l),
            "k": np.where(hot, 0, rng.integers(1, 5, n_l)),
            "ts": rng.integers(0, 1_000_000, n_l).astype("datetime64[us]"),
        }
    ).drop_duplicates(["k", "ts"]).reset_index(drop=True)
    right = pd.DataFrame(
        {
            "rid": np.arange(n_r) + 10_000,
            "k": np.where(
                rng.uniform(size=n_r) < 0.7, 0, rng.integers(1, 6, n_r)
            ),
            "ts": rng.integers(0, 1_000_000, n_r).astype("datetime64[us]"),
            "payload": rng.normal(size=n_r),
        }
    ).drop_duplicates(["k", "ts"]).reset_index(drop=True)

    base = (
        asof_join(
            rd.from_pandas(left), rd.from_pandas(right),
            on="ts", by="k", right_cols=["rid", "ts", "payload"],
        )
        .to_pandas()
        .sort_values("lid")
        .reset_index(drop=True)
    )
    # ~20 buckets: plenty of boundary crossings and left-only buckets
    salted = (
        asof_join_salted(
            rd.from_pandas(left), rd.from_pandas(right),
            on="ts", by="k", right_cols=["rid", "ts", "payload"],
            bucket_us=50_000,
        )
        .to_pandas()
        .sort_values("lid")
        .reset_index(drop=True)
    )
    assert len(salted) == len(base) == len(left)
    for col in ["lid", "k"]:
        assert salted[col].tolist() == base[col].tolist()
    pd.testing.assert_series_equal(
        salted["rid"].astype("float64"), base["rid"].astype("float64"),
        check_names=False,
    )
    pd.testing.assert_series_equal(
        salted["payload"], base["payload"], check_names=False
    )
    assert (
        salted["ts_right"].astype("int64").tolist()
        == base["ts_right"].astype("int64").tolist()
    )


def test_bucketed_equi_join_vs_pandas(ray_session):
    """bucketed_equi_join parity vs pandas merge: duplicate left keys,
    right-missing keys, null keys (never match), mixed payloads."""
    import numpy as np

    import ray.data as rd

    from sod_ray.stages.joins import bucketed_equi_join

    rng = np.random.default_rng(11)
    n = 5_000
    left = pd.DataFrame(
        {
            "k": rng.integers(0, 800, n).astype("float64"),
            "lv": rng.normal(size=n),
        }
    )
    left.loc[rng.choice(n, 50, replace=False), "k"] = np.nan  # null keys
    right = pd.DataFrame(
        {
            "k": np.arange(0, 1000, 2).astype("float64"),  # half the keys
            "rv": np.arange(500) * 10,
        }
    )
    got = (
        bucketed_equi_join(
            rd.from_pandas(left), rd.from_pandas(right), key="k",
            num_buckets=16,
        )
        .to_pandas()
        .sort_values(["k", "lv"], kind="stable")
        .reset_index(drop=True)
    )
    want = (
        left.merge(right, on="k", how="inner")
        .sort_values(["k", "lv"], kind="stable")
        .reset_index(drop=True)
    )
    assert len(got) == len(want)
    pd.testing.assert_frame_equal(
        got[sorted(got.columns)], want[sorted(want.columns)],
        check_like=True,
    )


def test_bucketed_equi_join_left_outer(ray_session):
    import ray.data as rd

    from sod_ray.stages.joins import bucketed_equi_join

    left = pd.DataFrame({"k": [1, 2, 3, 4], "lv": list("abcd")})
    right = pd.DataFrame({"k": [2, 4], "rv": [20, 40]})
    got = (
        bucketed_equi_join(
            rd.from_pandas(left), rd.from_pandas(right), key="k",
            num_buckets=8, join_type="left outer",
        )
        .to_pandas()
        .sort_values("k")
        .reset_index(drop=True)
    )
    assert got["k"].tolist() == [1, 2, 3, 4]
    assert got["rv"].fillna(-1).tolist() == [-1, 20, -1, 40]

def test_bucketed_equi_join_takes_schema_from_bundles(
    ray_session, monkeypatch
):
    """The in-plasma join reads each side's schema from the RefBundles
    it executes anyway: with ``Dataset.schema`` patched to raise (it
    runs a lazy side once more as a limit-1 plan), lazy sides still
    join to the Acero result."""
    import ray.data as rd

    from sod_ray.stages.joins import bucketed_equi_join

    left = pa.table({"k": np.arange(300) % 17, "v": np.arange(300)})
    right = pa.table({"k": np.arange(0, 17, 2), "w": np.arange(9) * 10})

    def lazy(t):
        return rd.from_arrow(t).map_batches(
            lambda b: b, batch_format="pyarrow"
        )

    def no_schema(*a, **kw):
        raise AssertionError("Dataset.schema called")

    with monkeypatch.context() as m:
        m.setattr(rd.Dataset, "schema", no_schema)
        got = bucketed_equi_join(lazy(left), lazy(right), "k", num_buckets=4)
    want = left.join(right, keys="k", join_type="inner").to_pandas()
    assert len(want) > 0
    pd.testing.assert_frame_equal(
        got.to_pandas().sort_values("v").reset_index(drop=True),
        want.sort_values("v").reset_index(drop=True)[["k", "v", "w"]],
    )


def test_bucketed_equi_join_spill_parity(ray_session, tmp_path):
    """bucketed_equi_join with a spill (both sides landed as
    bucket-partitioned parquet, one join task per bucket) must match
    the in-plasma path row-for-row, including null keys (never match)
    and left-outer semantics."""
    import numpy as np
    import pandas as pd
    import pyarrow as pa
    import ray.data as rd

    from sod_ray.stages.exchange import Spill
    from sod_ray.stages.joins import bucketed_equi_join

    rng = np.random.default_rng(7)
    left = pa.table(
        {
            "k": pa.array(
                [None if i % 17 == 0 else int(rng.integers(0, 40))
                 for i in range(300)],
                pa.int64(),
            ),
            "lv": pa.array(np.arange(300), pa.int64()),
        }
    )
    right = pa.table(
        {
            "k": pa.array(
                [None if i % 13 == 0 else int(rng.integers(0, 40))
                 for i in range(200)],
                pa.int64(),
            ),
            "rv": pa.array(np.arange(200) * 10, pa.int64()),
        }
    )
    for jt in ("inner", "left outer"):
        base = (
            bucketed_equi_join(
                rd.from_arrow(left).repartition(5),
                rd.from_arrow(right).repartition(3),
                "k", join_type=jt,
            )
            .to_pandas()
            .sort_values(["lv", "rv"], na_position="last")
            .reset_index(drop=True)
        )
        spilled = (
            bucketed_equi_join(
                rd.from_arrow(left).repartition(5),
                rd.from_arrow(right).repartition(3),
                "k", num_buckets=4, join_type=jt,
                spill=Spill(str(tmp_path / f"j-{jt.replace(' ', '')}")),
            )
            .to_pandas()
            .sort_values(["lv", "rv"], na_position="last")
            .reset_index(drop=True)
        )
        pd.testing.assert_frame_equal(
            base[sorted(base.columns)], spilled[sorted(spilled.columns)]
        )


def test_bucket_join_nested_payloads():
    """A bucket join whose payload Acero rejects (list columns on
    either side) gives the rows and column order of the Acero join of
    the same tables with those columns left out, and every column keeps
    its type."""
    from sod_ray.stages.joins import _table_join

    left = pa.table(
        {
            "k": pa.array([1, 2, None, 4, 2], pa.int64()),
            "lv": pa.array(np.arange(5), pa.int64()),
            "ll": pa.array([[i] for i in range(5)], pa.list_(pa.int32())),
        }
    )
    right = pa.table(
        {
            "k": pa.array([2, 4, 4, 9], pa.int64()),
            "rv": pa.array([20, 40, 41, 90], pa.int64()),
            "rl": pa.array([["a"], ["b"], ["c"], ["d"]], pa.list_(pa.string())),
        }
    )
    for jt in ("inner", "left outer", "left anti"):
        got = _table_join(left, right, "k", jt)
        flat = left.drop_columns(["ll"]).join(
            right.drop_columns(["rl"]), keys="k", join_type=jt
        )
        want_names = flat.column_names[:2] + ["ll"] + flat.column_names[2:]
        if jt != "left anti":
            want_names.append("rl")
        assert got.column_names == want_names, jt
        assert got.schema.field("ll").type == left.schema.field("ll").type
        order = ["lv"] + (["rv"] if jt != "left anti" else [])
        g = got.to_pandas().sort_values(order, na_position="last")
        f = flat.to_pandas().sort_values(order, na_position="last")
        pd.testing.assert_frame_equal(
            g[flat.column_names].reset_index(drop=True), f.reset_index(drop=True)
        )
        # the nested payloads travel with their rows
        assert all(a == [b] for a, b in zip(g["ll"].map(list), g["lv"])), jt
        if jt != "left anti":
            rl = dict(zip(right["rv"].to_pylist(), right["rl"].to_pylist()))
            for rv, x in zip(g["rv"], g["rl"]):
                assert (x is None) if pd.isna(rv) else list(x) == rl[rv], jt

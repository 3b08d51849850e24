"""Ray Data stage tests (session-scoped Ray, sf0.001 + synthetic web table)."""

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest

from sod_ray.sources.webpages import synth_refs, synth_shard


@pytest.fixture(scope="module")
def webpages(ray_session):
    table, truth = synth_shard(2000, shard=0, seed=42)
    return table, truth


def test_synth_invariant_extraction(webpages):
    from sod_ray.functions.text import extract_text

    table, truth = webpages
    htmls = table["html"].to_pylist()
    texts = table["text"].to_pylist()
    bad = set(truth["null_html_rows"]) | set(truth["trunc_html_rows"])
    for i in (0, 1, 5, 100, 500, 1999):
        if i not in bad:
            assert extract_text(htmls[i]) == texts[i]
    # planted nulls / truncations break the invariant
    assert htmls[truth["null_html_rows"][0]] is None
    r = truth["trunc_html_rows"][0]
    assert extract_text(htmls[r]) != texts[r]


def test_column_stats(ray_session, webpages):
    import ray.data as rd

    from sod_ray.stages.stats import column_stats
    from sod_ray.stages.textstage import TextFeatures

    table, _ = webpages
    ds = rd.from_arrow(table).map_batches(
        TextFeatures, batch_format="pandas", concurrency=2
    )
    stats = column_stats(ds, ["n_chars", "n_tokens"], key="lang").to_pandas()
    assert set(stats["column"]) == {"n_chars", "n_tokens"}
    en = stats[(stats["part_key"] == "en") & (stats["column"] == "n_chars")].iloc[0]
    df = table.to_pandas()
    df["n_chars"] = df["text"].str.len()
    expected = df[df["lang"] == "en"]["n_chars"]
    assert en["count"] == len(expected)
    assert en["mean"] == pytest.approx(expected.mean(), rel=1e-9)
    assert en["std"] == pytest.approx(expected.std(ddof=1), rel=1e-6)
    assert en["min"] == expected.min() and en["max"] == expected.max()
    assert en["p50"] == pytest.approx(expected.median(), rel=0.05)


def test_null_rates(ray_session, webpages):
    import ray.data as rd

    from sod_ray.stages.constraints import null_rates

    table, truth = webpages
    nr = null_rates(rd.from_arrow(table), ["html", "url"], key=None).to_pandas()
    html_row = nr[nr["column"] == "html"].iloc[0]
    assert html_row["null_count"] == len(truth["null_html_rows"])
    assert nr[nr["column"] == "url"].iloc[0]["null_count"] == 0


def test_uniqueness(ray_session, webpages):
    import ray.data as rd

    from sod_ray.stages.constraints import exact_duplicates, uniqueness_estimate

    table, truth = webpages
    ds = rd.from_arrow(table)
    est = uniqueness_estimate(ds, "url").to_pandas().iloc[0]
    assert est["rows"] == 2000
    # exact fallback finds the planted duplicates
    dups = exact_duplicates(ds, "url").to_pandas()
    assert set(dups["url"]) == set(truth["dup_urls"])
    assert (dups["dup_count"] >= 2).all()


def test_exact_dup_counts(ray_session):
    """Bucket-exchange dup counter matches a pandas exact count per
    partition, including keys absent from the filter set."""
    import ray.data as rd

    from sod_ray.stages.constraints import exact_dup_counts

    rng = np.random.default_rng(11)
    n = 5000
    langs = np.array(["en", "de", "fr"])[rng.integers(0, 3, n)]
    # ~2% dup urls inside each partition
    urls = np.array([f"https://x.test/{i}" for i in rng.integers(0, int(n * 0.6), n)])
    t = pa.table({"lang": pa.array(langs), "url": pa.array(urls)})
    got = exact_dup_counts(
        rd.from_arrow(t), "url", "lang", ["en", "fr"], n_buckets=16
    )
    df = pd.DataFrame({"lang": langs, "url": urls})
    for k in ("en", "fr"):
        sub = df[df["lang"] == k]
        assert got[k] == len(sub) - sub["url"].nunique(), k
    assert set(got) == {"en", "fr"}  # "de" not requested, not counted


def test_referential(ray_session, webpages):
    import ray.data as rd

    from sod_ray.stages.constraints import (
        broadcast_anti_join,
        bucketed_anti_join,
        referential_check,
    )

    table, _ = webpages
    refs, rt = synth_refs(table, 500, seed=7)
    child = rd.from_arrow(refs)
    parent = rd.from_arrow(table)
    violations, verdict = referential_check(child, parent, "dst_url", "url")
    got = sorted(set(violations.to_pandas()["dst_url"]))
    assert got == rt["dangling"]
    assert verdict["exact_path"] == "broadcast"
    # bucketed path must agree with the broadcast path
    bucketed = bucketed_anti_join(child, parent, "dst_url", "url", num_buckets=8)
    got2 = sorted(set(bucketed.to_pandas()["dst_url"]))
    assert got2 == rt["dangling"]


def test_windowed_zscore_finds_peaks(ray_session, webpages):
    import ray.data as rd

    from sod_ray.stages.textstage import TextFeatures
    from sod_ray.stages.window import windowed_zscore

    table, truth = webpages
    ds = rd.from_arrow(table).map_batches(TextFeatures, batch_format="pandas", concurrency=2)
    flagged = windowed_zscore(
        ds, key="lang", ts_col="warc_ts", value_col="n_chars", id_cols=["url"]
    ).to_pandas()
    # every planted 10x burst row that isn't in the first min_periods rows
    # of its partition should be flagged
    df = table.to_pandas()
    peak_urls = set(df.iloc[truth["peak_rows"]]["url"])
    assert len(set(flagged["url"]) & peak_urls) >= len(truth["peak_rows"]) // 2
    # flags are rare overall
    assert len(flagged) < 0.05 * len(df)


def test_windowed_lof_runs(ray_session, webpages):
    import ray.data as rd

    from sod_ray.stages.textstage import TextFeatures
    from sod_ray.stages.window import windowed_lof

    table, truth = webpages
    ds = rd.from_arrow(table).map_batches(TextFeatures, batch_format="pandas", concurrency=2)
    out = windowed_lof(
        ds,
        key="lang",
        ts_col="warc_ts",
        feature_cols=["n_chars", "n_tokens"],
        id_cols=["url"],
        max_items=256,
        flagged_only=True,
    ).to_pandas()
    df = table.to_pandas()
    peak_urls = set(df.iloc[truth["peak_rows"]]["url"])
    # LOF flags the bursts too (first row of each burst at minimum)
    assert len(set(out["url"]) & peak_urls) > 0


def test_retention(ray_session):
    import ray.data as rd

    from sod_ray.stages.window import retention_topk_by_recency

    df = pd.DataFrame(
        {
            "k": ["a"] * 5 + ["b"] * 2,
            "ts": [1, 2, 3, 4, 5, 10, 11],
            "v": list(range(7)),
        }
    )
    out = (
        retention_topk_by_recency(rd.from_pandas(df), "k", "ts", 3)
        .to_pandas()
        .sort_values(["k", "ts"])
    )
    assert out[out["k"] == "a"]["ts"].tolist() == [3, 4, 5]
    assert out[out["k"] == "b"]["ts"].tolist() == [10, 11]


def test_drift(ray_session, webpages):
    import ray.data as rd

    from sod_ray.stages.drift import build_baseline, drift_check
    from sod_ray.stages.stats import column_stats
    from sod_ray.stages.textstage import TextFeatures

    table, _ = webpages
    ds = rd.from_arrow(table).map_batches(TextFeatures, batch_format="pandas", concurrency=2)
    stats = column_stats(ds, ["n_chars"], key="lang")
    baseline = build_baseline(stats)
    # same distribution → no drift
    same = drift_check(column_stats(ds, ["n_chars"], key="lang"), baseline).to_pandas()
    assert not same[same["has_baseline"]]["drifted"].any()
    # shifted distribution → drift
    shifted = ds.map_batches(
        lambda df: df.assign(n_chars=df["n_chars"] * 5 + 1000),
        batch_format="pandas",
    )
    drifted = drift_check(column_stats(shifted, ["n_chars"], key="lang"), baseline).to_pandas()
    assert drifted[drifted["has_baseline"]]["drifted"].all()


def test_extract_stage_and_fingerprint(ray_session, webpages):
    import ray.data as rd

    from sod_ray.stages.textstage import extract_text_batch, fingerprint_batch

    table, truth = webpages
    ds = rd.from_arrow(table).map_batches(extract_text_batch, batch_format="pyarrow")
    out = ds.to_pandas()
    n_bad = (~out["extract_match"]).sum()
    assert n_bad == len(truth["null_html_rows"]) + len(truth["trunc_html_rows"])
    fp = rd.from_arrow(table).map_batches(fingerprint_batch, batch_format="pyarrow").to_pandas()
    assert fp["text_md5"].str.len().eq(32).all()


def test_salting(ray_session, webpages):
    import ray.data as rd

    from sod_ray.stages.stats import add_salt, column_stats, strip_salt
    from sod_ray.stages.textstage import TextFeatures

    table, _ = webpages
    ds = (
        rd.from_arrow(table)
        .map_batches(TextFeatures, batch_format="pandas", concurrency=2)
        .map_batches(lambda t: add_salt(t, "lang", 4, "url"), batch_format="pyarrow")
    )
    level1 = column_stats(ds, ["n_chars"], key="salted_key")
    level1_stripped = level1.map_batches(strip_salt, batch_format="pyarrow")
    # second-level merge over the stripped key
    from sod_ray.stages.stats import merge_sketch_group

    final = (
        level1_stripped.select_columns(["part_key", "column", "welford", "tdigest", "hll"])
        .groupby(["part_key", "column"])
        .map_groups(merge_sketch_group, batch_format="pyarrow")
        .to_pandas()
    )
    df = table.to_pandas()
    df["n_chars"] = df["text"].str.len()
    en = final[final["part_key"] == "en"].iloc[0]
    expected = df[df["lang"] == "en"]["n_chars"]
    assert en["count"] == len(expected)
    assert en["mean"] == pytest.approx(expected.mean(), rel=1e-9)


def test_windowed_zscore_sorted_matches_groupby(ray_session, webpages):
    """The hot-key-parallel sorted scorer must produce EXACTLY the same
    flagged rows as the per-group scorer, including across block
    boundaries (overlap correctness)."""
    import ray.data as rd

    from sod_ray.stages.textstage import TextFeatures
    from sod_ray.stages.window import windowed_zscore, windowed_zscore_sorted

    table, _ = webpages
    ds = (
        rd.from_arrow(table)
        .map_batches(TextFeatures, batch_format="pandas", concurrency=2)
        .repartition(13)  # force many blocks → many key-spanning boundaries
    )
    a = (
        windowed_zscore(ds, key="lang", ts_col="warc_ts", value_col="n_chars",
                        id_cols=["url"])
        .to_pandas()
        .sort_values(["lang", "warc_ts", "url"])
        .reset_index(drop=True)
    )
    b = (
        windowed_zscore_sorted(ds, key="lang", ts_col="warc_ts",
                               value_col="n_chars", id_cols=["url"])
        .sort_values(["lang", "warc_ts", "url"])
        .reset_index(drop=True)
    )
    assert len(a) == len(b) and len(a) > 0
    pd.testing.assert_series_equal(a["url"], b["url"], check_names=False)
    np.testing.assert_allclose(a["z"].to_numpy(), b["z"].to_numpy(), rtol=1e-12)


def test_windowed_zscore_sorted_sink(ray_session, webpages, tmp_path):
    import glob

    import pyarrow.parquet as pq
    import ray.data as rd

    from sod_ray.stages.textstage import TextFeatures
    from sod_ray.stages.window import windowed_zscore_sorted

    table, _ = webpages
    ds = rd.from_arrow(table).map_batches(
        TextFeatures, batch_format="pandas", concurrency=2
    )
    sink = str(tmp_path / "viol")
    counts = windowed_zscore_sorted(
        ds, key="lang", ts_col="warc_ts", value_col="n_chars", id_cols=["url"],
        sink_dir=sink, sink_key_prefix="lang",
    )
    total = counts["n_flagged"].sum()
    on_disk = sum(
        pq.read_table(f).num_rows for f in glob.glob(f"{sink}/lang=*/peaks-*.parquet")
    )
    assert total == on_disk > 0


def test_retention_reference_fixture(ray_session):
    """FIXTURES.md G3 / db_scheduler_test.go:27-49: 5 rows per entity,
    max_items ∈ {3, 1} → keep the newest 3 / 1."""
    import ray.data as rd

    from sod_ray.stages.window import retention_topk_by_recency

    df = pd.DataFrame(
        {
            "k": ["e"] * 5,
            "ts": pd.to_datetime(
                ["2024-01-01", "2024-01-02", "2024-01-03", "2024-01-04", "2024-01-05"]
            ),
            "v": [1, 2, 3, 4, 5],
        }
    )
    for max_items, expect in [(3, [3, 4, 5]), (1, [5])]:
        out = retention_topk_by_recency(
            rd.from_pandas(df), "k", "ts", max_items
        ).to_pandas()
        assert sorted(out["v"].tolist()) == expect


def test_sessionize_agg_matches_brute(ray_session):
    """sessionize_agg (vectorized exchange kernel) vs a per-key pandas
    brute force — string keys (hash-routed path), duplicate timestamps
    (id tie-break), numeric ts, and a gap that splits mid-stream."""
    import ray.data as rd

    from sod_ray.stages.window import sessionize_agg

    rng = np.random.default_rng(11)
    n = 5000
    df = pd.DataFrame(
        {
            "k": rng.choice([f"u{i}" for i in range(40)], size=n),
            "ts": rng.integers(0, 3000, size=n).astype("int64"),
            "eid": rng.permutation(n).astype("int64"),
        }
    )
    gap = 25

    def brute(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["ts", "eid"], kind="stable").reset_index(drop=True)
        brk = (g["ts"].diff() > gap) | g["ts"].diff().isna()
        sid = brk.cumsum().astype("int64") - 1
        out = (
            g.assign(session_id=sid)
            .groupby("session_id")
            .agg(n_events=("eid", "size"), first_eid=("eid", "min"))
            .reset_index()
        )
        out.insert(0, "k", g["k"].iloc[0])
        return out

    expect = (
        pd.concat([brute(g) for _, g in df.groupby("k")], ignore_index=True)
        .astype({"n_events": "int64"})
        .sort_values(["k", "session_id"])
        .reset_index(drop=True)
    )
    got = (
        sessionize_agg(rd.from_pandas(df), "k", "ts", "eid", gap=gap)
        .to_pandas()
        .sort_values(["k", "session_id"])
        .reset_index(drop=True)
    )
    pd.testing.assert_frame_equal(got[expect.columns.tolist()], expect)


def test_bucketed_anti_join_int_keys(ray_session):
    """Bucketed hash anti-join with integer keys: values compare
    exactly (int64 keys beyond 2^53 that differ only in their low bits
    stay apart), a null FK comes out dangling, and the child's columns
    keep their order and types (a list column included)."""
    import pyarrow as pa
    import ray
    import ray.data as rd

    from sod_ray.stages.constraints import bucketed_anti_join

    big = 2**53 + 1
    child_t = pa.table(
        {
            "fk": pa.array([1, 2, 3, 99, 100, None, big, big + 2], pa.int64()),
            "payload": ["a", "b", "c", "d", "e", "f", "g", "h"],
            "tags": pa.array(
                [[i] for i in range(8)], pa.list_(pa.int32())
            ),
        }
    )
    parent = rd.from_arrow(
        pa.table({"pk": pa.array(list(range(50)) + [big + 1, big + 2], pa.int64())})
    )
    out = pa.concat_tables(
        ray.get(
            bucketed_anti_join(
                rd.from_arrow(child_t), parent, "fk", "pk", num_buckets=4
            ).to_arrow_refs()
        )
    )
    assert out.schema == child_t.schema
    assert sorted(out["payload"].to_pylist()) == ["d", "e", "f", "g"]
    # data-sized buckets (num_buckets=None) agree
    out2 = bucketed_anti_join(
        rd.from_arrow(child_t), parent, "fk", "pk", num_buckets=None
    ).to_pandas()
    assert sorted(out2["payload"]) == ["d", "e", "f", "g"]


def test_broadcast_joins_exact_values(ray_session):
    """Broadcast semi/anti joins compare ACTUAL key values (a 64-bit
    hash collision must never hide a dangling key), including int64
    keys beyond 2^53 and null FKs."""
    import pyarrow as pa
    import ray.data as rd

    from sod_ray.stages.constraints import broadcast_anti_join, broadcast_semi_join

    parent = pa.array([2**60, 2**60 + 1, 5], pa.int64())
    child = rd.from_arrow(
        pa.table(
            {
                "fk": pa.array([2**60, 2**60 + 1, 2**60 + 2, 5, None], pa.int64()),
                "row": ["a", "b", "c", "d", "e"],
            }
        )
    )
    anti = broadcast_anti_join(child, parent, "fk").to_pandas()
    assert sorted(anti["row"]) == ["c", "e"]  # null FK counts as dangling
    semi = broadcast_semi_join(child, parent, "fk").to_pandas()
    assert sorted(semi["row"]) == ["a", "b", "d"]


def test_windowed_zscore_sorted_subwindow_blocks(ray_session):
    """Blocks far smaller than the window: the sorted scorer must
    accumulate context across SEVERAL preceding blocks (a single
    predecessor tail truncates the trailing window — ADVICE r1)."""
    import ray.data as rd

    from sod_ray.stages.window import windowed_zscore, windowed_zscore_sorted

    rng = np.random.default_rng(7)
    n = 240
    df = pd.DataFrame(
        {
            "k": ["x"] * n,
            "ts": pd.to_datetime("2024-01-01") + pd.to_timedelta(range(n), "s"),
            "v": rng.normal(0, 1, n),
            "id": [f"r{i:04d}" for i in range(n)],
        }
    )
    ds = rd.from_pandas(df).repartition(48)  # ~5-row blocks << window 64
    kw = dict(key="k", ts_col="ts", value_col="v", id_cols=["id"],
              window=64, min_periods=8, threshold=0.0)  # flag everything scored
    a = (
        windowed_zscore(ds, **kw)
        .to_pandas()
        .sort_values("id")
        .reset_index(drop=True)
    )
    b = windowed_zscore_sorted(ds, **kw).sort_values("id").reset_index(drop=True)
    assert len(a) == len(b) > 0
    np.testing.assert_allclose(a["z"].to_numpy(), b["z"].to_numpy(), rtol=1e-12)


def test_manifest_flags_vs_evidence(tmp_path):
    """passed()/summary() consider only pass/fail flags; numeric
    evidence (n_dangling etc.) must not flip the verdict (1 == True in
    Python — ADVICE r1)."""
    from sod_ray.state.manifest import Manifest, PartitionRecord

    m = Manifest(str(tmp_path / "m"))
    rec = PartitionRecord(
        partition="__referential__",
        constraint_outcomes={"referential": "pass"},
        evidence={"n_dangling": 1, "n_refs": 100, "dangling_est": 0.0},
    )
    assert rec.passed()
    m.commit(rec)
    assert m.summary()["all_passed"]
    # legacy-style record with numbers mixed into outcomes: the numbers
    # are ignored, the flag governs
    legacy = PartitionRecord(
        partition="p",
        constraint_outcomes={"referential": "fail", "n_dangling": 0},
    )
    assert not legacy.passed()
    legacy_ok = PartitionRecord(
        partition="q",
        constraint_outcomes={"referential": "pass", "n_dangling": 7},
    )
    assert legacy_ok.passed()


def test_windowed_lof_chunked_matches_monolithic(ray_session, webpages):
    """Chunked state-handoff replay == one-task-per-key replay (same
    verdicts, scores, norm_vec cache) even with many sub-window blocks
    and a skewed hot key."""
    import ray.data as rd

    from sod_ray.stages.textstage import TextFeatures
    from sod_ray.stages.window import windowed_lof, windowed_lof_chunked

    table, _ = webpages
    ds = (
        rd.from_arrow(table)
        .map_batches(TextFeatures, batch_format="pandas", concurrency=2)
        .repartition(11)
    )
    kw = dict(key="lang", ts_col="warc_ts", feature_cols=["n_chars", "n_tokens"],
              id_cols=["url"], max_items=64, skip_items=5,
              allow_append_outlier=False)
    a = (
        windowed_lof(ds, **kw)
        .to_pandas()
        .sort_values(["lang", "warc_ts", "url"])
        .reset_index(drop=True)
    )
    b = (
        windowed_lof_chunked(ds, **kw)
        .sort_values(["lang", "warc_ts", "url"])
        .reset_index(drop=True)
    )
    assert len(a) == len(b) > 0
    pd.testing.assert_series_equal(a["url"], b["url"], check_names=False)
    np.testing.assert_allclose(a["lof"].to_numpy(), b["lof"].to_numpy(), rtol=1e-12)
    assert a["norm_vec"].tolist() == b["norm_vec"].tolist()


def test_drift_noise_floor_same_distribution_shards(ray_session):
    """Two INDEPENDENT same-distribution samples (different rng draws,
    block-wise merged digests — the shape that inflated KS ~3x over
    exact on discrete columns) must NOT flag drift at ~1k rows; a real
    shift still must."""
    import ray.data as rd

    from sod_ray.stages.drift import build_baseline, drift_check
    from sod_ray.sources.webpages import synth_shard
    from sod_ray.stages.stats import column_stats
    from sod_ray.stages.textstage import TextFeatures

    t0, _ = synth_shard(1500, shard=0, seed=5)
    t1, _ = synth_shard(1500, shard=1, seed=5)  # same generator, new draw
    feats = lambda t: rd.from_arrow(t).map_batches(
        TextFeatures, batch_format="pandas", concurrency=2
    )
    baseline = build_baseline(column_stats(feats(t0), ["n_chars"], key="lang"))
    same = drift_check(
        column_stats(feats(t1), ["n_chars"], key="lang"), baseline
    ).to_pandas()
    assert not same[same["has_baseline"]]["drifted"].any()
    # genuine shift still flags despite the noise floor
    shifted = feats(t1).map_batches(
        lambda df: df.assign(n_chars=df["n_chars"] * 5 + 1000),
        batch_format="pandas",
    )
    moved = drift_check(
        column_stats(shifted, ["n_chars"], key="lang"), baseline
    ).to_pandas()
    assert moved[moved["has_baseline"]]["drifted"].all()


@pytest.mark.parametrize("quantile_sketch", ["tdigest", "kll"])
def test_sketch_merge_fold_order_is_canonical(quantile_sketch):
    """``merge_sketch_group`` folds its partials in a fixed order: all 24
    orders of four partials of one (key, column) group merge to
    byte-identical rows. The fold used to follow the order the shuffle
    delivered the rows in, and the t-digest merge depends on it."""
    import itertools

    from sod_ray.stages.stats import make_sketch_partials, merge_sketch_group

    rng = np.random.default_rng(4)
    partial = make_sketch_partials(["v"], quantile_sketch=quantile_sketch)
    group = pa.concat_tables(
        [partial(pa.table({"v": rng.gamma(2.0, s, 500)})) for s in (1, 3, 10, 30)]
    )
    outs = [
        merge_sketch_group(group.take(list(order)))
        for order in itertools.permutations(range(group.num_rows))
    ]
    assert all(o.equals(outs[0]) for o in outs)


@pytest.mark.parametrize("merge_salt", [1, 8])
def test_combined_partials_merge_block_order_invariant(ray_session, merge_salt):
    """The flagship's combined partial+merge gives byte-identical stats
    rows, sketch bytes included, when the same featured rows arrive in
    another block order. Each 8192-row block is one partial batch, so
    only the fold order of the partials differs between the runs."""
    import ray.data as rd

    from sod_ray.pipelines.validate import ValidateConfig, _combined_partials_merge

    rng = np.random.default_rng(11)
    blocks = []
    for b, scale in enumerate((1.0, 4.0, 20.0, 90.0, 300.0, 7.0)):
        n = 8192
        blocks.append(
            pa.table(
                {
                    "lang": pa.array(np.where(np.arange(n) % 4 == 0, "de", "en")),
                    "url": pa.array([f"http://h{b}.org/{i}" for i in range(n)]),
                    "html_null": pa.array(rng.random(n) < 0.01),
                    "text_null": pa.array(rng.random(n) < 0.01),
                    "extract_match": pa.array(rng.random(n) < 0.5),
                    "n_chars": pa.array(rng.gamma(2.0, scale, n)),
                    "n_tokens": pa.array(rng.gamma(1.5, scale / 5, n)),
                }
            )
        )
    cfg = ValidateConfig(merge_salt=merge_salt)

    def merged(order):
        ds = rd.from_arrow([blocks[i] for i in order])
        t = _combined_partials_merge(ds, cfg).to_pandas()
        return t.sort_values(["part_key", "column"]).reset_index(drop=True)

    a = merged([0, 1, 2, 3, 4, 5])
    b = merged([5, 3, 1, 4, 0, 2])
    assert len(a) == 4
    pd.testing.assert_frame_equal(a, b, check_exact=True)


def test_kll_column_quantiles_stage(ray_session):
    import ray.data as rd

    from sod_ray.stages.stats import kll_column_quantiles

    rng = np.random.default_rng(9)
    vals = rng.integers(0, 5000, size=40_000).astype(np.float64)
    langs = np.where(np.arange(vals.size) % 3 == 0, "en", "de")
    ds = rd.from_arrow(
        pa.table({"lang": pa.array(langs.tolist()), "v": pa.array(vals)})
    )
    out = (
        kll_column_quantiles(ds, "v", key="lang", qs=(0.5, 0.9))
        .to_pandas()
        .set_index("part_key")
    )
    for lang in ("en", "de"):
        sub = np.sort(vals[langs == lang])
        assert int(out.loc[lang, "n"]) == sub.size
        for q, col in ((0.5, "q_50"), (0.9, "q_90")):
            est = float(out.loc[lang, col])
            rank = np.searchsorted(sub, est, side="right") / sub.size
            assert abs(rank - q) <= 0.03, (lang, q, rank)


def test_heavy_hitters_stage(ray_session):
    import collections

    import ray.data as rd

    from sod_ray.stages.stats import heavy_hitters

    rng = np.random.default_rng(17)
    toks = [f"t{v}" for v in rng.zipf(1.4, size=30_000)]
    # 3 tokens per doc so the tokenize path is exercised
    texts = [" ".join(toks[i : i + 3]) for i in range(0, len(toks), 3)]
    ds = rd.from_arrow(pa.table({"text": pa.array(texts)})).repartition(8)
    mg = heavy_hitters(ds, "text", tokenize=True, m=64)
    true = collections.Counter(toks)
    assert mg.n == len(toks)
    for k, est in mg.counts.items():
        assert est <= true[k] <= est + mg.err_ub
    top_exact = [
        k for k, _ in sorted(true.items(), key=lambda kv: (-kv[1], kv[0]))[:3]
    ]
    assert [k for k, _ in mg.top(3)] == top_exact


def test_column_stats_kll_backend(ray_session, webpages):
    import ray.data as rd

    from sod_ray.stages.stats import column_stats
    from sod_ray.stages.textstage import TextFeatures

    table, _ = webpages
    ds = rd.from_arrow(table).map_batches(
        TextFeatures, batch_format="pandas", concurrency=2
    )
    stats = column_stats(
        ds, ["n_chars"], key="lang", quantile_sketch="kll"
    ).to_pandas()
    # identical schema to the t-digest backend
    td_stats = column_stats(ds, ["n_chars"], key="lang").to_pandas()
    assert list(stats.columns) == list(td_stats.columns)
    df = table.to_pandas()
    df["n_chars"] = df["text"].str.len()
    en = stats[(stats["part_key"] == "en") & (stats["column"] == "n_chars")].iloc[0]
    expected = df[df["lang"] == "en"]["n_chars"]
    assert en["count"] == len(expected)
    assert en["p50"] == pytest.approx(expected.median(), rel=0.05)
    # the stored bytes decode as KLL (tag dispatch)
    from sod_ray.state.sketches import KLL, quantile_sketch_from_bytes

    assert isinstance(quantile_sketch_from_bytes(en["tdigest"]), KLL)


def test_drift_kll_backend(ray_session, webpages):
    import ray.data as rd

    from sod_ray.stages.drift import build_baseline, drift_check
    from sod_ray.stages.stats import column_stats
    from sod_ray.stages.textstage import TextFeatures

    table, _ = webpages
    ds = rd.from_arrow(table).map_batches(
        TextFeatures, batch_format="pandas", concurrency=2
    )
    kstats = lambda d: column_stats(d, ["n_chars"], key="lang", quantile_sketch="kll")
    baseline = build_baseline(kstats(ds))
    same = drift_check(kstats(ds), baseline).to_pandas()
    assert not same[same["has_baseline"]]["drifted"].any()
    shifted = ds.map_batches(
        lambda df: df.assign(n_chars=df["n_chars"] * 5 + 1000),
        batch_format="pandas",
    )
    drifted = drift_check(kstats(shifted), baseline).to_pandas()
    assert drifted[drifted["has_baseline"]]["drifted"].all()
    # mixed backends fail loudly, not silently
    td_cur = column_stats(ds, ["n_chars"], key="lang")
    with pytest.raises(Exception):
        drift_check(td_cur, baseline).to_pandas()


def test_heavy_hitters_per_key(ray_session):
    import collections

    import ray.data as rd

    from sod_ray.stages.stats import heavy_hitters

    rng = np.random.default_rng(29)
    langs = np.where(np.arange(20_000) % 2 == 0, "en", "de")
    # different heavy values per key
    vals = np.where(
        langs == "en",
        np.char.add("e", rng.zipf(1.5, size=20_000).astype(str)),
        np.char.add("d", rng.zipf(1.5, size=20_000).astype(str)),
    )
    ds = rd.from_arrow(
        pa.table({"lang": pa.array(langs.tolist()), "v": pa.array(vals.tolist())})
    ).repartition(4)
    per = heavy_hitters(ds, "v", key="lang", m=64)
    assert set(per) == {"en", "de"}
    for lang in ("en", "de"):
        true = collections.Counter(vals[langs == lang].tolist())
        mg = per[lang]
        assert mg.n == 10_000
        top1 = mg.top(1)[0][0]
        assert top1 == ("e1" if lang == "en" else "d1")
        for k, est in mg.counts.items():
            assert est <= true[k] <= est + mg.err_ub


def test_pack_chunks(ray_session):
    """Concat-and-chunk packing vs a sequential reference: multi-block
    sorted input, docs straddling chunk boundaries, zero-token docs,
    multiple keys."""
    import ray.data as rd

    from sod_ray.stages.budget import pack_chunks

    rng = np.random.default_rng(13)
    n = 5_000
    langs = np.sort(rng.choice(["aa", "bb", "cc"], size=n))
    ids = np.arange(n, dtype=np.int64)
    toks = rng.integers(0, 40, size=n).astype(np.int64)
    toks[rng.choice(n, 50, replace=False)] = 0  # zero-token docs
    ds = rd.from_arrow(
        pa.table(
            {
                "doc_id": pa.array(ids),
                "lang": pa.array(langs.tolist()),
                "n_tokens": pa.array(toks),
            }
        )
    ).repartition(16)
    B = 128
    out = (
        pack_chunks(ds, B, key_col="lang")
        .to_pandas()
        .sort_values("doc_id")
        .reset_index(drop=True)
    )
    # sequential reference
    prev_by_key: dict = {}
    exp_start, exp_end, exp_off = [], [], []
    for lg, t in zip(langs, toks):
        prev = prev_by_key.get(lg, 0)
        exp_start.append(prev // B)
        exp_end.append((prev + max(t, 1) - 1) // B)
        exp_off.append(prev % B)
        prev_by_key[lg] = prev + t
    assert out["chunk_start"].tolist() == exp_start
    assert out["chunk_end"].tolist() == exp_end
    assert out["chunk_offset"].tolist() == exp_off
    # straddling actually happened
    assert (out["chunk_end"] > out["chunk_start"]).any()


def test_categorical_drift_cross_run(ray_session, tmp_path):
    """Categorical drift across runs with baseline persistence: same
    mix stays quiet, a shifted lang mix flags; a partial second save
    merges instead of clobbering."""
    import os

    import ray.data as rd

    from sod_ray.stages.drift import (
        categorical_drift_check,
        load_categorical_baseline,
        save_categorical_baseline,
    )

    rng = np.random.default_rng(19)
    langs = rng.choice(["en", "de", "fr"], size=20_000, p=[0.7, 0.2, 0.1])
    ds = rd.from_arrow(pa.table({"lang": pa.array(langs.tolist())})).repartition(4)
    summaries, t0 = categorical_drift_check(ds, ["lang"], baseline=None)
    assert not t0["has_baseline"].to_pylist()[0]
    bp = os.path.join(tmp_path, "cat_baseline.parquet")
    save_categorical_baseline(summaries, str(bp))
    base = load_categorical_baseline(str(bp))

    # same mix (fresh draw): quiet
    langs2 = rng.choice(["en", "de", "fr"], size=20_000, p=[0.7, 0.2, 0.1])
    ds2 = rd.from_arrow(pa.table({"lang": pa.array(langs2.tolist())})).repartition(4)
    _, same = categorical_drift_check(ds2, ["lang"], baseline=base)
    assert same["has_baseline"].to_pylist() == [True]
    assert not same["drifted"].to_pylist()[0]

    # shifted mix: flags
    langs3 = rng.choice(["en", "de", "fr"], size=20_000, p=[0.2, 0.2, 0.6])
    ds3 = rd.from_arrow(pa.table({"lang": pa.array(langs3.tolist())})).repartition(4)
    s3, drifted = categorical_drift_check(ds3, ["lang"], baseline=base)
    assert drifted["drifted"].to_pylist()[0]

    # merge-on-save: a second save for a different column keeps lang
    other = {(k, "source"): mg for (k, _c), mg in s3.items()}
    save_categorical_baseline(other, str(bp))
    merged = load_categorical_baseline(str(bp))
    assert ("__all__", "lang") in merged and ("__all__", "source") in merged


def test_heavy_hitters_as_dataset(ray_session):
    import ray.data as rd

    from sod_ray.state.sketches import MisraGries
    from sod_ray.stages.stats import heavy_hitters

    rng = np.random.default_rng(5)
    keys = np.array([f"host{i}" for i in rng.integers(0, 50, 10_000)])
    vals = np.array([f"v{i}" for i in rng.zipf(1.5, 10_000)])
    ds = rd.from_arrow(
        pa.table({"host": pa.array(keys.tolist()), "v": pa.array(vals.tolist())})
    ).repartition(4)
    out = heavy_hitters(ds, "v", key="host", m=32, as_dataset=True).to_pandas()
    assert len(out) == len(np.unique(keys))
    # parity with the driver-dict path per key
    ref = heavy_hitters(ds, "v", key="host", m=32)
    for pk, b in zip(out["part_key"], out["mg"]):
        got = MisraGries.from_bytes(b)
        assert got.n == ref[pk].n
        assert got.top(3) == ref[pk].top(3)


def test_pack_chunks_empty_and_budget_edges(ray_session):
    import ray.data as rd

    from sod_ray.stages.budget import (
        pack_chunks,
        token_budget_keep,
        token_budget_thresholds,
    )

    empty = rd.from_arrow(
        pa.table(
            {
                "doc_id": pa.array([], pa.int64()),
                "lang": pa.array([], pa.string()),
                "n_tokens": pa.array([], pa.int64()),
            }
        )
    )
    assert pack_chunks(empty, 128).count() == 0
    th = token_budget_thresholds(empty, 100)
    assert token_budget_keep(empty, th).count() == 0

    # budget=0 with the SQL prefix-cut semantics: a leading zero-token
    # doc keeps (cum 0 <= 0); everything at or after the first
    # overflow is excluded — including later zero-token docs, whose
    # running cumsum already passed the budget
    sl = rd.from_arrow(
        pa.table(
            {
                "doc_id": pa.array([0, 1, 2, 3], pa.int64()),
                "lang": pa.array(["a", "a", "a", "a"]),
                "n_tokens": pa.array([0, 5, 0, 7], pa.int64()),
                "q6": pa.array([10, 10, 10, 10], pa.int64()),
            }
        )
    )
    th0 = token_budget_thresholds(sl, 0, key_col="lang", id_col="doc_id")
    kept = token_budget_keep(sl, th0).to_pandas()
    assert kept["doc_id"].tolist() == [0]

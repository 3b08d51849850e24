"""End-to-end flagship validation pipeline + manifest resume."""

import json
import os
import shutil

import numpy as np
import pyarrow as pa
import pytest

from sod_ray.sources.webpages import write_webpages
from sod_ray.state.manifest import Manifest, PartitionRecord


@pytest.fixture(scope="module")
def web_dir(tmp_path_factory):
    d = str(tmp_path_factory.mktemp("web"))
    truth = write_webpages(d, n_rows=4000, n_shards=2, seed=42)
    return d, truth


def test_manifest_roundtrip(tmp_path):
    m = Manifest(str(tmp_path / "mani"))
    rec = PartitionRecord(
        partition="en",
        rows_scanned=100,
        rows_violating=3,
        constraint_outcomes={"nulls": "pass", "uniq": "fail"},
        outputs=["/tmp/x"],
    )
    m.commit(rec)
    assert m.committed_partitions() == {"en"}
    got = m.load("en")
    assert got.rows_scanned == 100
    assert not got.passed()
    assert m.remaining(["en", "de"]) == ["de"]
    s = m.summary()
    assert s["rows_scanned"] == 100 and not s["all_passed"]


def test_full_run_and_resume(ray_session, web_dir, tmp_path):
    from sod_ray.pipelines.validate import ValidateConfig, run_validation

    src, truth = web_dir
    out = str(tmp_path / "out1")
    cfg = ValidateConfig()
    res = run_validation(f"{src}/webpages", out, cfg)
    v = res.verdicts.to_pandas().set_index("partition")
    # all langs present as partitions
    assert "en" in v.index
    total = v["rows"].sum()
    assert total == truth["n_rows"]
    # planted null-html rate 0.5% < 1% threshold → the big partitions
    # pass (tiny partitions can exceed it by sampling variance)
    assert v.loc["en", "c_null_rate"] == "pass"
    # violations sidecar exists per partition
    for p in v.index:
        pdir = os.path.join(out, "violations", f"lang={p}")
        assert os.path.isdir(pdir)
    # manifest committed every partition
    m = Manifest(os.path.join(out, "manifest"))
    assert m.committed_partitions() == set(v.index)

    # --- resume: second run skips everything
    res2 = run_validation(f"{src}/webpages", out, cfg)
    assert res2.partitions_run == []
    assert set(res2.partitions_skipped) == set(v.index)

    # --- partial resume: drop two partitions' commits → only they rerun
    for p in ["en", "de"]:
        os.unlink(os.path.join(out, "manifest", f"part-{p}.json"))
    res3 = run_validation(f"{src}/webpages", out, cfg)
    assert sorted(res3.partitions_run) == ["de", "en"]
    assert m.committed_partitions() == set(v.index)
    # rerun rows match the original for the resumed partitions
    v3 = res3.verdicts.to_pandas().set_index("partition")
    assert v3.loc["en", "rows"] == v.loc["en", "rows"]
    # verdicts after a partial resume cover the COMMITTED partitions too
    # (from the manifest outcomes) so all_passed() reflects the whole run
    assert set(v3.index) == set(v.index)
    for p in v.index:
        assert v3.loc[p, "rows"] == v.loc[p, "rows"]


def test_run_validation_execution_budget(
    ray_session, web_dir, tmp_path, executions
):
    """One validation run over the shared web fixture (default config
    plus the refs check, the validate_lang benchmark's shape) launches
    at most 2 Ray Data executions (counted by the ``executions`` fixture):
    the fused scan and the refs read with its broadcast anti-join. The
    sketch partials, the exact-uniqueness hashes, the mismatch sink and
    the peaks sort run as raw tasks over the landed blocks. The count
    is deterministic for one input and session size, so a new
    execution in the run fails here without timing noise, and the
    failure lists every execution's operator chain."""
    from sod_ray.pipelines.validate import ValidateConfig, run_validation

    src, truth = web_dir
    cfg = ValidateConfig(refs_path=f"{src}/webpage_refs")
    with executions() as chains:
        res = run_validation(f"{src}/webpages", str(tmp_path / "out"), cfg)
    assert res.verdicts.to_pandas()["rows"].sum() == truth["n_rows"]
    assert len(chains) <= 2, "\n".join(chains)


def test_uniqueness_verdicts_exact_at_wide_threshold(ray_session, web_dir, tmp_path):
    """Uniqueness verdicts come from the exact per-partition dup count
    at any threshold, also one outside the HLL's 3σ band (2.44% of
    rows), where the sketch estimate alone could decide. The fixture's
    urls are re-planted so the partitions' dup rates step over the
    threshold; every verdict equals the exact count's."""
    import pyarrow.parquet as pq

    from sod_ray.pipelines.validate import ValidateConfig, run_validation

    src, _ = web_dir
    t = pq.read_table(f"{src}/webpages").to_pandas()
    t["lang"] = t["lang"].astype(str)
    urls = t["url"].to_numpy(copy=True)
    for step, (_, idx) in enumerate(sorted(t.groupby("lang").indices.items())):
        # partition number `step` repeats the url before it on 1.5% x
        # step of its rows: rates 0%, 1.5%, 3%, ... around the threshold
        n_dup = int(len(idx) * 0.015 * step)
        urls[idx[1 : n_dup + 1]] = urls[idx[0]]
    t["url"] = urls
    os.makedirs(tmp_path / "web")
    pq.write_table(
        pa.Table.from_pandas(t, preserve_index=False),
        tmp_path / "web" / "part-0.parquet",
    )
    by = t.groupby("lang")["url"]
    dups = by.size() - by.nunique()
    threshold = 0.04
    cfg = ValidateConfig(max_dup_rate=threshold)
    res = run_validation(str(tmp_path / "web"), str(tmp_path / "out"), cfg)
    v = res.verdicts.to_pandas().set_index("partition")
    want = {
        p: "pass" if dups[p] <= threshold * by.size()[p] else "fail"
        for p in dups.index
    }
    assert set(want.values()) == {"pass", "fail"}
    assert v["c_uniqueness"].to_dict() == want


def test_combined_partials_merge_task_grouping_invariant(ray_session, monkeypatch):
    """The sketch partials run once per landed block, not per task
    group: grouping the same blocks into one task or into several
    (a small ``ROWS_PER_TASK``) gives byte-identical merged rows."""
    import pandas as pd
    import ray.data as rd

    from sod_ray.pipelines.validate import ValidateConfig, _combined_partials_merge
    from sod_ray.stages import blocks

    rng = np.random.default_rng(4)
    parts = []
    for b, n in enumerate((300, 45, 500, 1, 260)):
        parts.append(
            pa.table(
                {
                    "lang": pa.array(rng.choice(["en", "de"], n)),
                    "url": pa.array([f"http://h{b}.org/{i % 200}" for i in range(n)]),
                    "html_null": pa.array(rng.random(n) < 0.01),
                    "text_null": pa.array(rng.random(n) < 0.01),
                    "extract_match": pa.array(rng.random(n) < 0.5),
                    "n_chars": pa.array(rng.gamma(2.0, 10.0 * (b + 1), n)),
                    "n_tokens": pa.array(rng.gamma(1.5, 2.0, n)),
                }
            )
        )
    ds = rd.from_arrow(parts).materialize()

    def merged():
        out = _combined_partials_merge(ds, ValidateConfig()).to_pandas()
        return out.sort_values(["part_key", "column"]).reset_index(drop=True)

    one_task = merged()
    monkeypatch.setattr(blocks, "ROWS_PER_TASK", 200)
    assert len(blocks.block_groups(ds)) > 1
    pd.testing.assert_frame_equal(one_task, merged(), check_exact=True)


def test_mismatch_sink_rerun_and_layout(ray_session, tmp_path, monkeypatch):
    """``write_mismatches`` on a landed table (several task groups)
    writes deterministic ``mismatch-g<i>`` files: a second run into the
    same directory leaves the same files with the same rows, and those
    rows equal a hive-partitioned ``write_parquet`` of the flagged rows
    (the sink before it wrote from raw tasks, and its lazy-input path)."""
    import glob

    import pyarrow.parquet as pq
    import ray.data as rd

    from sod_ray.pipelines.validate import _flag_mismatches, write_mismatches
    from sod_ray.stages import blocks

    monkeypatch.setattr(blocks, "ROWS_PER_TASK", 100)
    rng = np.random.default_rng(2)
    parts = []
    for b in range(4):
        n = 150
        parts.append(
            pa.table(
                {
                    "url": [f"http://h{b}.test/{i}" for i in range(n)],
                    "warc_ts": pa.array(rng.integers(0, 10**9, n), pa.timestamp("us")),
                    "lang": pa.array(rng.choice(["en", "de", "fr"], n)),
                    "n_chars": pa.array(rng.integers(0, 500, n)),
                    "extract_match": pa.array(rng.random(n) > 0.1),
                }
            )
        )
    featured = rd.from_arrow(parts).materialize()

    def landed(d):
        return {
            os.path.relpath(f, d): pq.read_table(f)
            for f in sorted(glob.glob(os.path.join(d, "lang=*", "*.parquet")))
        }

    def rows_by_lang(files):
        out = {}
        for name, t in files.items():
            out.setdefault(os.path.dirname(name), []).extend(
                sorted(zip(*(t[c].to_pylist() for c in t.column_names)))
            )
        return {k: sorted(v) for k, v in out.items()}

    sink = str(tmp_path / "sink")
    write_mismatches(featured, sink, "lang")
    first = landed(sink)
    write_mismatches(featured, sink, "lang")
    second = landed(sink)
    assert sorted(first) == sorted(second)
    assert all(first[f].equals(second[f]) for f in first)
    names = {os.path.basename(f) for f in first}
    assert len(names) > 1 and all(n.startswith("mismatch-g") for n in names)

    ref = str(tmp_path / "ref")
    featured.map_batches(
        _flag_mismatches, batch_format="pyarrow", fn_args=("lang",)
    ).write_parquet(ref, partition_cols=["lang"])
    want = landed(ref)
    assert all(
        t.schema.names == ["url", "warc_ts", "violation"] for t in first.values()
    )
    assert rows_by_lang(first) == rows_by_lang(want)
    assert sum(t.num_rows for t in first.values()) == sum(
        int((~p["extract_match"].to_numpy(zero_copy_only=False)).sum()) for p in parts
    )


def test_referential_clears_stale_landing(ray_session, web_dir, tmp_path):
    """A killed run can leave a landed ``violations/referential`` (and
    its ``.tmp``) without the referential manifest commit. The rerun,
    on the resumed two-sided path and on a fresh run's fused path,
    clears both and reports the same ``n_dangling`` with exactly the
    planted dangling rows on disk."""
    import glob

    import pyarrow.parquet as pq

    from sod_ray.pipelines.validate import ValidateConfig, run_validation

    src, truth = web_dir
    out = str(tmp_path / "outK")
    cfg = ValidateConfig(refs_path=f"{src}/webpage_refs")
    first = run_validation(f"{src}/webpages", out, cfg)
    vdir = os.path.join(out, "violations", "referential")
    stale = pa.table(
        {"src_url": ["http://stale.test/a"], "dst_url": ["http://stale.test/b"]}
    )

    def plant_stale():
        pq.write_table(stale, os.path.join(vdir, "stale.parquet"))
        os.makedirs(vdir + ".tmp", exist_ok=True)
        pq.write_table(stale, os.path.join(vdir + ".tmp", "stale.parquet"))

    def landed_dst():
        files = glob.glob(os.path.join(vdir, "*.parquet"))
        return sorted(
            u for f in files for u in pq.read_table(f)["dst_url"].to_pylist()
        )

    plant_stale()
    os.unlink(os.path.join(out, "manifest", "part-__referential__.json"))
    resumed = run_validation(f"{src}/webpages", out, cfg)
    plant_stale()
    fresh = run_validation(f"{src}/webpages", out, cfg, resume=False)
    assert fresh.referential["exact_path"] == "broadcast_fused"
    for res in (resumed, fresh):
        assert res.referential["n_dangling"] == first.referential["n_dangling"]
    assert first.referential["n_dangling"] == len(truth["refs"]["dangling"])
    assert sorted(set(landed_dst())) == truth["refs"]["dangling"]
    assert len(landed_dst()) == first.referential["n_dangling"]
    assert not os.path.exists(vdir + ".tmp")


def test_verdicts_detect_planted_anomalies(ray_session, web_dir, tmp_path):
    import pandas as pd
    import pyarrow.parquet as pq

    from sod_ray.pipelines.validate import ValidateConfig, run_validation

    src, truth = web_dir
    out = str(tmp_path / "out2")
    # tighten thresholds so planted anomalies flip verdicts
    cfg = ValidateConfig(max_null_rate=0.0001, max_extract_mismatch_rate=0.0001)
    res = run_validation(f"{src}/webpages", out, cfg)
    v = res.verdicts.to_pandas()
    # with ~0.5% planted null html, the null check must now fail somewhere
    assert (v["c_null_rate"] == "fail").any()
    assert (v["c_extraction"] == "fail").any()
    # violation sidecar files (written by the distributed sinks) contain
    # both violation kinds
    import glob

    viols = []
    for p in v["partition"]:
        for f in glob.glob(os.path.join(out, "violations", f"lang={p}", "*.parquet")):
            viols.append(pq.read_table(f).to_pandas())
    allv = pd.concat(viols, join="outer", ignore_index=True)
    assert (allv["violation"] == "peak").sum() > 0
    assert (allv["violation"] == "extract_mismatch").sum() > 0


def test_schema_check_catches_missing(ray_session, web_dir):
    import ray.data as rd

    from sod_ray.pipelines.validate import WEBPAGE_SCHEMA
    from sod_ray.stages.constraints import schema_check

    src, _ = web_dir
    ds = rd.read_parquet(f"{src}/webpages")
    ok = schema_check(ds, WEBPAGE_SCHEMA)
    assert ok["passed"]
    bad = schema_check(ds.drop_columns(["lang"]), WEBPAGE_SCHEMA)
    assert not bad["passed"] and bad["missing"] == ["lang"]


def test_intermediate_parquet_path(ray_session, web_dir, tmp_path):
    """The 100TB path (featured table via parquet) must produce the
    same verdicts as the object-store materialize path."""
    from sod_ray.pipelines.validate import ValidateConfig, run_validation

    src, _ = web_dir
    a = run_validation(
        f"{src}/webpages", str(tmp_path / "outA"), ValidateConfig()
    ).verdicts.to_pandas()
    b = run_validation(
        f"{src}/webpages",
        str(tmp_path / "outB"),
        ValidateConfig(intermediate_dir=str(tmp_path / "inter")),
    ).verdicts.to_pandas()
    cols = ["partition", "rows", "violations", "passed"]
    import pandas as pd

    pd.testing.assert_frame_equal(
        a[cols].sort_values("partition").reset_index(drop=True),
        b[cols].sort_values("partition").reset_index(drop=True),
    )


def test_referential_run_level(ray_session, web_dir, tmp_path):
    """refs_path wires the FK-containment check into the flagship:
    planted dangling dst_urls are found, the check is resume-safe."""
    from sod_ray.pipelines.validate import ValidateConfig, run_validation

    src, truth = web_dir
    out = str(tmp_path / "outR")
    cfg = ValidateConfig(refs_path=f"{src}/webpage_refs")
    res = run_validation(f"{src}/webpages", out, cfg)
    assert res.referential is not None
    assert res.referential["n_dangling"] == len(truth["refs"]["dangling"])
    assert res.referential["referential"] == "fail"  # 1% > 0.1% threshold
    # violations on disk match the planted set
    import pyarrow.parquet as pq
    import glob

    files = glob.glob(os.path.join(out, "violations", "referential", "*.parquet"))
    got = sorted(
        set(
            pq.read_table(f).column("dst_url").to_pylist()[i]
            for f in files
            for i in range(pq.read_table(f).num_rows)
        )
    )
    assert got == truth["refs"]["dangling"]
    # resume: second run reuses the committed record
    res2 = run_validation(f"{src}/webpages", out, cfg)
    assert res2.referential["n_dangling"] == res.referential["n_dangling"]


def test_drift_across_runs(ray_session, web_dir, tmp_path):
    """Run N writes baseline.parquet; run N+1 with baseline_path gets a
    drift outcome — same data passes, shifted data fails."""
    import pyarrow.parquet as pq

    from sod_ray.pipelines.validate import ValidateConfig, run_validation
    from sod_ray.sources.webpages import synth_shard, write_webpages

    src, _ = web_dir
    out1 = str(tmp_path / "r1")
    res1 = run_validation(f"{src}/webpages", out1, ValidateConfig())
    assert os.path.exists(os.path.join(out1, "baseline.parquet"))

    # same data vs the baseline → drift passes everywhere
    out2 = str(tmp_path / "r2")
    cfg2 = ValidateConfig(baseline_path=os.path.join(out1, "baseline.parquet"))
    res2 = run_validation(f"{src}/webpages", out2, cfg2)
    v2 = res2.verdicts.to_pandas()
    assert "c_drift" in v2.columns
    assert (v2["c_drift"] == "pass").all()

    # shifted data (10x longer docs) vs the baseline → drift fails
    shifted_dir = str(tmp_path / "shifted")
    os.makedirs(f"{shifted_dir}/webpages", exist_ok=True)
    t, _ = synth_shard(2000, shard=0, seed=42, mean_tokens=400)
    pq.write_table(t, f"{shifted_dir}/webpages/shard=00000.parquet")
    out3 = str(tmp_path / "r3")
    res3 = run_validation(f"{shifted_dir}/webpages", out3, cfg2)
    v3 = res3.verdicts.to_pandas()
    assert (v3["c_drift"] == "fail").any()


def test_baseline_survives_partial_resume(ray_session, web_dir, tmp_path):
    """A resumed run recomputes only some partitions; baseline.parquet
    must keep the other partitions' sketches (merge, not clobber)."""
    import pyarrow.parquet as pq

    from sod_ray.pipelines.validate import ValidateConfig, run_validation

    src, _ = web_dir
    out = str(tmp_path / "outB")
    run_validation(f"{src}/webpages", out, ValidateConfig())
    bpath = os.path.join(out, "baseline.parquet")
    full_keys = set(
        map(tuple, pq.read_table(bpath).to_pandas()[["part_key", "column"]].values)
    )
    # force a partial resume of just one partition
    os.unlink(os.path.join(out, "manifest", "part-en.json"))
    run_validation(f"{src}/webpages", out, ValidateConfig())
    after_keys = set(
        map(tuple, pq.read_table(bpath).to_pandas()[["part_key", "column"]].values)
    )
    assert after_keys == full_keys


def test_host_derived_part_key(ray_session, web_dir, tmp_path):
    """host(url) partitioning profile: derived key, many skewed
    partitions, resume without pushdown."""
    import pyarrow as pa

    from sod_ray.pipelines.validate import (
        ValidateConfig,
        host_of,
        run_validation,
    )

    assert host_of(
        pa.array(
            ["https://a.example.com/x/y", "http://b.co/", None, "garbage"]
        )
    ).to_pylist() == ["a.example.com", "b.co", None, None]

    src, truth = web_dir
    out = str(tmp_path / "outh")
    cfg = ValidateConfig(part_key="host", part_key_expr="host")
    res = run_validation(f"{src}/webpages", out, cfg)
    v = res.verdicts.to_pandas().set_index("partition")
    assert v["rows"].sum() == truth["n_rows"]
    assert all(p.endswith(".example.com") for p in v.index)
    assert len(v) > 100  # zipf host key space is wide
    # hot host (zipf mass at host1) dominates
    assert v.loc["host1.example.com", "rows"] > v["rows"].median() * 10

    # resume: drop one host's commit -> only it reruns, same rows
    victim = "host1.example.com"
    os.unlink(os.path.join(out, "manifest", f"part-{victim}.json"))
    res2 = run_validation(f"{src}/webpages", out, cfg)
    assert res2.partitions_run == [victim]
    v2 = res2.verdicts.to_pandas().set_index("partition")
    assert v2.loc[victim, "rows"] == v.loc[victim, "rows"]
    assert set(v2.index) == set(v.index)


def test_verdict_files_consistent_across_kill_windows(ray_session, web_dir, tmp_path):
    """Both kill windows around the wave commit leave the on-disk
    verdict files exactly covering the committed partitions once:

    - verdicts written, commit missed (old window A): the resume scrub
      drops the uncommitted partitions' rows before they re-run, so
      _load_verdicts never double-counts;
    - commit written, verdicts missed (old window B): impossible now —
      the wave writes verdicts+baseline BEFORE its first commit — but
      simulate the legacy state and confirm the in-memory result still
      rebuilds those rows from the manifest."""
    import pyarrow.parquet as pq

    from sod_ray.pipelines.validate import (
        ValidateConfig,
        _load_verdicts,
        run_validation,
    )

    src, truth = web_dir
    out = str(tmp_path / "killwin")
    res = run_validation(f"{src}/webpages", out, ValidateConfig())
    clean = _load_verdicts(out).to_pandas().set_index("partition").sort_index()
    n_rows_total = clean["rows"].sum()

    # window A: a partition's verdict rows exist on disk but its
    # manifest record is gone (kill between verdict write and commit)
    os.unlink(os.path.join(out, "manifest", "part-en.json"))
    res_a = run_validation(f"{src}/webpages", out, ValidateConfig())
    assert res_a.partitions_run == ["en"]
    after_a = _load_verdicts(out).to_pandas()
    # exactly one row per partition — the stale 'en' row was scrubbed
    assert after_a["partition"].value_counts().max() == 1
    after_a = after_a.set_index("partition").sort_index()
    assert after_a["rows"].sum() == n_rows_total
    assert (after_a["rows"] == clean["rows"]).all()

    # window B (legacy): manifest committed but verdict file lost
    for f in os.listdir(out):
        if f.startswith("verdicts-"):
            t = pq.read_table(os.path.join(out, f))
            import pyarrow.compute as pc

            keep = t.filter(pc.invert(pc.equal(t["partition"], "de")))
            if keep.num_rows:
                pq.write_table(keep, os.path.join(out, f))
            else:
                os.remove(os.path.join(out, f))
    res_b = run_validation(f"{src}/webpages", out, ValidateConfig())
    assert res_b.partitions_run == []  # fully committed → nothing reruns
    vb = res_b.verdicts.to_pandas().set_index("partition")
    assert "de" in vb.index  # rebuilt from the manifest record
    assert vb.loc["de", "rows"] == clean.loc["de", "rows"]


def test_quality_check_constraint(ray_session, web_dir, tmp_path):
    """Opt-in Gopher-quality constraint: the fused pass computes the
    per-doc pass flag, the sketch merge carries only per-partition
    fail COUNTS, and the verdict gains a `quality` outcome whose
    counts match a direct per-lang computation."""
    import pyarrow.parquet as pq

    from sod_ray.pipelines.validate import ValidateConfig, run_validation
    from sod_ray.stages.textstage import gopher_stats_batch

    src, truth = web_dir
    out = str(tmp_path / "outq")
    cfg = ValidateConfig(quality_check=True, max_low_quality_rate=0.5)
    res = run_validation(f"{src}/webpages", out, cfg)
    v = res.verdicts.to_pandas().set_index("partition")
    assert "c_quality" in v.columns

    # direct reference: gopher pass flag per doc, grouped by lang
    import glob

    import pandas as pd

    frames = []
    for f in glob.glob(f"{src}/webpages/*.parquet"):
        t = pq.read_table(f, columns=["lang", "text"])
        q = gopher_stats_batch(
            t.append_column(
                "doc_id", pa.array(np.arange(len(t)), pa.int64())
            )
        )
        frames.append(
            pd.DataFrame(
                {
                    "lang": t["lang"].to_pandas(),
                    "fail": ~q["quality_pass"].to_pandas(),
                }
            )
        )
    ref = pd.concat(frames).groupby("lang")["fail"].agg(["sum", "count"])
    for lang, row in ref.iterrows():
        expect = "pass" if row["sum"] <= 0.5 * row["count"] else "fail"
        assert v.loc[lang, "c_quality"] == expect, lang

    # default config never computes the flag (no hot-path cost)
    out2 = str(tmp_path / "outq2")
    res2 = run_validation(f"{src}/webpages", out2, ValidateConfig())
    assert "c_quality" not in res2.verdicts.to_pandas().columns


def test_normalize_urls_uniqueness(ray_session, tmp_path):
    """normalize_urls=True: mirror-crawl url variants (case/trailing
    slash/utm/fragment of the same page) count as duplicates; raw-url
    uniqueness (default) sees them as distinct and passes."""
    import pyarrow.parquet as pq

    from sod_ray.pipelines.validate import ValidateConfig, run_validation
    from sod_ray.sources.webpages import write_webpages

    src = str(tmp_path / "webn")
    write_webpages(src, n_rows=400, n_shards=1, seed=9)
    t = pq.read_table(f"{src}/webpages/shard=00000.parquet")
    urls = t["url"].to_pylist()
    # 20 mirror variants of the FIRST url: differ raw, same canonical
    base = urls[0].rstrip("/")
    for i in range(1, 21):
        scheme_cased = (
            base.replace("https://", "HTTPS://") if i % 2 else base
        )
        urls[i] = scheme_cased + f"?utm_source=m{i}" + ("#f" if i % 3 else "")
    t = t.set_column(
        t.schema.get_field_index("url"), "url", pa.array(urls, pa.string())
    )
    src2 = str(tmp_path / "webn2")
    os.makedirs(src2)
    pq.write_table(t, f"{src2}/shard=00000.parquet")

    raw_cfg = ValidateConfig()
    res_raw = run_validation(src2, str(tmp_path / "o_raw"), raw_cfg)
    v_raw = res_raw.verdicts.to_pandas().set_index("partition")

    norm_cfg = ValidateConfig(normalize_urls=True)
    res_norm = run_validation(src2, str(tmp_path / "o_norm"), norm_cfg)
    v_norm = res_norm.verdicts.to_pandas().set_index("partition")

    lang = t["lang"][0].as_py()  # the planted variants share row 0's lang
    assert v_raw.loc[lang, "c_uniqueness"] == "pass"
    assert v_norm.loc[lang, "c_uniqueness"] == "fail"


def test_docs_token_budget_sample(ray_session, tmp_path):
    """Crafted corpus exercising every budget-cut path: a lang that
    fits entirely (no boundary), a lang cut INSIDE a quality level by
    doc_id order, and zero-token docs (kept for free when their level
    is reached). Checked against a brute-force pandas reference of the
    SQL rule: keep while cumulative tokens <= 50000 over
    (floor(quality*1e6) DESC, doc_id)."""
    import duckdb
    import numpy as np
    import pyarrow as pa
    import pyarrow.parquet as pq

    from sod_ray.pipelines.queries import DOCS_BUDGET_SQL, docs_token_budget_sample

    rng = np.random.default_rng(31)
    rows = []
    did = 0
    # "aa": tiny — fits whole budget
    for _ in range(10):
        rows.append((did, "aa", "the and of to a in is that it for " * 5))
        did += 1
    # "bb": one big high-quality level that must split by doc_id,
    # plus junk-quality docs below it and an empty doc
    for i in range(400):
        n = int(rng.integers(150, 260))
        rows.append((did, "bb", "the and of to a in is that it was " * (n // 10)))
        did += 1
    for _ in range(30):
        rows.append((did, "bb", "!!! ??? ### $$$ %%% ^^^ &&& *** ((( )))"))
        did += 1
    rows.append((did, "bb", ""))
    did += 1
    tbl = pa.table(
        {
            "doc_id": pa.array([r[0] for r in rows], pa.int64()),
            "lang": pa.array([r[1] for r in rows], pa.string()),
            "source": pa.array(["t"] * len(rows), pa.string()),
            "text": pa.array([r[2] for r in rows], pa.string()),
            "n_chars": pa.array([len(r[2]) for r in rows], pa.int64()),
        }
    )
    pq.write_table(tbl, str(tmp_path / "documents.parquet"))

    out = docs_token_budget_sample(str(tmp_path)).to_pandas()

    con = duckdb.connect()
    con.execute(
        f"CREATE VIEW documents AS SELECT * FROM "
        f"read_parquet('{tmp_path}/documents.parquet')"
    )
    ref = (
        con.sql(DOCS_BUDGET_SQL)
        .df()
        .sort_values(["lang", "doc_id"])
        .reset_index(drop=True)
    )
    assert len(out) == len(ref)
    assert out["doc_id"].tolist() == ref["doc_id"].tolist()
    assert out["n_tokens"].astype("int64").tolist() == ref["n_tokens"].astype("int64").tolist()
    # the interesting paths actually fired: aa fully kept, bb split
    assert (out["lang"] == "aa").sum() == 10
    n_bb = (out["lang"] == "bb").sum()
    assert 0 < n_bb < 431


def test_docs_pack_chunks_matches_oracle_dtypes(ray_session, tmp_path):
    """Crafted corpus for sequence packing: docs that straddle a
    2048-token chunk boundary, a doc longer than one chunk, empty and
    space-padded docs (zero tokens, one slot like the oracle's
    GREATEST(n, 1)) and two langs.
    docs_pack_chunks must equal its DuckDB oracle value for value AND
    dtype for dtype — the window SUM widens to HUGEINT, so the
    oracle's chunk columns must be cast back to BIGINT."""
    import duckdb
    import pandas as pd
    import pyarrow as pa
    import pyarrow.parquet as pq

    from sod_ray.pipelines.queries import PACK_CHUNKS_SQL, docs_pack_chunks

    sizes = {"aa": [700, 900, 600, 0, 5000, 1, 2047, 2], "bb": [2048, 0, 3]}
    rows, did = [], 0
    for lang, ns in sizes.items():
        for n in ns:
            rows.append((did, lang, " ".join(["w"] * n)))
            did += 1
    rows += [(did, "bb", "   "), (did + 1, "bb", "  w w\n")]
    tbl = pa.table(
        {
            "doc_id": pa.array([r[0] for r in rows], pa.int64()),
            "lang": pa.array([r[1] for r in rows], pa.string()),
            "source": pa.array(["t"] * len(rows), pa.string()),
            "text": pa.array([r[2] for r in rows], pa.string()),
            "n_chars": pa.array([len(r[2]) for r in rows], pa.int64()),
        }
    )
    pq.write_table(tbl, str(tmp_path / "documents.parquet"))

    out = docs_pack_chunks(str(tmp_path)).to_pandas()
    con = duckdb.connect()
    con.execute(
        f"CREATE VIEW documents AS SELECT * FROM "
        f"read_parquet('{tmp_path}/documents.parquet')"
    )
    ref = (
        con.sql(PACK_CHUNKS_SQL)
        .df()
        .sort_values(["lang", "doc_id"])
        .reset_index(drop=True)
    )
    pd.testing.assert_frame_equal(out[list(ref.columns)], ref, check_dtype=True)
    # the boundary paths fired: a doc spanning 3 chunks, and a chunk
    # that starts mid-doc
    assert ((out["chunk_end"] - out["chunk_start"]) >= 2).any()
    assert (out["chunk_offset"] > 0).any()


def test_docs_pack_chunks_null_text_matches_oracle(ray_session, tmp_path):
    """A null text has a NULL token count in PACK_CHUNKS_SQL; its span
    is computed as for 0 tokens (``GREATEST`` skips the NULL) and the
    running sum skips it. docs_pack_chunks gives the same rows, the null
    doc's included: (2, 'en', None, 0, 0, 2)."""
    import duckdb
    import pandas as pd
    import pyarrow.parquet as pq

    from sod_ray.pipelines.queries import PACK_CHUNKS_SQL, docs_pack_chunks

    texts = ["a b", None, "c", ""]
    tbl = pa.table(
        {
            "doc_id": pa.array([1, 2, 3, 4], pa.int64()),
            "lang": pa.array(["en"] * 4, pa.string()),
            "source": pa.array(["t"] * 4, pa.string()),
            "text": pa.array(texts, pa.string()),
            "n_chars": pa.array([3, None, 1, 0], pa.int64()),
        }
    )
    pq.write_table(tbl, str(tmp_path / "documents.parquet"))
    out = docs_pack_chunks(str(tmp_path)).to_pandas()
    documents = tbl  # noqa: F841 (the SQL reads it by name)
    ref = (
        duckdb.sql(PACK_CHUNKS_SQL)
        .df()
        .sort_values(["lang", "doc_id"])
        .reset_index(drop=True)
    )
    pd.testing.assert_frame_equal(out[list(ref.columns)], ref, check_dtype=True)
    row = out[out["doc_id"] == 2].iloc[0]
    assert pd.isna(row["n_tokens"])
    assert (row["chunk_start"], row["chunk_end"], row["chunk_offset"]) == (0, 0, 2)


def test_q3_join_matches_oracle_without_native_join(
    ray_session, sf_smoke, monkeypatch
):
    """q3_join joins orders with lineitem on ``bucketed_equi_join``:
    with Ray's native ``Dataset.join`` patched to raise, it still
    equals its DuckDB oracle value for value and dtype for dtype."""
    import duckdb
    import pandas as pd
    import ray.data as rd

    from sod_ray.pipelines.queries import Q3_SQL, q3_join

    def no_native_join(*a, **kw):
        raise AssertionError("native Dataset.join called")

    monkeypatch.setattr(rd.Dataset, "join", no_native_join)
    sf = sf_smoke
    out = q3_join(sf).to_pandas()
    con = duckdb.connect()
    for t in ("customer", "orders", "lineitem"):
        con.execute(
            f"CREATE VIEW {t} AS SELECT * FROM read_parquet('{sf}/{t}.parquet')"
        )
    ref = con.sql(Q3_SQL).df()
    assert len(ref) > 0
    pd.testing.assert_frame_equal(
        out[list(ref.columns)], ref, check_dtype=True
    )


def test_winnow_overlap_pairs_matches_oracle_without_driver_merge(
    ray_session, sf_smoke, monkeypatch
):
    """winnow_overlap_pairs counts shared fingerprints on the
    distributed co-occurrence chain: with ``pandas.DataFrame.merge``
    patched to raise on the driver, it still equals its DuckDB oracle
    value for value, dtype for dtype and in (id_a, id_b) order."""
    import duckdb
    import pandas as pd

    from sod_ray.pipelines.queries import (
        WINNOW_PAIRS_SQL,
        winnow_overlap_pairs,
    )

    def no_merge(*a, **kw):
        raise AssertionError("driver-side DataFrame.merge called")

    monkeypatch.setattr(pd.DataFrame, "merge", no_merge)
    out = winnow_overlap_pairs(sf_smoke).to_pandas()
    con = duckdb.connect()
    con.execute(
        "CREATE VIEW documents AS SELECT * FROM "
        f"read_parquet('{sf_smoke}/documents.parquet')"
    )
    ref = (
        con.sql(WINNOW_PAIRS_SQL).df()
        .sort_values(["id_a", "id_b"])
        .reset_index(drop=True)
    )
    assert len(ref) > 0
    pd.testing.assert_frame_equal(out, ref, check_dtype=True)


_TWO_CPU_SCRIPT = r"""
import sys

import ray
import ray.data as rd

from sod_ray.pipelines.queries import doc_quality_checked, lang_id_checked

ray.init(address="local", num_cpus=2, include_dashboard=False,
         logging_level="ERROR", object_store_memory=200 << 20)
rd.DataContext.get_current().enable_progress_bars = False
q = doc_quality_checked(sys.argv[1]).count()
lang = lang_id_checked(sys.argv[1]).count()
print("RESULT", q, lang)
"""


def test_text_actor_pools_run_on_two_cpus(sf_smoke):
    """The TextFeatures / LangId actor pools of the text-quality
    queries must finish in a 2-CPU session: a fixed two-actor pool took
    both CPUs, its read tasks never ran and the query hung."""
    import signal
    import subprocess
    import sys

    import pyarrow.parquet as pq

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    env = {k: v for k, v in os.environ.items() if k != "RAY_ADDRESS"}
    env["PYTHONPATH"] = root + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.Popen(
        [sys.executable, "-c", _TWO_CPU_SCRIPT, sf_smoke], env=env,
        text=True, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        start_new_session=True,
    )
    try:
        out, err = proc.communicate(timeout=120)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)  # the child and its Ray daemons
        proc.communicate()
        pytest.fail("text actor-pool queries hung on a 2-CPU session")
    assert proc.returncode == 0, err[-2000:]
    n = len(pq.read_table(f"{sf_smoke}/documents.parquet", columns=["doc_id"]))
    assert f"RESULT {n} {n}" in out


def test_full_run_kll_backend(ray_session, web_dir, tmp_path):
    """The flagship with quantile_sketch='kll' produces the SAME
    verdict table as the t-digest default (verdicts depend on counts
    and peak flags, not the quantile backend) and the committed stats
    carry KLL bytes."""
    from sod_ray.pipelines.validate import ValidateConfig, run_validation

    src, _ = web_dir
    res_td = run_validation(
        f"{src}/webpages", str(tmp_path / "td"), ValidateConfig()
    )
    res_kll = run_validation(
        f"{src}/webpages",
        str(tmp_path / "kll"),
        ValidateConfig(quantile_sketch="kll"),
    )
    vt = res_td.verdicts.to_pandas().set_index("partition").sort_index()
    vk = res_kll.verdicts.to_pandas().set_index("partition").sort_index()
    assert list(vt.index) == list(vk.index)
    for c in vt.columns:
        assert vt[c].tolist() == vk[c].tolist(), c
    # stats rows decode as KLL and the p50s agree within rank tolerance
    import pyarrow.parquet as pq

    from sod_ray.state.sketches import KLL, quantile_sketch_from_bytes

    sp = os.path.join(str(tmp_path / "kll"), "baseline.parquet")
    assert os.path.exists(sp)
    st = pq.read_table(sp).to_pandas()
    assert len(st)
    assert isinstance(quantile_sketch_from_bytes(st["tdigest"].iloc[0]), KLL)


def test_check_oracles_keeps_empty_dataset_columns(ray_session):
    """The oracle harness's ``to_pandas`` keeps the columns of an empty
    typed Dataset (``Dataset.to_pandas()`` drops 0-row blocks and with
    them every column, so an empty query result would fail the column
    compare) and still concatenates non-empty blocks."""
    import importlib.util

    import ray.data as rd

    path = os.path.join(os.path.dirname(__file__), "..", "tools", "check_oracles.py")
    spec = importlib.util.spec_from_file_location("check_oracles", path)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)

    empty = pa.table(
        {"id_a": pa.array([], pa.int64()), "score": pa.array([], pa.float64())}
    )
    df = mod.to_pandas(rd.from_arrow(empty))
    assert list(df.columns) == ["id_a", "score"] and len(df) == 0
    rows = pa.table({"id_a": pa.array([1, 2], pa.int64()), "score": [0.5, 1.0]})
    df = mod.to_pandas(rd.from_arrow([empty, rows]))
    assert df.to_dict("list") == {"id_a": [1, 2], "score": [0.5, 1.0]}

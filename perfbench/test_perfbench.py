"""Tests of the benchmark's own pieces (no Ray session needed):
generators are deterministic per seed, and each correctness gate
rejects a result with one planted wrong row.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import copy
import hashlib
import os

import pytest

from perfbench import trace, workloads as wl


def _digest(d: str) -> str:
    h = hashlib.sha256()
    for root, _, names in sorted(os.walk(d)):
        for n in sorted(names):
            p = os.path.join(root, n)
            h.update(os.path.relpath(p, d).encode())
            with open(p, "rb") as f:
                h.update(f.read())
    return h.hexdigest()


SMALL = {
    "validate_lang": lambda d, s: wl.gen_web(d, s, n_rows=2_000, n_shards=2),
    "lof_collect": lambda d, s: wl.gen_events(d, s, n_users=12),
    "export_neardup": lambda d, s: wl.gen_corpus(d, s, n_docs=800, n_shards=2),
}


@pytest.mark.parametrize("name", sorted(SMALL))
def test_generator_deterministic_per_seed(tmp_path, name):
    gen = SMALL[name]
    gen(str(tmp_path / "a"), 7)
    gen(str(tmp_path / "b"), 7)
    gen(str(tmp_path / "c"), 8)
    a, b, c = (_digest(str(tmp_path / x)) for x in "abc")
    assert a == b
    assert a != c


@pytest.fixture(scope="module")
def refs(tmp_path_factory):
    out = {}
    for name, gen in SMALL.items():
        d = str(tmp_path_factory.mktemp(name))
        gen(d, 3)
        out[name] = wl.WORKLOADS[name].ref(d)
    return out


def _ok_web(ref: dict) -> dict:
    """The result a correct validate job yields for ``ref``."""
    return {
        "n_dangling": ref["n_dangling"],
        "partitions": {
            k: {
                "rows": p["rows"],
                "html_nulls": p["html_nulls"],
                "mismatches": p["mismatches"],
                "uniqueness": "pass" if p["dups"] <= ref["max_dup_rate"] * p["rows"]
                else "fail",
                "peak_urls": list(p["peak_urls"]),
            }
            for k, p in ref["partitions"].items()
        },
    }


def _ok_corpus(ref: dict) -> dict:
    n = ref["neardup_planted"]
    out = ref["rows"] - ref["quality"] - ref["exact"] - n
    return {
        "rows_in": ref["rows"],
        "rows_out": out,
        "stages": {"quality": {"dropped": ref["quality"]},
                   "exact": {"dropped": ref["exact"]}, "neardup": {"dropped": n}},
        "out_ids": list(range(out)),
        "out_short": 0,
    }


def _web_wrong(got: dict, kind: str) -> dict:
    bad = copy.deepcopy(got)
    part = bad["partitions"][max(bad["partitions"], key=lambda k: bad["partitions"][k]["rows"])]
    if kind == "rows":
        part["rows"] += 1
    elif kind == "html_nulls":
        part["html_nulls"] += 1
    elif kind == "mismatches":
        part["mismatches"] -= 1
    elif kind == "peak_extra":
        part["peak_urls"] = sorted(part["peak_urls"] + ["https://nowhere.example.com/x"])
    elif kind == "peak_missing":
        part["peak_urls"] = part["peak_urls"][1:]
    elif kind == "uniqueness":
        part["uniqueness"] = "fail" if part["uniqueness"] == "pass" else "pass"
    elif kind == "dangling":
        bad["n_dangling"] += 1
    return bad


def test_gates_accept_reference_results(refs):
    wl.gate_web(_ok_web(refs["validate_lang"]), refs["validate_lang"])
    wl.gate_events({"flagged": list(refs["lof_collect"]["flagged"])}, refs["lof_collect"])
    wl.gate_corpus(_ok_corpus(refs["export_neardup"]), refs["export_neardup"])


@pytest.mark.parametrize("kind", ["rows", "html_nulls", "mismatches", "peak_extra",
                                  "peak_missing", "uniqueness", "dangling"])
def test_validate_gate_rejects_one_wrong_row(refs, kind):
    ref = refs["validate_lang"]
    with pytest.raises(wl.GateError):
        wl.gate_web(_web_wrong(_ok_web(ref), kind), ref)


@pytest.mark.parametrize("kind", ["extra", "missing"])
def test_lof_gate_rejects_one_wrong_row(refs, kind):
    ref = refs["lof_collect"]
    flagged = list(ref["flagged"])
    assert flagged, "the small input must flag some events"
    if kind == "extra":
        flagged.append(max(flagged) + 10_000)
    else:
        flagged.pop()
    with pytest.raises(wl.GateError):
        wl.gate_events({"flagged": flagged}, ref)


@pytest.mark.parametrize("kind", ["quality", "exact", "rows_out", "dup_id", "short",
                                  "recall"])
def test_export_gate_rejects_one_wrong_row(refs, kind):
    ref = refs["export_neardup"]
    got = _ok_corpus(ref)
    if kind == "quality":
        got["stages"]["quality"]["dropped"] -= 1
        got["rows_out"] += 1
        got["out_ids"].append(-1)
    elif kind == "exact":
        got["stages"]["exact"]["dropped"] += 1
        got["rows_out"] -= 1
        got["out_ids"].pop()
    elif kind == "rows_out":
        got["out_ids"].pop()
    elif kind == "dup_id":
        got["out_ids"][-1] = got["out_ids"][0]
    elif kind == "short":
        got["out_short"] = 1
    elif kind == "recall":  # 70% of the planted near-dups dropped
        miss = ref["neardup_planted"] - int(0.7 * ref["neardup_planted"])
        got["stages"]["neardup"]["dropped"] -= miss
        got["rows_out"] += miss
        got["out_ids"] += list(range(-miss, 0))
    with pytest.raises(wl.GateError):
        wl.gate_corpus(got, ref)


def test_self_time_excludes_children():
    spans = [
        (1, None, "a", 0.0, 10.0, 1, None),
        (2, 1, "b", 2.0, 5.0, 1, {"rows": 4}),
        (3, 1, "raydata.exec", 4.0, 6.0, 1, None),
        (4, None, "w", 0.0, 3.0, 2, None),
        (5, 4, "w2", 1.0, 2.0, 2, None),
    ]
    m = trace.layer_metrics(spans, driver_pid=1)
    assert m["a_s"] == pytest.approx(6.0)  # 10 - union([2,5], [4,6])
    assert m["b.rows"] == 4 and m["b.calls"] == 1
    assert m["w_s"] == pytest.approx(3.0)  # worker spans: full duration


def test_warmup_job_runs_on_warm_input_and_is_not_timed(tmp_path):
    from perfbench import run

    ran: list[str] = []

    def job(in_dir, out_dir):
        ran.append(in_dir)
        return {}

    def gate(got, ref):
        wl._require(ref["ok"], "planted failure")

    w = wl.Workload("fake", None, None, job, gate, ())
    inputs = ("full", {"ok": True}, "warm", {"ok": False})
    jobs = run.closed_loop(w, inputs, str(tmp_path), seconds=0.0)
    assert ran == ["warm", "full"]
    assert [j.ok for j in jobs] == [False, True]  # the warm-up is checked
    assert run.timed(jobs) == jobs[1:]
    assert run.end_to_end([1.0], jobs, rows=10)["rows_per_s"] == 10 / jobs[1].wall_s

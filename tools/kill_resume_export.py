"""Kill/resume proof for the export/curation pipeline: run the full
funnel (quality → exact → near-dup → PII) over a planted 200k-doc
corpus, SIGKILL the process group as soon as its first manifest record
(the quality decision's commit) lands, resume, and verify (a) something
was committed at the kill, (b) the resumed run reloads the committed
decision checkpoints instead of recomputing them, (c) the final corpus
and funnel report equal a clean single-shot run. The resumed run
rebuilds the funnel's feature rows over the quality-filtered corpus.

Usage: python tools/kill_resume_export.py [n_docs]
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import subprocess
import sys
import time

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

from tools.kill_resume_test import kill_at_first_record  # noqa: E402

ROOT = "/tmp/sod_kill_export"
INP = f"{ROOT}/corpus"
OUT_CLEAN = f"{ROOT}/out_clean"
OUT_KILLED = f"{ROOT}/out_killed"

VOCAB = np.array(
    [f"word{i:04d}" for i in range(4000)]
    + ["the", "of", "and", "to", "in", "is", "was", "for", "with", "on"]
)


def gen_corpus(n_docs: int, n_shards: int = 16, seed: int = 99) -> None:
    """Planted mix: ~70% good unique docs, 10% too-short (quality
    fail), 10% exact dups of good docs, 5% near-dups (good text with a
    handful of tokens swapped), 5% PII-laced."""
    rng = np.random.default_rng(seed)
    shutil.rmtree(INP, ignore_errors=True)
    os.makedirs(INP)
    per = n_docs // n_shards
    for s in range(n_shards):
        ids = np.arange(s * per, (s + 1) * per, dtype=np.int64)
        texts = []
        base_cache: list[str] = []
        for i in ids:
            r = rng.random()
            nw = int(rng.integers(60, 120))
            words = VOCAB[rng.integers(0, len(VOCAB), nw)]
            body = " ".join(words.tolist()) + f" marker{i}"
            if r < 0.10:
                texts.append("too short to pass quality")
            elif r < 0.20 and base_cache:
                texts.append(base_cache[int(rng.integers(0, len(base_cache)))])
            elif r < 0.25 and base_cache:
                donor = base_cache[int(rng.integers(0, len(base_cache)))]
                toks = donor.split()
                for j in rng.integers(0, len(toks), 3):
                    toks[int(j)] = "swapped"
                texts.append(" ".join(toks))
            elif r < 0.30:
                texts.append(
                    body + f" mail u{i}@example.org or +1415555{i % 10000:04d}"
                )
            else:
                texts.append(body)
                if len(base_cache) < 50:
                    base_cache.append(body)
        t = pa.table(
            {
                "doc_id": pa.array(ids, pa.int64()),
                "text": pa.array(texts, pa.string()),
                "lang": pa.array(
                    np.array(["en", "de", "fr", "es"])[ids % 4], pa.string()
                ),
            }
        )
        pq.write_table(t, os.path.join(INP, f"shard-{s:03d}.parquet"))


RUN_SNIPPET = """
import sys, json
sys.path.insert(0, {repo!r})
import ray
ray.init(address="local", num_cpus=16, include_dashboard=False, logging_level="ERROR")
import ray.data as rd
rd.DataContext.get_current().enable_progress_bars = False
from sod_ray.pipelines.export import CurateConfig, run_export
cfg = CurateConfig(neardup=True, partition_col="lang",
                   lsh_kwargs={{"seed": 1337}})
res = run_export({inp!r}, {out!r}, cfg, resume=True)
print("REPORT:" + json.dumps(res.report))
ray.shutdown()
"""


def run(out_dir: str, kill_at_commit: bool = False):
    """Run the funnel in a child process group; with ``kill_at_commit``,
    SIGKILL the group once the first ``manifest/part-*.json`` record
    appears and return None."""
    repo = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    code = RUN_SNIPPET.format(repo=repo, inp=INP, out=out_dir)
    proc = subprocess.Popen(
        [sys.executable, "-c", code],
        stdout=subprocess.PIPE,
        stderr=subprocess.DEVNULL,
        text=True,
        start_new_session=True,
    )
    if kill_at_commit:
        kill_at_first_record(proc, os.path.join(out_dir, "manifest"))
        return None
    out, _ = proc.communicate(timeout=1200)
    assert proc.returncode == 0, f"run failed rc={proc.returncode}"
    for line in out.splitlines():
        if line.startswith("REPORT:"):
            return json.loads(line[len("REPORT:"):])
    raise AssertionError("no REPORT line")


def corpus_digest(corpus_dir: str) -> tuple[int, str]:
    import pyarrow.dataset as pads

    t = (
        pads.dataset(corpus_dir, format="parquet", partitioning="hive")
        .to_table(columns=["doc_id", "text"])
        .sort_by("doc_id")
    )
    h = hashlib.md5()
    h.update(t["doc_id"].to_numpy().tobytes())
    for s in t["text"].to_pylist():
        h.update(s.encode())
    return t.num_rows, h.hexdigest()


def main(n_docs: int = 200_000) -> int:
    shutil.rmtree(ROOT, ignore_errors=True)
    print(f"generating {n_docs} docs ...")
    gen_corpus(n_docs)

    t0 = time.perf_counter()
    rep_clean = run(OUT_CLEAN)
    wall = time.perf_counter() - t0
    n_clean, dig_clean = corpus_digest(os.path.join(OUT_CLEAN, "corpus"))
    print(
        f"clean run: {wall:.1f}s, rows {rep_clean['rows_in']} -> {n_clean}; "
        f"stages {json.dumps({k: v.get('dropped') for k, v in rep_clean['stages'].items()})}"
    )

    print("killed run: SIGKILL at the first manifest commit ...")
    run(OUT_KILLED, kill_at_commit=True)
    mdir = os.path.join(OUT_KILLED, "manifest")
    committed = sorted(f for f in os.listdir(mdir) if f.startswith("part-"))
    print(f"  committed at kill: {committed}")
    assert committed, "the kill landed before any manifest commit"

    rep_resumed = run(OUT_KILLED)
    n_res, dig_res = corpus_digest(os.path.join(OUT_KILLED, "corpus"))
    print(
        f"resumed: reused decisions {rep_resumed['resumed_stages']}, "
        f"rows_out {rep_resumed['rows_out']}"
    )

    assert (n_res, dig_res) == (n_clean, dig_clean), (
        f"corpus mismatch: clean ({n_clean}, {dig_clean}) vs resumed "
        f"({n_res}, {dig_res})"
    )
    for st, v in rep_clean["stages"].items():
        if "dropped" in v:
            assert rep_resumed["stages"][st]["dropped"] == v["dropped"], st
    reused = {
        "part-apply.json" if s == "apply" else f"part-decision:{s}.json"
        for s in rep_resumed["resumed_stages"]
    }
    assert set(committed) <= reused, (
        f"committed {committed} but the resume reused "
        f"{rep_resumed['resumed_stages']}"
    )
    print(
        f"OK: resumed corpus identical ({n_res} rows, md5 {dig_res[:12]}…), "
        f"{len(rep_resumed['resumed_stages'])} checkpointed stages reused"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main(int(sys.argv[1]) if len(sys.argv) > 1 else 200_000))

"""Kill/resume proof for the checkpoint manifest (BASELINE.md
resumability criterion): start a validation run, SIGKILL the whole
process group as soon as its first partition record lands in
``manifest/``, rerun, and verify that (a) something was committed at
the kill, (b) the committed partitions from attempt 1 are skipped,
(c) attempt 2 completes the rest, (d) the final verdicts equal a clean
single-shot run. Killing on the first record, not after a fixed delay,
makes the resume path run whatever the host's speed.

Usage: python tools/kill_resume_test.py [n_rows]
"""

from __future__ import annotations

import json
import os
import shutil
import signal
import subprocess
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

WEB = "/tmp/sod_kill_test/web"
OUT = "/tmp/sod_kill_test/out"
OUT_CLEAN = "/tmp/sod_kill_test/out_clean"

RUN_SNIPPET = """
import sys, json
sys.path.insert(0, {repo!r})
import ray
ray.init(address="local", num_cpus=8, include_dashboard=False, logging_level="ERROR")
import ray.data as rd
rd.DataContext.get_current().enable_progress_bars = False
from sod_ray.pipelines.validate import ValidateConfig, run_validation
res = run_validation({web!r} + "/webpages", {out!r}, ValidateConfig(partitions_per_wave=2))
print("RAN:" + json.dumps(sorted(res.partitions_run)))
print("SKIPPED:" + json.dumps(sorted(res.partitions_skipped)))
ray.shutdown()
"""


def kill_at_first_record(proc, manifest_dir: str, timeout: float = 1200.0):
    """SIGKILL ``proc``'s process group as soon as a ``part-*.json``
    record appears in ``manifest_dir`` (polled every 10 ms). Raises if
    the process exits or ``timeout`` passes first: a kill after the run
    ended, or before any commit, proves nothing about resume."""
    deadline = time.monotonic() + timeout
    try:
        while not (
            os.path.isdir(manifest_dir)
            and any(
                f.startswith("part-") and f.endswith(".json")
                for f in os.listdir(manifest_dir)
            )
        ):
            if proc.poll() is not None:
                raise AssertionError(
                    f"run ended (rc={proc.returncode}) before its first commit"
                )
            if time.monotonic() > deadline:
                raise AssertionError(f"no commit within {timeout:.0f} s")
            time.sleep(0.01)
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()


def run(out_dir: str, kill_at_commit: bool = False):
    repo = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    code = RUN_SNIPPET.format(repo=repo, web=WEB, out=out_dir)
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
    out, _ = proc.communicate(timeout=600)
    assert proc.returncode == 0, f"run failed rc={proc.returncode}"
    ran = skipped = None
    for line in out.splitlines():
        if line.startswith("RAN:"):
            ran = json.loads(line[4:])
        if line.startswith("SKIPPED:"):
            skipped = json.loads(line[8:])
    return ran, skipped


def main(n_rows: int = 200_000):
    from sod_ray.sources.webpages import write_webpages

    shutil.rmtree("/tmp/sod_kill_test", ignore_errors=True)
    os.makedirs(WEB, exist_ok=True)
    write_webpages(WEB, n_rows=n_rows, n_shards=16, seed=42, with_refs=False)

    # clean single-shot run (the expected final state)
    clean_ran, _ = run(OUT_CLEAN)
    print(f"clean run partitions: {clean_ran}")

    # attempt 1: killed at its first commit (SIGKILL, no cleanup handlers)
    run(OUT, kill_at_commit=True)
    committed_after_kill = sorted(
        f.split("part-")[1].split(".json")[0]
        for f in os.listdir(os.path.join(OUT, "manifest"))
        if f.startswith("part-")
    ) if os.path.isdir(os.path.join(OUT, "manifest")) else []
    print(f"committed at kill: {committed_after_kill}")
    assert committed_after_kill, "the kill landed before any partition commit"

    # attempt 2: resume
    ran2, skipped2 = run(OUT)
    print(f"resume ran: {ran2}; skipped: {skipped2}")
    assert skipped2 == committed_after_kill, "resume must skip exactly the committed partitions"
    assert sorted(ran2 + skipped2) == clean_ran, "resume must complete the remainder"

    # verdict equality vs clean run
    import pandas as pd
    import glob
    import pyarrow.parquet as pq

    def verdicts(d):
        t = pd.concat(
            [pq.read_table(f).to_pandas() for f in sorted(glob.glob(f"{d}/verdicts-*.parquet"))]
        )
        return t.sort_values("partition").reset_index(drop=True)

    v1, v2 = verdicts(OUT_CLEAN), verdicts(OUT)
    pd.testing.assert_frame_equal(
        v1[["partition", "rows", "passed"]], v2[["partition", "rows", "passed"]]
    )
    print("OK: killed+resumed run matches the clean run "
          f"({len(committed_after_kill)} partitions were skipped on resume)")


if __name__ == "__main__":
    main(int(sys.argv[1]) if len(sys.argv) > 1 else 200_000)

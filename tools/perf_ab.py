"""Interleaved A/B of the perfbench workloads between two checkouts.

    python tools/perf_ab.py [--base REV | --base-dir DIR] [--new-dir DIR]
        [--workloads w1,w2] [--seeds 1,2,...] [--pairs N] [--seconds S]
        [--out runs.jsonl]

For every workload it runs N pairs of ``perfbench/run.py --trace 0``:
one run in the base checkout and one in the new checkout, alternating
which side goes first (even pairs run the base first). Pair i uses seed
``seeds[i % len(seeds)]``. The base is a detached ``git worktree`` of
REV (default ``HEAD``, i.e. the last commit when the change is not
committed yet; pass ``HEAD~1`` once it is), made in a temporary
directory and removed at the end; ``--base-dir`` uses an existing
checkout instead. ``--new-dir`` defaults to the checkout holding this
tool.

Per workload it prints, for every end-to-end metric of BENCHMARK.json,
each side's median and quartiles and the pairs the new side won; then
the claim rule on ``wall_s`` (new wins >= 90% of the pairs and its
median beats the base's by more than the base's interquartile range),
the contention probe (``probe_cpu_s`` before and after each run) and
the failed-job share. Raw runs go to ``--out`` as JSON lines.

The benchmark runs only as a subprocess whose two last stdout lines
(details, then the result object) are parsed; nothing under
``perfbench/`` is imported or changed. Run nothing else on the host
meanwhile: the runs share its CPUs.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))


def run_once(checkout: str, workload: str, seed: int, seconds: float) -> dict:
    """One ``perfbench/run.py`` run in ``checkout``: its details and
    result objects, or an ``error`` entry when it did not finish."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    cmd = [sys.executable, os.path.join("perfbench", "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    try:
        p = subprocess.run(cmd, cwd=checkout, env=env, capture_output=True,
                           text=True, timeout=seconds * 10 + 600)
        lines = [ln for ln in p.stdout.splitlines() if ln.startswith("{")]
        detail, result = json.loads(lines[-2]), json.loads(lines[-1])
    except (subprocess.TimeoutExpired, IndexError, json.JSONDecodeError) as e:
        return {"error": f"{type(e).__name__}: {e}"}
    return {"detail": detail, "result": result}


def quartiles(xs: list[float]) -> tuple[float, float, float]:
    if len(xs) < 2:
        return (xs[0],) * 3 if xs else (float("nan"),) * 3
    q1, q2, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, q2, q3


def summarize(workload: str, runs: list[dict], better: dict[str, str]) -> None:
    """Print one workload's comparison from its paired runs."""
    pairs = [r for r in runs if "error" not in r["base"] and "error" not in r["new"]]
    print(f"\n== {workload}: {len(pairs)}/{len(runs)} complete pairs")
    if not pairs:
        return
    for m, direction in better.items():
        b = [r["base"]["result"]["metrics"][m]["value"] for r in pairs]
        n = [r["new"]["result"]["metrics"][m]["value"] for r in pairs]
        wins = sum((y < x) if direction == "lower" else (y > x) for x, y in zip(b, n))
        bq, nq = quartiles(b), quartiles(n)
        delta = (nq[1] - bq[1]) / bq[1] if bq[1] else float("nan")
        print(f"  {m:12s} base {bq[1]:10.3f} [{bq[0]:.3f}, {bq[2]:.3f}]"
              f"  new {nq[1]:10.3f} [{nq[0]:.3f}, {nq[2]:.3f}]"
              f"  {delta:+7.1%}  new wins {wins}/{len(pairs)} ({direction} is better)")
        if m == "wall_s":
            holds = wins >= 0.9 * len(pairs) and bq[1] - nq[1] > bq[2] - bq[0]
            print(f"  claim on wall_s (>= 90% wins, median gain > base IQR "
                  f"{bq[2] - bq[0]:.3f}): {'holds' if holds else 'does not hold'}")
    for side in ("base", "new"):
        pre = [r[side]["detail"]["probe_pre"]["probe_cpu_s"] for r in pairs]
        post = [r[side]["detail"]["probe_post"]["probe_cpu_s"] for r in pairs]
        att = sum(r[side]["result"]["attempted"] for r in pairs)
        fail = sum(r[side]["result"]["failed"] for r in pairs)
        print(f"  {side:4s} probe_cpu_s pre {min(pre):.3f}-{max(pre):.3f}"
              f" post {min(post):.3f}-{max(post):.3f}  failed {fail}/{att}")
    print("  pairs (seed, order, base wall_s, new wall_s): " + ", ".join(
        f"({r['seed']}, {r['first']}, "
        f"{r['base']['result']['metrics']['wall_s']['value']:.3f}, "
        f"{r['new']['result']['metrics']['wall_s']['value']:.3f})" for r in pairs))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--base", default="HEAD")
    ap.add_argument("--base-dir")
    ap.add_argument("--new-dir", default=os.path.dirname(HERE))
    ap.add_argument("--workloads", default="")
    ap.add_argument("--seeds", default="7,8,9,10,11,12,13,14,15,16")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--out")
    args = ap.parse_args(argv)

    new_dir = os.path.abspath(args.new_dir)
    with open(os.path.join(new_dir, "BENCHMARK.json")) as f:
        bench = json.load(f)
    better = {m["name"]: m["better"] for m in bench["end_to_end"]}
    workloads = ([w for w in args.workloads.split(",") if w]
                 or [w["name"] for w in bench["workloads"]])
    seeds = [int(s) for s in args.seeds.split(",")]

    tmp = None
    if args.base_dir:
        base_dir = os.path.abspath(args.base_dir)
    else:
        tmp = tempfile.mkdtemp(prefix="perf_ab_")
        base_dir = os.path.join(tmp, "base")
        subprocess.run(["git", "-C", new_dir, "worktree", "add", "--detach",
                        base_dir, args.base], check=True, capture_output=True)
    out = open(args.out, "a") if args.out else None
    try:
        for w in workloads:
            runs = []
            for i in range(args.pairs):
                seed = seeds[i % len(seeds)]
                order = ("base", "new") if i % 2 == 0 else ("new", "base")
                rec = {"workload": w, "pair": i, "seed": seed, "first": order[0]}
                for side in order:
                    rec[side] = run_once(base_dir if side == "base" else new_dir,
                                         w, seed, args.seconds)
                runs.append(rec)
                if out:
                    out.write(json.dumps(rec) + "\n")
                    out.flush()
                print(f"{w} pair {i} seed {seed} {order[0]} first: " + ", ".join(
                    f"{s} " + (rec[s]["error"] if "error" in rec[s] else
                               f"{rec[s]['result']['metrics']['wall_s']['value']:.3f} s")
                    for s in ("base", "new")), flush=True)
            summarize(w, runs, better)
    finally:
        if out:
            out.close()
        if tmp is not None:
            subprocess.run(["git", "-C", new_dir, "worktree", "remove", "--force",
                            base_dir], capture_output=True)
            shutil.rmtree(tmp, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

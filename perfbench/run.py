"""Benchmark command: one closed-loop workload run of sod_ray.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from anywhere; the program under test is the ``sod_ray`` package
beside this directory. One client runs one job at a time through the
public entry points (``run_validation``, ``windowed_lof``,
``run_export``); each job starts when the previous one has finished,
and every job's output is checked against a reference recomputed from
the seeded inputs. Ray runs locally with ``num_cpus`` = the CPUs this
process may use.

``--trace 0`` prints the end-to-end metrics: ``setup_s`` (median of
three Ray session starts plus worker warm-up), and the median over the
timed jobs of ``wall_s``, ``rows_per_s`` and ``peak_mem_mb``. The
set-up's warm-up imports the workload's modules in a Ray worker; one
untimed job on the workload's small warm-up input then precedes the
timed ones. ``failed / attempted`` is the error rate: jobs (the untimed
one too) that raised, timed out or failed their check.

``--trace 1`` prints the per-layer metrics instead: an untraced session
measures the jobs first, then a traced session repeats them with span
wrappers in the driver and in every Ray worker (see ``trace.py``); the
difference of the two median walls is ``trace.overhead_s``. Every
span, with its run id (the index of its job), is written to
``.perfbench/traces/<workload>-<seed>-<pid>.jsonl``.

The last line of stdout is the result object; the line before it holds
the run's details (every wall, the contention probe before and after).
Inputs and references are cached per seed under ``.perfbench/`` in the
checkout root."""

from __future__ import annotations

import argparse
import gc
import json
import logging
import os
import shutil
import statistics
import sys
import tempfile
import threading
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
STATE = os.path.join(ROOT, ".perfbench")

SETUPS = 3
# jobs run after set-up and before timing, on the workload's small
# warm-up input: the first job of a session starts Ray's worker pool and
# fills the driver's caches, and ran about 30% slower than the rest. They
# are checked and counted in ``attempted``, but their walls are not in
# the metrics.
WARMUP_JOBS = 1
JOB_TIMEOUT_S = 60.0
OBJECT_STORE_BYTES = 512 << 20
# AF_UNIX socket paths (Ray puts them under its temp dir) hold 107 bytes
RAY_TEMP_MAX_LEN = 40

# wrapped symbols each workload must call; zero calls fails the traced run.
# (stages.dedup.apply_drops is reported but not required: run_export only
# calls it for drop sets above the broadcast budget, >= 1M ids)
EXPECTED_CALLS = {
    "validate_lang": [
        "functions.text.extract_text_arrow", "state.sketches.update",
        "state.sketches.merge", "state.sketches.serde", "state.sketches.hash64",
        "state.manifest.commit", "stages.constraints.exact_dup_counts",
        "stages.constraints.schema_check", "stages.window.windowed_zscore_sorted",
        "pipelines.validate.list_partitions", "pipelines.validate.save_baseline",
        "raydata.exec"],
    "lof_collect": ["functions.lof.score_stream", "functions.distance.pairwise",
                    "raydata.exec"],
    "export_neardup": [
        "stages.dedup.neardup_drop_ids", "stages.dedup.minhash_lsh_dedup",
        "stages.dedup.minhash_signatures", "stages.cc.connected_components_bucketed",
        "stages.exchange.exchange_reduce",
        "stages.joins.bucketed_equi_join", "stages.textstage.gopher_stats_batch",
        "stages.textstage.redact_pii_batch", "raydata.exec"],
}


def log(msg: str) -> None:
    print(f"[perfbench] {msg}", file=sys.stderr, flush=True)


def nproc() -> int:
    """What GNU ``nproc`` prints: the usable CPUs, overridden by
    ``OMP_NUM_THREADS`` and capped by ``OMP_THREAD_LIMIT``."""
    n = len(os.sched_getaffinity(0))
    omp = os.environ.get("OMP_NUM_THREADS", "").split(",")[0].strip()
    if omp.isdigit() and int(omp) > 0:
        n = int(omp)
    limit = os.environ.get("OMP_THREAD_LIMIT", "").strip()
    if limit.isdigit() and int(limit) > 0:
        n = min(n, int(limit))
    return n


class RaySession:
    """Local Ray started for one workload; ``start`` times session
    start plus worker warm-up (the workload's modules imported in a
    worker by a one-block Ray Data job)."""

    def __init__(self, modules: tuple, temp_dir: str, runtime_env: dict | None = None):
        self.modules = modules
        self.temp_dir = temp_dir
        self.runtime_env = runtime_env

    def start(self) -> float:
        import ray

        t0 = time.perf_counter()
        ray.init(address="local", num_cpus=nproc(), include_dashboard=False,
                 logging_level="ERROR", _temp_dir=self.temp_dir,
                 object_store_memory=OBJECT_STORE_BYTES,
                 runtime_env=self.runtime_env)
        import ray.data as rd

        from perfbench.workloads import warm_batch

        ctx = rd.DataContext.get_current()
        ctx.enable_progress_bars = False
        ctx.print_on_execution_start = False
        rd.range(8, override_num_blocks=1).map_batches(
            warm_batch, fn_kwargs={"modules": self.modules}, batch_format="pyarrow"
        ).take_all()
        return time.perf_counter() - t0

    @staticmethod
    def stop() -> None:
        import ray

        from perfbench.sysmon import wait_exited

        ray.shutdown()
        killed = wait_exited(os.getpid())
        if killed:
            log(f"killed {len(killed)} Ray processes left after shutdown")


def dir_usage(path: str) -> tuple[int, int]:
    files = size = 0
    for d, _, names in os.walk(path):
        for n in names:
            files += 1
            size += os.path.getsize(os.path.join(d, n))
    return files, size


class Job:
    """One checked job; ``wall_s`` runs from the call to the checked result."""

    def __init__(self, workload, in_dir: str, ref: dict, out_dir: str):
        self.w, self.in_dir, self.ref, self.out_dir = workload, in_dir, ref, out_dir
        self.ok = False
        self.error = "timed out"
        self.got: dict = {}
        self.wall_s = JOB_TIMEOUT_S
        self.t0 = self.t1 = 0.0
        self.peak_mb = 0.0
        self.out_files = self.out_bytes = 0

    def _body(self) -> None:
        try:
            self.got = self.w.job(self.in_dir, self.out_dir)
            self.w.gate(self.got, self.ref)
            self.ok, self.error = True, ""
        except Exception as e:  # every failure is counted, none ends the run
            self.error = f"{type(e).__name__}: {e}"
            traceback.print_exc(file=sys.stderr)
        finally:
            self.t1 = time.perf_counter()

    def run(self) -> "Job":
        from perfbench.sysmon import PeakPss

        shutil.rmtree(self.out_dir, ignore_errors=True)
        gc.collect()  # the previous job's garbage, outside the timed interval
        with PeakPss() as mem:
            self.t0 = time.perf_counter()
            th = threading.Thread(target=self._body, daemon=True)
            th.start()
            th.join(JOB_TIMEOUT_S)
        self.peak_mb = mem.peak_mb
        if not th.is_alive():
            self.wall_s = self.t1 - self.t0
            self.out_files, self.out_bytes = dir_usage(self.out_dir)
        shutil.rmtree(self.out_dir, ignore_errors=True)
        return self

    @property
    def timed_out(self) -> bool:
        return self.error == "timed out"


def closed_loop(w, inputs: tuple, work: str, seconds: float) -> list[Job]:
    """``WARMUP_JOBS`` untimed jobs on the warm-up input, then jobs back
    to back, each started when the previous one finished, until
    ``seconds`` have passed; stops early on a timed-out job. ``inputs``
    is what ``workloads.prepare`` returns. Returns the warm-up jobs first."""
    in_dir, ref, warm_dir, warm_ref = inputs
    jobs: list[Job] = []
    for i in range(WARMUP_JOBS):
        jobs.append(Job(w, warm_dir, warm_ref, os.path.join(work, f"warmup-{i}")).run())
        if jobs[-1].timed_out:
            return jobs
    t_start = time.perf_counter()
    while not (jobs and jobs[-1].timed_out) and (
        len(jobs) == WARMUP_JOBS or time.perf_counter() - t_start < seconds
    ):
        jobs.append(Job(w, in_dir, ref, os.path.join(work, f"job-{len(jobs)}")).run())
    for j in jobs:
        if not j.ok:
            log(f"job failed: {j.error}")
    return jobs


def timed(jobs: list[Job]) -> list[Job]:
    """The jobs the metrics are taken over: all but the warm-up (the
    warm-up itself when it is all there is, i.e. it timed out)."""
    return jobs[WARMUP_JOBS:] or jobs


def end_to_end(setups: list[float], jobs: list[Job], rows: int) -> dict:
    jobs = timed(jobs)
    wall = statistics.median(j.wall_s for j in jobs)
    return {
        "setup_s": statistics.median(setups),
        "wall_s": wall,
        "rows_per_s": rows / wall,
        "peak_mem_mb": statistics.median(j.peak_mb for j in jobs),
    }


def run_of(span: tuple, jobs: list[Job]) -> int | None:
    """The run id of a span: the index of the job whose interval holds
    its start (None for spans outside every job, e.g. the warm-up)."""
    return next((i for i, j in enumerate(jobs) if j.t0 <= span[3] < j.t1), None)


def write_trace(path: str, spans: list, jobs: list[Job]) -> None:
    os.makedirs(os.path.dirname(path), exist_ok=True)
    keys = ("id", "parent", "name", "start", "end", "pid", "counts")
    with open(path, "w") as f:
        for s in spans:
            f.write(json.dumps({"run": run_of(s, jobs), **dict(zip(keys, s))}) + "\n")


def per_layer(name: str, names: list[str], jobs: list[Job], spans: list,
              driver_pid: int, untraced_wall: float) -> tuple[dict, list[str]]:
    """Median per-layer metrics over the traced jobs (0 for a layer the
    workload does not use), and the expected symbols that recorded no
    call in some job."""
    from perfbench.trace import RAYDATA_EXEC, layer_metrics

    by_run: list[list] = [[] for _ in jobs]
    for s in spans:
        i = run_of(s, jobs)
        if i is not None:
            by_run[i].append(s)
    rows, missing = [], set()
    for j, mine in zip(jobs, by_run):
        lm = layer_metrics(mine, driver_pid)
        lm["raydata.executions"] = lm.get(f"{RAYDATA_EXEC}.calls", 0)
        lm["state.sketches.sketch_bytes"] = j.got.get("sketch_bytes", 0)
        lm["out.files"], lm["out.bytes"] = j.out_files, j.out_bytes
        missing |= {s for s in EXPECTED_CALLS[name] if not lm.get(f"{s}.calls")}
        rows.append(lm)
    metrics = {k: statistics.median(r.get(k, 0) for r in rows) for k in names}
    traced_wall = statistics.median(j.wall_s for j in jobs)
    metrics["trace.overhead_s"] = traced_wall - untraced_wall
    return metrics, sorted(missing)


def ray_temp_dir() -> str:
    """Ray's session dir inside the checkout when its socket paths fit,
    else a private temp dir; removed when the run ends."""
    path = os.path.join(STATE, f"ray{os.getpid()}")
    if len(path) <= RAY_TEMP_MAX_LEN:
        return path
    return tempfile.mkdtemp(prefix="pb-ray-")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "sod_ray", "__init__.py")):
        log(f"no sod_ray package beside {HERE}: nothing to benchmark")
        return 2
    # workers import sod_ray and perfbench: export the root before ray.init
    sys.path.insert(0, ROOT)
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (ROOT, os.environ.get("PYTHONPATH")) if p)
    os.environ["RAY_USAGE_STATS_ENABLED"] = "0"
    logging.getLogger("ray").setLevel(logging.ERROR)

    from perfbench import sysmon, trace
    from perfbench.workloads import WORKLOADS, prepare

    if args.workload not in WORKLOADS:
        log(f"unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}")
        return 2
    w = WORKLOADS[args.workload]

    # where the run's own time goes, in seconds (printed with the details)
    phase_s: dict[str, float] = {}
    mark = time.perf_counter()

    def phase(name: str) -> None:
        nonlocal mark
        now = time.perf_counter()
        phase_s[name] = phase_s.get(name, 0.0) + now - mark
        mark = now

    probe_pre = sysmon.contention_probe()
    phase("probe")
    inputs = prepare(w.name, args.seed, os.path.join(STATE, "inputs"))
    ref = inputs[1]
    phase("prepare")
    work = os.path.join(STATE, "work", str(os.getpid()))
    temp_dir = ray_temp_dir()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        units = {m["name"]: m["unit"]
                 for m in json.load(f)["per_layer" if args.trace else "end_to_end"]}
    detail: dict = {"workload": w.name, "seed": args.seed, "nproc": nproc(),
                    "rows": ref["rows"], "probe_pre": probe_pre}
    try:
        if not args.trace:
            session = RaySession(w.modules, temp_dir)
            setups = []
            for i in range(SETUPS):
                if i:
                    session.stop()
                setups.append(session.start())
            phase("setup")
            jobs = closed_loop(w, inputs, work, args.seconds)
            phase("jobs")
            session.stop()
            phase("stop")
            metrics = end_to_end(setups, jobs, ref["rows"])
            missing = []
            detail["setup_s"] = setups
        else:
            session = RaySession(w.modules, temp_dir)
            session.start()
            plain = closed_loop(w, inputs, work, args.seconds)
            session.stop()
            trace_dir = os.path.join(work, "trace")
            os.makedirs(trace_dir, exist_ok=True)
            os.environ[trace.TRACE_DIR_ENV] = trace_dir
            session = RaySession(w.modules, temp_dir, runtime_env={
                "worker_process_setup_hook": "perfbench.trace.worker_setup",
                "env_vars": {trace.TRACE_DIR_ENV: trace_dir,
                             "PYTHONPATH": os.environ["PYTHONPATH"]},
            })
            session.start()
            tracer = trace.Tracer()
            trace.install(tracer)
            trace.install_executor_spans(tracer)
            jobs = closed_loop(w, inputs, work, args.seconds)
            session.stop()
            spans = tracer.spans + trace.read_worker_spans(trace_dir)
            detail["trace_file"] = os.path.join(
                STATE, "traces", f"{w.name}-{args.seed}-{os.getpid()}.jsonl")
            write_trace(detail["trace_file"], spans, jobs)
            untraced = statistics.median(j.wall_s for j in timed(plain))
            metrics, missing = per_layer(w.name, list(units), timed(jobs), spans,
                                         os.getpid(), untraced)
            detail["untraced_walls"] = [j.wall_s for j in plain]
            detail["spans"] = len(spans)
            jobs = plain + jobs
    finally:
        import ray

        if ray.is_initialized():  # a run cut short by an error
            RaySession.stop()
        shutil.rmtree(work, ignore_errors=True)
        shutil.rmtree(temp_dir, ignore_errors=True)

    failed = sum(not j.ok for j in jobs)
    if missing:
        log(f"traced run: no calls recorded for {missing}")
    detail |= {"error_rate": failed / len(jobs), "walls": [j.wall_s for j in jobs],
               "peak_mem_mb": [j.peak_mb for j in jobs],
               "errors": [j.error for j in jobs if not j.ok], "uncalled": missing,
               "probe_post": sysmon.contention_probe()}
    phase("probe")
    detail["phase_s"] = phase_s
    print(json.dumps(detail))
    print(json.dumps({
        "correct": failed == 0 and not missing,
        "attempted": len(jobs),
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    }), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

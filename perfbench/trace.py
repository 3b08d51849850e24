"""Outside-in layer trace: spans around the calls the program makes
into each ``sod_ray`` module, recorded from the benchmark's own files.

Each wrapped call records one span ``(id, parent, name, start, end,
pid, counts)``. Times are ``time.perf_counter()`` (CLOCK_MONOTONIC on
Linux, so comparable across the processes of one host); the driver
assigns each span to the job whose interval holds its start — the
span's run id. Driver spans stay in memory; Ray worker processes
install the same wrappers through ``worker_process_setup_hook`` and
append their spans to ``$PERFBENCH_TRACE_DIR/<pid>.jsonl`` whenever
their outermost span ends, so a job's spans are on disk before its
result reaches the driver.

A symbol is patched where it is looked up: on its defining module and
on every loaded ``sod_ray`` module that bound it by name (``from x
import f``), e.g. ``stages.window.score_stream``. Wrappers keep the
wrapped function's module and qualified name, so a Ray task that
captured one is pickled by reference and runs the worker's wrapper."""

from __future__ import annotations

import functools
import glob
import importlib
import itertools
import json
import os
import sys
import threading
import time
from collections import defaultdict

TRACE_DIR_ENV = "PERFBENCH_TRACE_DIR"
RAYDATA_EXEC = "raydata.exec"


def _rows0(args, kw, out):
    return {"rows": len(args[0])}


def _rows_bytes0(args, kw, out):
    return {"rows": len(args[0]), "bytes": int(args[0].nbytes)}


def _serde_bytes(args, kw, out):
    return {"bytes": len(out) if isinstance(out, bytes) else len(args[-1])}


def _partitions(args, kw, out):
    keys = args[3] if len(args) > 3 else kw["keys"]
    return {"partitions": len(keys)}


_SK = "sod_ray.state.sketches"

# (span name, "module[:Class]", attribute, counts of one call)
TARGETS = [
    ("functions.text.extract_text_arrow", "sod_ray.functions.text",
     "extract_text_arrow", _rows_bytes0),
    ("functions.lof.score_stream", "sod_ray.functions.lof", "score_stream", _rows0),
    ("functions.distance.pairwise", "sod_ray.functions.distance", "pairwise", None),
    ("state.sketches.hash64", _SK, "hash64", None),
    ("state.sketches.update", f"{_SK}:Welford", "update_array", None),
    ("state.sketches.update", f"{_SK}:HyperLogLog", "update_hashes", None),
    ("state.sketches.update", f"{_SK}:TDigest", "update_array", None),
    ("state.sketches.update", f"{_SK}:KLL", "update_array", None),
    ("state.sketches.merge", f"{_SK}:Welford", "merge", None),
    ("state.sketches.merge", f"{_SK}:HyperLogLog", "merge", None),
    ("state.sketches.merge", f"{_SK}:TDigest", "merge", None),
    ("state.sketches.merge", f"{_SK}:KLL", "merge", None),
    ("state.sketches.serde", f"{_SK}:_Serializable", "to_bytes", _serde_bytes),
    ("state.sketches.serde", f"{_SK}:TDigest", "to_bytes", _serde_bytes),
    ("state.sketches.serde", f"{_SK}:_Serializable", "from_bytes", _serde_bytes),
    ("state.sketches.serde", _SK, "quantile_sketch_from_bytes", _serde_bytes),
    ("state.manifest.commit", "sod_ray.state.manifest:Manifest", "commit", None),
    ("stages.constraints.exact_dup_counts", "sod_ray.stages.constraints",
     "exact_dup_counts", _partitions),
    ("stages.constraints.schema_check", "sod_ray.stages.constraints",
     "schema_check", None),
    ("stages.window.windowed_zscore_sorted", "sod_ray.stages.window",
     "windowed_zscore_sorted", None),
    ("stages.dedup.neardup_drop_ids", "sod_ray.stages.dedup", "neardup_drop_ids", None),
    ("stages.dedup.minhash_lsh_dedup", "sod_ray.stages.dedup", "minhash_lsh_dedup", None),
    ("stages.dedup.minhash_signatures", "sod_ray.stages.dedup",
     "minhash_signatures", _rows0),
    ("stages.dedup.apply_drops", "sod_ray.stages.dedup", "apply_drops", None),
    ("stages.cc.connected_components_bucketed", "sod_ray.stages.cc",
     "connected_components_bucketed", None),
    ("stages.exchange.exchange_reduce", "sod_ray.stages.exchange",
     "exchange_reduce", None),
    ("stages.joins.bucketed_equi_join", "sod_ray.stages.joins",
     "bucketed_equi_join", None),
    ("stages.textstage.gopher_stats_batch", "sod_ray.stages.textstage",
     "gopher_stats_batch", _rows0),
    ("stages.textstage.redact_pii_batch", "sod_ray.stages.textstage",
     "redact_pii_batch", _rows0),
    ("pipelines.validate.list_partitions", "sod_ray.pipelines.validate",
     "list_partitions", None),
    ("pipelines.validate.save_baseline", "sod_ray.pipelines.validate",
     "save_baseline", None),
]

# modules whose by-name bindings of the targets must be patched too
IMPORTERS = ("sod_ray.pipelines.validate", "sod_ray.pipelines.export",
             "sod_ray.stages.window", "sod_ray.stages.dedup", "sod_ray.stages.cc",
             "sod_ray.stages.joins", "sod_ray.stages.exchange")


class Tracer:
    """Span store of one process. ``sink`` is the worker's spill file;
    without one (the driver) spans stay in ``spans``."""

    def __init__(self, sink: str | None = None):
        self.pid = os.getpid()
        self.sink = sink
        self.spans: list[tuple] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()

    def stack(self) -> list:
        st = getattr(self._local, "stack", None)
        if st is None:
            st = self._local.stack = []
        return st

    def new_id(self) -> int:
        return self.pid * 10_000_000 + next(self._ids)

    def record(self, span: tuple) -> None:
        with self._lock:
            self.spans.append(span)

    def flush(self) -> None:
        if self.sink is None:
            return
        with self._lock:
            spans, self.spans = self.spans, []
        if spans:
            with open(self.sink, "a") as f:
                f.write("".join(json.dumps(s) + "\n" for s in spans))


def _end(tracer: Tracer, stack: list, span: tuple) -> None:
    stack.pop()
    tracer.record(span)
    if not stack:
        tracer.flush()


def _wrap(tracer: Tracer, name: str, fn, count):
    @functools.wraps(fn)
    def traced(*args, **kw):
        st = tracer.stack()
        if st and st[-1][1] == name:  # a nested call of the same layer op
            return fn(*args, **kw)
        sid = tracer.new_id()
        parent = st[-1][0] if st else None
        st.append((sid, name))
        t0 = time.perf_counter()
        try:
            out = fn(*args, **kw)
        except BaseException:
            _end(tracer, st, (sid, parent, name, t0, time.perf_counter(),
                              tracer.pid, None))
            raise
        t1 = time.perf_counter()
        _end(tracer, st, (sid, parent, name, t0, t1, tracer.pid,
                          count(args, kw, out) if count else None))
        return out

    return traced


def install(tracer: Tracer) -> None:
    """Patch every target in this process."""
    for m in IMPORTERS:
        importlib.import_module(m)
    for name, owner, attr, count in TARGETS:
        modname, _, clsname = owner.partition(":")
        mod = importlib.import_module(modname)
        if clsname:
            cls = getattr(mod, clsname)
            raw = cls.__dict__[attr]
            if isinstance(raw, classmethod):
                setattr(cls, attr, classmethod(_wrap(tracer, name, raw.__func__, count)))
            else:
                setattr(cls, attr, _wrap(tracer, name, raw, count))
            continue
        fn = getattr(mod, attr)
        wrapped = _wrap(tracer, name, fn, count)
        for m in list(sys.modules.values()):
            if getattr(m, "__name__", "").startswith("sod_ray"):
                for k, v in list(vars(m).items()):
                    if v is fn:
                        setattr(m, k, wrapped)


def install_executor_spans(tracer: Tracer) -> None:
    """Driver side: one ``raydata.exec`` span per streaming-executor
    run, from ``execute`` to ``shutdown``; its parent is the span open
    on the thread that started the execution."""
    from ray.data._internal.execution.streaming_executor import StreamingExecutor

    execute, shutdown = StreamingExecutor.execute, StreamingExecutor.shutdown

    def traced_execute(self, *args, **kw):
        st = tracer.stack()
        self._perfbench_span = (tracer.new_id(), st[-1][0] if st else None,
                                time.perf_counter())
        return execute(self, *args, **kw)

    def traced_shutdown(self, *args, **kw):
        try:
            return shutdown(self, *args, **kw)
        finally:
            span = self.__dict__.pop("_perfbench_span", None)
            if span is not None:
                sid, parent, t0 = span
                tracer.record((sid, parent, RAYDATA_EXEC, t0, time.perf_counter(),
                               tracer.pid, None))

    StreamingExecutor.execute = traced_execute
    StreamingExecutor.shutdown = traced_shutdown


def worker_setup() -> None:
    """``worker_process_setup_hook`` of the traced Ray session."""
    d = os.environ[TRACE_DIR_ENV]
    install(Tracer(os.path.join(d, f"{os.getpid()}.jsonl")))


def read_worker_spans(trace_dir: str) -> list[tuple]:
    spans = []
    for path in glob.glob(os.path.join(trace_dir, "*.jsonl")):
        with open(path) as f:
            spans += [tuple(json.loads(line)) for line in f if line.strip()]
    return spans


def _union(intervals: list[tuple[float, float]]) -> float:
    total, end = 0.0, float("-inf")
    for a, b in sorted(intervals):
        if b <= end:
            continue
        total += b - max(a, end)
        end = b
    return total


def layer_metrics(spans: list[tuple], driver_pid: int) -> dict[str, float]:
    """Per-layer totals of one job's spans: ``<name>_s`` (busy seconds:
    self time for driver spans, duration for worker spans, summed over
    workers), ``<name>.calls`` and every recorded count."""
    children = defaultdict(list)
    for s in spans:
        if s[1] is not None:
            children[s[1]].append(s)
    out: dict[str, float] = defaultdict(float)
    for sid, _, name, t0, t1, pid, counts in spans:
        busy = t1 - t0
        if pid == driver_pid:
            busy -= _union([(max(c[3], t0), min(c[4], t1))
                            for c in children[sid] if c[4] > t0 and c[3] < t1])
        out[f"{name}_s"] += busy
        out[f"{name}.calls"] += 1
        for k, v in (counts or {}).items():
            out[f"{name}.{k}"] += v
    return dict(out)

"""Host readings for the benchmark: the contention probe and the PSS
sampler over the driver plus every Ray process it started.

``psutil`` is not assumed: processes are found through ``/proc/<pid>/stat``
(parent links) and measured through ``/proc/<pid>/smaps_rollup`` (PSS, so
pages shared between Ray processes — the plasma store mapping — are
split between them rather than counted once per process)."""

from __future__ import annotations

import os
import threading
import time


def contention_probe() -> dict:
    """The contention probe of the repository's ``bench.py`` (same
    kernels, same sizes): a fixed single-core matmul loop and a fixed
    200 MB copy loop. Taken before and after each run, so a wall time
    measured while co-tenants load the host can be recognised."""
    import numpy as np

    a = np.random.default_rng(0).normal(size=(600, 600))
    t0 = time.perf_counter()
    for _ in range(20):
        a = 0.5 * (a @ a) / np.abs(a).max()
    cpu_s = time.perf_counter() - t0
    buf = np.zeros(25_000_000)
    t0 = time.perf_counter()
    for _ in range(5):
        buf = buf.copy()
    membw_gbps = (2 * 5 * buf.nbytes / (time.perf_counter() - t0)) / 1e9
    return {"probe_cpu_s": round(cpu_s, 3), "probe_membw_gbps": round(membw_gbps, 2)}


def descendants(root: int) -> list[int]:
    """Every live process whose parent chain reaches ``root``."""
    children: dict[int, list[int]] = {}
    for name in os.listdir("/proc"):
        if not name.isdigit():
            continue
        try:
            with open(f"/proc/{name}/stat", "rb") as f:
                stat = f.read()
        except OSError:
            continue
        # the command name may hold spaces: fields resume after ')'
        fields = stat[stat.rindex(b")") + 2 :].split()
        if fields[0] == b"Z":
            continue
        children.setdefault(int(fields[1]), []).append(int(name))
    out, todo = [], [root]
    while todo:
        for c in children.get(todo.pop(), []):
            out.append(c)
            todo.append(c)
    return out


def pss_kb(pid: int) -> int:
    try:
        with open(f"/proc/{pid}/smaps_rollup", "rb") as f:
            for line in f:
                if line.startswith(b"Pss:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


# one sample of ~12 Ray processes reads their smaps_rollup for ~15 ms
# of CPU; every 0.25 s that takes ~6% of one core from the job it measures
SAMPLE_S = 0.25
RESCAN_EVERY = 4


class PeakPss:
    """Background sampler of summed PSS (driver + descendants), every
    ``SAMPLE_S``. ``with PeakPss() as p: job()`` leaves the peak in
    ``p.peak_mb``. The process list is refreshed every ``RESCAN_EVERY``
    samples, since Ray starts workers while a job runs."""

    def __init__(self):
        self.peak_kb = 0
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, daemon=True)

    def _sample(self, pids: list[int]) -> None:
        self.peak_kb = max(self.peak_kb, sum(pss_kb(p) for p in pids))

    def _loop(self) -> None:
        me = os.getpid()
        pids = [me] + descendants(me)
        n = 0
        while not self._stop.is_set():
            if n % RESCAN_EVERY == 0:
                pids = [me] + descendants(me)
            self._sample(pids)
            n += 1
            self._stop.wait(SAMPLE_S)
        self._sample([me] + descendants(me))

    def __enter__(self) -> "PeakPss":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join(timeout=30)

    @property
    def peak_mb(self) -> float:
        return self.peak_kb / 1024.0


def wait_exited(root: int, timeout_s: float = 30.0) -> list[int]:
    """Wait until ``root`` has no live descendants; SIGKILL and reap
    whatever is still there at the deadline. Returns the pids killed."""
    import signal

    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        left = descendants(root)
        if not left:
            return []
        time.sleep(0.1)
    left = descendants(root)
    for pid in left:
        try:
            os.kill(pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    end = time.monotonic() + 10
    while descendants(root) and time.monotonic() < end:
        try:
            os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            pass
        time.sleep(0.05)
    return left

"""Host record, Ray lifecycle and memory accounting for one benchmark run."""

from __future__ import annotations

import os
import shutil
import signal
import statistics
import subprocess
import threading
import time

import numpy as np

# Ray puts its sockets under <temp dir>/session_<date>_<pid>/sockets/; an
# AF_UNIX path holds at most 107 bytes, of which that suffix takes up to 66
_MAX_RAY_TEMP = 107 - 66


def nproc() -> int:
    """What coreutils ``nproc`` prints."""
    return int(subprocess.check_output(["nproc"]))


def ray_temp_dir(work_dir: str) -> str:
    """Ray's temp root: the work dir inside the checkout, or Ray's own
    default when the checkout path is too long for Ray's socket paths."""
    return work_dir if len(work_dir) <= _MAX_RAY_TEMP else os.path.join("/tmp", "ray")


class RaySession:
    """One local Ray cluster with ``num_cpus`` = nproc."""

    def __init__(self, root: str, work_dir: str, cpus: int):
        self.root = root
        self.temp_dir = ray_temp_dir(work_dir)
        self.cpus = cpus
        self.session_dir = None
        # the raylet and its workers inherit this environment, so workers
        # import logray from the checkout whatever the working directory; a
        # runtime_env would do the same but costs each new worker ~0.9 s
        # on a 1-CPU host, where graph calls start a worker per shard
        path = os.environ.get("PYTHONPATH")
        os.environ["PYTHONPATH"] = self.root + (os.pathsep + path if path else "")

    def start(self):
        import ray
        from ray.data import DataContext

        ray.init(
            address="local",
            num_cpus=self.cpus,
            object_store_memory=512 * 1024 * 1024,
            include_dashboard=False,
            log_to_driver=False,
            logging_level="ERROR",
            _temp_dir=self.temp_dir,
        )
        self.session_dir = ray._private.worker._global_node.get_session_dir_path()
        ctx = DataContext.get_current()
        ctx.enable_progress_bars = False
        ctx.print_on_execution_start = False

    def stop(self):
        """Shut Ray down and wait until every process it started has ended;
        the agents outlive the raylet by a moment, so they are waited for
        and killed if they linger."""
        import ray

        if ray.is_initialized():
            started = _descendants(os.getpid())
            ray.shutdown()
            deadline = time.monotonic() + 15
            while any(map(_alive, started)) and time.monotonic() < deadline:
                time.sleep(0.1)
            for pid in filter(_alive, started):
                try:
                    os.kill(pid, signal.SIGKILL)
                except ProcessLookupError:
                    pass
        if self.session_dir and self.session_dir.startswith(self.temp_dir):
            shutil.rmtree(self.session_dir, ignore_errors=True)
        self.session_dir = None


def _status_kb(pid: int, key: str) -> int:
    try:
        with open(f"/proc/{pid}/status") as f:
            for line in f:
                if line.startswith(key):
                    return int(line.split()[1])
    except (FileNotFoundError, ProcessLookupError, ValueError):
        pass
    return 0


def _children(pid: int) -> list[int]:
    out: list[int] = []
    try:
        for tid in os.listdir(f"/proc/{pid}/task"):
            with open(f"/proc/{pid}/task/{tid}/children") as f:
                out.extend(int(c) for c in f.read().split())
    except (FileNotFoundError, ProcessLookupError):
        pass
    return out


def _descendants(pid: int) -> list[int]:
    out, todo = [], _children(pid)
    while todo:
        p = todo.pop()
        out.append(p)
        todo.extend(_children(p))
    return out


_TICK_S = 1.0 / os.sysconf("SC_CLK_TCK")


def tree_cpu_s() -> float:
    """CPU seconds (user + system) used so far by this process and every
    process under it (Ray's daemons, its workers and their reaped children).

    The difference of two readings is the tree's CPU time in between, also
    for a process that exits in between: once reaped, its whole total moves
    to its parent's children-total, and the first reading holds its share
    from before.  Stolen time, when the hypervisor runs another machine on
    this one's virtual CPU, is not CPU time, so the difference is steadier
    than wall time on an oversubscribed host."""
    ticks = 0
    for pid in [os.getpid()] + _descendants(os.getpid()):
        try:
            with open(f"/proc/{pid}/stat") as f:
                fields = f.read().rsplit(")", 1)[1].split()
        except (FileNotFoundError, ProcessLookupError):
            continue
        ticks += sum(int(v) for v in fields[11:15])  # utime stime cutime cstime
    return ticks * _TICK_S


def _alive(pid: int) -> bool:
    """True until the process has exited (a zombie counts as exited)."""
    try:
        with open(f"/proc/{pid}/stat") as f:
            return f.read().rsplit(")", 1)[1].split()[0] != "Z"
    except (FileNotFoundError, ProcessLookupError):
        return False


def _cmdline(pid: int) -> str:
    try:
        with open(f"/proc/{pid}/cmdline", "rb") as f:
            return f.read().decode(errors="replace")
    except (FileNotFoundError, ProcessLookupError):
        return ""


class PeakRss:
    """Peak of the summed VmHWM of the driver and every live Ray worker
    process (tasks and actors), sampled by one thread.  Per process VmHWM is
    exact; sampling only decides which processes were alive together.
    Graph shard actors live for one call only, so a read after the runs
    would miss them."""

    def __init__(self, period_s: float = 0.2):
        self.period_s = period_s
        self.peak_kb = 0
        self._stop = threading.Event()
        self._thread = None
        self._workers: set[int] = set()

    def _raylets(self) -> list[int]:
        return [p for p in _children(os.getpid()) if "raylet" in _cmdline(p).split("\0")[0]]

    def _pids(self) -> list[int]:
        pids = [os.getpid()]
        for raylet in self._raylets():
            for p in _children(raylet):
                # a worker renames itself "ray::<task>" once it starts; the
                # raylet's other children are its agents.  A child caught
                # between fork and exec still reads as the raylet, so only a
                # positive verdict is kept and the rest are asked again
                if p not in self._workers:
                    cmd = _cmdline(p)
                    if cmd.startswith("ray::") or "default_worker.py" in cmd:
                        self._workers.add(p)
                if p in self._workers:
                    pids.append(p)
        return pids

    def _sample(self):
        total = sum(_status_kb(p, "VmHWM:") for p in self._pids())
        self.peak_kb = max(self.peak_kb, total)

    def _loop(self):
        while not self._stop.wait(self.period_s):
            self._sample()

    def start(self):
        """Reset every tracked process's high-water mark, then sample."""
        for p in self._pids():
            try:
                with open(f"/proc/{p}/clear_refs", "w") as f:
                    f.write("5")
            except OSError:
                pass
        self._sample()
        self._thread = threading.Thread(target=self._loop, daemon=True)
        self._thread.start()

    def stop_mb(self) -> float:
        self._stop.set()
        self._thread.join()
        self._sample()
        return self.peak_kb / 1024.0


def calibration_probe() -> dict:
    """Host-speed context (not a gated metric): single-core parse of a pinned
    10k-line sample and a memcpy bandwidth loop, median of 5 each."""
    from perfbench import inputs
    from logray.formats import GOLDEN_FORMAT, LineFormat
    from logray.vparse import VectorParser

    sample = inputs.transcripts(seed=0, rows=10_000).select(["text"])
    vp = VectorParser(LineFormat.from_format_string(GOLDEN_FORMAT))
    parse_s = []
    for _ in range(5):
        t0 = time.perf_counter()
        vp.parse_table(sample)
        parse_s.append(time.perf_counter() - t0)
    src = np.ones(32 * 1024 * 1024, np.uint8)
    dst = np.empty_like(src)
    copy_s = []
    for _ in range(5):
        t0 = time.perf_counter()
        np.copyto(dst, src)
        copy_s.append(time.perf_counter() - t0)
    return {
        "parse_10k_ns_per_line": statistics.median(parse_s) / 10_000 * 1e9,
        "memcpy_gb_per_s": src.nbytes / statistics.median(copy_s) / 1e9,
    }


def host_record(cpus: int) -> dict:
    import duckdb
    import pyarrow
    import ray
    from ray.data import DataContext

    return {
        "nproc": cpus,
        "os_cpu_count": os.cpu_count(),
        "omp_num_threads": os.environ.get("OMP_NUM_THREADS"),
        "ray": ray.__version__,
        "pyarrow": pyarrow.__version__,
        "duckdb": duckdb.__version__,
        "shuffle_strategy": str(DataContext.get_current().shuffle_strategy),
        "calibration": calibration_probe(),
    }

"""Ray session sized to the host, a process-tree meter, and a deadline.

The benchmark owns its Ray session: it starts it, measures every
process in it, and stops it again, so one run leaves nothing behind.
"""

from __future__ import annotations

import os
import sys
import threading
from typing import Dict, Optional

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORK = os.path.join(ROOT, ".pbw")

# AF_UNIX socket paths are limited to 107 bytes; Ray puts its sockets at
# <temp_dir>/session_<date>_<time>_<usec>_<pid>/sockets/plasma_store
_SOCKET_SUFFIX = len("/session_2026-01-01_00-00-00_000000_4194304/sockets/plasma_store")


def ray_cpus() -> int:
    """CPUs of the Ray session: those this process may run on (the
    affinity mask, not the machine's count) less one, which is left to
    the driver and Ray's own processes (raylet, GCS), so that Ray's
    workers do not contend with them; never below 2: at 1 CPU the fused
    quality plan's single annotate actor holds the only CPU and the read
    tasks that feed it never schedule."""
    return max(2, len(os.sched_getaffinity(0)) - 1)


def ray_temp_dir() -> Optional[str]:
    """A Ray temp dir inside the checkout when its socket paths fit."""
    d = os.path.join(WORK, "r")
    return d if len(d) + _SOCKET_SUFFIX <= 107 else None


def start_ray(num_cpus: int):
    import ray

    # Ray workers inherit the raylet's environment: putting the checkout
    # on PYTHONPATH lets them import the package whatever the cwd
    path = os.environ.get("PYTHONPATH", "")
    if ROOT not in path.split(os.pathsep):
        os.environ["PYTHONPATH"] = os.pathsep.join(p for p in (ROOT, path) if p)
    temp_dir = ray_temp_dir()
    if temp_dir is None:
        print(
            "perfbench: checkout path too long for Ray sockets; using Ray's default temp dir",
            file=sys.stderr,
        )
    ray.init(
        address="local",
        num_cpus=num_cpus,
        include_dashboard=False,
        logging_level="ERROR",
        log_to_driver=False,
        object_store_memory=512 * 1024 * 1024,
        _temp_dir=temp_dir,
    )
    from ray.data import DataContext

    ctx = DataContext.get_current()
    ctx.enable_progress_bars = False
    ctx.enable_tensor_extension_casting = False
    ctx.print_on_execution_start = False


def stop_ray(timeout: float = 30.0) -> None:
    """Shut Ray down and wait until every process it started has ended."""
    import ray

    if ray.is_initialized():
        ray.shutdown()
    reap_children(timeout)


def _psutil():
    import ray  # noqa: F401  (Ray puts its bundled psutil on sys.path)
    import psutil

    return psutil


def reap_children(timeout: float) -> None:
    """Wait for every process below this one to end: give them a third
    of ``timeout`` to exit, then terminate, then kill."""
    psutil = _psutil()
    alive = psutil.Process().children(recursive=True)
    for step in ("wait", "terminate", "kill"):
        for p in alive if step != "wait" else ():
            try:
                getattr(p, step)()
            except psutil.NoSuchProcess:
                pass
        _, alive = psutil.wait_procs(alive, timeout=timeout / 3)
        if not alive:
            return
    raise RuntimeError(f"processes still running: {[p.pid for p in alive]}")


class Meter:
    """Samples the driver and every process below it (the whole Ray
    session) every ``interval`` seconds: CPU seconds used and RSS.

    A process that starts inside a window is counted from zero; one
    that ends between samples loses at most one interval of CPU time.
    """

    def __init__(self, interval: float = 0.2):
        psutil = _psutil()
        self._psutil = psutil
        self.interval = interval
        self._me = psutil.Process()
        self._lock = threading.Lock()
        self._cpu: Dict[int, float] = {}
        self._base: Dict[int, float] = {}
        self._peak_driver = 0
        self._peak_session = 0
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, daemon=True)
        self._thread.start()

    def _procs(self):
        try:
            return [self._me] + self._me.children(recursive=True)
        except self._psutil.NoSuchProcess:
            return [self._me]

    def _sample(self) -> None:
        total_rss = 0
        driver_rss = 0
        seen = {}
        for p in self._procs():
            try:
                with p.oneshot():
                    t = p.cpu_times()
                    rss = p.memory_info().rss
            except (self._psutil.NoSuchProcess, self._psutil.AccessDenied):
                continue
            seen[p.pid] = t.user + t.system
            total_rss += rss
            if p.pid == self._me.pid:
                driver_rss = rss
        with self._lock:
            self._cpu.update(seen)
            self._peak_driver = max(self._peak_driver, driver_rss)
            self._peak_session = max(self._peak_session, total_rss)

    def _loop(self) -> None:
        while not self._stop.wait(self.interval):
            self._sample()

    def window_start(self) -> None:
        """Start a measurement window: reset peaks, fix CPU baselines."""
        with self._lock:
            self._cpu = {}
        self._sample()
        with self._lock:
            self._base = dict(self._cpu)
            self._peak_driver = 0
            self._peak_session = 0
        self._sample()

    def window_end(self) -> Dict[str, float]:
        self._sample()
        with self._lock:
            cpu = sum(v - self._base.get(pid, 0.0) for pid, v in self._cpu.items())
            return {
                "cpu_s": cpu,
                "driver_peak_rss_mb": self._peak_driver / 2**20,
                "session_peak_rss_mb": self._peak_session / 2**20,
            }

    def close(self) -> None:
        self._stop.set()
        self._thread.join(timeout=5)


class Deadline:
    """Ends the run with an error when it outlives ``seconds``: an actor
    that never schedules, or a worker that cannot import the package and
    restarts forever, must not stall the run. Every process the run
    started is killed and waited for before the exit."""

    EXIT_CODE = 3

    def __init__(self, seconds: float):
        self._timer = threading.Timer(seconds, self._fire, args=(seconds,))
        self._timer.daemon = True
        self._timer.start()

    @staticmethod
    def _fire(seconds: float) -> None:
        print(f"perfbench: run exceeded its {seconds:.0f} s deadline", file=sys.stderr)
        sys.stderr.flush()
        try:
            reap_children(timeout=10)
        finally:
            os._exit(Deadline.EXIT_CODE)

    def cancel(self) -> None:
        self._timer.cancel()

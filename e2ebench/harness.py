"""Host calibration, statistics and the environment block.

Nothing here imports ``repro``: the calibration kernel must measure the
host, not the program under test.

On a shared 2-vCPU host the same seeded work runs up to ~1.5x slower in
one process than in another, and the host flips within seconds between
a fast and a slow mode, with CPU time equal to wall time: the slowdown
comes from the host. Every timing is therefore reported twice: raw, and
in *calibrated seconds* — raw x (a kernel sample's nominal time / the
mean kernel sample taken during that op or set-up), where the kernel is
a fixed piece of work like the workload's own (:class:`Calibrator`)
paced through the timed work for about a tenth of its time. The mean,
not the median: kernel samples are bimodal with the host's modes and
the median jumps from one mode to the other, while an op's time sums
its share of both.
"""

from __future__ import annotations

import math
import os
import platform
import resource
import statistics
import time
from pathlib import Path

import numpy as np

#: Typical wall times of the kernel's two parts on the reference host
#: (Intel Xeon, 2 vCPUs, Python 3.11, numpy 2.4). Fixed once: changing
#: them rescales every calibrated timing and breaks comparison with
#: earlier records.
NOMINAL_PYTHON_S = 0.0035
NOMINAL_ARRAY_S = 0.0035

#: The array part's vector length and steps: about the size of the SMO
#: solver's active set at the paper corpus (~860 training rows, 2n dual
#: variables).
ARRAY_N = 2000
ARRAY_STEPS = 40

#: Kernel time owed per second of timed work (~11% of the ops' time).
KERNEL_SHARE = 0.12

#: Work between kernel visits, so samples sit beside the work they
#: calibrate: the host's speed changes within a second.
PACE_S = 0.02


class _Node:
    """A toy aging node: the kernel's stand-in for simulation state."""

    __slots__ = ("mem", "rate", "trail")

    def __init__(self, rate: float) -> None:
        self.mem = 0.0
        self.rate = rate
        self.trail: list[float] = []

    def tick(self, dt: float, draw: float) -> bool:
        self.mem += self.rate * dt * draw
        if len(self.trail) < 64:
            self.trail.append(self.mem)
        return self.mem > 1e9


class Calibrator:
    """The calibration kernel, paced through a run's timed work.

    The Python part of a sample steps 40 toy nodes 25 times: plain-Python
    objects with slots and method calls, fresh containers, and small-array
    numpy calls (generator draws, index selection, reductions) — the mix
    the simulator and the fleet control loop are made of. Run beside the
    same fleet op, its time correlated with the op's at r = 0.78
    (fleet-testbed) and 0.88 (fleet-scale); a kernel of arithmetic
    loops and a sorted 48-element array reached only 0.13 and 0.58.

    With ``array=True`` a sample also runs an array part: SMO-style
    working-set steps (masked arg-max/arg-min and gradient updates on
    2,000-element vectors), which slow with the host less than Python
    does. Over eight processes a fixed SVR fit spread 11% raw (IQR over
    median), 6.9% calibrated by the Python part and 2.8% by the array
    part.

    :meth:`pace` is called at stage boundaries and from benchmark-side
    hooks inside long stages (every simulated run, model fit and fleet
    tick); it runs samples until the kernel has had ``KERNEL_SHARE`` of
    the work time since the last visit. ``spent`` accumulates the
    kernel's wall time so stages can exclude it.
    """

    def __init__(self, array: bool = False, since: "float | None" = None) -> None:
        self._rng = np.random.default_rng(0)
        self.array = array
        #: A sample's typical wall time on the reference host.
        self.nominal_s = NOMINAL_PYTHON_S + (NOMINAL_ARRAY_S if array else 0.0)
        r = np.random.default_rng(1)
        self._vectors = (r.normal(size=ARRAY_N), r.uniform(0.0, 1.0, ARRAY_N),
                         np.where(r.uniform(size=ARRAY_N) > 0.5, 1.0, -1.0),
                         r.normal(size=ARRAY_N))
        self.samples: list[float] = []
        self.spent = 0.0
        self._owed = 0.0
        #: End of the last visit: work since then owes the kernel time.
        self._mark = time.perf_counter() if since is None else since
        #: A traced run's recorder: kernel visits become ``calib`` spans,
        #: so no layer's self time includes them.
        self.rec = None

    def sample(self) -> float:
        """Run the kernel once; return its wall time in seconds."""
        t0 = time.perf_counter()
        acc = 0.0
        nodes = [_Node(1.0 + 0.01 * i) for i in range(40)]
        for _ in range(25):
            draws = self._rng.lognormal(0.0, 0.1, size=len(nodes))
            hot = np.flatnonzero(draws > 1.0)
            for node, draw in zip(nodes, draws.tolist()):
                acc += node.tick(0.5, draw)
            acc += float(draws[hot].sum())
            mem = np.array([node.mem for node in nodes])
            acc += float(mem.mean()) + float(np.percentile(mem, 90))
        if self.array:
            acc += self._solver_steps()
        if not math.isfinite(acc):  # keeps the work observable
            raise RuntimeError("calibration kernel diverged")
        d = time.perf_counter() - t0
        self.samples.append(d)
        return d

    def _solver_steps(self) -> float:
        g0, a0, z, q = self._vectors
        grad = g0.copy()
        alpha = a0.copy()
        pos = z > 0
        acc = 0.0
        for _ in range(ARRAY_STEPS):
            g = -(z * grad)
            up = np.where(pos, alpha < 1.0, alpha > 0.0)
            low = np.where(pos, alpha > 0.0, alpha < 1.0)
            i = int(np.argmax(np.where(up, g, -np.inf)))
            denom = 2.0 - 2.0 * q
            np.maximum(denom, 1e-12, out=denom)
            j = int(np.argmin(np.where(low, -(g * g) / denom, np.inf)))
            alpha[i] = min(1.0, alpha[i] + 0.01)
            alpha[j] = max(0.0, alpha[j] - 0.01)
            grad += q * 0.01
            acc += grad[i]
        return acc

    def pace(self, force: bool = False) -> None:
        """Pay the kernel what the work since the last visit owes it."""
        t0 = time.perf_counter()
        work = t0 - self._mark
        if work < PACE_S and not force:
            return
        self._owed += KERNEL_SHARE * work
        idx = self.rec.begin("calib", "calib") if self.rec is not None else -1
        while self._owed > 0:
            self._owed -= self.sample()
        self._mark = time.perf_counter()
        self.spent += self._mark - t0
        if self.rec is not None:
            self.rec.end(idx)
            # The span covers exactly the time stages exclude.
            self.rec.spans[idx][2:4] = [t0, self._mark]

    def factor(self, samples) -> float:
        """Multiply raw seconds of work timed beside *samples* (this
        calibrator's) by this to get calibrated seconds."""
        return self.nominal_s / statistics.fmean(samples)


def tail_percentile(values, q: float) -> "float | None":
    """Percentile *q* of *values*, or None with fewer than ten samples
    beyond it (a p99 of 12 samples is the maximum, not a p99)."""
    n = len(values)
    if n == 0 or n * (100.0 - q) / 100.0 < 10:
        return None
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_sha(root: Path) -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.is_file():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def environment(root: Path, blas_thread_vars, cal: Calibrator) -> dict:
    """Where the numbers were measured."""
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpus = os.cpu_count() or 1
    return {
        "cpu_count": cpus,
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {v: os.environ.get(v) for v in blas_thread_vars},
        "git_sha": _git_sha(root),
        "calib_nominal_ms": cal.nominal_s * 1e3,
        "calib_kernel": "python+array" if cal.array else "python",
        "jobs_scaling": (
            f"not measured: {cpus} CPUs, fewer than 4"
            if cpus < 4
            else "not measured: every workload runs jobs=1"
        ),
    }

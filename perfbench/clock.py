"""Timing that holds still on a machine whose speed changes under it.

On a shared machine, such as the 2-vCPU Xeon cloud VM the kernels below
were calibrated on, speed switches between a fast and a slow state (1.2x to
1.75x slower, depending on the code) for stretches of a fraction of a second
to a minute, so one run can fall entirely in either. Rounds are therefore
timed by a Clock that, every CALIBRATION_INTERVAL_S at events that
recur in every round (a train step's end, a simulator step, an episode file
read), times a few fixed kernels, leaves their own time out, and divides
each stretch by the slowdown they show against the unloaded reference. The
kernels are weighed per workload (a "mix") to slow down as much as that
workload's code does. Times are thus seconds on the unloaded reference
machine. Set-up is timed the same way.
"""

from __future__ import annotations

import contextlib
import functools
import math
import time
from typing import Any, Callable

import numpy as np

from tracer import Patches

CALIBRATION_INTERVAL_S = 0.2
KERNEL_REPEATS = 6  # runs right after program code are slower; the fastest of six is not
_SMALL = np.linspace(0.0, 1.0, 64 * 64, dtype=np.float32).reshape(64, 64) / 64
_LARGE_IN = np.full((4, 512, 512), 0.5, np.float32)  # 4 MiB: larger than L2
_LARGE_OUT = np.empty_like(_LARGE_IN)


def _interpreter_kernel() -> None:
    x = 0.0
    for i in range(8000):
        x = x * 0.999 + i


def _small_array_kernel() -> None:
    for _ in range(20):
        float(np.exp(-(_SMALL @ _SMALL)).sum())


def _memory_kernel() -> None:
    np.exp(_LARGE_IN, out=_LARGE_OUT)


# kind -> (kernel, its fastest time unloaded on the reference machine: a
# 2-vCPU Intel Xeon VM, Python 3.11, numpy 2.4.6, OpenBLAS 0.3.31)
KERNELS: dict[str, tuple[Callable[[], None], float]] = {
    "interpreter": (_interpreter_kernel, 0.41e-3),
    "small_array": (_small_array_kernel, 0.19e-3),
    "memory": (_memory_kernel, 0.52e-3),
}

# Each mix weighs the kernels so that their slowdown under load matches that
# of the code it times. Slow/fast ratios measured when the mixes were set:
# interpreter 1.34, small_array 1.54, memory 1.22; eval code 1.44, a training
# step 1.19, expert generation 1.50 and episode loading 1.38. The detail line
# of every run carries the unscaled rate, to check a mix against.
TRAIN_MIX = {"memory": 1.0}
EVAL_MIX = {"interpreter": 0.6, "small_array": 0.4}
GEN_MIX = {"interpreter": 0.4, "small_array": 0.6}


def kernel_slowdowns() -> dict[str, float]:
    """Each kernel's fastest of KERNEL_REPEATS runs over its time on the
    unloaded reference machine."""
    out = {}
    for kind, (kernel, reference) in KERNELS.items():
        best = math.inf
        for _ in range(KERNEL_REPEATS):
            start = time.perf_counter()
            kernel()
            best = min(best, time.perf_counter() - start)
        out[kind] = best / reference
    return out


class Clock:
    """Accumulates timed stretches, scaled to the reference machine's speed.

    `start` begins timing; `tick` closes the current stretch and, when
    CALIBRATION_INTERVAL_S has passed since the last calibration (or when
    forced), measures the kernels and divides the time gathered since the
    previous calibration by the mean of the two slowdowns (weighed by `mix`)
    that bracket it. The calibration runs through `aside`, which a traced
    round records as a span so that no layer is charged for it.
    """

    def __init__(self, mix: dict[str, float], aside: Callable[[Callable[[], Any]], Any] = lambda fn: fn()):
        self.mix = mix
        self.aside = aside
        self.raw = 0.0  # unscaled seconds, calibrations excluded
        self.scaled = 0.0
        self._open = 0.0

    def _measure(self) -> dict[str, float]:
        return self.aside(kernel_slowdowns)

    def start(self) -> None:
        self.began = time.perf_counter()
        self._kernels = self._measure()
        self._calibrated = self._start = time.perf_counter()

    def tick(self, end: float | None = None, force: bool = False) -> None:
        """Close the stretch at `end` (default now); time until this call
        returns, such as a pause at `end`, is left out."""
        self._open += (time.perf_counter() if end is None else end) - self._start
        if force or time.perf_counter() - self._calibrated >= CALIBRATION_INTERVAL_S:
            kernels = self._measure()
            bracket = {kind: (self._kernels[kind] + kernels[kind]) / 2 for kind in kernels}
            self.raw += self._open
            self.scaled += self._open / sum(weight * bracket[kind] for kind, weight in self.mix.items())
            self._open = 0.0
            self._kernels = kernels
            self._calibrated = time.perf_counter()
        self._start = time.perf_counter()

    def split(self) -> float:
        """Scaled seconds so far (forces a calibration)."""
        self.tick(force=True)
        self.ended = time.perf_counter()
        return self.scaled


@contextlib.contextmanager
def marking(clock: Clock, *targets: tuple[str, str]):
    """Tick `clock` as each call to the given deskicl functions returns;
    yields the number of calls per target.

    A target missing from the package only makes calibration sparser.
    """
    calls = {f"{module}.{attr}": 0 for module, attr in targets}

    def make(label):
        def make_wrapper(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                out = fn(*args, **kwargs)
                calls[label] += 1
                clock.tick()
                return out

            return wrapper

        return make_wrapper

    patches = Patches()
    for label in calls:
        module, attr = label.split(".", 1)
        patches.replace(label, module, attr, make(label))
    try:
        yield calls
    finally:
        patches.restore()

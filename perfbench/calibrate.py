"""Calibrated wall clock: a fixed pure-Python kernel sampled beside the work.

The benchmark host is shared, so the same code runs faster or slower from one
minute to the next.  Every few operations the benchmark times a fixed kernel
that lives here, and each measured interval is divided by the kernel's time
near that interval.  The result is in *reference seconds*: the time the
interval would have taken on a host where the kernel takes its reference time.

The kernel imports nothing from the program under test, allocates nothing in
its loop and runs with the garbage collector paused, so the program's heap
cannot change its timing.  It has two parts, timed apart: bytecode like the
program's (it walks small cached ints through a permutation table and a
string-keyed dict, with a function call and a slot read per step), and round
trips of one byte to an echo thread over a socket pair, the thread hand-off
the served workload's wire latencies are made of.

Work done in one thread is divided by the bytecode part alone
(``REFERENCE_BYTECODE_S``).  Only intervals of the kinds a clock is told wait
on thread hand-offs are divided by the whole kernel (``REFERENCE_SAMPLE_S``):
when hand-offs turn slow on the shared host, the whole kernel slows by up to
twice while single-threaded work does not, and dividing that work by it would
report a gain that is not there.
"""

from __future__ import annotations

import bisect
import gc
import socket
import statistics
import threading
import time

__all__ = ["Clock", "REFERENCE_SAMPLE_S", "kernel_sample", "percentile"]

#: A permutation of 0..255 (167 is odd), a fixed walk through it, and a
#: 256-entry dict keyed by short strings.  Every value the loop touches is a
#: cached small int or a string built here, so the loop never allocates.
_TABLE = tuple((i * 167 + 13) % 256 for i in range(256))
_WALK = tuple((i * 97 + 5) % 256 for i in range(1024))
_KEYS = tuple(f"key{i}" for i in range(256))
_INDEX = {key: i for i, key in enumerate(_KEYS)}


class _Slot:
    __slots__ = ("mask",)

    def __init__(self) -> None:
        self.mask = 3


_SLOT = _Slot()

#: Kernel passes and socket round trips per timed repetition, and
#: repetitions per sample (the sample is their median).
_PASSES = 1
_ROUND_TRIPS = 10
_REPEATS = 3
_BYTE = b"k"

#: The constants that define a reference second: a whole kernel sample, and
#: its bytecode part, took about this long on the host the reference figures
#: in README.md were taken on.
REFERENCE_SAMPLE_S = 0.0002
REFERENCE_BYTECODE_S = 0.000115

#: How many neighbouring kernel samples normalise one interval.
_WINDOW = 5

#: Minimum work time between two kernel samples in a timed loop.
SAMPLE_EVERY_S = 0.02


def _step(x: int, key: int) -> int:
    return _TABLE[x ^ key]


def _kernel_pass() -> int:
    """Table walk, function calls, dict lookups by string and slot reads, as the program does."""
    x = 0
    index, keys, slot = _INDEX, _KEYS, _SLOT
    for key in _WALK:
        x = _step(x, key)
        x = index[keys[x]] ^ slot.mask
    return x


class _Echo:
    """A thread that answers every byte sent to it over a socket pair."""

    def __init__(self) -> None:
        self.near, self._far = socket.socketpair()
        self.buffer = bytearray(1)
        self._thread = threading.Thread(target=self._serve, name="perfbench-kernel-echo", daemon=True)
        self._thread.start()

    def _serve(self) -> None:
        buffer = bytearray(1)
        while self._far.recv_into(buffer):
            self._far.sendall(_BYTE)

    def close(self) -> None:
        self.near.close()
        self._thread.join(timeout=5)
        self._far.close()


def kernel_sample(echo: _Echo) -> tuple[float, float]:
    """Seconds the kernel's bytecode part and the whole kernel take now (medians of a few).

    A repetition is bytecode work in this thread, then round trips to the
    echo thread, so the whole sample slows down both when the interpreter
    runs slower and when thread hand-offs take longer.
    """
    collecting = gc.isenabled()
    gc.disable()
    near, buffer = echo.near, echo.buffer
    try:
        bytecode, whole = [], []
        for _ in range(_REPEATS):
            started = time.perf_counter()
            for _ in range(_PASSES):
                _kernel_pass()
            passed = time.perf_counter()
            for _ in range(_ROUND_TRIPS):
                near.sendall(_BYTE)
                near.recv_into(buffer)
            bytecode.append(passed - started)
            whole.append(time.perf_counter() - started)
        return statistics.median(bytecode), statistics.median(whole)
    finally:
        if collecting:
            gc.enable()


def percentile(values: list[float], share: float) -> float:
    """The ``share`` quantile of ``values`` (nearest rank on the sorted list)."""
    ordered = sorted(values)
    index = min(len(ordered) - 1, max(0, round(share * (len(ordered) - 1))))
    return ordered[index]


class Clock:
    """Records timed intervals and kernel samples; converts to reference seconds.

    ``record(kind, started, ended)`` files one interval under ``kind``;
    ``tick()`` takes a kernel sample when enough work time has passed since
    the last one.  After the measured phase, ``calibrated(kind)`` returns the
    intervals of one kind, each divided by the median of the kernel samples
    nearest to it: the whole kernel for ``handoff_kinds``, its bytecode part
    for every other kind.
    """

    def __init__(self, handoff_kinds: tuple[str, ...] = ()) -> None:
        self._echo = _Echo()
        self._handoff_kinds = frozenset(handoff_kinds)
        self._sample_at: list[float] = []
        self._bytecode_s: list[float] = []
        self._whole_s: list[float] = []
        self._intervals: dict[str, list[tuple[float, float]]] = {}
        self._last_sample = -1.0
        self.sample()

    def close(self) -> None:
        """Stop the kernel's echo thread."""
        self._echo.close()

    def __enter__(self) -> "Clock":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def sample(self) -> None:
        """Take one kernel sample now."""
        bytecode, whole = kernel_sample(self._echo)
        now = time.perf_counter()
        self._sample_at.append(now)
        self._bytecode_s.append(bytecode)
        self._whole_s.append(whole)
        self._last_sample = now

    def tick(self) -> None:
        """Sample the kernel if ``SAMPLE_EVERY_S`` has passed since the last sample."""
        if time.perf_counter() - self._last_sample >= SAMPLE_EVERY_S:
            self.sample()

    def record(self, kind: str, started: float, ended: float) -> None:
        """File one interval measured with ``time.perf_counter``."""
        self._intervals.setdefault(kind, []).append((started, ended - started))

    def raw(self, kind: str) -> list[float]:
        """The intervals of one kind in wall seconds."""
        return [seconds for _, seconds in self._intervals.get(kind, [])]

    def count(self, kind: str) -> int:
        return len(self._intervals.get(kind, []))

    def _local(self, samples: list[float], at: float) -> float:
        index = bisect.bisect_left(self._sample_at, at)
        low = max(0, index - _WINDOW // 2)
        high = min(len(samples), low + _WINDOW)
        low = max(0, high - _WINDOW)
        return statistics.median(samples[low:high])

    def to_reference(self, started: float, seconds: float, handoff: bool = False) -> float:
        """An interval that began at ``started`` in reference seconds.

        ``handoff`` divides by the whole kernel, otherwise by its bytecode part.
        """
        if handoff:
            return seconds * REFERENCE_SAMPLE_S / self._local(self._whole_s, started)
        return seconds * REFERENCE_BYTECODE_S / self._local(self._bytecode_s, started)

    def calibrated(self, kind: str) -> list[float]:
        """The intervals of one kind in reference seconds."""
        handoff = kind in self._handoff_kinds
        return [self.to_reference(started, seconds, handoff)
                for started, seconds in self._intervals.get(kind, [])]

    def kernel_median(self) -> float:
        """Median whole kernel sample over the whole run, in seconds."""
        return statistics.median(self._whole_s)

"""CPU time rescaled by the speed of the core it ran on.

On a shared host a core's speed drifts by a quarter or more within minutes,
and wall or CPU time of the same process drifts with it. A reference loop
pinned to the same core as the measured work shares that core with it
turn by turn, so its rate over the same interval tracks the speed the work
got. ``CoreMeter.seconds`` converts CPU seconds into seconds at the
reference's nominal rate.

    python3 bench/speed.py FILE   runs the reference loop, publishing its
                                  progress in the first 16 bytes of FILE
"""
from __future__ import annotations

import mmap
import os
import random
import struct
import subprocess
import sys
import time
from pathlib import Path

# Reference iterations per CPU second while the loop shares its core with
# the measured process, about its rate on a 2-vCPU cloud VM; it only sets
# the scale of the rescaled seconds.
NOMINAL_RATE = 300_000.0
WARM_UP_CPU_S = 0.5
_PROGRESS = struct.Struct("dd")   # iterations done, loop CPU seconds
_LINE = ("12\tword\tlemma\tNOUN\t_\tGender=Fem|Number=Sing\t3\tnsubj\t_\t"
         "Entity=(e1-person-1-)|SpaceAfter=No")


def reference_loop(progress_path: str) -> None:
    """Split and parse a token line and read objects scattered over a heap
    of tens of megabytes, so the loop feels cache and memory contention as
    the pipelines do, not only the speed of the core. Runs until killed or
    until its parent is gone."""
    parent = os.getppid()
    heap = [(i, str(i), [i]) for i in range(200_000)]
    rng = random.Random(0)
    order = [rng.randrange(len(heap)) for _ in range(4096)]
    with open(progress_path, "r+b") as handle, \
            mmap.mmap(handle.fileno(), _PROGRESS.size) as progress:
        done = 0
        start = time.process_time()
        while os.getppid() == parent:
            for k in range(done, done + 100):
                number, text, box = heap[order[k & 4095]]
                number += len(text) + box[0]
                cols = _LINE.split("\t")
                dict(item.partition("=")[::2] for item in cols[5].split("|"))
            done += 100
            progress[:] = _PROGRESS.pack(done, time.process_time() - start)


class CoreMeter:
    """Pins the calling process, and so every child it starts, to one core
    and runs the reference loop there until ``close``."""

    def __init__(self, work: Path) -> None:
        self.cpu = min(os.sched_getaffinity(0))
        os.sched_setaffinity(0, {self.cpu})
        path = work / "core-meter"
        path.write_bytes(bytes(_PROGRESS.size))
        self._file = open(path, "r+b")
        self._progress = mmap.mmap(self._file.fileno(), _PROGRESS.size)
        self._process = subprocess.Popen(
            [sys.executable, __file__, str(path)])
        self._rate = NOMINAL_RATE
        # let the loop build its heap and warm up before anything is timed
        while self.mark()[1] < WARM_UP_CPU_S:
            if self._process.poll() is not None:
                self.close()
                raise RuntimeError("the reference loop exited")
            time.sleep(0.05)

    def mark(self) -> tuple[float, float]:
        """Reference iterations done and CPU seconds the loop used so far.
        The pair may be one update apart, which is 100 iterations."""
        return _PROGRESS.unpack(self._progress[:])

    def seconds(self, cpu_seconds: float, start: tuple[float, float],
                end: tuple[float, float]) -> float:
        """cpu_seconds of work done between two marks, at nominal speed.
        Between marks too close for the loop to have run, the rate last
        seen stands in."""
        if end[1] > start[1]:
            self._rate = (end[0] - start[0]) / (end[1] - start[1])
        return cpu_seconds * self._rate / NOMINAL_RATE

    def close(self) -> None:
        self._process.kill()
        self._process.wait()
        self._progress.close()
        self._file.close()


if __name__ == "__main__":
    reference_loop(sys.argv[1])

"""Reference clock: wall time rescaled by the speed of a fixed task.

The machine this benchmark was tuned on is a shared virtual machine.
Its speed for memory-heavy Python code swings by up to a factor of two
for tens of seconds at a time, for reasons outside the process (the
same op, in the same process, takes 0.55 s or 0.9 s).  Averaging longer
does not remove swings that long, so every timing is rescaled: a fixed
task of the benchmark's own (random reads over preallocated tuples,
strings and ints) runs between ops every ``EVERY`` seconds, and a
latency measured at time t is multiplied by ``REF_SECONDS / d``, where
d is the median duration of the ``NEAREST`` task runs nearest t.  Reported
times are therefore in reference seconds: the time the op would take on
a machine that runs the task in ``REF_SECONDS``.  The task allocates
nothing, so its speed does not depend on the program's heap, and it
never touches hyperset, so a change to the program cannot move the
scale.  Raw wall-clock figures are kept in the ``# meta`` line.
"""

from __future__ import annotations

import bisect
import random
import statistics
from time import perf_counter

REF_SECONDS = 0.01  # about the task's duration on the tuning machine when it runs steadily
EVERY = 0.25  # seconds between task runs
NEAREST = 7  # task runs whose median scales a latency
OBJECTS = 30000
READS = 20000


class RefClock:
    def __init__(self):
        rng = random.Random(0)
        self.objects = [(i, str(i), (i, i + 1)) for i in range(OBJECTS)]
        self.order = [rng.randrange(OBJECTS) for _ in range(READS)]
        self.times: list[float] = []
        self.durations: list[float] = []
        self.last = float("-inf")

    def _task(self) -> int:
        total = 0
        objects = self.objects
        for i in self.order:
            n, text, pair = objects[i]
            total += n + len(text) + pair[1]
        return total

    def sample(self) -> None:
        """Time one run of the task, after an untimed run that brings its
        data back into cache, so the reading does not depend on how much
        of the cache the program's last op used."""
        self._task()
        t0 = perf_counter()
        self._task()
        t1 = perf_counter()
        self.times.append(t0)
        self.durations.append(t1 - t0)
        self.last = t1

    def maybe_sample(self) -> None:
        if perf_counter() - self.last >= EVERY:
            self.sample()

    def scale(self, t: float) -> float:
        """Factor that turns a duration measured at time ``t`` into
        reference seconds."""
        i = bisect.bisect_left(self.times, t)
        near = self.durations[max(0, i - NEAREST // 2 - 1):i + NEAREST // 2]
        return REF_SECONDS / statistics.median(near)

    def summary(self) -> dict:
        ds = sorted(self.durations)
        return {"ref_task_runs": len(ds), "ref_task_ms_median": round(statistics.median(ds) * 1e3, 3),
                "ref_task_ms_min": round(ds[0] * 1e3, 3), "ref_task_ms_max": round(ds[-1] * 1e3, 3)}

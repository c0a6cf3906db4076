"""A fixed reference simulation that measures the host's speed.

The benchmark host is a share of a busy machine, and its speed drifts by
tens of percent from one minute to the next.  ``worker.py`` times this
reference just before and just after each timed pass, and ``run.py``
scales the pass's wall time by it, so ``norm_ops_per_s`` follows the
program rather than the neighbours.

The reference is a small discrete-event loop of the same kind as the
simulator's kernel: a heap of timed events, generator processes resumed
with ``send``, small objects and dicts.  It uses the standard library
only and nothing under ``src/``, so no change to the program changes it.
"""

from __future__ import annotations

import gc
import heapq
import random
import time
from typing import Dict, Generator, List, Tuple

#: Events one reference run pops.
EVENTS = 40_000
PROCESSES = 200
#: The checksum a correct reference run returns.
CHECKSUM = 19_750_195
#: Seconds the reference takes on the host ``norm_ops_per_s`` is scaled to
#: (about its median on a 2-core Xeon VM with Python 3.11).
NOMINAL_S = 0.1


class _Event:
    __slots__ = ("process", "value", "payload")

    def __init__(self, process: int, value: int, payload: Tuple[int, int]):
        self.process = process
        self.value = value
        self.payload = payload


def _process(key: int, state: Dict[int, int]) -> Generator[int, int, None]:
    total = 0
    while True:
        delay = yield total
        total = (total + delay) % 1000
        state[key] = state.get(key, 0) + total


def run() -> int:
    """One reference run; returns its checksum."""
    rng = random.Random(1)
    state: Dict[int, int] = {}
    processes = [_process(key, state) for key in range(PROCESSES)]
    for process in processes:
        next(process)
    queue: List[Tuple[float, int, _Event]] = []
    for key in range(PROCESSES):
        heapq.heappush(queue, (rng.random(), key, _Event(key, 0, (key, 0))))
    eid = PROCESSES
    for _ in range(EVENTS):
        now, _, event = heapq.heappop(queue)
        value = processes[event.process].send(int(now * 100) + event.value)
        nxt = _Event(event.payload[0], value % 7, (event.process, value))
        heapq.heappush(queue, (now + rng.expovariate(1.0), eid, nxt))
        eid += 1
    return sum(state.values()) + eid


def measure() -> float:
    """Seconds one reference run takes, with the collector paused.

    The collector is paused so that the size of the heap the program
    left behind does not change the reference's time.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        checksum = run()
        seconds = time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()
    if checksum != CHECKSUM:
        raise RuntimeError(f"reference checksum {checksum}, "
                           f"expected {CHECKSUM}")
    return seconds

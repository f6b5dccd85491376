"""A fixed reference pass that measures how fast the host runs right now.

On a shared host the same work can take 1.5x more CPU time in one minute
than in the next: another tenant on the sibling hyperthread or on the
shared cache slows every instruction without taking any CPU time away.
So a sim repetition times one reference pass after every
``EVERY_EVENTS`` events of its run phase, on the simulating thread, and
scales each stretch of the run phase by ``REFERENCE_S / (its pass's CPU
time)`` (``Calibrated``): CPU time at the speed at which one pass takes
``REFERENCE_S``.

The live run phase is not scaled: its nodes work in short bursts between
wall-clock timers, and their CPU did not follow the pass (in one slow
spell on a 2-core Xeon the pass took 47% longer, the nodes 10% more).

The reference pass is code of this benchmark only, so a change to the
program cannot move it. It mixes the kinds of work the simulator does
(object churn through a heap queue, dict lookups, interpreter
arithmetic, SHA-256), because no single kind is slowed by the same
factor as the simulator.

``python3 perfbench/calibrate.py`` prints the pass's CPU time over a few
seconds, to re-derive ``REFERENCE_S`` on another host.
"""

from __future__ import annotations

import hashlib
import heapq
import random
import statistics
import time

#: Events of a sim run phase between two reference passes.
EVERY_EVENTS = 2000
#: CPU seconds of one reference pass on an uncontended 2-core Xeon
#: (the low end of ``python3 perfbench/calibrate.py``). Normalised CPU is
#: CPU time at that speed.
REFERENCE_S = 0.004

_rng = random.Random(20261017)
#: About 1 MB: bigger than the L2 cache, small next to the workloads'
#: peak RSS.
_TABLE = {i: (i, i * 2654435761 & 0xFFFFFFFF) for i in range(8192)}
_KEYS = [_rng.randrange(8192) for _ in range(4096)]


class _Msg:
    __slots__ = ("t", "src", "dst", "payload")

    def __init__(self, t: float, src: int, dst: int, payload: bytes):
        self.t = t
        self.src = src
        self.dst = dst
        self.payload = payload


def _events(n: int = 500) -> int:
    """Object churn through a heap queue, as in the event kernel."""
    heap: list = []
    seen: set = set()
    acc = 0
    for i in range(n):
        k = _KEYS[i & 4095]
        msg = _Msg(i * 0.001 + (k & 7) * 0.01, k & 31, (k >> 5) & 31,
                   k.to_bytes(8, "little"))
        heapq.heappush(heap, (msg.t, i, msg))
        if len(heap) > 64:
            _, _, out = heapq.heappop(heap)
            digest = hashlib.sha256(out.payload).digest()
            if digest not in seen:
                seen.add(digest)
                acc += _TABLE[k][1] + len(seen)
            acc += (lambda m=out: m.src + m.dst)()
    return acc


def _lookups(n: int = 3000) -> int:
    """Scattered lookups in a dict of tuples."""
    acc = 0
    for i in range(n):
        entry = _TABLE[_KEYS[(i * 7919) & 4095] ^ (i & 4095)]
        acc += entry[0] + entry[1] % 7
        scratch = [acc, entry]
        scratch.append(i)
    return acc


def _arithmetic(n: int = 12000) -> int:
    """Interpreter dispatch on small integers."""
    a = 0
    for i in range(n):
        a = (a * 31 + i) & 0xFFFF
        if a & 1:
            a ^= i
    return a


def _hashing(n: int = 2000) -> bytes:
    """SHA-256 of short messages, as in the sim's crypto backend."""
    x = b"x" * 64
    for _ in range(n):
        x = hashlib.sha256(x).digest() * 2
    return x


def timed_pass() -> float:
    """CPU seconds of one fixed reference pass on the calling thread
    (about ``REFERENCE_S``)."""
    started = time.thread_time()
    _events()
    _lookups()
    _arithmetic()
    _hashing()
    return time.thread_time() - started


class Calibrated:
    """Wraps one ``Environment``'s ``run`` so the run phase is cut every
    ``EVERY_EVENTS`` events and a reference pass is timed at each cut.

    ``stretches`` collects ``(run-phase CPU s, reference-pass CPU s)``,
    both on the calling thread's CPU clock. Cutting only adds a stop check
    per event and re-enters ``run``; the simulation reads no wall clock,
    so its outputs do not change.
    """

    def __init__(self, env) -> None:
        self.env = env
        self.stretches: list[tuple[float, float]] = []
        self._run = env.run
        env.run = self.run

    def run(self, until=None, max_events=None, stop_when=None) -> None:
        env = self.env
        done = stop_when or (lambda: False)
        while True:
            mark = env.events_processed + EVERY_EVENTS
            started = time.thread_time()
            self._run(until=until, max_events=max_events,
                      stop_when=lambda: done()
                      or env.events_processed >= mark)
            cpu = time.thread_time() - started
            self.stretches.append((cpu, timed_pass()))
            if done() or env.events_processed < mark:
                return

    def cpu_s(self) -> float:
        """Run-phase CPU seconds as measured."""
        return sum(cpu for cpu, _ in self.stretches)

    def scaled_cpu_s(self) -> float:
        """Run-phase CPU seconds at the reference speed, stretch by
        stretch."""
        return sum(cpu * REFERENCE_S / ref for cpu, ref in self.stretches)


if __name__ == "__main__":
    times = []
    deadline = time.time() + 5.0
    while time.time() < deadline:
        times.append(timed_pass())
    q1, median, q3 = statistics.quantiles(times, n=4)
    print(f"{len(times)} passes: min {min(times) * 1e3:.3f} ms, "
          f"quartiles {q1 * 1e3:.3f} / {median * 1e3:.3f} / "
          f"{q3 * 1e3:.3f} ms")

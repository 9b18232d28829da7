"""Samples how fast a CPU runs pure Python while the benchmark measures.

On a shared virtual machine a core's speed flips between states for
seconds at a time (by up to 1.8x), which moves every timing of a run
together.  A sampler process pinned to one CPU wakes every ``PERIOD_S``
and times ``probe_loop``, a graph walk written like pmcover's own code
(adjacency lists, sets, edge bitmasks as Python ints) that does not call
pmcover; the benchmark scales each measured interval by how much slower
than ``REFERENCE_MS`` the loop ran on its CPUs around that interval.

Run as a script it is one sampler:

    python3 perfbench/speed_probe.py CPU

It prints ``ready``, samples until a line arrives on (or EOF reaches) its
standard input, then prints its samples as one JSON list of ``[start,
end, cpu_s]``: ``start`` and ``end`` are ``time.perf_counter()``
readings, of the system-wide monotonic clock on Linux, so the benchmark
can compare them with its own; ``cpu_s`` is the CPU time the loop took,
which leaves out any time the measured work held the CPU meanwhile.
"""

from __future__ import annotations

import bisect
import json
import os
import random
import select
import statistics
import subprocess
import sys
import time
from pathlib import Path

PERIOD_S = 0.025
# A short interval is scaled by the samples within this many seconds of it.
SMOOTH_S = 0.25
# About what probe_loop takes on a fast core of the 2-core VM the bounds
# were set on; any fixed value gives the same ratios between runs.
REFERENCE_MS = 1.2


def _probe_graph(n: int = 120, seed: int = 7) -> tuple[list, dict]:
    """A fixed random graph of maximum degree 3, and its edge indices."""
    rng = random.Random(seed)
    adj: list = [[] for _ in range(n)]
    edge_index: dict = {}
    while len(edge_index) < 3 * n:  # two keys per edge
        u, v = rng.randrange(n), rng.randrange(n)
        if u != v and len(adj[u]) < 3 and len(adj[v]) < 3 and v not in adj[u]:
            adj[u].append(v)
            adj[v].append(u)
            edge_index[u, v] = edge_index[v, u] = len(edge_index) // 2
    return adj, edge_index


_ADJ, _EDGE_INDEX = _probe_graph()


def probe_loop() -> int:
    """Depth-first walks of a fixed graph, gathering edge bitmasks."""
    acc = 0
    for root in range(0, 40, 4):
        seen, stack, mask, visited = {root}, [root], 0, 0
        while stack:
            u = stack.pop()
            visited += 1
            for w in _ADJ[u]:
                mask |= 1 << _EDGE_INDEX[u, w]
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        acc = ((acc ^ mask) >> 1) + bin(mask).count("1") + visited
    return acc


def sample(cpu: int) -> list:
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {cpu})
    samples = []
    print("ready", flush=True)
    while not select.select([sys.stdin], [], [], PERIOD_S)[0]:
        start, cpu = time.perf_counter(), time.thread_time()
        probe_loop()
        samples.append((start, time.perf_counter(), time.thread_time() - cpu))
    return samples


class SpeedProbe:
    """One sampler process per CPU the measured work runs on.

    ``scale(a, b)`` turns the interval [a, b] of ``time.perf_counter()``
    into reference seconds: the interval minus the samplers' own time in
    it, times the mean of REFERENCE_MS / (the sample's CPU time) over the
    samples taken in it or within SMOOTH_S of it, or else the samples
    nearest to it.  Use it as a context manager, so that the samplers stop
    on every way out.
    """

    def __init__(self, cpus: list) -> None:
        self.cpus = cpus
        self.procs: list = []
        self.samples: list = []

    def __enter__(self) -> "SpeedProbe":
        script = str(Path(__file__).resolve())
        for cpu in self.cpus:
            self.procs.append(subprocess.Popen(
                [sys.executable, script, str(cpu)],
                stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
            ))
        for proc in self.procs:
            if proc.stdout.readline().strip() != "ready":
                self.__exit__()
                raise RuntimeError("speed probe did not start")
        return self

    def stop(self) -> None:
        """Stop every sampler and collect its samples."""
        for proc in self.procs:
            try:
                out, _ = proc.communicate("stop\n", timeout=30)
            except (subprocess.TimeoutExpired, OSError):
                proc.kill()
                proc.communicate()
                continue
            if proc.returncode == 0 and out.strip():
                self.samples += [tuple(sample) for sample in json.loads(out)]
        self.procs = []
        self.samples.sort()

    def __exit__(self, *exc) -> None:
        for proc in self.procs:
            if proc.poll() is None:
                proc.kill()
            proc.communicate()
        self.procs = []

    def _between(self, a: float, b: float) -> list:
        lo = bisect.bisect_left(self.samples, (a,))
        hi = bisect.bisect_right(self.samples, (b, b, 0.0))
        return self.samples[lo:hi]

    def scale(self, a: float, b: float) -> float:
        if not self.samples:
            raise RuntimeError("speed probe took no samples")
        stolen = sum(cpu for _, e, cpu in self._between(a, b) if e <= b) / len(self.cpus)
        near = self._between(a - SMOOTH_S, b + SMOOTH_S)
        if not near:
            i = bisect.bisect_left(self.samples, (a,))
            near = self.samples[max(i - len(self.cpus), 0): i + len(self.cpus)]
        return max(b - a - stolen, 0.0) * self._speed(near)

    def mean_speed(self) -> float:
        """The speed over the whole run, as a share of the reference speed."""
        return self._speed(self.samples)

    @staticmethod
    def _speed(samples: list) -> float:
        return statistics.mean(REFERENCE_MS / 1000 / max(cpu, 1e-6) for _, _, cpu in samples)


if __name__ == "__main__":
    print(json.dumps(sample(int(sys.argv[1]))))

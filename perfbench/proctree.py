"""CPU time and memory of a whole process tree, read from ``/proc``.

Pool workers come from the forkserver, so they are grandchildren of the
process that owns the pool, and ``RUSAGE_CHILDREN`` never sees them
while the forkserver lives.  :class:`TreeSampler` walks the tree below
one root pid on a background thread and keeps, per pid, the last CPU
reading and the largest resident high-water mark it saw.  Linux only.
"""

from __future__ import annotations

import os
import threading
from typing import Dict, List, Optional

CLK_TCK = os.sysconf("SC_CLK_TCK")


def children(pid: int) -> List[int]:
    """Direct children of *pid* (every thread's ``children`` list)."""
    out: List[int] = []
    try:
        tids = os.listdir(f"/proc/{pid}/task")
    except OSError:
        return out
    for tid in tids:
        try:
            with open(f"/proc/{pid}/task/{tid}/children") as handle:
                out.extend(int(field) for field in handle.read().split())
        except OSError:
            continue
    return out


def tree(pid: int) -> List[int]:
    """*pid* and every live descendant, parents before children."""
    order, queue = [], [pid]
    while queue:
        current = queue.pop(0)
        order.append(current)
        queue.extend(children(current))
    return order


def self_cpu_seconds(pid: int) -> Optional[float]:
    """User + system CPU of *pid* itself (reaped children excluded)."""
    try:
        with open(f"/proc/{pid}/stat") as handle:
            text = handle.read()
    except OSError:
        return None
    fields = text[text.rindex(")") + 2:].split()
    return (int(fields[11]) + int(fields[12])) / CLK_TCK


def hwm_mb(pid: int) -> Optional[float]:
    """Peak resident set size of *pid* (``VmHWM``), in MiB."""
    try:
        with open(f"/proc/{pid}/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        return None
    return None


class TreeSampler:
    """Samples the tree below *root* every *interval* seconds.

    ``cpu_seconds(exclude=...)`` sums each pid's last self-CPU reading,
    so a process that exits keeps the CPU it had at its last sample;
    ``peak_rss_mb()`` sums each pid's largest ``VmHWM``, an upper bound
    of the tree's simultaneous peak (shared pages count once per
    process).  Use as a context manager; leaving it takes a final
    sample and joins the thread.
    """

    def __init__(self, root: int, interval: float = 0.02) -> None:
        self.root = root
        self.interval = interval
        self.cpu: Dict[int, float] = {}
        self.hwm: Dict[int, float] = {}
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, daemon=True)

    def sample(self) -> None:
        for pid in tree(self.root):
            cpu = self_cpu_seconds(pid)
            peak = hwm_mb(pid)
            if cpu is not None:
                self.cpu[pid] = cpu
            if peak is not None and peak > self.hwm.get(pid, 0.0):
                self.hwm[pid] = peak

    def _loop(self) -> None:
        while not self._stop.is_set():
            self.sample()
            self._stop.wait(self.interval)

    def __enter__(self) -> "TreeSampler":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()
        self.sample()

    def cpu_seconds(self, exclude: tuple = ()) -> float:
        return sum(v for pid, v in self.cpu.items() if pid not in exclude)

    def peak_rss_mb(self) -> float:
        return sum(self.hwm.values())


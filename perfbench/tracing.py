"""In-memory spans and counters for the traced benchmark run.

A span is ``(name, start, end, parent)`` on the shared monotonic clock;
spans of one workload iteration share a run id.  Nothing is written
while the workload runs: the spans travel home with the iteration's
result and are summarised at the end.  A layer's self time is its
span's duration minus what its child spans cover, so the self times of
a subtree plus the root's own self time (the unaccounted remainder)
add up to the root's duration exactly.
"""

from __future__ import annotations

import functools
import time
from contextlib import contextmanager
from typing import Dict, Iterator, List, Optional, Sequence


class Tracer:
    """Records nested spans when *enabled*; otherwise every call is a
    no-op that allocates nothing."""

    def __init__(self, enabled: bool, run_id: str = "") -> None:
        self.enabled = enabled
        self.run_id = run_id
        self.spans: List[list] = []  # [name, start, end, parent index]
        self.counters: Dict[str, float] = {}
        self._stack: List[int] = []

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        if not self.enabled:
            yield
            return
        parent = self._stack[-1] if self._stack else -1
        index = len(self.spans)
        self.spans.append([name, time.monotonic(), None, parent])
        self._stack.append(index)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[index][2] = time.monotonic()

    def count(self, name: str, value: float = 1) -> None:
        if self.enabled:
            self.counters[name] = self.counters.get(name, 0) + value

    def wrap(self, owner, attr: str, name: str) -> None:
        """Replace ``owner.attr`` with a version that runs in a span
        named *name* (traced runs only; the program is unchanged)."""
        if not self.enabled:
            return
        original = getattr(owner, attr)

        @functools.wraps(original)
        def traced(*args, **kwargs):
            with self.span(name):
                return original(*args, **kwargs)

        setattr(owner, attr, traced)

    def export(self) -> Dict[str, object]:
        return {"run_id": self.run_id, "spans": self.spans, "counters": self.counters}


def self_times(spans: Sequence[list], root: int) -> Dict[str, float]:
    """Self time by span name over the subtree under *root*; the root's
    own self time is reported under ``""`` (the unaccounted part)."""
    kids: Dict[int, List[int]] = {}
    for index, span in enumerate(spans):
        kids.setdefault(span[3], []).append(index)
    out: Dict[str, float] = {}
    stack = [root]
    while stack:
        index = stack.pop()
        name, start, end, _parent = spans[index]
        covered = sum(spans[k][2] - spans[k][1] for k in kids.get(index, ()))
        key = "" if index == root else name
        out[key] = out.get(key, 0.0) + (end - start) - covered
        stack.extend(kids.get(index, ()))
    return out


def find_root(spans: Sequence[list], name: str) -> Optional[int]:
    for index, span in enumerate(spans):
        if span[0] == name and span[3] == -1:
            return index
    return None

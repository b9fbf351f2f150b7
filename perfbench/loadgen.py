"""HTTP load against ``rootsim-serve`` over at most two keep-alive
connections.

Closed-loop load sends a fixed number of requests, each connection its
next one as soon as the last is answered: the time it takes is program
time, and its rate is the most two connections sustain.  Open-loop load
at a fixed rate sends request ``i`` at ``i / rate`` seconds after the
step starts whatever the server does, as independent users would.
Latency runs from each request's due time, so a stall also charges the
requests queued behind it, and the generator's own lateness is kept
apart.  The open-loop rates are fractions of the closed-loop rate the
same server just sustained, so each step loads the server to a known
share of its capacity on any machine.
"""

from __future__ import annotations

import http.client
import random
import threading
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

#: Open-loop rates as fractions of the measured closed-loop rate.
LOAD_FRACTIONS = (0.1, 0.25, 0.5)


@dataclass(frozen=True)
class Request:
    path: str
    headers: Tuple[Tuple[str, str], ...]
    status: int
    #: Key of the expected body (``None``: the body is not checked).
    expect: Optional[str]


@dataclass
class Step:
    latencies: List[float] = field(default_factory=list)  # from due time
    late: List[float] = field(default_factory=list)  # send time - due time
    failed: int = 0
    elapsed: float = 0.0

    @property
    def attempted(self) -> int:
        return len(self.latencies)

    @property
    def throughput(self) -> float:
        return self.attempted / self.elapsed if self.elapsed else 0.0


def request_mix(
    seed: int, entry: str, analyses: Sequence[str], figures: Sequence[str], etag: str, n: int
) -> List[Request]:
    """A skewed mix: Zipf-weighted analyses and figure groups (ranked in
    the given order), some conditional on the current ETag (answered
    304), a few to unknown routes (answered 404).  The shape is what the
    workload is about; the values (exponent 1.1, 15% conditional, 3%
    unknown) are chosen, not taken from a measured trace."""
    rng = random.Random(seed)
    name_w = [1.0 / (rank + 1) ** 1.1 for rank in range(len(analyses))]
    group_w = [1.0 / (rank + 1) ** 1.1 for rank in range(len(figures))]
    out: List[Request] = []
    for i in range(n):
        roll = rng.random()
        if roll < 0.03:
            out.append(Request(f"/datasets/{entry}/analyses/missing-{i % 7}", (), 404, None))
            continue
        if roll < 0.85:
            name = rng.choices(analyses, name_w)[0]
            path, key = f"/datasets/{entry}/analyses/{name}", f"analyses/{name}"
        else:
            group = rng.choices(figures, group_w)[0]
            path, key = f"/datasets/{entry}/figures/{group}", f"figures/{group}"
        if rng.random() < 0.15:
            out.append(Request(path, (("If-None-Match", etag),), 304, None))
        else:
            out.append(Request(path, (), 200, key))
    return out


def fetch(conn: http.client.HTTPConnection, request: Request) -> Tuple[int, bytes, Dict[str, str]]:
    conn.request("GET", request.path, headers=dict(request.headers))
    response = conn.getresponse()
    body = response.read()
    return response.status, body, dict(response.getheaders())


def run_step(
    port: int,
    mix: Sequence[Request],
    offset: int,
    total: int,
    rate: Optional[float],
    expected: Dict[str, bytes],
    connections: int = 2,
) -> Step:
    """Send *total* requests of *mix* (from *offset*), open-loop at
    *rate*, or closed-loop when *rate* is ``None``; check every answer
    against *expected*."""
    step = Step()
    lock = threading.Lock()
    cursor = [0]
    # open-loop threads get a moment to start before the first due time
    start = time.monotonic() + (0.01 if rate else 0.0)

    def worker() -> None:
        conn = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
        try:
            while True:
                with lock:
                    i = cursor[0]
                    cursor[0] += 1
                if i >= total:
                    return
                if rate is None:
                    due = time.monotonic()
                else:
                    due = start + i / rate
                    delay = due - time.monotonic()
                    if delay > 0:
                        time.sleep(delay)
                request = mix[(offset + i) % len(mix)]
                sent = time.monotonic()
                try:
                    status, body, _ = fetch(conn, request)
                    ok = status == request.status and (
                        request.expect is None or body == expected[request.expect]
                    )
                except (OSError, http.client.HTTPException):
                    conn.close()
                    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
                    ok = False
                done = time.monotonic()
                # list.append is atomic under the interpreter lock
                step.latencies.append(done - due if ok else float("inf"))
                step.late.append(sent - due)
                if not ok:
                    with lock:
                        step.failed += 1
        finally:
            conn.close()

    threads = [threading.Thread(target=worker) for _ in range(connections)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    step.elapsed = time.monotonic() - start
    return step

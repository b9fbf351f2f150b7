"""Subprocess target for the crash-injection harness.

Runs the tiny streamed campaign and — when told to — SIGKILLs itself at
a chunk boundary, right after the seal returns.  Dying *here* is the
worst honest crash the checkpoint protocol must survive: the chunk and
checkpoint are durable, every in-memory structure past them is lost.

Invoked by tests/integration/test_crash_resume.py as::

    python -m tests.integration._crash_child CKPT_DIR \
        --shards 2 [--workers N] \
        [--kill-after-chunk N] [--resume]
"""

from __future__ import annotations

import argparse
import os
import signal
import sys

from repro.core.streaming import run_streaming_campaign

from tests.streamutil import tiny_stream_config


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("checkpoint_dir")
    parser.add_argument("--shards", type=int, default=1)
    parser.add_argument("--workers", type=int, default=1)
    parser.add_argument("--checkpoint-every", type=int, default=2)
    parser.add_argument("--kill-after-chunk", type=int, default=-1)
    parser.add_argument("--resume", action="store_true")
    args = parser.parse_args(argv)

    config = tiny_stream_config(shards=args.shards, workers=args.workers)

    def maybe_kill(index, _chunk_dir, _lo, _hi):
        if index == args.kill_after_chunk:
            os.kill(os.getpid(), signal.SIGKILL)

    run = run_streaming_campaign(
        config,
        args.checkpoint_dir,
        checkpoint_every=args.checkpoint_every,
        resume=args.resume,
        after_chunk=maybe_kill,
    )
    return 0 if run.complete else 1


if __name__ == "__main__":
    sys.exit(main())

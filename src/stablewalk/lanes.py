"""Two lanes for work that splits into independent parts: the package's one thread runner.

A caller cuts its work into parts that never write the same element, each an
iterable whose every item is one step of that part, and run_lanes drives
them: the first part on the calling thread, a second on one helper thread.
Numpy's FFTs, matrix products, array kernels and random fills release the
GIL, so two lanes overlap on two CPUs.  A caller asks two_lanes first, with
the elements each lane would carry per step, and otherwise runs all its work
as one part, in the same loop.  run_kernel steps its row groups this way,
the Monte Carlo estimators their streams, and the Fourier oracle its tau
blocks, the last two dealt round-robin by alternate; each keeps every number
bit for bit as on one lane.
"""
from __future__ import annotations

import os
import threading

_LANE_FLOOR = 10_000  # elements per step each of two lanes must carry


def _cpus() -> int:
    """The CPUs this process may run on."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


def two_lanes(loads) -> bool:
    """Whether to run two lanes that carry loads[0] and loads[1] elements per step.

    Only with more than one CPU, and only if each lane carries at least
    _LANE_FLOOR: below it the threads lose more to the GIL than they gain.
    """
    return _cpus() > 1 and min(loads) >= _LANE_FLOOR


def alternate(parts, load) -> list:
    """Parts k, k + 2, ... as lane k when two_lanes passes each lane's smallest part by load(part), else all parts as one lane."""
    split = [parts[k::2] for k in range(2)]
    return split if two_lanes([min(map(load, lane), default=0) for lane in split]) else [parts]


def run_lanes(lanes: list) -> None:
    """Run one or two lanes to their end, each an iterable of steps: the first on this thread, a second on a helper.

    The helper is joined before this returns, and an exception in either
    lane stops the other at its next step and is raised here.
    """
    failed = []

    def run(lane):
        try:
            for _ in lane:
                if failed:
                    return
        except BaseException as exc:  # handed to the calling thread, which raises it
            failed.append(exc)

    helper = threading.Thread(target=run, args=(lanes[1],)) if len(lanes) > 1 else None
    if helper is not None:
        helper.start()
    try:
        run(lanes[0])
    finally:
        if helper is not None:
            helper.join()
    if failed:
        raise failed[0]

"""Work split into contiguous shares, one per CPU: the first share runs
in this process and each other in a forked worker.

A worker inherits the caller's state (closures included, nothing is
pickled on the way in) and sends its result back through a pipe: a small
pickled value and the shapes of its arrays, then the arrays' raw bytes,
which the parent reads into place.  So a result holds the bits a share
run in this process would have given.
"""

from __future__ import annotations

import os
import pickle
import signal
import struct
from typing import Callable, Sequence

import numpy as np


def cpus() -> int:
    """The CPUs this process may run on, capped by ``CML_LAB_THREADS``
    when it is set."""
    if hasattr(os, "sched_getaffinity"):
        cap = len(os.sched_getaffinity(0))
    else:
        cap = os.cpu_count() or 1
    threads = os.environ.get("CML_LAB_THREADS", "")
    if threads.isdigit() and int(threads) > 0:
        cap = min(cap, int(threads))
    return cap


def share_count(most: int) -> int:
    """How many shares to split work into: the fewest of :func:`cpus` and
    ``most``, and at least one; always one without ``os.fork``."""
    if not hasattr(os, "fork"):
        return 1
    return max(1, min(cpus(), most))


def split(size: int, count: int) -> list[range]:
    """range(size) cut into ``count`` contiguous shares of near-equal
    length, in order."""
    bounds = [size * i // count for i in range(count + 1)]
    return [range(lo, hi) for lo, hi in zip(bounds, bounds[1:])]


# What a worker sends first: whether it failed, then the length of its
# pickled (value, array shapes) or of its pickled exception.
_HEADER = struct.Struct("<?q")


def run_shares(
    shares: Sequence[range], work: Callable, what: str,
    into: Callable | None = None,
) -> list:
    """``work(share)``, a (value, arrays) pair, for every share, in share
    order: the first in this process, each other in a forked worker.

    A worker's arrays are read into ``into(share)``, a list of arrays of
    the same shapes and types, when given, and into new arrays otherwise.
    The first worker exception is re-raised; a worker that exits without
    a result raises ``RuntimeError`` naming ``what`` and its share.  Every
    worker is reaped before this returns or raises; one whose result is
    no longer wanted is killed first.  A worker holds only the thread
    that forked it, so no other thread may be running when this is called
    (the helper thread of a split solve ends with the solve).
    """
    if len(shares) == 1:
        return [work(shares[0])]
    workers = []
    collected = False
    try:
        for share in shares[1:]:
            read, write = os.pipe()
            pid = os.fork()
            if pid == 0:
                os.close(read)
                _serve(write, work, share)
            os.close(write)
            workers.append((pid, os.fdopen(read, "rb")))
        results = [work(shares[0])]
        for (_, pipe), share in zip(workers, shares[1:]):
            results.append(_receive(pipe, share, what, into))
        collected = True
        return results
    finally:
        for pid, pipe in workers:
            pipe.close()
            if not collected:
                os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)


def _serve(write: int, work: Callable, share: range):
    """The forked worker: run one share, send its value, shapes and array
    bytes (or the pickled exception) and leave at once, with no cleanup of
    the parent's state (``os._exit``)."""
    status = 1
    try:
        with os.fdopen(write, "wb") as pipe:
            try:
                value, arrays = work(share)
                meta = pickle.dumps((value, [(a.dtype.str, a.shape) for a in arrays]))
            except BaseException as exc:  # interrupts too: the parent re-raises it
                try:
                    payload = pickle.dumps(exc)
                except Exception:
                    payload = pickle.dumps(RuntimeError(repr(exc)))
                pipe.write(_HEADER.pack(True, len(payload)) + payload)
            else:
                pipe.write(_HEADER.pack(False, len(meta)) + meta)
                for a in arrays:
                    pipe.write(_bytes_of(a))
        status = 0
    finally:
        os._exit(status)


def _receive(pipe, share: range, what: str, into: Callable | None):
    """Read one worker's reply: its (value, arrays), or raise its
    exception."""
    header = pipe.read(_HEADER.size)
    if len(header) == _HEADER.size:
        failed, size = _HEADER.unpack(header)
        payload = pipe.read(size)
        if len(payload) == size:
            if failed:
                raise pickle.loads(payload)
            value, shapes = pickle.loads(payload)
            if into is None:
                arrays = [np.empty(shape, dtype) for dtype, shape in shapes]
            else:
                arrays = into(share)
            if [(a.dtype.str, a.shape) for a in arrays] == shapes and all(
                pipe.readinto(_bytes_of(a)) == a.nbytes for a in arrays
            ):
                return value, arrays
    raise RuntimeError(f"{what} {share.start}-{share.stop - 1} exited without a result")


def _bytes_of(a: np.ndarray) -> memoryview:
    """The bytes of a C-contiguous array, without a copy."""
    return memoryview(a).cast("B")

"""Runs a window as one task per worker.  A task, called on the window's
buffer and a release callable, sweeps, calls release whenever it is done
with the pages it has touched so far, and returns the step that
aggregates, which runs once every task has swept.  One task runs
in-process on a private buffer; more run, and must pickle, on a cached
pool of forked workers that share a memfd arena and wait at a barrier."""
from __future__ import annotations

import ctypes
import mmap
import multiprocessing as mp
import os
import threading
from functools import partial

import numpy as np

# Each pool is forked with its own shared-memory arena, a memfd, and a
# barrier over its workers, which the entry keeps alive with the pool.
# A worker maps the arena at its first window and keeps the mapping; it
# writes each window into it and returns nothing, so no volume is pickled.
# The parent never maps it: it reads the few arrays it needs from the fd,
# so none of the volumes' pages count against it.
_POOLS: dict[int, tuple] = {}      # workers -> (pool, arena fd, barrier)
_POOL_LOCK = threading.Lock()
_worker_fd: int | None = None
_worker_arena: mmap.mmap | None = None
_worker_barrier = None
# A window whose arrays take at least this many bytes has each worker drop
# its mapping of them whenever its task releases them.  Below it the pages
# saved are few (0.1 MiB per worker for a 64x64 sensor at 32 hypotheses)
# and faulting them back in costs more.
_DROP_BYTES = 8 << 20
# Each freed mmapped chunk of up to 32 MiB raises glibc malloc's mmap
# threshold to its size, and its trim threshold to twice that, so a
# process that has freed large arrays keeps later buffers on the heap.
# Workers forked before the event stream loads start from the defaults,
# under which the sweep's per-hypothesis buffers (1.3 MB for a 240x180
# warp) are unmapped or trimmed after every hypothesis and faulted back
# in; pinned thresholds, which also stop the raising, keep them resident.
_MMAP_THRESHOLD = 16 << 20
_TRIM_THRESHOLD = 32 << 20
# How often the parent, waiting for a window, checks that none of the
# pool's workers has died; a dead worker's task would never return.
_LIVENESS_S = 0.1


def _attach(fd: int, barrier) -> None:
    """Pool initializer: keep the arena's fd, inherited at the fork, and
    the barrier, and pin malloc's thresholds where libc has ``mallopt``.
    Nothing here may fail: the pool would respawn a worker whose
    initializer raises, and each would print its traceback."""
    global _worker_fd, _worker_barrier
    _worker_fd, _worker_barrier = fd, barrier
    mallopt = getattr(ctypes.CDLL(None), "mallopt", None)
    if mallopt is not None:
        mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
        mallopt.restype = ctypes.c_int
        mallopt(-3, _MMAP_THRESHOLD)         # M_MMAP_THRESHOLD
        mallopt(-1, _TRIM_THRESHOLD)         # M_TRIM_THRESHOLD


def _drop_mapping(arena: mmap.mmap, nbytes: int) -> None:
    """Drop this process's page table entries for a window of ``nbytes`` in
    ``arena`` if it is large.  On this shared mapping the data stays."""
    if nbytes >= _DROP_BYTES:
        arena.madvise(mmap.MADV_DONTNEED)


def _map_arena(fd: int) -> mmap.mmap:
    """Map the whole arena ``fd``; a failed map is a ``MemoryError``."""
    try:
        return mmap.mmap(fd, 0)
    except OSError as exc:
        raise MemoryError(f"cannot map the {os.fstat(fd).st_size}-byte "
                          f"window arena: {exc}") from exc


def _window_task(task) -> None:
    """Worker side: sweep by calling the task on the arena, mapped at the
    worker's first window, and a release of its mapping; then, once every
    worker has swept, call the aggregate step it returned.  A worker whose
    map or sweep fails breaks the barrier, so none waits for it, and only
    its error reaches the parent."""
    global _worker_arena
    sweep, nbytes = task
    try:
        if _worker_arena is None:
            _worker_arena = _map_arena(_worker_fd)
        aggregate = sweep(_worker_arena,
                          partial(_drop_mapping, _worker_arena, nbytes))
    except BaseException:
        _worker_barrier.abort()
        raise
    try:
        _worker_barrier.wait()
    except threading.BrokenBarrierError:
        return
    aggregate()


def _get_pool(workers: int, nbytes: int):
    """The cached pool of ``workers`` processes with its arena of at least
    ``nbytes`` and its barrier; a smaller arena is replaced with its pool.
    Fork keeps start-up cheap and hands the arena's fd to the workers."""
    entry = _POOLS.get(workers)
    if entry is not None and os.fstat(entry[1]).st_size < nbytes:
        _close_pool(*_POOLS.pop(workers))
        entry = None
    if entry is None:
        ctx = mp.get_context("fork")
        fd = os.memfd_create("evdepth-arena")
        try:
            os.ftruncate(fd, nbytes)
            barrier = ctx.Barrier(workers)
            pool = ctx.Pool(processes=workers, initializer=_attach,
                            initargs=(fd, barrier))
        except BaseException:
            os.close(fd)
            raise
        entry = _POOLS[workers] = (pool, fd, barrier)
    return entry


def fork_pool(workers: int, nbytes: int) -> None:
    """Fork the cached pool of ``workers`` processes with an arena of at
    least ``nbytes`` now, rather than at its first window, so that the
    workers hold none of what the parent allocates afterwards."""
    with _POOL_LOCK:
        _get_pool(workers, nbytes)


def _close_pool(pool, fd, _barrier) -> None:
    try:
        pool.terminate()
        pool.join()
    finally:
        os.close(fd)


def _read_buffer(buffer: memoryview, views, offset: int) -> int:
    """``os.preadv`` from ``buffer`` in place of a file: fill the byte
    memoryviews ``views`` in turn from byte ``offset`` on, and return the
    bytes copied."""
    got = 0
    for view in views:
        chunk = buffer[offset + got:offset + got + len(view)]
        view[:len(chunk)] = chunk
        got += len(chunk)
    return got


def run_window(nbytes: int, tasks, read):
    """Run one window of ``nbytes``, one of ``tasks`` per worker: one task
    in-process, more on the cached pool.  Returns ``read(readv)``, where
    ``readv(views, offset)`` fills byte memoryviews from the window's bytes
    as ``os.preadv`` does.  A failed pool run, or one during which a worker
    dies, closes the pool, so the next call forks a fresh pool and barrier."""
    if len(tasks) == 1:
        # releasing private memory would zero it, so release does nothing
        buffer = memoryview(np.empty(nbytes, np.uint8))
        tasks[0](buffer, lambda: None)()
        return read(partial(_read_buffer, buffer))
    workers = len(tasks)
    with _POOL_LOCK:
        pool, fd, _ = _get_pool(workers, nbytes)
        try:
            # the pool replaces a dead worker within about 0.1 s, so its
            # workers are taken before any can die in this window
            procs = list(pool._pool)
            result = pool.map_async(_window_task,
                                    [(t, nbytes) for t in tasks], chunksize=1)
            while not result.ready():
                result.wait(_LIVENESS_S)
                dead = [p for p in procs if p.exitcode is not None]
                if dead and not result.ready():
                    raise ChildProcessError(
                        f"pool worker {dead[0].pid} exited with code "
                        f"{dead[0].exitcode} during a window")
            result.get()
        except BaseException:
            _close_pool(*_POOLS.pop(workers))
            raise
        return read(partial(os.preadv, fd))


def shutdown_pools() -> None:
    """Stop every cached worker pool and release its arena."""
    with _POOL_LOCK:
        for entry in _POOLS.values():
            _close_pool(*entry)
        _POOLS.clear()

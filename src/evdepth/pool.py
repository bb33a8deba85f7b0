"""Runs a window as one task per worker.  A task, called on the window's
buffer, a release callable and a populate callable, sweeps, calls release
whenever it is done with the pages it has touched so far, and returns the
step that aggregates, which runs once every task has swept.  Populate,
called on a view of the buffer before the step first reads it, maps the
view's pages and no others.  One task runs in-process on a private
buffer, where both callables do nothing; more run, and must pickle, on a
cached pool of forked workers that share a memfd arena and wait at a
barrier."""
from __future__ import annotations

import atexit
import ctypes
import mmap
import multiprocessing as mp
import os
import threading
from functools import cache, partial

import numpy as np

# Each pool is forked with its own shared-memory arena, a memfd, and a
# barrier over its workers, which the entry keeps alive with the pool.
# The parent maps the arena once, before the fork, and never touches the
# mapping; the workers inherit it.  A worker writes each window into it and
# returns nothing, so no volume is pickled.  The parent reads the few arrays
# it needs from the fd, so no volume's pages count against it.
_POOLS: dict[int, tuple] = {}   # workers -> (pool, arena fd, barrier, arena)
_POOL_LOCK = threading.Lock()
_worker_arena: mmap.mmap | None = None
_worker_barrier = None
# A worker whose arena takes at least this many bytes drops its mapping of
# it whenever its task releases it, and maps only what its task populates.
# Below it the pages saved are few (0.1 MiB per worker for a 64x64 sensor
# at 32 hypotheses) and faulting them back in costs more.
_DROP_BYTES = 8 << 20
# madvise's advice to fault pages in writable, as a write would, without
# changing their data (Linux 5.14).  A read fault on the arena also maps,
# by the kernel's fault-around, up to 64 KiB of the pages around it.
_MADV_POPULATE_WRITE = 23
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


@cache
def _libc() -> ctypes.CDLL:
    """This process's C library, loaded at its first use."""
    return ctypes.CDLL(None)


def _attach(arena: mmap.mmap, barrier) -> None:
    """Pool initializer: keep the arena's mapping, inherited at the fork,
    and the barrier, and pin malloc's thresholds where libc has
    ``mallopt``.  Nothing here may fail: the pool would respawn a worker
    whose initializer raises, and each would print its traceback."""
    global _worker_arena, _worker_barrier
    _worker_arena, _worker_barrier = arena, barrier
    mallopt = getattr(_libc(), "mallopt", None)
    if mallopt is not None:
        mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
        mallopt.restype = ctypes.c_int
        mallopt(-3, _MMAP_THRESHOLD)         # M_MMAP_THRESHOLD
        mallopt(-1, _TRIM_THRESHOLD)         # M_TRIM_THRESHOLD


def _drop_mapping(arena: mmap.mmap) -> None:
    """Drop this process's page table entries for ``arena`` if it is large.
    On this shared mapping the data stays."""
    if len(arena) >= _DROP_BYTES:
        arena.madvise(mmap.MADV_DONTNEED)


def _madvise(address: int, length: int, advice: int) -> int:
    """libc's ``madvise``: 0, or -1 where it fails."""
    return _libc().madvise(ctypes.c_void_p(address), ctypes.c_size_t(length),
                           advice)


def _populate(arena: mmap.mmap, view: np.ndarray) -> None:
    """Map, writable, the pages that hold each slice ``view[i]`` of
    ``view``, an array over ``arena`` whose slices are each contiguous, and
    no other page, if the arena is large; their data stays.  Where the
    kernel rejects the advice (before Linux 5.14), the pages fault in as
    they are read."""
    if len(arena) < _DROP_BYTES:
        return
    base, size = view.ctypes.data, view[0].nbytes
    for i in range(len(view)):
        start = base + i * view.strides[0]
        first = start - start % mmap.PAGESIZE
        if _madvise(first, start + size - first, _MADV_POPULATE_WRITE):
            return


def _map_arena(fd: int, nbytes: int) -> mmap.mmap:
    """Map ``nbytes`` of the arena ``fd``, or of fresh memory for fd -1; a
    failed map is a ``MemoryError``."""
    try:
        return mmap.mmap(fd, nbytes)
    except OSError as exc:
        raise MemoryError(f"cannot map the {nbytes}-byte window arena: "
                          f"{exc}") from exc


def _window_task(sweep) -> None:
    """Worker side: sweep by calling the task on the arena, a release of
    its mapping and a populate of its pages; then, once every worker has
    swept, call the aggregate step it returned.  A worker whose sweep fails
    breaks the barrier, so none waits for it, and only its error reaches
    the parent."""
    try:
        aggregate = sweep(_worker_arena, partial(_drop_mapping, _worker_arena),
                          partial(_populate, _worker_arena))
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
    A new arena is mapped in the parent, so one that can never be mapped
    forks nothing.  Fork keeps start-up cheap and hands the mapping to the
    workers in memory, unpickled."""
    entry = _POOLS.get(workers)
    if entry is not None and os.fstat(entry[1]).st_size < nbytes:
        _close_pool(*_POOLS.pop(workers))
        entry = None
    if entry is None:
        ctx = mp.get_context("fork")
        fd = os.memfd_create("evdepth-arena")
        arena = None
        try:
            os.ftruncate(fd, nbytes)
            arena = _map_arena(fd, nbytes)
            barrier = ctx.Barrier(workers)
            pool = ctx.Pool(processes=workers, initializer=_attach,
                            initargs=(arena, barrier))
        except BaseException:
            if arena is not None:
                arena.close()
            os.close(fd)
            raise
        entry = _POOLS[workers] = (pool, fd, barrier, arena)
    return entry


def fork_pool(workers: int, nbytes: int) -> None:
    """Fork the cached pool of ``workers`` processes with an arena of at
    least ``nbytes`` now, rather than at its first window, so that the
    workers hold none of what the parent allocates afterwards.  One worker
    runs in-process and forks nothing: a map of ``nbytes`` of fresh
    memory, unmapped at once, only checks that its window can be held."""
    if workers == 1:
        _map_arena(-1, nbytes).close()
        return
    with _POOL_LOCK:
        _get_pool(workers, nbytes)


def _close_pool(pool, fd, _barrier, arena) -> None:
    try:
        pool.terminate()
        pool.join()
    finally:
        arena.close()
        os.close(fd)


def _read_buffer(buffer: memoryview, view: memoryview, offset: int) -> int:
    """Fill the byte memoryview ``view`` from ``buffer`` at byte ``offset``,
    as a read of a file would, and return the bytes copied."""
    chunk = buffer[offset:offset + len(view)]
    view[:len(chunk)] = chunk
    return len(chunk)


def run_window(nbytes: int, tasks, read):
    """Run one window of ``nbytes``, one of ``tasks`` per worker: one task
    in-process, more on the cached pool.  Returns ``read(readv)``, where
    ``readv(view, offset)`` fills a byte memoryview from the window's bytes
    at ``offset`` and returns the bytes read.  A failed pool run, or one
    during which a worker dies, closes the pool, so the next call forks a
    fresh pool and barrier."""
    if len(tasks) == 1:
        # releasing private memory would zero it, so release does nothing,
        # and so does populate, as the process keeps every page it maps
        buffer = memoryview(np.empty(nbytes, np.uint8))
        tasks[0](buffer, lambda: None, lambda view: None)()
        return read(partial(_read_buffer, buffer))
    workers = len(tasks)
    with _POOL_LOCK:
        pool, fd, _, _ = _get_pool(workers, nbytes)
        try:
            # the pool replaces a dead worker within about 0.1 s, so its
            # workers are taken before any can die in this window
            procs = list(pool._pool)
            result = pool.map_async(_window_task, tasks, chunksize=1)
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
        return read(lambda view, offset: os.preadv(fd, [view], offset))


def shutdown_pools() -> None:
    """Stop every cached worker pool and release its arena."""
    with _POOL_LOCK:
        for entry in _POOLS.values():
            _close_pool(*entry)
        _POOLS.clear()


# Forked workers leave through os._exit, so this runs only in the parent.
atexit.register(shutdown_pools)

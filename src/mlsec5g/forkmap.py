"""Forked workers: one ordered fork map, one lockstep helper, and the BLAS
thread count they run beside.

`fork_map(fn, items)` returns fn(item) for every item, in item order. With
two or more items, two or more usable CPUs and no other Python thread alive,
the items run in forked worker processes, one per usable CPU: worker k of w
takes every w-th item from item k on. A worker inherits `fn`, with whatever
data it closes over, by the fork itself, and sends back only results, which
the caller reads in item order. Reading here rather than in a pool's helper
threads keeps the caller's memory peak down. So when fn(item) depends only on
the item and the state at the fork, the results have the same bits for any
worker count.

Otherwise the items run here, one after another: forking beside other
threads could deadlock, and nothing forks where `os.fork` is missing. A
worker never forks again: a `fork_map` it calls, say through a forest fit,
runs its items in the worker itself.
"""

from __future__ import annotations

import mmap
import os
import threading
from contextlib import contextmanager
from functools import cache

_workers = None  # worker processes when forking; None: the usable CPUs, 0: never fork
_SPINS = 5000  # polls of a semaphore before a lockstep wait blocks
_PATIENCE = 0.05  # seconds a blocking lockstep wait lasts before it checks the other side


def usable_cpus() -> int:
    """CPUs this process may run on, as `nproc` counts them."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


@cache  # once per verb and process: numpy's OpenBLAS stays once loaded, workers inherit it
def _openblas(verb: str):
    """The `verb`_num_threads function (get or set) of the OpenBLAS that numpy
    loaded; None where no OpenBLAS shows in /proc/self/maps or it lacks one."""
    import ctypes

    import numpy  # noqa: F401 - the library is mapped before the one lookup reads the maps
    try:
        with open("/proc/self/maps") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    except OSError:
        return None
    for path in libs:
        try:
            lib = ctypes.CDLL(path)  # the loaded library, not a second copy
        except OSError:
            continue
        for symbol in (f"scipy_openblas_{verb}_num_threads64_",
                       f"openblas_{verb}_num_threads64_", f"openblas_{verb}_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.argtypes, fn.restype = (([], ctypes.c_int) if verb == "get"
                                           else ([ctypes.c_int], None))
                return fn
    return None


def blas_threads() -> int | None:
    """Thread count of the OpenBLAS that numpy loaded, asked of the library;
    None where no OpenBLAS shows in /proc/self/maps."""
    get = _openblas("get")
    return None if get is None else int(get())


@contextmanager
def one_blas_thread():
    """Run the block on a one-thread OpenBLAS, then give the caller back its
    count, also when the block raises. Forked workers inherit the one thread.
    Where numpy's OpenBLAS has no thread setter, nothing changes."""
    get, put = _openblas("get"), _openblas("set")
    if get is None or put is None:
        yield
        return
    saved = get()
    put(1)
    try:
        yield
    finally:
        put(saved)


def may_fork() -> bool:
    """Whether this process may fork workers: `os.fork` exists, no other
    Python thread is alive, it is not itself a worker, and it has a second
    usable CPU (or `_workers` forces a count)."""
    if _workers == 0 or threading.active_count() > 1 or not hasattr(os, "fork"):
        return False
    return _workers is not None or usable_cpus() > 1


def _fork_workers(n_items: int) -> int:
    """Worker processes for n_items; 0 runs them here."""
    if n_items < 2 or not may_fork():
        return 0
    return min(_workers or usable_cpus(), n_items)


def _serve(fn, items, send) -> None:
    """A forked worker: send (True, fn(item)) for each item in turn, or
    (False, exception) once one fails."""
    global _workers
    _workers = 0  # a nested fork_map runs here: workers are daemons and may not fork
    try:
        for item in items:
            send.send((True, fn(item)))
    except BaseException as exc:
        send.send((False, exc))
    finally:
        send.close()


def fork_map(fn, items) -> list:
    """[fn(item) for item in items], across forked workers where that can pay.

    An exception raised by fn in a worker is raised here; a worker that dies
    without sending a result raises RuntimeError. Either way every worker is
    stopped and joined before this returns.
    """
    items = list(items)
    workers = _fork_workers(len(items))
    if not workers:
        return [fn(item) for item in items]
    import multiprocessing  # here, so that importing the package does not load it
    ctx = multiprocessing.get_context("fork")
    procs = []
    try:
        for k in range(workers):
            recv, send = ctx.Pipe(duplex=False)
            with send:  # closed here, the worker holds the only write end: its exit reads as EOF
                proc = ctx.Process(target=_serve, args=(fn, items[k::workers], send),
                                   daemon=True)
                proc.start()
            procs.append((proc, recv))
        results = []
        for i, item in enumerate(items):
            try:
                ok, result = procs[i % workers][1].recv()
            except EOFError:
                raise RuntimeError(
                    f"forked worker exited before sending the result for {item!r}") from None
            if not ok:
                raise result
            results.append(result)
        return results
    except BaseException:
        for proc, _ in procs:
            proc.terminate()
        raise
    finally:
        for proc, recv in procs:
            recv.close()
            proc.join()


def _acquire(sem, alive) -> bool:
    """Acquire sem: poll it, since a lockstep round is short, then block in
    timed waits; False once alive() reads false and sem is still taken."""
    for _ in range(_SPINS):
        if sem.acquire(False):
            return True
        os.sched_yield()  # the other side may share this CPU: a pure spin would starve it
    while not sem.acquire(timeout=_PATIENCE):
        if not alive():
            return sem.acquire(False)
    return True


class Lockstep:
    """One forked helper that works in lockstep with the caller.

    A round is `post(task)`, the caller's own share, then `wait()`; the
    helper runs fn(task) in between. Whatever fn writes must live in memory
    shared before the fork (`mmap.mmap(-1, size)`), and the two sides must
    write disjoint parts of it in one round. Each round starts and ends at a
    semaphore, whose release and acquire order the memory writes on either
    side. An exception raised by fn is raised by `wait`; a helper that dies
    raises RuntimeError there. Leaving the `with` block stops the helper,
    terminating it after an error, and joins it. A helper whose caller died
    exits at its next blocking wait.
    """

    def __init__(self, fn):
        import multiprocessing  # here, so that importing the package does not load it
        ctx = multiprocessing.get_context("fork")
        self._go, self._done = ctx.Semaphore(0), ctx.Semaphore(0)
        self._ctl = memoryview(mmap.mmap(-1, 16)).cast("q")  # task, then failed
        self._recv, send = ctx.Pipe(duplex=False)
        with send:  # closed here, the helper holds the only write end
            self._proc = ctx.Process(target=self._serve, args=(fn, send, os.getpid()),
                                     daemon=True)
            self._proc.start()

    def _serve(self, fn, send, caller: int) -> None:
        global _workers
        _workers = 0  # like a fork_map worker, the helper never forks
        try:
            while _acquire(self._go, lambda: os.getppid() == caller):
                if self._ctl[0] < 0:
                    return
                fn(self._ctl[0])
                self._done.release()
        except BaseException as exc:
            self._ctl[1] = 1
            self._done.release()  # before the send, which blocks until wait() reads it
            send.send(exc)
        finally:
            send.close()

    def post(self, task: int) -> None:
        """Start a round: the helper runs fn(task)."""
        self._ctl[0] = task
        self._go.release()

    def wait(self) -> None:
        """End a round: return once the helper's fn(task) is done."""
        if not _acquire(self._done, self._proc.is_alive):
            raise RuntimeError(
                f"forked helper exited with code {self._proc.exitcode} mid-round")
        if self._ctl[1]:
            try:
                exc = self._recv.recv()
            except EOFError:
                raise RuntimeError("forked helper failed without sending its exception") from None
            raise exc

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        try:
            if exc_type is None:
                self.post(-1)
            else:
                self._proc.terminate()
        finally:
            self._proc.join()
            self._recv.close()

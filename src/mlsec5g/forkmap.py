"""One ordered fork map, for work that splits into independent items.

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

import os
import threading

_workers = None  # worker processes when forking; None: the usable CPUs, 0: never fork


def usable_cpus() -> int:
    """CPUs this process may run on, as `nproc` counts them."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _fork_workers(n_items: int) -> int:
    """Worker processes for n_items; 0 runs them here."""
    if n_items < 2 or threading.active_count() > 1 or not hasattr(os, "fork"):
        return 0
    if _workers is not None:
        return min(_workers, n_items)
    cpus = usable_cpus()
    return min(cpus, n_items) if cpus > 1 else 0


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

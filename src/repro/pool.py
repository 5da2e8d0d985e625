"""The one process pool in ``src/``: an ordered, lazily fed map.

:func:`ordered_map` is what every fan-out in the package goes through —
the scenario :class:`~repro.scenarios.runner.Runner`'s seed sweeps,
:func:`~repro.scenarios.runner.map_seeds`, and the kernel fuzz campaign
walk (:func:`repro.faults.campaign.run_campaign`).  It yields
``fn(item)`` **in item order** whatever order the workers finish in, so
a caller's output is the same for every job count, and it pulls items
from the caller only as a small in-flight window drains, so a caller
that stops consuming (a kill) or stops yielding (a wall-clock budget)
cuts the walk instead of paying for all of it.

The pool is skipped — the loop runs in this process — whenever there is
nothing to win (:func:`plan_workers`): one CPU available to the process,
already inside a pool worker, fewer items than repay start-up, or a
function pickle cannot send.  A pool that cannot be built or breaks
mid-walk (sandboxed interpreters, a killed worker) degrades to the same
in-process loop for whatever is still owed; the results are identical
either way, only the wall clock differs.
"""

from __future__ import annotations

import os
import pickle
import sys
from collections import deque
from typing import Callable, Deque, Iterable, Iterator, Optional, TypeVar

Item = TypeVar("Item")
Result = TypeVar("Result")

# ``multiprocessing`` and ``concurrent.futures.process`` are imported
# where a pool is actually built: together they cost ≈20 ms, which a
# program that never fans out (or decides here not to) should not pay
# at start-up.

#: Items in flight per worker.  One running plus one queued keeps a
#: worker busy while the parent hands an earlier result to its caller,
#: and bounds what a cut walk computes in vain at one window.
WINDOW_PER_WORKER = 2


def available_cpus() -> int:
    """CPUs this process may run on (its affinity mask, not the box's count)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # platforms without affinity masks
        return os.cpu_count() or 1


def plan_workers(
    jobs: Optional[int], size: Optional[int] = None, *, min_items: int = 2
) -> int:
    """Worker processes :func:`ordered_map` would use; 1 means in-process.

    ``jobs=None`` asks for every available CPU.  ``size`` is the item
    count when known.  ``min_items`` is the caller's measured cut-over:
    below it the items are too cheap, in total, to repay starting a pool
    (the default 2 suits items that take seconds, such as scenario
    seeds).
    """
    if _inside_pool_worker():
        return 1  # its parent already owns the CPUs
    if size is not None and size < max(2, min_items):
        return 1
    cpus = available_cpus()
    workers = min(cpus, cpus if jobs is None else jobs)
    if size is not None:
        workers = min(workers, size)
    return max(1, workers)


def _inside_pool_worker() -> bool:
    """True in a process that some pool started.

    Workers are started by :mod:`multiprocessing` (forked ones inherit
    it loaded, spawned ones import it to boot), so a process that has not
    imported it cannot be one.
    """
    multiprocessing = sys.modules.get("multiprocessing")
    return multiprocessing is not None and multiprocessing.parent_process() is not None


def _fork_context():
    """Fork where the platform has it: workers inherit the imported package.

    A forked pool of two starts in ≈11 ms here; a spawned worker would
    first re-import :mod:`repro` (≈0.27 s), which a two-second campaign
    cannot repay.  ``ProcessPoolExecutor`` forks all its workers before
    it starts its own management thread, and nothing that reaches this
    module runs other threads (live-substrate campaigns stay in-process).
    """
    import multiprocessing

    if "fork" in multiprocessing.get_all_start_methods():
        return multiprocessing.get_context("fork")
    return None


def _picklable(obj: object) -> bool:
    try:
        pickle.dumps(obj)
    except Exception:
        return False
    return True


def ordered_map(
    fn: Callable[[Item], Result],
    items: Iterable[Item],
    *,
    jobs: Optional[int] = None,
) -> Iterator[Result]:
    """Yield ``fn(item)`` for each item, in item order, over ``jobs`` processes.

    ``items`` may be a lazy iterable: it is advanced only when a slot in
    the in-flight window opens, and never again once the caller closes
    this generator — at which point queued work is cancelled, running
    work is awaited, and its results are dropped.  ``fn`` and every item
    must pickle; an exception ``fn`` raises in a worker re-raises here
    at that item's turn.
    """
    source = iter(items)
    size = len(items) if hasattr(items, "__len__") else None  # type: ignore[arg-type]
    workers = plan_workers(jobs, size)
    if workers > 1 and _picklable(fn):
        from concurrent.futures import ProcessPoolExecutor
        from concurrent.futures.process import BrokenProcessPool

        owed: Deque[Item] = deque()  # submitted, result not yet yielded
        futures: deque = deque()

        def next_result() -> Result:
            result = futures[0].result()  # may raise: leave the books alone
            futures.popleft()
            owed.popleft()
            return result

        try:
            pool = ProcessPoolExecutor(max_workers=workers, mp_context=_fork_context())
            try:
                for item in source:
                    owed.append(item)
                    futures.append(pool.submit(fn, item))
                    if len(futures) >= workers * WINDOW_PER_WORKER:
                        yield next_result()
                while futures:
                    yield next_result()
                return
            finally:
                pool.shutdown(wait=True, cancel_futures=True)
        except (BrokenProcessPool, OSError, pickle.PicklingError):
            # This environment or payload cannot use a process pool (as
            # opposed to an error inside ``fn``, which the in-process
            # rerun below raises again): finish what is owed here.
            pass
        for item in owed:
            yield fn(item)
    for item in source:
        yield fn(item)

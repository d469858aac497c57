"""Numpy work on a thread per usable CPU, for the file formats, the window kernel and the manifest sampler."""

import itertools
import os


def _usable_cpus() -> int:
    """The CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _threaded(function, items):
    """function(item) for each item of an iterable, in order. Two or more items run on a thread per
    usable CPU (numpy's loops release the interpreter lock), with one more queued so that no thread
    waits for the caller: items are taken lazily, at most one per thread, plus one, ahead of the
    result the caller waits for."""
    items = iter(items)
    head = list(itertools.islice(items, 2))
    if len(head) <= 1:
        yield from map(function, head)
        return
    from concurrent.futures import ThreadPoolExecutor  # costs ~7 ms: not at import time

    workers = _usable_cpus()
    with ThreadPoolExecutor(workers) as pool:
        futures = (pool.submit(function, item) for item in itertools.chain(head, items))
        pending = list(itertools.islice(futures, workers))
        while pending:
            pending += itertools.islice(futures, 1)
            yield pending.pop(0).result()

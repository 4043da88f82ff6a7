"""Deterministic fan-out of independent trial payloads."""

import os


def _cpus() -> int:
    """CPUs this process may run on: its affinity set where the platform
    reports one, else the machine's count."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def pool_map(fn, payloads, workers: int = 1) -> list:
    """Map fn over payloads preserving order; workers > 1 uses processes.

    The pool has at most min(workers, payloads, usable CPUs) processes, since
    each spawned one starts an interpreter and imports numpy; at one it runs
    in this process. fn must be a module-level function and payloads
    picklable. Results are identical to the sequential path because trials
    are independent and the output order is the input order.
    """
    payloads = list(payloads)
    workers = min(workers, len(payloads), _cpus())
    if workers <= 1:
        return [fn(p) for p in payloads]
    # imported here: they add about 20 ms to every CLI start, and only a pool needs them
    from concurrent.futures import ProcessPoolExecutor
    import multiprocessing

    ctx = multiprocessing.get_context("spawn")
    chunk = max(1, len(payloads) // (4 * workers))
    with ProcessPoolExecutor(max_workers=workers, mp_context=ctx) as pool:
        return list(pool.map(fn, payloads, chunksize=chunk))

"""Deterministic fan-out of independent trial payloads."""


def pool_map(fn, payloads, workers: int = 1) -> list:
    """Map fn over payloads preserving order; workers > 1 uses processes.

    fn must be a module-level function and payloads picklable. Results are
    identical to the sequential path because trials are independent and the
    output order is the input order.
    """
    payloads = list(payloads)
    if workers <= 1 or len(payloads) <= 1:
        return [fn(p) for p in payloads]
    # imported here: they add about 20 ms to every CLI start, and only a pool needs them
    from concurrent.futures import ProcessPoolExecutor
    import multiprocessing

    ctx = multiprocessing.get_context("spawn")
    chunk = max(1, len(payloads) // (4 * workers))
    with ProcessPoolExecutor(max_workers=workers, mp_context=ctx) as pool:
        return list(pool.map(fn, payloads, chunksize=chunk))

"""The process pool's size cap. No test here starts a process: the pool class
is replaced by a recorder that maps in this process."""

import concurrent.futures
import os

import pytest

from lotrain._parallel import pool_map


class RecordingPool:
    """Stands in for ProcessPoolExecutor: records its size, starts nothing."""

    sizes = []

    def __init__(self, max_workers, mp_context=None):
        RecordingPool.sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, payloads, chunksize=1):
        assert chunksize >= 1
        return map(fn, payloads)


def square(x):
    return x * x


@pytest.fixture
def pool_sizes(monkeypatch):
    RecordingPool.sizes = []
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    return RecordingPool.sizes


@pytest.mark.parametrize("workers,n_payloads,cpus,size", [
    (500, 10, 4, 4),     # capped by the CPUs
    (500, 3, 64, 3),     # capped by the payloads
    (3, 100, 2, 2),      # the acceptance suite's 3 workers on 2 CPUs still pool
    (2, 100, 8, 2),      # the request itself
    (500, 10, 1, None),  # one CPU: in process
    (500, 1, 64, None),  # one payload: in process
    (1, 100, 64, None),
    (0, 5, 64, None),
])
def test_pool_is_capped_by_workers_payloads_and_cpus(pool_sizes, monkeypatch, workers,
                                                     n_payloads, cpus, size):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
    payloads = list(range(n_payloads))
    assert pool_map(square, payloads, workers) == [p * p for p in payloads]
    assert pool_sizes == ([] if size is None else [size])


def test_pool_cap_falls_back_to_the_cpu_count(pool_sizes, monkeypatch):
    # platforms without an affinity call report the machine's count
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    assert pool_map(square, range(20), 500) == [p * p for p in range(20)]
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert pool_map(square, range(20), 500) == [p * p for p in range(20)]
    assert pool_sizes == [3]

"""Run a runner's independent jobs, on a thread pool only when more than one can run at once."""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from typing import Callable, List, Sequence, TypeVar

Job = TypeVar("Job")
Result = TypeVar("Result")


def map_jobs(fn: Callable[[Job], Result], jobs: Sequence[Job], max_workers: int) -> List[Result]:
    """`fn` of each job, in job order, on up to `max_workers` threads.

    When at most one job could run at a time (`min(max_workers, len(jobs))`
    is 1) the jobs run in the calling thread and no pool is started: a pool
    thread costs its start-up, and its first numpy call runs slower than the
    caller's.  A job run in the calling thread sees the caller's numpy error
    state (`np.errstate`); a pool thread starts from numpy's default.
    """
    workers = min(max_workers, len(jobs))
    if workers == 1:
        return [fn(job) for job in jobs]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, jobs))

"""In-memory span tracer for the traced benchmark run.

The tracer wraps public functions of `mppigrad` where their callers look them
up at call time (for example `mppigrad.optimizer.draw`, which `optimizer`
imported by name from `sampling`), records one span per call, and restores
every original on `close()`.  A span is (name, start, end, parent, ok), with
`parent` the index of the enclosing span or -1.

One stack serves all threads.  That is exact only while one thread at a time
runs traced code, which holds because the benchmark runs every harness with
one worker: the caller thread blocks in `pool.map` while the worker runs.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

Span = Tuple[str, float, float, int, bool]
Hook = Callable[[tuple, dict, Any], None]


class Tracer:
    def __init__(self) -> None:
        self.spans: List[Optional[Span]] = []  # None only while its call runs
        self.counters: Dict[str, float] = defaultdict(float)
        self.ess_min = float("inf")
        self.projected: List[np.ndarray] = []
        self.missing: List[str] = []  # span names with a wrap target that no longer exists
        self._stack: List[int] = []
        self._originals: List[Tuple[Any, str, Any]] = []

    def wrap(self, name: str, fn: Callable, hook: Optional[Hook] = None) -> Callable:
        """Return `fn` recording a span per call; `hook` sees (args, kwargs, result)."""
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            ok = False
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                ok = True
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[index] = (name, start, end, parent, ok)
            if hook is not None:
                hook(args, kwargs, result)
            return result

        return traced

    def patch(self, owner: Any, attr: str, name: str, hook: Optional[Hook] = None) -> None:
        """Replace `owner.attr` by its traced version, or note `name` as missing."""
        original = vars(owner).get(attr) if owner is not None else None
        if original is None:
            if name not in self.missing:
                self.missing.append(name)
            return
        self._originals.append((owner, attr, original))
        setattr(owner, attr, self.wrap(name, original, hook))

    def close(self) -> None:
        while self._originals:
            owner, attr, original = self._originals.pop()
            setattr(owner, attr, original)

    def self_times(self) -> List[float]:
        """Span duration minus the durations of its direct children."""
        own = [end - start for _, start, end, _, _ in self.spans]
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        return own


def instrument(tracer: Tracer) -> None:
    """Wrap every layer boundary the per-layer metrics are read from."""
    from mppigrad import analysis, optimizer, qp
    from mppigrad.bench import dubins as bench_dubins
    from mppigrad.bench import lqr as bench_lqr
    from mppigrad.problems import TrajectoryProblem

    counters = tracer.counters

    def on_draw(args, kwargs, batch):
        if batch.retry > 0:
            counters["sampling.retries"] += 1

    def on_weigh(args, kwargs, summary):
        batch = args[0]
        counters["sampling.drawn"] += batch.n
        counters["sampling.feasible"] += int(np.count_nonzero(batch.feasible_flags))
        tracer.ess_min = min(tracer.ess_min, summary.effective_sample_size)

    def on_eval(args, kwargs, values):
        counters["problems.eval.rows"] += len(values)

    def on_project(args, kwargs, point):
        tracer.projected.append(point)

    tracer.patch(optimizer, "draw", "sampling.draw", on_draw)
    tracer.patch(optimizer, "evaluate", "sampling.evaluate")
    tracer.patch(optimizer, "weigh", "sampling.weigh", on_weigh)
    tracer.patch(TrajectoryProblem, "batch_objective", "problems.eval", on_eval)
    tracer.patch(TrajectoryProblem, "batch_feasible", "problems.eval", on_eval)
    tracer.patch(bench_dubins, "dubins_problem", "problems.build")
    tracer.patch(optimizer, "pgd_step", "optimizer.step")
    tracer.patch(optimizer, "run", "optimizer.run")  # receding_horizon's lookup
    tracer.patch(bench_lqr, "run", "optimizer.run")
    tracer.patch(qp, "solve_verified", "qp.oracle")
    tracer.patch(qp, "solve_reference", "qp.reference")
    projector = getattr(qp, "FeasibleSetProjector", None)
    tracer.patch(projector, "__call__", "qp.project", on_project)
    tracer.patch(analysis, "fd_baseline", "analysis.fd")

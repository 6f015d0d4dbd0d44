"""Benchmark of the mppigrad desk experiments, end to end and layer by layer.

    python3 perfbench/run.py --workload {lqr_sampled|lqr_fd|dubins_loop} \
        --seed N --seconds S --trace {0|1}

Run it from the repository root; it imports `mppigrad` from `src/` of the
same checkout.  Each workload is a config under `perfbench/configs/` fed to
the harness entry points (`run_lqr` or `run_dubins`, then `emit`) with one
worker and one BLAS thread.  A config with several seeds is run one seed per
harness call (a "part"); a round runs every part once.  The run repeats
rounds until `--seconds` is used up (at least two), times a fresh-interpreter
set-up between repetitions, checks every record, and prints one line per
metric and, last, one JSON object with `correct`, `attempted`, `failed` and
`metrics`.  Times are scaled to a reference host speed with the kernel in
`reference.py`, timed around each measured call.  With `--trace 0` the
metrics are the end-to-end ones; with `--trace 1` untraced and traced rounds
alternate and the metrics are the per-layer ones read from the spans of the
traced rounds.  Exit code 0 means
every check passed, 1 a failed check, 2 a usage or checkout problem.
See perfbench/README.md for the workloads and metric definitions.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

# Pin BLAS before numpy loads, so timings measure one thread like the worker count.
os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"

from reference import at_reference, kernel_seconds  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

WORKLOADS = ("lqr_sampled", "lqr_fd", "dubins_loop")
SETUP_SAMPLES = 10
MIN_ROUNDS = 2
GAP_FLOOR = -1e-9
MAX_VIOLATION = 1e-6

SETUP_PROBE = """\
import sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
from mppigrad.bench import load_config
load_config(sys.argv[2])
elapsed = time.perf_counter() - t0
sys.path.insert(0, sys.argv[3])
from reference import kernel_seconds
print(repr(elapsed), repr(kernel_seconds()))
"""


def _percentile(values: List[float], q: float) -> float:
    """Linear-interpolation percentile, 0 <= q <= 100."""
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


# ---------------------------------------------------------------------------
# Per-layer metrics: name -> (unit, spans read, value from a LayerView)
# ---------------------------------------------------------------------------


class LayerView:
    """Per-span-name aggregates of one traced round (one traced rep per part)."""

    def __init__(self, reps: List["Rep"], overhead_frac: float):
        self.emitted_bytes = sum(r.emitted_bytes for r in reps)
        self.max_violation = max(r.max_violation for r in reps)
        self.overhead_frac = overhead_frac
        self.counters: Dict[str, float] = defaultdict(float)
        self.ess_min = min(r.tracer.ess_min for r in reps)
        self.durations: Dict[str, List[float]] = defaultdict(list)
        self.own: Dict[str, float] = defaultdict(float)
        self.failed: Dict[str, int] = defaultdict(int)
        for tracer in (r.tracer for r in reps):
            for key, value in tracer.counters.items():
                self.counters[key] += value
            for (name, start, end, _, ok), own in zip(tracer.spans, tracer.self_times()):
                self.durations[name].append(end - start)
                self.own[name] += own
                self.failed[name] += not ok

    def calls(self, name: str) -> int:
        return len(self.durations[name])

    def busy(self, name: str) -> float:
        return sum(self.durations[name])

    def us(self, name: str, q: float) -> float:
        d = self.durations[name]
        return _percentile(d, q) * 1e6 if d else 0.0

    def counter(self, name: str) -> float:
        return self.counters[name]


LAYER_METRICS: Dict[str, Tuple[str, Tuple[str, ...], Callable[[LayerView], float]]] = {
    "sampling.draw.calls": ("count", ("sampling.draw",), lambda v: v.calls("sampling.draw")),
    "sampling.draw.busy_s": ("s", ("sampling.draw",), lambda v: v.busy("sampling.draw")),
    "sampling.weigh.calls": ("count", ("sampling.weigh",), lambda v: v.calls("sampling.weigh")),
    "sampling.weigh.busy_s": ("s", ("sampling.weigh",), lambda v: v.busy("sampling.weigh")),
    "sampling.retries": ("count", ("sampling.draw",), lambda v: v.counter("sampling.retries")),
    "sampling.acceptance": (
        "frac",
        ("sampling.weigh",),
        lambda v: v.counter("sampling.feasible") / max(v.counter("sampling.drawn"), 1.0),
    ),
    "sampling.ess_min": (
        "samples",
        ("sampling.weigh",),
        lambda v: v.ess_min if math.isfinite(v.ess_min) else 0.0,
    ),
    "problems.eval.calls": ("count", ("problems.eval",), lambda v: v.calls("problems.eval")),
    "problems.eval.rows": ("count", ("problems.eval",), lambda v: v.counter("problems.eval.rows")),
    "problems.eval.busy_s": ("s", ("problems.eval",), lambda v: v.busy("problems.eval")),
    "problems.eval.us_p50": ("us", ("problems.eval",), lambda v: v.us("problems.eval", 50)),
    "problems.build.calls": ("count", ("problems.build",), lambda v: v.calls("problems.build")),
    "problems.build.busy_s": ("s", ("problems.build",), lambda v: v.busy("problems.build")),
    "optimizer.step.calls": ("count", ("optimizer.step",), lambda v: v.calls("optimizer.step")),
    "optimizer.step.self_s": ("s", ("optimizer.step",), lambda v: v.own["optimizer.step"]),
    "qp.oracle.busy_s": ("s", ("qp.oracle",), lambda v: v.busy("qp.oracle")),
    "qp.oracle.second_route_s": (
        "s",
        ("qp.oracle", "qp.reference"),
        lambda v: v.busy("qp.oracle") - v.busy("qp.reference"),
    ),
    "qp.project.calls": ("count", ("qp.project",), lambda v: v.calls("qp.project")),
    "qp.project.busy_s": ("s", ("qp.project",), lambda v: v.busy("qp.project")),
    "qp.project.us_p50": ("us", ("qp.project",), lambda v: v.us("qp.project", 50)),
    "qp.project.us_p90": ("us", ("qp.project",), lambda v: v.us("qp.project", 90)),
    "qp.project.failures": ("count", ("qp.project",), lambda v: v.failed["qp.project"]),
    "qp.project.max_violation": ("abs", ("qp.project",), lambda v: v.max_violation),
    "analysis.fd.self_s": ("s", ("analysis.fd",), lambda v: v.own["analysis.fd"]),
    "bench.harness.self_s": ("s", (), lambda v: v.own["bench.harness"]),
    "bench.emit.busy_s": ("s", (), lambda v: v.busy("bench.emit")),
    "bench.emit.bytes": ("bytes", (), lambda v: v.emitted_bytes),
    "trace.overhead_frac": ("frac", (), lambda v: v.overhead_frac),
}


# ---------------------------------------------------------------------------
# Workloads and repetitions
# ---------------------------------------------------------------------------


@dataclass
class Rep:
    """What one harness call plus emit on one part left behind, records already checked."""

    part: int
    wall_s: float
    kernel_s: float  # reference kernel time around the call
    latencies_ms: List[float]
    quality_values: List[float]
    fingerprint: Tuple
    n_records: int
    n_failed: int
    errors: List[str]
    emitted_bytes: int
    tracer: Any = None
    max_violation: float = 0.0  # worst QpProblem.violation of a traced projection

    @property
    def ref_s(self) -> float:
        return at_reference(self.wall_s, self.kernel_s)


@dataclass
class Workload:
    name: str
    seed: int
    cfg: Any = field(init=False)
    parts: List[Any] = field(init=False)

    def __post_init__(self) -> None:
        from mppigrad.bench import RunConfig, load_config

        base = load_config(self.config_path)
        # The config's seed list gives how many seeds a run uses; their
        # values come from --seed, so distinct workload seeds never overlap.
        count = len(base.seeds)
        seeds = [self.seed * count + i for i in range(count)]
        self.cfg = RunConfig(base.experiment, {**base.resolved, "seeds": seeds})
        # One harness call per seed keeps a repetition short, so a run holds
        # many of them.
        self.parts = [RunConfig(base.experiment, {**base.resolved, "seeds": [s]}) for s in seeds]

    @property
    def config_path(self) -> Path:
        return HERE / "configs" / f"{self.name}.yaml"

    def lifted(self):
        """The lifted QP of the LQR problem, built as `run_lqr` builds it."""
        from mppigrad import qp
        from mppigrad.bench.lqr import _build_spec

        return qp.lift(_build_spec(self.cfg.section("problem")))

    def harness(self) -> Callable:
        from mppigrad.bench import run_dubins, run_lqr

        return run_lqr if self.cfg.experiment == "lqr" else run_dubins

    def check(self, record) -> List[str]:
        errors = []
        if record.flagged:
            errors.append(f"{record.name}: flagged: {record.flag_reason}")
        if self.cfg.experiment == "lqr":
            gap = record.summary.get("final_gap")
            if not isinstance(gap, float) or not math.isfinite(gap) or gap < GAP_FLOOR:
                errors.append(f"{record.name}: final_gap {gap!r} not finite and >= {GAP_FLOOR}")
        else:
            steps = int(self.cfg.resolved["sim_steps"])
            if not record.summary.get("safe"):
                errors.append(f"{record.name}: unsafe")
            if record.summary.get("steps_completed") != steps:
                errors.append(
                    f"{record.name}: {record.summary.get('steps_completed')} of {steps} steps"
                )
        return errors

    def quality_values(self, records) -> List[float]:
        """The values `result_cost` is read from, one round's worth.

        LQR: final gaps of the sampled cells, or of the FD record on lqr_fd.
        Dubins: average realized stage cost of each seed.  A seed ends near
        cost 14, 17 or 21 by the way it passes the obstacle wall, so the
        config runs enough seeds for their mean to move little with --seed.
        """
        if self.cfg.experiment == "dubins":
            return [r.summary.get("average_cost", math.nan) for r in records]
        fd = self.name == "lqr_fd"
        return [
            r.summary.get("final_gap", math.nan)
            for r in records
            if (r.cell.get("method") == "fd") == fd
        ]

    def run_once(self, part: int, traced: bool) -> Rep:
        from mppigrad.bench import emit

        from tracing import Tracer, instrument

        harness, write = self.harness(), emit
        tracer = None
        if traced:
            tracer = Tracer()
            instrument(tracer)
            harness = tracer.wrap("bench.harness", harness)
            write = tracer.wrap("bench.emit", write)
        OUT.mkdir(exist_ok=True)
        try:
            with tempfile.TemporaryDirectory(dir=OUT) as tmp:
                before = kernel_seconds()
                t0 = time.perf_counter()
                records = harness(self.parts[part], max_workers=1)
                paths = write(records, tmp)
                wall = time.perf_counter() - t0
                after = kernel_seconds()
                emitted = sum(p.stat().st_size for p in paths)
        finally:
            if tracer is not None:
                tracer.close()
        checked = [self.check(r) for r in records]
        max_violation = 0.0
        if tracer is not None and tracer.projected:
            lifted = self.lifted()
            max_violation = max(lifted.violation(u) for u in tracer.projected)
        latencies = [
            float(row["ms"])
            for r in records
            if r.cell.get("method") != "fd"
            for row in r.rows
        ]
        fingerprint = tuple(
            (r.name, r.summary.get("final_gap"), r.summary.get("average_cost")) for r in records
        )
        return Rep(
            part=part,
            wall_s=wall,
            kernel_s=(before + after) / 2.0,
            latencies_ms=latencies,
            quality_values=self.quality_values(records),
            fingerprint=fingerprint,
            n_records=len(records),
            n_failed=sum(1 for errors in checked if errors),
            errors=[e for errors in checked for e in errors],
            emitted_bytes=emitted,
            tracer=tracer,
            max_violation=max_violation,
        )


def setup_once(workload: Workload) -> Tuple[float, float]:
    """Time for a fresh interpreter to import the harness and load the config.

    Returns the raw time and the time at reference speed; the probe times
    the reference kernel right after the import, in the same interpreter.
    """
    done = subprocess.run(
        [sys.executable, "-c", SETUP_PROBE, str(SRC), str(workload.config_path), str(HERE)],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    elapsed, kernel_s = map(float, done.stdout.strip().splitlines()[-1].split())
    return elapsed, at_reference(elapsed, kernel_s)


def measure(
    workload: Workload, seconds: float, trace: bool
) -> Tuple[List[List[Rep]], List[Tuple[float, float]]]:
    """Repeat rounds until the time is used up; with `trace`, traced rounds alternate.

    A round runs every part once.  Set-up probes run between repetitions,
    about SETUP_SAMPLES of them evenly over the run, so that they meet the
    host in as many states as the repetitions do.
    """
    now = time.perf_counter()
    deadline, interval = now + seconds, seconds / SETUP_SAMPLES
    next_probe = now + interval
    rounds: List[List[Rep]] = []
    setups = [setup_once(workload)]
    longest = 0.0
    while True:
        start = time.perf_counter()
        reps = []
        for part in range(len(workload.parts)):
            reps.append(workload.run_once(part, traced=trace and len(rounds) % 2 == 1))
            if time.perf_counter() >= next_probe:
                setups.append(setup_once(workload))
                next_probe += interval
        rounds.append(reps)
        longest = max(longest, time.perf_counter() - start)
        if len(rounds) >= MIN_ROUNDS and time.perf_counter() + longest > deadline:
            return rounds, setups


# ---------------------------------------------------------------------------
# Reporting
# ---------------------------------------------------------------------------


def git_sha() -> str:
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def environment() -> Dict[str, Any]:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "workers": 1,
        "git_sha": git_sha(),
    }


def ref_median(reps: List[Rep]) -> float:
    """Median repetition time at reference speed."""
    return statistics.median(r.ref_s for r in reps)


def end_to_end(
    rounds: List[List[Rep]], setups: List[Tuple[float, float]]
) -> Dict[str, Tuple[float, str]]:
    untraced = [r for reps in rounds for r in reps if r.tracer is None]
    values = [v for r in rounds[0] for v in r.quality_values]
    return {
        "setup_s": (statistics.median(ref for _, ref in setups), "s"),
        "wall_ref_s": (ref_median(untraced), "s"),
        "result_cost": (statistics.fmean(values), "cost"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def per_layer(rounds: List[List[Rep]]) -> Tuple[Dict[str, Tuple[float, str]], List[str]]:
    """Median of each layer metric over the traced rounds, and any span names missing."""
    traced = [reps for reps in rounds if reps[0].tracer is not None]
    untraced = [r for reps in rounds for r in reps if r.tracer is None]
    overhead = ref_median([r for reps in traced for r in reps]) / ref_median(untraced) - 1.0
    missing = sorted({m for reps in traced for r in reps for m in r.tracer.missing})
    views = [LayerView(reps, overhead) for reps in traced]
    metrics = {}
    for name, (unit, needs, value) in LAYER_METRICS.items():
        if any(n in missing for n in needs):
            continue
        metrics[name] = (statistics.median(float(value(v)) for v in views), unit)
    return metrics, missing


def profile_lines(view: LayerView) -> List[str]:
    ranked = sorted(view.own, key=view.own.get, reverse=True)
    lines = [
        f"profile {n:<18} calls {view.calls(n):>7}  self {view.own[n]:9.4f} s" for n in ranked
    ]
    return lines + [f"largest self time: {n}" for n in ranked[:1]]


def write_spans(workload: Workload, reps: List[Rep]) -> Path:
    path = OUT / f"spans_{workload.name}_seed{workload.seed}.json"
    doc = {
        "fields": ["name", "start", "end", "parent", "ok"],
        "parts": [r.tracer.spans for r in reps],
    }
    path.write_text(json.dumps(doc), encoding="utf-8")
    return path


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        print("--seed must be >= 0 and --seconds > 0", file=sys.stderr)
        return 2
    if not (SRC / "mppigrad").is_dir():
        print(f"no mppigrad sources under {SRC}; run from a repository checkout", file=sys.stderr)
        return 2

    sys.path.insert(0, str(SRC))

    workload = Workload(args.workload, args.seed)
    rounds, setups = measure(workload, args.seconds, trace=bool(args.trace))
    reps = [r for rs in rounds for r in rs]

    errors = [e for r in reps for e in r.errors]
    attempted = sum(r.n_records for r in reps)
    failed = sum(r.n_failed for r in reps)
    for part, cfg in enumerate(workload.parts):
        if len({r.fingerprint for r in reps if r.part == part}) != 1:
            errors.append(
                f"seed {cfg.seeds[0]}: final_gap / average_cost differ between repetitions"
            )
            failed = max(failed, 1)

    print("env " + json.dumps(environment(), sort_keys=True))
    print(f"workload {workload.name} seeds {workload.cfg.seeds} rounds {len(rounds)}")
    for i, rs in enumerate(rounds):
        walls = " ".join(f"{r.wall_s:.4f}/{r.ref_s:.4f}" for r in rs)
        print(f"round {i}{' traced' if rs[0].tracer else ''} raw/ref wall_s {walls}")
    untraced = sorted(r.wall_s for r in reps if r.tracer is None)
    kernels = sorted(r.kernel_s for r in reps)
    raw_setups = sorted(raw for raw, _ in setups)
    print(
        f"untraced rep raw wall_s min {untraced[0]:.4f} median {statistics.median(untraced):.4f} "
        f"max {untraced[-1]:.4f}; reference kernel ms min {kernels[0] * 1e3:.3f} "
        f"median {statistics.median(kernels) * 1e3:.3f} max {kernels[-1] * 1e3:.3f}"
    )
    print(
        f"setup probes {len(setups)} raw s min {raw_setups[0]:.4f} "
        f"median {statistics.median(raw_setups):.4f}"
    )
    if workload.cfg.experiment == "dubins":
        costs = [c for r in rounds[0] for c in r.quality_values]
        print("average_cost per seed " + " ".join(f"{c:.4f}" for c in costs))
    if workload.cfg.section("fd").get("enabled", False):
        import numpy as np

        lam = float(np.linalg.eigvalsh(workload.lifted().q).max())
        alpha = float(workload.cfg.section("fd")["alpha"])
        print(f"fd stability margin alpha*lambda_max = {alpha * lam:.4f} (stable below 2)")

    if args.trace:
        metrics, missing = per_layer(rounds)
        if missing:
            print("missing spans (wrapped name no longer exists): " + ", ".join(missing))
        last = [rs for rs in rounds if rs[0].tracer is not None][-1]
        for line in profile_lines(LayerView(last, 0.0)):
            print(line)
        print(f"spans written to {write_spans(workload, last)}")
        violation = max(r.max_violation for r in reps)
        if violation > MAX_VIOLATION:
            errors.append(f"projected point violates constraints by {violation:.3g}")
            failed = max(failed, 1)
    else:
        metrics = end_to_end(rounds, setups)
        latencies = [ms for r in reps for ms in r.latencies_ms]
        print(f"failed_frac = {failed / attempted:.6g} ({failed} of {attempted} cells)")
        # Reported, not bounded: lqr_fd's rows are only its small sampled
        # cell, which runs at the start of each repetition, so its
        # percentiles sample the host's speed at a few instants.
        for q in (50, 90) if latencies else ():
            print(f"latency_ms_p{q} = {_percentile(latencies, q)!r} ms over {len(latencies)} rows")

    for name, (value, unit) in metrics.items():
        print(f"metric {name} = {value!r} {unit}")
    for e in errors:
        print(f"CHECK FAILED {e}")
    result = {
        "correct": not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            n: {"value": v if math.isfinite(v) else None, "unit": u}
            for n, (v, u) in metrics.items()
        },
    }
    print(json.dumps(result))
    return 0 if not errors else 1


if __name__ == "__main__":
    sys.exit(main())

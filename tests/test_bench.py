"""Benchmark harness: config handling, record emission, runners, CLI."""

import collections
import copy
import csv
import dataclasses
import functools
import json
import math
import operator
import os
import re
import shutil
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
import yaml

from mppigrad import analysis, optimizer, problems, qp, sampling
from mppigrad.bench import cli
from mppigrad.bench import dubins as bench_dubins
from mppigrad.bench.config import (
    _DUBINS_DEFAULTS,
    RunConfig,
    load_config,
    parse_grid_override,
    pgd_config,
)
from mppigrad.bench.dubins import run_dubins
from mppigrad.bench.lqr import run_lqr
from mppigrad.bench.records import CSV_HEADER, RunRecord, emit
from mppigrad.bench.theory import format_report, run_theory_suite
from mppigrad.errors import ConfigError, InfeasibleProblemError
from mppigrad.problems import DubinsSpec, LqrSpec, dubins_problem, dubins_stage_cost

TINY_LQR = """
version: 1
experiment: lqr
seeds: [0]
optimizer: {n_samples: 200, iterations: 20}
grid: {eta: [1.0]}
fd: {enabled: true, budget_evals: 440}
"""

TINY_DUBINS = """
version: 1
experiment: dubins
seeds: [0]
sim_steps: 4
optimizer: {n_samples: 128}
grid: {k: [1]}
"""

def write_cfg(tmp_path, text, name="cfg.yaml"):
    path = tmp_path / name
    path.write_text(text)
    return path


# ---------------------------------------------------------------------------
# config loading
# ---------------------------------------------------------------------------


ROOT = Path(__file__).resolve().parents[1]


def _child_env():
    """The environment of a child interpreter that imports this checkout's `src`."""
    path = os.pathsep.join([str(ROOT / "src"), os.environ.get("PYTHONPATH", "")])
    return {**os.environ, "PYTHONPATH": path}


SHIPPED_CONFIGS = sorted(
    path.relative_to(ROOT).as_posix()
    for path in [*ROOT.glob("configs/*.yaml"), *ROOT.glob("perfbench/configs/*.yaml")]
)


@pytest.mark.parametrize("config", SHIPPED_CONFIGS)
def test_shipped_configs_load(tmp_path, config):
    """Every config the desk runs or the benchmark feeds loads, and so does its snapshot."""
    cfg = load_config(ROOT / config)
    assert cfg.experiment == yaml.safe_load((ROOT / config).read_text())["experiment"]
    assert cfg.experiment == "theory" or cfg.seeds  # the theory battery reads no seed
    cfg.write_snapshot(tmp_path / "snap.yaml")
    reloaded = load_config(tmp_path / "snap.yaml")
    assert (reloaded.experiment, reloaded.resolved) == (cfg.experiment, cfg.resolved)


def test_defaults_are_merged(tmp_path):
    cfg = load_config(write_cfg(tmp_path, TINY_LQR))
    assert cfg.section("optimizer")["n_samples"] == 200  # from the file
    assert cfg.section("optimizer")["antithetic"] is True  # from the defaults
    assert cfg.section("sampling")["sigma2"] == pytest.approx(1e-4)
    assert cfg.cells() == [{"sigma2": 1.0e-4, "tau": 1.0, "eta": 1.0}]  # sampling fills the axes


def test_config_error_paths(tmp_path):
    with pytest.raises(ConfigError, match="cannot read"):
        load_config(tmp_path / "missing.yaml")
    with pytest.raises(ConfigError, match="not valid YAML"):
        load_config(write_cfg(tmp_path, "foo: [unclosed", "bad.yaml"))
    with pytest.raises(ConfigError, match="must be a mapping"):
        load_config(write_cfg(tmp_path, "- just\n- a list\n", "list.yaml"))
    with pytest.raises(ConfigError, match="unsupported config version"):
        load_config(write_cfg(tmp_path, "version: 2\nexperiment: lqr\n", "v2.yaml"))
    with pytest.raises(ConfigError, match="experiment must be one of"):
        load_config(write_cfg(tmp_path, "version: 1\nexperiment: pendulum\n", "exp.yaml"))
    with pytest.raises(ConfigError, match="seeds"):
        load_config(write_cfg(tmp_path, "version: 1\nexperiment: lqr\nseeds: []\n", "s.yaml"))
    with pytest.raises(ConfigError, match="non-empty list"):
        load_config(
            write_cfg(tmp_path, "version: 1\nexperiment: lqr\ngrid: {eta: []}\n", "g.yaml")
        )
    with pytest.raises(ConfigError, match="positive or the string"):
        load_config(
            write_cfg(tmp_path, "version: 1\nexperiment: lqr\ngrid: {eta: [0.0]}\n", "e.yaml")
        )
    with pytest.raises(ConfigError, match="non-negative"):
        load_config(write_cfg(tmp_path, "version: 1\nexperiment: lqr\nseeds: [0, -1]\n", "n.yaml"))
    with pytest.raises(ConfigError, match="sim_steps"):
        load_config(
            write_cfg(tmp_path, "version: 1\nexperiment: dubins\nsim_steps: 0\n", "d.yaml")
        )


def test_dubins_problem_defaults_are_the_spec_defaults():
    """The defaults are read from `DubinsSpec`; the snapshot keeps these values and types."""
    expected = {
        "speed": 4.0,
        "dt": 0.1,
        "horizon": 20,
        "x0": [0.0, 0.0, float(np.pi / 2)],
        "target": [6.0, 6.0, 0.0],
        "q_weights": [1.0, 1.0, 0.01],
        "r_weight": 0.001,
        "w_max": float(1.5 * np.pi),
        "obstacles": [[0.6, 5.4, 0.6], [1.5, 4.5, 0.6], [2.4, 3.6, 0.6],
                      [3.6, 2.4, 0.6], [4.5, 1.5, 0.6], [5.4, 0.6, 0.6]],
    }
    defaults = _DUBINS_DEFAULTS["problem"]
    assert list(defaults) == list(expected)
    # repr tells 20 from 20.0 and a numpy scalar from a float
    assert repr(defaults) == repr(expected)


def test_cli_overrides(tmp_path):
    path = write_cfg(tmp_path, TINY_LQR)
    cfg = load_config(path, seed_override=9, out_override="elsewhere",
                      grid_overrides={"eta": [0.5, "rule"]})
    assert cfg.seeds == [9]
    assert cfg.out_dir == "elsewhere"
    assert [cell["eta"] for cell in cfg.cells()] == [0.5, "rule"]


def test_parse_grid_override():
    assert parse_grid_override("eta=1.0,rule") == ("eta", [1.0, "rule"])
    assert parse_grid_override("k=1,5") == ("k", [1, 5])
    with pytest.raises(ConfigError, match="key=v1,v2"):
        parse_grid_override("noequals")
    with pytest.raises(ConfigError, match="at least one value"):
        parse_grid_override("eta=")


def test_snapshot_round_trip(tmp_path):
    cfg = load_config(write_cfg(tmp_path, TINY_LQR))
    snap_path = tmp_path / "snap.yaml"
    cfg.write_snapshot(snap_path)
    reloaded = load_config(snap_path)
    assert reloaded.experiment == cfg.experiment
    assert reloaded.resolved == cfg.resolved


# ---------------------------------------------------------------------------
# record emission
# ---------------------------------------------------------------------------


def test_record_name_slugs():
    rec = RunRecord(experiment="lqr", cell={"sigma2": 1e-4, "eta": "rule"}, seed=3)
    assert rec.name == "lqr_eta-rule_sigma2-0p0001_seed3"
    neg = RunRecord(experiment="lqr", cell={"tau": -1.5}, seed=0)
    assert "m1p5" in neg.name


def test_emit_writes_csv_plot_and_summary(tmp_path):
    rec = RunRecord(experiment="lqr", cell={"eta": 1.0}, seed=0)
    rec.rows = [
        {"k": 0, "gap": 1.5, "grad_norm_P": 0.25, "ess": 10.0, "acceptance": 1.0,
         "best_cost": 0.1 + 0.2, "ms": 3.25},
    ]
    rec.plot_rows = [{"iteration": 0, "evaluations": 100, "gap": 1.5}]
    rec.summary = {"final_gap": 1.5}
    paths = emit([rec], tmp_path)
    assert sorted(p.name for p in paths) == [
        "lqr_eta-1p0_seed0.csv",
        "plot_lqr_eta-1p0_seed0.csv",
        "summary_lqr_eta-1p0_seed0.json",
    ]
    csv_text = (tmp_path / "lqr_eta-1p0_seed0.csv").read_text()
    lines = csv_text.splitlines()
    assert lines[0] == CSV_HEADER
    # floats are emitted with repr: shortest string that round-trips
    assert lines[1].split(",")[5] == repr(0.1 + 0.2)
    assert "\r" not in csv_text
    doc = json.loads((tmp_path / "summary_lqr_eta-1p0_seed0.json").read_text())
    assert doc["summary"]["final_gap"] == 1.5
    assert doc["flagged"] is False
    assert doc["tool_version"]


def test_emit_order_is_independent_of_record_order(tmp_path):
    a = RunRecord(experiment="lqr", cell={"eta": 1.0}, seed=0, summary={"x": 1})
    b = RunRecord(experiment="lqr", cell={"eta": 2.0}, seed=0, summary={"x": 2})
    first = emit([a, b], tmp_path / "fwd")
    second = emit([b, a], tmp_path / "rev")
    assert [p.name for p in first] == [p.name for p in second]


# ---------------------------------------------------------------------------
# constrained linear-quadratic runner
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def tiny_lqr_records(tmp_path_factory):
    path = tmp_path_factory.mktemp("lqr") / "cfg.yaml"
    path.write_text(TINY_LQR)
    cfg = load_config(path)
    return cfg, run_lqr(cfg)


def test_lqr_runner_produces_cell_and_fd_records(tiny_lqr_records):
    _, records = tiny_lqr_records
    names = sorted(r.name for r in records)
    assert names == ["lqr_eta-1p0_sigma2-0p0001_tau-1p0_seed0", "lqr_method-fd_seed0"]
    assert not any(r.flagged for r in records)


def test_lqr_gap_column_starts_at_the_zero_control_cost(tiny_lqr_records):
    _, records = tiny_lqr_records
    rec = next(r for r in records if r.cell.get("eta") == 1.0)
    assert len(rec.rows) == 20
    # the first recorded iterate is the zero mean: its rolled-out cost is
    # known in closed form, so gap(0) pins both the oracle and the rollout
    assert rec.summary["f_star"] == pytest.approx(8.583751436713605, abs=1e-9)
    assert rec.rows[0]["gap"] == pytest.approx(62.5 - rec.summary["f_star"], abs=1e-9)
    gaps = [row["gap"] for row in rec.rows]
    assert min(gaps) >= -1e-6  # never better than the verified optimum
    assert rec.summary["min_gap"] <= gaps[0]
    assert rec.summary["iterations"] == 20
    assert rec.summary["evaluations"] == 20 * 200
    assert rec.summary["rule"] == "fixed"
    assert rec.summary["eta_resolved"] == 1.0
    assert rec.summary["l_sigma"] > 0
    assert rec.summary["infeasible_mean_iterations"] == []
    for row, plot in zip(rec.rows, rec.plot_rows):
        assert plot["evaluations"] == (row["k"] + 1) * 200


RETRYING_LQR = """
version: 1
experiment: lqr
seeds: [0]
sampling: {sigma2: 0.08, tau: 1.0}
optimizer: {n_samples: 16, iterations: 40}
grid: {eta: [1.0]}
"""


def test_lqr_evaluations_count_the_retried_batches(tmp_path):
    # a wide policy leaves some batches all infeasible; each retry scores 16 more samples
    [rec] = run_lqr(load_config(write_cfg(tmp_path, RETRYING_LQR)))
    assert not rec.flagged and rec.summary["retries"] > 0
    assert rec.summary["evaluations"] == 16 * (40 + rec.summary["retries"])
    steps = [plot["evaluations"] for plot in rec.plot_rows]
    assert steps[-1] == rec.summary["evaluations"]
    increments = np.diff([0] + steps)  # (1 + that iteration's retries) batches of 16
    assert set(increments) <= {16 * (1 + r) for r in range(optimizer.MAX_RETRIES + 1)}


SHARED_LQR = """
version: 1
experiment: lqr
seeds: [0, 1, 2, 3]
optimizer: {n_samples: 64, iterations: 8}
grid: {eta: [1.0, rule]}
fd: {enabled: false}
"""


def test_lqr_cells_sharing_one_problem_match_a_serial_run(tmp_path):
    # eight cells on eight threads (more than the cores) share one problem
    # object; with a short switch interval each record must still equal the
    # one-worker run's
    cfg = load_config(write_cfg(tmp_path, SHARED_LQR))
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threaded = run_lqr(cfg, max_workers=8)
    finally:
        sys.setswitchinterval(interval)
    serial = run_lqr(cfg, max_workers=1)

    def deterministic(rec):
        rows = [{k: v for k, v in row.items() if k != "ms"} for row in rec.rows]
        return rec.name, rows, {k: v for k, v in rec.summary.items() if k != "runtime_seconds"}

    assert len(threaded) == 8
    assert [deterministic(r) for r in threaded] == [deterministic(r) for r in serial]


def _lone_config(cfg, cell):
    """`cfg` with its grid cut down to `cell`."""
    return RunConfig(cfg.experiment, {**cfg.resolved, "grid": {k: [v] for k, v in cell.items()}})


def _same_record(a, b):
    """Bit for bit, masking only the wall-clock `ms` and `runtime_seconds`.

    The config snapshot is compared without its grid, the one thing a lone
    run's config changes.
    """
    assert (a.name, a.cell, a.seed, a.flagged, a.flag_reason) == (
        b.name, b.cell, b.seed, b.flagged, b.flag_reason
    )
    assert [{k: v for k, v in row.items() if k != "ms"} for row in a.rows] == [
        {k: v for k, v in row.items() if k != "ms"} for row in b.rows
    ]
    assert a.plot_rows == b.plot_rows
    masked = [{k: v for k, v in r.summary.items() if k != "runtime_seconds"} for r in (a, b)]
    assert json.dumps(masked[0], sort_keys=True) == json.dumps(masked[1], sort_keys=True)
    snapshots = [{k: v for k, v in r.config_snapshot.items() if k != "grid"} for r in (a, b)]
    assert snapshots[0] == snapshots[1]


LOCKSTEP_LQR = """
version: 1
experiment: lqr
seeds: [0, 1]
optimizer: {n_samples: 64, iterations: 6}
grid: {sigma2: [1.0e-4, 4.0e-4], tau: [1, 2.0], eta: [1.0, rule]}
"""


@pytest.mark.parametrize("workers", [1, 4])
def test_lqr_lockstep_cells_equal_their_lone_runs(tmp_path, workers):
    cfg = load_config(write_cfg(tmp_path, LOCKSTEP_LQR))
    records = run_lqr(cfg, max_workers=workers)
    assert len(records) == 16 and not any(r.flagged for r in records)
    for i, cell in enumerate(cfg.cells()):
        lone = run_lqr(_lone_config(cfg, cell), max_workers=1)
        assert len(lone) == 2
        for got, want in zip(records[2 * i: 2 * i + 2], lone):
            _same_record(got, want)


ABORT_LQR = """
version: 1
experiment: lqr
seeds: [0, 1]
optimizer: {n_samples: 64, iterations: 8}
grid: {sigma2: [1.0e-4, 100.0], eta: [1.0, rule]}
"""


def test_lqr_abort_stops_only_its_cells_and_shares_the_retries(tmp_path, monkeypatch):
    streams = []
    real = sampling.batch_rng
    monkeypatch.setattr(sampling, "batch_rng", lambda *key: streams.append(key) or real(*key))
    cfg = load_config(write_cfg(tmp_path, ABORT_LQR))
    records = run_lqr(cfg, max_workers=1)
    assert len(records) == 8
    # one generator per (seed, iteration, retry): the wide cells share retries 1-5
    assert sorted(streams) == sorted(
        [(s, k, 0) for s in (0, 1) for k in range(8)]
        + [(s, 0, r) for s in (0, 1) for r in range(1, 6)]
    )
    monkeypatch.undo()
    for record in records:
        if record.cell["sigma2"] == 100.0:
            assert record.flagged
            assert record.flag_reason == (
                "optimizer abort: all 64 samples infeasible at iteration 0"
            )
            assert sorted(record.summary) == ["eta_resolved", "l_sigma", "rule"]
            assert record.rows == [] and record.plot_rows == []
        else:
            lone_cfg = _lone_config(cfg, record.cell)
            lone = next(r for r in run_lqr(lone_cfg, max_workers=1) if r.seed == record.seed)
            _same_record(record, lone)


def test_lqr_fd_record_obeys_the_evaluation_budget(tiny_lqr_records):
    _, records = tiny_lqr_records
    fd = next(r for r in records if r.cell.get("method") == "fd")
    # budget 440 at 11 evals per iteration -> 40 iterations, 41 cost rows
    assert len(fd.rows) == 41
    assert fd.summary["evaluations"] == 440
    assert math.isnan(fd.rows[0]["ess"])  # sampling columns do not apply
    assert fd.plot_rows[1]["evaluations"] == 11
    assert all(math.isfinite(row["gap"]) for row in fd.rows)
    assert fd.summary["min_gap"] <= fd.rows[0]["gap"]


def test_emitted_fd_and_gap_fields_match_their_second_routes(tiny_lqr_records, tmp_path):
    """Read back from emit's files, two fields agree with routes of the test's own.

    FD `alpha_lambda_max` is alpha times the largest singular value of the
    lift rebuilt from the summary's config (Q_qp is SPD, so that is lmax).
    `min_gap` is the least gap of the record's CSV column, and of its
    `final_gap` for a sampled cell, whose final mean has no CSV row.
    """
    _, records = tiny_lqr_records
    out = tmp_path / "o"
    emit(records, out)
    docs = {p.name[len("summary_"):-len(".json")]: json.loads(p.read_text())
            for p in out.glob("summary_*.json")}
    assert len(docs) == 2
    for name, doc in docs.items():
        with open(out / f"{name}.csv", newline="") as fh:
            gaps = [float(row["gap"]) for row in csv.DictReader(fh)]
        summary = doc["summary"]
        if doc["cell"].get("method") == "fd":
            assert summary["final_gap"] == gaps[-1]
            assert min(gaps) < summary["final_gap"]  # the desk step diverges: the two differ
            lifted = qp.lift(LqrSpec(**doc["config"]["problem"]))
            lam_max = np.linalg.svd(lifted.q, compute_uv=False)[0]
            alpha = doc["config"]["fd"]["alpha"]
            assert summary["alpha_lambda_max"] == pytest.approx(alpha * lam_max, rel=1e-12)
        else:
            gaps.append(summary["final_gap"])
        assert summary["min_gap"] == min(gaps)


def test_summaries_report_worst_ess_and_retries(tiny_lqr_records, tmp_path):
    _, records = tiny_lqr_records
    rec = next(r for r in records if r.cell.get("eta") == 1.0)
    assert rec.summary["ess_min"] == min(row["ess"] for row in rec.rows)
    assert rec.summary["retries"] == 0
    dubins = run_dubins(load_config(write_cfg(tmp_path, TINY_DUBINS)))[0]
    # a closed-loop row holds the mean ESS of its step's inner iterations
    assert 1.0 <= dubins.summary["ess_min"] <= min(row["ess"] for row in dubins.rows)
    assert isinstance(dubins.summary["retries"], int) and dubins.summary["retries"] >= 0


def test_lqr_rule_cells_resolve_the_step_size(tmp_path):
    path = write_cfg(tmp_path, TINY_LQR.replace("eta: [1.0]", "eta: [rule]"))
    records = run_lqr(load_config(path))
    rec = next(r for r in records if r.cell.get("eta") == "rule")
    assert rec.summary["rule"] == "one_over_l_sigma"
    assert rec.summary["eta_resolved"] == pytest.approx(1.0 / rec.summary["l_sigma"])


def test_run_lqr_lifts_its_problem_once(tmp_path, monkeypatch):
    # the oracle, the cells' evaluator and the FD projector share one lift
    calls = []
    real = qp.lift
    monkeypatch.setattr(qp, "lift", lambda spec: calls.append(spec) or real(spec))
    records = run_lqr(load_config(write_cfg(tmp_path, TINY_LQR)), max_workers=1)
    assert len(calls) == 1
    assert len(records) == 2 and not any(r.flagged for r in records)


# the initial position (2.5) sits outside the state box: the QP has no point
ORACLE_FAILURE_LQR = """seeds: [0]
problem: {x_min: [-0.1, -1.0], x_max: [0.1, 1.0]}
optimizer: {n_samples: 100, iterations: 5}
grid: {eta: [1.0]}
"""

# the QP is feasible and certified (f* = 58.514), but the zero control sequence
# leaves the velocity band at x_1, so the sampler has no feasible start
UNUSABLE_START_LQR = """seeds: [0]
problem: {x0: [5.4, 0.0]}
optimizer: {n_samples: 100, iterations: 5}
grid: {eta: [1.0]}
"""


def test_lqr_oracle_failure_is_flagged(tmp_path):
    records = run_lqr(load_config(write_cfg(tmp_path, "version: 1\nexperiment: lqr\n" + ORACLE_FAILURE_LQR)))
    assert len(records) == 1
    assert records[0].flagged
    assert records[0].cell == {"method": "oracle"}
    assert "oracle" in records[0].flag_reason


def test_lqr_unusable_start_is_flagged(tmp_path):
    """The oracle certifies f*, then the zero start fails: one start record, not an oracle one."""
    cfg = load_config(write_cfg(tmp_path, "version: 1\nexperiment: lqr\n" + UNUSABLE_START_LQR))
    lifted = qp.lift(LqrSpec(**cfg.section("problem")))
    assert qp.solve_verified(lifted).f_star + lifted.constant == pytest.approx(58.514, abs=1e-3)
    records = run_lqr(cfg)
    assert len(records) == 1
    assert records[0].flagged
    assert records[0].cell == {"method": "start"}
    assert "zero control sequence is infeasible" in records[0].flag_reason


def test_lqr_uncertified_oracle_is_flagged(tmp_path, monkeypatch):
    honest = qp.solve_reference

    def doubled_multipliers(prob):
        sol = honest(prob)
        return dataclasses.replace(sol, lam=2.0 * sol.lam)

    monkeypatch.setattr(qp, "solve_reference", doubled_multipliers)
    records = run_lqr(load_config(write_cfg(tmp_path, TINY_LQR)))
    assert len(records) == 1
    assert records[0].flagged
    assert records[0].cell == {"method": "oracle"}
    assert "qp oracle failure" in records[0].flag_reason
    assert "not certified" in records[0].flag_reason


def test_lqr_summaries_carry_the_oracle_duality_gap(tiny_lqr_records):
    cfg, records = tiny_lqr_records
    # the fixture solves the desk problem's QP
    assert cfg.section("problem") == load_config("configs/lqr.yaml").section("problem")
    for rec in records:
        assert abs(rec.summary["oracle_duality_gap"]) <= 1e-9


# ---------------------------------------------------------------------------
# closed-loop runner
# ---------------------------------------------------------------------------


def test_dubins_runner_summary_and_rows(tmp_path):
    records = run_dubins(load_config(write_cfg(tmp_path, TINY_DUBINS)))
    assert len(records) == 1
    rec = records[0]
    assert rec.name == "dubins_k-1_seed0"
    assert not rec.flagged
    assert rec.summary["steps_completed"] == 4
    assert rec.summary["safe"] is True
    assert len(rec.rows) == 4
    assert rec.rows[1]["best_cost"] == pytest.approx(
        (rec.rows[0]["gap"] + rec.rows[1]["gap"]) / 2
    )
    assert "k=sim step" in rec.summary["csv_semantics"]
    assert {"step", "px", "py", "stage_cost"} == set(rec.plot_rows[0])
    assert 0.0 < rec.summary["acceptance_rate"] <= 1.0
    # read back from emit's files, three fields agree with routes of the test's own
    emit(records, tmp_path / "o")
    summary = json.loads((tmp_path / "o" / "summary_dubins_k-1_seed0.json").read_text())
    with open(tmp_path / "o" / "dubins_k-1_seed0.csv", newline="") as fh:
        gaps = [float(row["gap"]) for row in csv.DictReader(fh)]
    with open(tmp_path / "o" / "plot_dubins_k-1_seed0.csv", newline="") as fh:
        last = list(csv.DictReader(fh))[-1]
    target = summary["config"]["problem"]["target"]
    distance = math.hypot(float(last["px"]) - target[0], float(last["py"]) - target[1])
    assert summary["summary"]["terminal_position_error"] == pytest.approx(distance, rel=1e-12)
    assert summary["summary"]["average_cost"] == pytest.approx(sum(gaps) / len(gaps), rel=1e-12)
    assert summary["summary"]["steps_completed"] == len(gaps)


MULTI_CELL_DUBINS = """
version: 1
experiment: dubins
seeds: [0, 1]
sim_steps: 3
optimizer: {n_samples: 64}
grid: {k: [1, 2]}
"""


def test_dubins_records_do_not_depend_on_the_worker_count(tmp_path):
    # four cells on four threads, switching as often as they can, against one worker
    cfg = load_config(write_cfg(tmp_path, MULTI_CELL_DUBINS))
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threaded = run_dubins(cfg, max_workers=4)
    finally:
        sys.setswitchinterval(interval)
    serial = run_dubins(cfg, max_workers=1)
    assert len(threaded) == len(serial) == 4
    for a, b in zip(threaded, serial):
        _same_record(a, b)


def test_cli_dubins_overflowing_log_weights_take_the_least_cost_sample(tmp_path, capsys):
    # every -cost/tau overflows; the loop must neither abort nor carry a NaN mean
    text = ("version: 1\nexperiment: dubins\nseeds: [0]\nsim_steps: 3\n"
            "sampling: {tau: 1.0e-307}\noptimizer: {n_samples: 64}\ngrid: {k: [2]}\n")
    out = tmp_path / "o"
    with pytest.warns(RuntimeWarning, match="overflow"):
        code = cli.main(["run", "--experiment", "dubins", "--config",
                         str(write_cfg(tmp_path, text)), "--out", str(out), "--workers", "1"])
    assert code == 0
    assert "Traceback" not in capsys.readouterr().err
    doc = json.loads((out / "summary_dubins_k-2_seed0.json").read_text())
    assert doc["flagged"] is False and doc["summary"]["steps_completed"] == 3
    assert doc["summary"]["ess_min"] == 1.0
    lines = (out / "dubins_k-2_seed0.csv").read_text().splitlines()[1:]
    ess = [float(line.split(",")[3]) for line in lines]
    assert len(ess) == 3 and not any(math.isnan(e) for e in ess)


def test_dubins_rows_are_reproducible_up_to_timing(tmp_path):
    cfg = load_config(write_cfg(tmp_path, TINY_DUBINS))
    first = run_dubins(cfg)[0]
    second = run_dubins(cfg)[0]
    for a, b in zip(first.rows, second.rows):
        for col in ("k", "gap", "grad_norm_P", "ess", "acceptance", "best_cost"):
            assert a[col] == b[col]
    assert first.plot_rows == second.plot_rows


def _replay_dubins(cfg, k, seed):
    """The closed loop by hand: re-root at the state, K steps from the shifted and
    zero-padded plan at RNG offset s*K, clip the first control, advance the car."""
    spec = DubinsSpec(**cfg.section("problem"))
    opt_cfg, sampling_cfg = cfg.section("optimizer"), cfg.section("sampling")
    pgd = pgd_config(opt_cfg, opt_cfg["eta"], k)
    policy = sampling.GaussianPolicy(
        np.zeros(spec.horizon), float(sampling_cfg["sigma2"]), float(sampling_cfg["tau"])
    )
    state, warm, steps = spec.x0, np.zeros(spec.horizon), []
    for s in range(cfg.resolved["sim_steps"]):
        problem = dubins_problem(dataclasses.replace(spec, x0=state), known_candidate=warm)
        [(solved, inner)] = optimizer.run(
            problem, [(policy.with_mean(warm), pgd)], seed, iter_offset=s * pgd.k
        )
        u0 = np.clip(solved.mean[:1], -spec.w_max, spec.w_max)
        state = spec.step(state, u0)
        steps.append((state, dubins_stage_cost(spec, state, u0), inner))
        warm = np.concatenate([solved.mean[1:], np.zeros(1)])
    return steps


def test_dubins_warm_start_shift_reproduces_the_record(tmp_path):
    cfg = load_config(write_cfg(tmp_path, TINY_DUBINS.replace("k: [1]", "k: [2]")))
    [record] = run_dubins(cfg)
    steps = _replay_dubins(cfg, k=2, seed=0)
    assert len(record.rows) == len(steps) == 4
    for row, plot, (state, cost, inner) in zip(record.rows, record.plot_rows, steps):
        assert (plot["px"], plot["py"]) == (float(state[0]), float(state[1]))
        assert row["gap"] == plot["stage_cost"] == cost
        assert row["grad_norm_P"] == inner.records[-1].grad_norm_p
        assert row["ess"] == float(inner.column("ess").mean())
        assert row["acceptance"] == float(inner.column("acceptance").mean())


# the straight start runs into the obstacle, so narrow batches around it come
# back all-infeasible and are redrawn under inflated covariance
RETRY_DUBINS = """
version: 1
experiment: dubins
seeds: [0]
sim_steps: 3
problem: {obstacles: [[0.0, 4.0, 0.5]]}
sampling: {sigma2: 0.01}
optimizer: {n_samples: 64}
grid: {k: [3]}
"""


def test_dubins_sums_retries_and_takes_the_worst_ess_over_inner_iterations(tmp_path):
    cfg = load_config(write_cfg(tmp_path, RETRY_DUBINS))
    [record] = run_dubins(cfg)
    inner = [r for _, _, trace in _replay_dubins(cfg, k=3, seed=0) for r in trace.records]
    assert len(inner) == 9
    assert record.summary["retries"] == sum(r.retries for r in inner) >= 2
    assert record.summary["ess_min"] == min(r.ess for r in inner)
    assert record.summary["ess_min"] < min(row["ess"] for row in record.rows)  # not a step mean


def test_dubins_counts_the_nonfinite_costs_of_every_inner_iteration(tmp_path, monkeypatch):
    real = problems.dubins_evaluate_batch

    def with_nonfinite_rows(spec, controls):
        costs, flags = real(spec, controls)
        if len(costs) == 64:  # a sample batch; the known-feasible check scores at most 10 rows
            costs[1::4] = np.nan  # 16 rows
            costs[3::8] = np.inf  # 8 more
        return costs, flags

    monkeypatch.setattr(problems, "dubins_evaluate_batch", with_nonfinite_rows)
    text = TINY_DUBINS.replace("sim_steps: 4", "sim_steps: 2").replace("128", "64")
    [record] = run_dubins(load_config(write_cfg(tmp_path, text.replace("k: [1]", "k: [3]"))))
    assert record.summary["steps_completed"] == 2 and record.summary["retries"] == 0
    assert record.summary["nonfinite_costs"] == 2 * 3 * 24
    assert all(np.isfinite(row["gap"]) for row in record.rows)


def test_dubins_infeasible_rebuild_flags_the_partial_record(tmp_path, monkeypatch):
    real, roots = bench_dubins.dubins_problem, []

    def third_build_fails(spec, known_candidate=None):
        roots.append(spec.x0)
        if len(roots) == 3:
            raise InfeasibleProblemError("no feasible plan from here")
        return real(spec, known_candidate=known_candidate)

    monkeypatch.setattr(bench_dubins, "dubins_problem", third_build_fails)
    [record] = run_dubins(load_config(write_cfg(tmp_path, TINY_DUBINS)))
    assert record.flagged
    assert record.flag_reason == "step 2: no feasible plan from here"
    assert record.summary["steps_completed"] == len(record.rows) == 2
    assert record.summary["safe"] is False
    np.testing.assert_array_equal(roots[0], DubinsSpec().x0)
    for root, plot in zip(roots[1:], record.plot_rows):  # re-rooted at the driven state
        assert (root[0], root[1]) == (plot["px"], plot["py"])


def test_dubins_sampler_abort_flags_the_record(tmp_path, monkeypatch):
    monkeypatch.setattr(optimizer, "MAX_RETRIES", 2)
    # every sample breaks the rate bound; the straight known-feasible row does not
    text = TINY_DUBINS.replace(
        "sim_steps: 4", "sim_steps: 3\nproblem: {w_max: 1.0e-6, obstacles: []}"
    )
    [record] = run_dubins(load_config(write_cfg(tmp_path, text)))
    assert record.flagged
    assert record.flag_reason == "step 0: all 128 samples infeasible at iteration 0"
    assert record.summary["steps_completed"] == 0 and record.rows == []
    assert math.isnan(record.summary["average_cost"])
    assert record.summary["safe"] is False


def test_dubins_applied_control_is_clipped_to_the_rate_bound(tmp_path, monkeypatch):
    real_run, real_cost = optimizer.run, bench_dubins.dubins_stage_cost
    plans, applied = [], []

    def recording_run(*args, **kwargs):
        [(solved, trace)] = real_run(*args, **kwargs)
        plans.append(solved.mean[0])
        return [(solved, trace)]

    def recording_cost(spec, x_next, u):
        applied.append(u[0])
        return real_cost(spec, x_next, u)

    monkeypatch.setattr(optimizer, "run", recording_run)
    monkeypatch.setattr(bench_dubins, "dubins_stage_cost", recording_cost)
    # eta > 1 extrapolates past the weighted mean, so the plan can leave the box
    text = TINY_DUBINS.replace("seeds: [0]", "seeds: [1]").replace(
        "optimizer: {n_samples: 128}",
        "problem: {w_max: 1.0}\nsampling: {sigma2: 0.04}\noptimizer: {n_samples: 64, eta: 4.0}",
    )
    [record] = run_dubins(load_config(write_cfg(tmp_path, text)))
    assert not record.flagged and len(applied) == len(plans) == 4
    assert max(abs(p) for p in plans) > 1.0
    assert applied == [min(max(p, -1.0), 1.0) for p in plans]


# ---------------------------------------------------------------------------
# theory suite
# ---------------------------------------------------------------------------


def test_theory_suite_passes_clean():
    cfg = load_config("configs/theory.yaml")
    rows, passed = run_theory_suite(cfg)
    assert passed
    assert all(r.passed for r in rows)
    assert len(rows) >= 20


def test_theory_suite_catches_an_injected_sign_flip():
    cfg = load_config("configs/theory.yaml")
    bugged = RunConfig(experiment="theory", resolved={**cfg.resolved, "inject_bug": True})
    rows, passed = run_theory_suite(bugged)
    assert not passed
    failing = [r.quantity for r in rows if not r.passed]
    assert failing == ["gradient_vs_quadrature_fd"]


def test_theory_report_formatting():
    cfg = load_config("configs/theory.yaml")
    rows, _ = run_theory_suite(cfg)
    text = format_report(rows)
    assert text.splitlines()[0].startswith("check")
    assert "pass" in text and "FAIL" not in text
    assert "gradient_vs_quadrature_fd" in text


# ---------------------------------------------------------------------------
# command line
# ---------------------------------------------------------------------------


def test_cli_usage_errors_return_one(tmp_path, capsys):
    assert cli.main([]) == 1
    assert cli.main(["run", "--experiment", "lqr"]) == 1  # missing --config
    assert cli.main(["run", "--experiment", "lqr", "--config", str(tmp_path / "nope.yaml")]) == 1
    path = str(write_cfg(tmp_path, TINY_LQR))
    for workers in ("0", "-2"):
        capsys.readouterr()
        assert cli.main(["run", "--experiment", "lqr", "--config", path, "--workers", workers]) == 1
        assert f"argument --workers: must be >= 1, got {workers}" in capsys.readouterr().err


def test_cli_experiment_config_mismatch(tmp_path, capsys):
    path = write_cfg(tmp_path, TINY_DUBINS)
    assert cli.main(["run", "--experiment", "lqr", "--config", str(path)]) == 1
    assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize("experiment", ["lqr", "dubins", "theory"])
def test_cli_uncreatable_out_is_a_config_error(tmp_path, capsys, experiment):
    texts = {"lqr": TINY_LQR, "dubins": TINY_DUBINS}
    if experiment in texts:
        config = write_cfg(tmp_path, texts[experiment])
    else:
        config = ROOT / "configs" / "theory.yaml"
    blocker = tmp_path / "a-file"
    blocker.write_text("")
    out = blocker / "out"
    assert cli.main(["run", "--experiment", experiment, "--config", str(config),
                     "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert f"config error: cannot create output directory {out}: " in captured.err
    assert captured.out == ""  # refused before anything ran


@pytest.mark.parametrize(
    "experiment, section, message",
    [
        ("dubins", "problem: {dt: -0.1}", "dt and w_max must be positive"),
        ("lqr", "problem: {horizon: 0}", "horizon must be >= 1"),
        ("lqr", "problem: {a: [[1.0]]}", "A must be (2,2)"),
        ("dubins", "optimizer: {n_samples: 3}", "even n_samples"),
        ("dubins", "sampling: {sigma2: -1.0}", "sampling.sigma2 must be positive"),
        ("dubins", "sampling: {tau: abc}", "sampling.tau must be a finite number, got 'abc'"),
        ("lqr", "grid: {tau: [1.0, 0.0]}", "sampling.tau must be positive"),
        ("lqr", "fd: {enabled: true, h: 0.0}", "fd.h must be finite and positive"),
        ("lqr", "fd: {alpha: abc}", "fd.alpha must be a finite number, got 'abc'"),
        ("lqr", "fd: {budget_evals: 5}", "fd.budget_evals must be an integer >= 11"),
        ("lqr", "sampling: {sigma2: .nan}", "sampling.sigma2 must be a finite number, got nan"),
        ("lqr", "grid: {eta: [.nan]}", "grid.eta[0] must be a finite number, got nan"),
        ("lqr", "grid: {tau: [.inf]}", "grid.tau[0] must be a finite number, got inf"),
        # each case below would run (briefly) if the loader let the value through
        ("dubins", "optimizer: {max_retries: 256}\nsim_steps: 1\ngrid: {k: [1]}\nseeds: [0]",
         "unknown config key 'optimizer.max_retries'"),
        ("lqr", "seeds: [true]\noptimizer: {n_samples: 200, iterations: 2}\ngrid: {eta: [1.0]}",
         "seeds[0] must be an integer, got True"),
        ("lqr", "sampling: {sigma2: true, tau: true}\noptimizer: {n_samples: 200, iterations: 2}\n"
         "grid: {eta: [1.0]}", "sampling.sigma2 must be a finite number, got True"),
        ("dubins", "sim_steps: true\ngrid: {k: [1]}\nseeds: [0]",
         "sim_steps must be an integer, got True"),
        ("dubins", "sim_steps: abc", "sim_steps must be an integer, got 'abc'"),
        ("lqr", "optimizer: {iterations: true}\ngrid: {eta: [1.0]}\nseeds: [0]",
         "optimizer.iterations must be an integer, got True"),
        ("lqr", "optimizer: {max_retries: true, n_samples: 200, iterations: 2}\n"
         "grid: {eta: [1.0]}\nseeds: [0]", "unknown config key 'optimizer.max_retries'"),
        ("lqr", "optimizer: {n_samples: 200.9, iterations: 2}\ngrid: {eta: [1.0]}\nseeds: [0]",
         "optimizer.n_samples must be an integer, got 200.9"),
        ("dubins", "grid: {k: [1.5]}\nsim_steps: 1\nseeds: [0]",
         "grid.k[0] must be an integer, got 1.5"),
        ("dubins", "optimizer: {antithetic: 'false'}\nsim_steps: 1\ngrid: {k: [1]}\nseeds: [0]",
         "optimizer.antithetic must be true or false, got 'false'"),
        ("dubins", "optimizer: {eta: true}\nsim_steps: 1\ngrid: {k: [1]}\nseeds: [0]",
         "optimizer.eta must be a finite number, got True"),
        ("dubins", "optimizer: {eta: .inf}\nsim_steps: 1\ngrid: {k: [1]}\nseeds: [0]",
         "optimizer.eta must be a finite number, got inf"),
        ("dubins", "optimizer: {eps_stat: true}\nsim_steps: 1\ngrid: {k: [1]}\nseeds: [0]",
         "unknown config key 'optimizer.eps_stat'"),
        ("dubins", "optimizer: {eps_stat: .nan}\nsim_steps: 1\ngrid: {k: [1]}\nseeds: [0]",
         "unknown config key 'optimizer.eps_stat'"),
        ("lqr", "optimizer: {eps_stat: true, n_samples: 200, iterations: 2}\n"
         "grid: {eta: [1.0]}\nseeds: [0]", "unknown config key 'optimizer.eps_stat'"),
        ("lqr", "optimizer: {eps_stat: -.inf, n_samples: 200, iterations: 2}\n"
         "grid: {eta: [1.0]}\nseeds: [0]", "unknown config key 'optimizer.eps_stat'"),
        ("lqr", "optimizer: {eta: true, n_samples: 200, iterations: 2}\ngrid: {eta: [1.0]}\n"
         "seeds: [0]", "unknown config key 'optimizer.eta'"),
        ("lqr", "grid: null", "grid must be a mapping, got None"),
        ("lqr", "optimizer: null", "optimizer must be a mapping, got None"),
        ("lqr", "sampling: null", "sampling must be a mapping, got None"),
        ("lqr", "fd: null", "fd must be a mapping, got None"),
        ("lqr", "problem: null", "problem must be a mapping, got None"),
        ("dubins", "sampling: [0.25, 4.0]", "sampling must be a mapping, got [0.25, 4.0]"),
        ("dubins", "grid: {tau: [0.5, 8.0], sigma2: [9.0]}\nsim_steps: 1\nseeds: [0]",
         "grid axis 'tau' is not swept by the dubins experiment (it sweeps k)"),
        ("lqr", "grid: {k: [1, 5]}", "grid axis 'k' is not swept by the lqr experiment"),
        ("lqr", "grid: {bogus: [1]}", "grid axis 'bogus' is not swept by the lqr experiment"),
        ("theory", "grid: {eta: [1.0]}",
         "grid axis 'eta' is not swept by the theory experiment (it sweeps nothing)"),
        ("theory", "grid: null", "grid must be a mapping, got None"),
        ("lqr", "problem: {horizon: true}", "problem.horizon must be an integer, got True"),
        ("lqr", "problem: {horizon: 10.7}", "problem.horizon must be an integer, got 10.7"),
        ("dubins", "problem: {horizon: 20.5}", "problem.horizon must be an integer, got 20.5"),
        ("dubins", "problem: {horizon: 0}", "horizon must be >= 1"),
        ("dubins", "problem: {speed: true}", "problem.speed must be a finite number, got True"),
        ("dubins", "problem: {dt: true}", "problem.dt must be a finite number, got True"),
        ("dubins", "problem: {r_weight: true}", "problem.r_weight must be a finite number, got True"),
        ("dubins", "problem: {w_max: .inf}", "problem.w_max must be a finite number, got inf"),
        ("lqr", "fd: {enabled: 'no'}", "fd.enabled must be true or false, got 'no'"),
        ("theory", "inject_bug: 'false'", "inject_bug must be true or false, got 'false'"),
        ("theory", "seeds: [0]", "unknown config key 'seeds'"),  # a snapshot from before
        ("dubins", "problem: {x0: [.nan, 0.0, 0.0]}",
         "problem.x0[0] must be a finite number, got nan"),
        ("dubins", "problem: {obstacles: [[1.0, 1.0, .inf]]}",
         "problem.obstacles[0][2] must be a finite number, got inf"),
        ("lqr", "problem: {x0: [.nan, 0.0]}", "problem.x0[0] must be a finite number, got nan"),
        ("lqr", "fd: {h: true}", "fd.h must be a finite number, got True"),
        ("lqr", "optimiser: {n_samples: 3}", "unknown config key 'optimiser'"),
        ("dubins", "sampling: {sigma: 1.0}", "unknown config key 'sampling.sigma'"),
        ("lqr", "seeds: [18446744073709551616]", "seeds must be below 2**64"),
        ("lqr", "sampling: {tau: " + "9" * 400 + "}", "sampling.tau must be a finite number"),
        ("dubins", "sim_steps: " + "9" * 4301, "not valid YAML"),
        # a repeat would run its cells twice under one record name
        ("lqr", "seeds: [0, 0]", "seeds lists 0 twice"),
        ("lqr", "grid: {eta: [1.0], tau: [1, 1.0]}", "grid.tau lists 1.0 twice"),
        ("dubins", "grid: {k: [1, 1]}", "grid.k lists 1 twice"),
        # a spec vector of the wrong length, and an obstacle of negative radius
        ("lqr", "problem: {x0: [2.5]}", "invalid lqr config: x0 must have length 2"),
        ("lqr", "problem: {x_min: [-5.0]}", "invalid lqr config: x_min must have length 2"),
        ("lqr", "problem: {x_max: [5.0, 1.0, 3.0]}", "invalid lqr config: x_max must have length 2"),
        ("lqr", "problem: {u_min: [-1.0, -1.0]}", "invalid lqr config: u_min must have length 1"),
        ("lqr", "problem: {u_max: []}", "invalid lqr config: u_max must have length 1"),
        ("dubins", "problem: {x0: [0.0, 0.0]}", "invalid dubins config: x0 must have length 3"),
        ("dubins", "problem: {target: [6.0, 6.0]}",
         "invalid dubins config: target must have length 3"),
        ("dubins", "problem: {q_weights: [1.0, 1.0]}",
         "invalid dubins config: q_weights must have length 3"),
        ("dubins", "problem: {obstacles: [[1.0, 1.0, -0.5]]}",
         "invalid dubins config: every obstacle radius must be positive"),
        # an inverted box, and a ragged matrix or obstacle list
        ("lqr", "problem: {u_min: [2.0], u_max: [1.0]}",
         "invalid lqr config: u_min must not exceed u_max: coordinate 0"),
        ("lqr", "problem: {x_min: [-5.0, 1.0], x_max: [5.0, -1.0]}",
         "invalid lqr config: x_min must not exceed x_max: coordinate 1"),
        ("lqr", "problem: {a: [[1.0, 1.0], [0.0]]}",
         "invalid lqr config: a must be a rectangular array of numbers"),
        ("dubins", "problem: {obstacles: [[1.0, 1.0, 1.0], [1.0, 1.0]]}",
         "invalid dubins config: obstacles must be a rectangular array of numbers"),
        # a negative cost weight leaves the cost unbounded below
        ("dubins", "problem: {r_weight: -1.0}",
         "invalid dubins config: r_weight must be non-negative, got -1.0"),
        ("dubins", "problem: {q_weights: [1.0, -1.0, 0.01]}",
         "invalid dubins config: q_weights must be non-negative, got [1.0, -1.0, 0.01]"),
    ],
    ids=["dubins_negative_dt", "lqr_zero_horizon", "lqr_wrong_a_shape", "dubins_odd_antithetic",
         "dubins_negative_sigma2", "dubins_non_numeric_tau", "lqr_zero_tau_in_grid",
         "lqr_fd_zero_h", "lqr_fd_non_numeric_alpha", "lqr_fd_budget_below_one_iteration",
         "lqr_nan_sigma2", "lqr_nan_eta_in_grid", "lqr_inf_tau_in_grid",
         "dubins_max_retries_key", "lqr_boolean_seed", "lqr_boolean_sigma2_and_tau",
         "dubins_boolean_sim_steps", "dubins_text_sim_steps", "lqr_boolean_iterations",
         "lqr_max_retries_key", "lqr_fractional_n_samples", "dubins_fractional_k_cell",
         "dubins_text_antithetic", "dubins_boolean_eta", "dubins_infinite_eta",
         "dubins_eps_stat_key", "dubins_nan_eps_stat_key", "lqr_eps_stat_key",
         "lqr_inf_eps_stat_key", "lqr_optimizer_eta_key", "lqr_null_grid",
         "lqr_null_optimizer", "lqr_null_sampling", "lqr_null_fd", "lqr_null_problem",
         "dubins_list_sampling", "dubins_unswept_tau_and_sigma2_axes", "lqr_unswept_k_axis",
         "lqr_unknown_grid_axis", "theory_any_grid_axis", "theory_null_grid",
         "lqr_boolean_horizon", "lqr_fractional_horizon", "dubins_fractional_horizon",
         "dubins_zero_horizon", "dubins_boolean_speed", "dubins_boolean_dt",
         "dubins_boolean_r_weight", "dubins_infinite_w_max", "lqr_text_fd_enabled",
         "theory_text_inject_bug", "theory_seeds_key", "dubins_nan_x0", "dubins_infinite_obstacle_radius",
         "lqr_nan_x0", "lqr_boolean_fd_h", "lqr_misspelt_section", "dubins_misspelt_sampling_key",
         "lqr_seed_beyond_64_bits", "lqr_int_tau_beyond_float_range", "dubins_int_past_digit_limit",
         "lqr_repeated_seed", "lqr_tau_repeated_as_int_and_float", "dubins_repeated_k",
         "lqr_short_x0", "lqr_short_x_min", "lqr_long_x_max", "lqr_long_u_min", "lqr_empty_u_max",
         "dubins_short_x0", "dubins_short_target", "dubins_short_q_weights",
         "dubins_negative_obstacle_radius", "lqr_inverted_u_box", "lqr_inverted_x_box",
         "lqr_ragged_a", "dubins_ragged_obstacles", "dubins_negative_r_weight",
         "dubins_negative_q_weight"],
)
def test_cli_bad_problem_or_optimizer_value_is_a_config_error(
    tmp_path, capsys, experiment, section, message
):
    path = write_cfg(tmp_path, f"version: 1\nexperiment: {experiment}\n{section}\n")
    out = tmp_path / "o"
    assert cli.main(["run", "--experiment", experiment, "--config", str(path),
                     "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error:") and message in err
    assert not out.exists()


def test_lqr_rule_stays_a_valid_eta(tmp_path):
    cfg = load_config(write_cfg(tmp_path, "version: 1\nexperiment: lqr\ngrid: {eta: [rule, 0.5]}\n"))
    assert [cell["eta"] for cell in cfg.cells()] == ["rule", 0.5]
    with pytest.raises(ConfigError, match="unknown config key 'optimizer.eta'"):  # grid cells only
        load_config(write_cfg(tmp_path, "version: 1\nexperiment: lqr\noptimizer: {eta: rule}\n"))


@pytest.mark.parametrize(
    "experiment, body, cells",
    [
        ("lqr", "grid: {sigma2: [1.0e-4, 3.0e-4], tau: [1.0, 2.0], eta: [1.0, rule]}",
         [{"sigma2": s2, "tau": tau, "eta": eta}
          for s2 in (1.0e-4, 3.0e-4) for tau in (1.0, 2.0) for eta in (1.0, "rule")]),
        ("lqr", "sampling: {sigma2: 2.0e-4}\ngrid: {tau: [1, 2.0], eta: [1, rule]}",
         [{"sigma2": 2.0e-4, "tau": tau, "eta": eta} for tau in (1.0, 2.0) for eta in (1, "rule")]),
        ("lqr", "sampling: {tau: 3}\ngrid: {sigma2: [1, 2.0e-4]}",
         [{"sigma2": s2, "tau": 3.0, "eta": eta} for s2 in (1.0, 2.0e-4) for eta in (1.0, "rule")]),
        ("dubins", "grid: {k: [1, 3]}", [{"k": 1}, {"k": 3}]),
        ("theory", "inject_bug: true", [{}]),
    ],
    ids=["lqr_last_axis_fastest", "lqr_sigma2_from_sampling", "lqr_tau_from_sampling",
         "dubins_k", "theory_no_axes"],
)
def test_cells_enumerate_the_swept_axes(tmp_path, experiment, body, cells):
    """Sampling axes are floats, from the grid or else `sampling`; eta and k stay as written."""
    cfg = load_config(write_cfg(tmp_path, f"version: 1\nexperiment: {experiment}\n{body}\n"))
    assert repr(cfg.cells()) == repr(cells)  # repr tells 1 from 1.0


def test_run_lqr_names_its_records_by_cell_then_seed(tmp_path):
    """Record names are file names of the byte-reproducible output."""
    cfg = load_config(write_cfg(tmp_path, """
version: 1
experiment: lqr
seeds: [0, 1]
optimizer: {n_samples: 200, iterations: 2}
grid: {tau: [1, 2.0], eta: [1, rule]}
"""))
    assert [record.name for record in run_lqr(cfg)] == [
        "lqr_eta-1_sigma2-0p0001_tau-1p0_seed0",
        "lqr_eta-1_sigma2-0p0001_tau-1p0_seed1",
        "lqr_eta-rule_sigma2-0p0001_tau-1p0_seed0",
        "lqr_eta-rule_sigma2-0p0001_tau-1p0_seed1",
        "lqr_eta-1_sigma2-0p0001_tau-2p0_seed0",
        "lqr_eta-1_sigma2-0p0001_tau-2p0_seed1",
        "lqr_eta-rule_sigma2-0p0001_tau-2p0_seed0",
        "lqr_eta-rule_sigma2-0p0001_tau-2p0_seed1",
    ]


def test_cli_bad_grid_override(tmp_path, capsys):
    path = write_cfg(tmp_path, TINY_LQR)
    code = cli.main(
        ["run", "--experiment", "lqr", "--config", str(path), "--grid", "noequals"]
    )
    assert code == 1
    code = cli.main(["run", "--experiment", "lqr", "--config", str(path), "--grid", "k=1,5"])
    assert code == 1
    assert "grid axis 'k' is not swept by the lqr experiment" in capsys.readouterr().err
    for bad in ("eta=[1", "tau=" + "9" * 4301):  # a YAML error; an int past the digit limit
        code = cli.main(["run", "--experiment", "lqr", "--config", str(path), "--grid", bad])
        assert code == 1
        assert "config error: grid override" in capsys.readouterr().err
    code = cli.main(["run", "--experiment", "lqr", "--config", str(path), "--grid", "tau=1,1.0"])
    assert code == 1
    assert "config error: grid.tau lists 1.0 twice" in capsys.readouterr().err


def test_cli_theory_ok_and_injected_failure(tmp_path, capsys):
    out = tmp_path / "out"
    code = cli.main(
        ["run", "--experiment", "theory", "--config", "configs/theory.yaml", "--out", str(out)]
    )
    assert code == 0
    assert (out / "theory_report.json").exists()
    assert (out / "theory_report.txt").exists()
    snapshot = (out / "config_snapshot.yaml").read_text().splitlines()
    assert snapshot[:2] == ["experiment: theory", "inject_bug: false"]  # block style, no seeds
    assert "pass" in capsys.readouterr().out

    bugged = write_cfg(
        tmp_path, "version: 1\nexperiment: theory\ninject_bug: true\n", "bug.yaml"
    )
    code = cli.main(
        ["run", "--experiment", "theory", "--config", str(bugged), "--out", str(out / "bug")]
    )
    assert code == 3


def test_cli_lqr_run_emits_artifacts(tmp_path, capsys):
    cfg = write_cfg(tmp_path, TINY_LQR)
    out = tmp_path / "results"
    code = cli.main(
        ["run", "--experiment", "lqr", "--config", str(cfg), "--out", str(out)]
    )
    assert code == 0
    captured = capsys.readouterr().out
    assert "wrote 2 records" in captured
    files = sorted(p.name for p in out.iterdir())
    assert "lqr_eta-1p0_sigma2-0p0001_tau-1p0_seed0.csv" in files
    assert "config_snapshot.yaml" in files
    snap = yaml.safe_load((out / "config_snapshot.yaml").read_text())
    assert snap["version"] == 1 and snap["experiment"] == "lqr"


# ---------------------------------------------------------------------------
# the boundary contract: a config runs (exit 0), is refused (exit 1) or flags
# the record of a failed method, the oracle, the start, L_sigma or FD (exit 2)
# ---------------------------------------------------------------------------

_FD = ("seeds: [0]\noptimizer: {n_samples: 16, iterations: 2}\ngrid: {eta: [1.0]}\n"
       "fd: {enabled: true, %s, budget_evals: 440}\n")
_L_SIGMA = ("seeds: [0]\nsampling: {sigma2: %s, tau: %s}\n"
            "optimizer: {n_samples: 64, iterations: 3}\n")
_OVERFLOW_DUBINS = ("seeds: [0]\nsim_steps: 2\nproblem: {%s}\noptimizer: {n_samples: 16}\n"
                    "grid: {k: [2]}\n")
_INFLATION = "seeds: [0]\nsampling: {sigma2: 1.0e+308, tau: 1.0}\n"  # every sample is infeasible
_TILT = r"l_sigma failure: tilted precision Sigma\^-1 \+ Q/tau is not finite for tau = "
_NOT_CERTIFIABLE = r"step 0: objective is not finite on the known-feasible sequence$"

# (experiment, config body, extra argv, exit code, the record that flags the
# fault, a regular expression matched at the start of its reason (of stderr
# for exit 1), whether the run warns of an overflow); a row that does not
# warn may raise no RuntimeWarning at all
BOUNDARY_FAULTS = [
    pytest.param("lqr", ORACLE_FAILURE_LQR, [], 2, "lqr_method-oracle_seed0",
                 "qp oracle failure: constraints are inconsistent", False, id="oracle_infeasible"),
    pytest.param(  # zero weights lift to Q_qp = 0: semidefinite, so it loads, but not certifiable
        "lqr", "seeds: [0]\nproblem: {q: [[0.0, 0.0], [0.0, 0.0]], r: [[0.0]]}\n"
        "optimizer: {n_samples: 100, iterations: 5}\ngrid: {eta: [1.0]}\n", [], 2,
        "lqr_method-oracle_seed0",
        "qp oracle failure: reference solve needs a positive definite Q_qp", False,
        id="oracle_singular_q"),
    pytest.param(  # the free response A^t x0 overflows, and with it c and the constant
        "lqr", "seeds: [0]\nproblem: {x0: [1.0e+308, 0.0]}\n", [], 2, "lqr_method-oracle_seed0",
        "qp oracle failure: Q_qp, c and the constant must be finite", True, id="lift_overflow"),
    pytest.param("lqr", UNUSABLE_START_LQR, [], 2, "lqr_method-start_seed0",
                 "start failure: the zero control sequence is infeasible", False,
                 id="unusable_start"),
    pytest.param("lqr", _L_SIGMA % ("1.0e-4", "1.0e-306"), [], 2, "lqr_method-l_sigma_seed0",
                 _TILT, False, id="l_sigma_tiny_tau"),
    pytest.param("lqr", _L_SIGMA % ("1.0e-320", "1.0"), [], 2, "lqr_method-l_sigma_seed0",
                 _TILT, False, id="l_sigma_tiny_sigma2"),
    pytest.param(  # at tau = 1e308 the closed-form L_sigma is subnormal: 1/L_sigma is infinite
        "lqr", _L_SIGMA % ("1.0e-4", "1.0e+308"), [], 2, "lqr_method-l_sigma_seed0",
        "l_sigma failure: eta = 1/L_sigma is not a finite", False, id="l_sigma_rule_step"),
    pytest.param(  # one covariance doubling overflows; the lane forms no log Z, so no warning
        "lqr", _INFLATION + "optimizer: {n_samples: 16, iterations: 3}\ngrid: {eta: [1.0]}\n", [],
        0, "lqr_eta-1p0_sigma2-1e+308_tau-1p0_seed0",
        "optimizer abort: all 16 samples infeasible at iteration 0$", False, id="inflation_lqr"),
    pytest.param(  # the rollouts overflow on the way
        "dubins", _INFLATION + "sim_steps: 2\noptimizer: {n_samples: 16}\ngrid: {k: [2]}\n", [],
        0, "dubins_k-2_seed0", "step 0: all 16 samples infeasible at iteration 0$", True,
        id="inflation_dubins"),
    pytest.param("dubins", _OVERFLOW_DUBINS % "speed: 1.0e+308", [], 0, "dubins_k-2_seed0",
                 _NOT_CERTIFIABLE, True, id="certificate_speed"),
    pytest.param("dubins", _OVERFLOW_DUBINS % "dt: 1.0e+300", [], 0, "dubins_k-2_seed0",
                 _NOT_CERTIFIABLE, True, id="certificate_dt"),
    pytest.param("dubins", _OVERFLOW_DUBINS % "q_weights: [1.0e+308, 1.0e+308, 1.0]", [], 0,
                 "dubins_k-2_seed0", _NOT_CERTIFIABLE, True, id="certificate_q_weights"),
    *(pytest.param(  # a step so long that the projector reads it as inconsistent constraints
        "lqr", _FD % f"alpha: {alpha}", [], 2, "lqr_method-fd_seed0",
        "projection failure: constraints are inconsistent", False, id=f"fd_alpha_{alpha}")
      for alpha in ("1.0e+8", "1.0e+300")),
    pytest.param(  # a finite iterate whose constraint products overflow in the projector
        "lqr", _FD % "alpha: 1.0e+305", [], 2, "lqr_method-fd_seed0",
        "projection failure: NNLS input is not finite", False, id="fd_alpha_1.0e+305"),
    *(pytest.param(  # the step itself overflows, caught where it happens
        "lqr", _FD % f"{leaf}: 1.0e+308", [], 2, "lqr_method-fd_seed0",
        "fd failure: FD iterate is not finite after step 0$", False,
        id=f"fd_{leaf}_1.0e+308") for leaf in ("alpha", "h")),
    pytest.param(
        "lqr", "seeds: [0]\noptimizer: {n_samples: 200, iterations: 20}\ngrid: {eta: [1.0]}\n"
        "fd: {enabled: true, budget_evals: 440}\n", ["--seed", "-1"], 1, None,
        "config error: seeds must be non-negative", False, id="negative_seed"),
    pytest.param("theory", "inject_bug: false\n", ["--seed", "12345"], 1, None,
                 "config error: --seed does not apply to the theory experiment", False,
                 id="seed_for_theory"),
]


@pytest.mark.parametrize("experiment, body, argv, code, record, reason, warns", BOUNDARY_FAULTS)
def test_cli_boundary_fault(tmp_path, capsys, experiment, body, argv, code, record, reason, warns):
    out = tmp_path / "o"
    config = write_cfg(tmp_path, f"version: 1\nexperiment: {experiment}\n{body}")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", RuntimeWarning)
        assert cli.main(["run", "--experiment", experiment, "--config", str(config),
                         "--out", str(out), "--workers", "1", *argv]) == code
    runtime = [str(w.message) for w in caught if issubclass(w.category, RuntimeWarning)]
    assert any("overflow" in message for message in runtime) if warns else runtime == []
    captured = capsys.readouterr()
    assert "Traceback" not in captured.err
    if code == 1:  # refused before anything ran or was written
        assert re.match(reason, captured.err)
        assert captured.out == "" and not out.exists()
        return
    summaries = [p.name for p in out.glob("summary_*.json")]
    # a failed FD baseline flags its own record beside the cells; any other is the only record
    assert f"summary_{record}.json" in summaries
    assert len(summaries) == 1 or "method-fd" in record
    doc = json.loads((out / f"summary_{record}.json").read_text())
    assert RunRecord(experiment, doc["cell"], doc["seed"]).name == record
    assert doc["flagged"] and re.match(reason, doc["flag_reason"])
    assert f"{record}: FLAGGED ({doc['flag_reason']})" in captured.out


SWEEP_CONFIGS = {
    "lqr": "seeds: [0]\nproblem: {horizon: 4}\ngrid: {eta: [1.0, rule]}\n"
           "optimizer: {n_samples: 16, iterations: 3}\nfd: {enabled: true, budget_evals: 50}\n",
    "dubins": "seeds: [0]\nsim_steps: 2\ngrid: {k: [1]}\noptimizer: {n_samples: 16}\n"
              "problem: {horizon: 6, obstacles: [[3.0, 3.0, 0.6], [4.5, 1.5, 0.6]]}\n",
}
SWEEP_VALUES = {
    float: (0.0, -1.0, 1.0e308, -1.0e308, 1.0e-308, 5.0e-324, math.nan, math.inf, -math.inf),
    int: (0, -1, 1),
}


def _numeric_leaves(doc, path=()):
    """The path and type of each int or float leaf of a config; bools and strings stay put."""
    for key, value in doc.items() if isinstance(doc, dict) else enumerate(doc):
        if isinstance(value, (dict, list)):
            yield from _numeric_leaves(value, (*path, key))
        elif type(value) in SWEEP_VALUES:
            yield (*path, key), type(value)


@pytest.mark.parametrize("experiment", ["lqr", "dubins"])
def test_cli_boundary_contract_holds_leaf_by_leaf(tmp_path, capsys, experiment):
    """Each numeric leaf of a tiny config, one at a time, through every value of SWEEP_VALUES.

    The leaves are read off the loader's defaults merged with the tiny config,
    so a new key is swept with no edit here.  Every run exits 0, 1 or 2 and
    raises nothing; exit 1 prints a config error, and exit 2, and only exit 2,
    leaves a flagged record of a failed method.  An exit-0 run may overflow on
    its way to a flagged cell record, so RuntimeWarnings are ignored here.
    """
    header = f"version: 1\nexperiment: {experiment}\n"
    resolved = load_config(write_cfg(tmp_path, header + SWEEP_CONFIGS[experiment])).resolved
    broken = []
    for i, (path, kind) in enumerate(_numeric_leaves(resolved)):
        for j, value in enumerate(SWEEP_VALUES[kind]):
            doc = copy.deepcopy(resolved)
            functools.reduce(operator.getitem, path[:-1], doc)[path[-1]] = value
            config = write_cfg(tmp_path, header + yaml.safe_dump(doc))
            out = tmp_path / f"o{i}-{j}"
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)
                try:
                    code = cli.main(["run", "--experiment", experiment, "--config", str(config),
                                     "--out", str(out), "--workers", "1"])
                except Exception as exc:  # an escape, the one outcome the contract rules out
                    code = f"{type(exc).__name__}: {exc}"
            err = capsys.readouterr().err
            docs = [json.loads(p.read_text()) for p in out.glob("summary_*.json")]
            failed = any(d["flagged"] and "method" in d["cell"] for d in docs)
            if not (code == 1 and err.startswith("config error:")
                    or code in (0, 2) and failed == (code == 2)):
                broken.append(f"{'.'.join(map(str, path))} = {value!r}: {code}")
    assert not broken, "\n".join(broken)


def test_cli_theory_quadrature_failure_exit_code(tmp_path, capsys, monkeypatch):
    """A Simpson doubling capped at its start count cannot converge: exit 2, no report."""
    monkeypatch.setattr(analysis, "MAX_CELLS_1D", analysis.START_CELLS)
    out = tmp_path / "o"
    code = cli.main(
        ["run", "--experiment", "theory", "--config", "configs/theory.yaml", "--out", str(out)]
    )
    assert code == 2
    assert capsys.readouterr().err.startswith("oracle failure:")
    assert not (out / "theory_report.json").exists()


def test_cli_run_survives_a_reader_that_closes_stdout(tmp_path):
    """A closed pipe on stdout (as under `| head -1`) ends the printing, not the run."""
    cfg = write_cfg(tmp_path, TINY_DUBINS.replace("seeds: [0]", "seeds: [0, 1]")
                    .replace("k: [1]", "k: [1, 2]"))
    out = tmp_path / "d"
    proc = subprocess.Popen(
        [sys.executable, "-u", "-m", "mppigrad.bench.cli", "run", "--experiment", "dubins",
         "--config", str(cfg), "--out", str(out)],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=_child_env(),
    )
    proc.stdout.close()  # long before the child's first print: it is still importing
    stderr = proc.stderr.read().decode()
    assert proc.wait(timeout=300) == 0, stderr
    assert "Traceback" not in stderr
    summaries = sorted(p.name for p in out.glob("summary_*.json"))
    assert summaries == [f"summary_dubins_k-{k}_seed{s}.json" for k in (1, 2) for s in (0, 1)]


def test_cli_seed_and_grid_overrides_reach_the_run(tmp_path):
    cfg = write_cfg(tmp_path, TINY_DUBINS)
    out = tmp_path / "d"
    code = cli.main(
        ["run", "--experiment", "dubins", "--config", str(cfg), "--out", str(out),
         "--seed", "5", "--grid", "k=2"]
    )
    assert code == 0
    assert (out / "dubins_k-2_seed5.csv").exists()
    snap = yaml.safe_load((out / "config_snapshot.yaml").read_text())
    assert snap["seeds"] == [5]


# ---------------------------------------------------------------------------
# benchmark tracer
# ---------------------------------------------------------------------------


def test_perfbench_tracer_finds_every_wrap_target(monkeypatch):
    """Each layer the benchmark reports on still exists under the name it patches."""
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    import tracing

    tracer = tracing.Tracer()
    tracing.instrument(tracer)
    try:
        assert tracer.missing == []
    finally:
        tracer.close()


def test_perfbench_tracer_sees_the_dubins_closed_loop(tmp_path, monkeypatch):
    """A traced Dubins run records the spans of every layer its closed loop crosses.

    Runs in-process: the traced `dubins_loop` benchmark takes about 25 s.
    """
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    import tracing

    cfg = load_config(write_cfg(tmp_path, TINY_DUBINS))
    tracer = tracing.Tracer()
    tracing.instrument(tracer)
    try:
        [record] = run_dubins(cfg, max_workers=1)
    finally:
        tracer.close()
    assert not record.flagged
    calls = collections.Counter(span[0] for span in tracer.spans)
    assert calls["problems.build"] == calls["optimizer.run"] == 4  # one per sim step
    assert calls["optimizer.step"] == 4 > 0
    for name in ("sampling.draw", "sampling.evaluate", "sampling.weigh"):
        assert calls[name] >= 4
    parents = {tracer.spans[span[3]][0] for span in tracer.spans if span[0] == "optimizer.step"}
    assert parents == {"optimizer.run"}


@pytest.mark.parametrize("workload", ["lqr_sampled", "lqr_fd"])
def test_traced_benchmark_run_reports_every_per_layer_metric(tmp_path, workload):
    """A traced run exits 0 and its result line carries each per-layer metric BENCHMARK.json names.

    A wrap target that no longer exists drops its metrics from that line.
    The run uses a copy of perfbench/ beside a link to src/, so the files it
    writes land under tmp_path, not in the checkout.  Each run takes about
    3 s; dubins_loop is left out: its two-round minimum takes about 25 s.
    """
    root = Path(__file__).resolve().parents[1]
    names = [m["name"] for m in json.loads((root / "BENCHMARK.json").read_text())["per_layer"]]
    shutil.copytree(
        root / "perfbench", tmp_path / "perfbench",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    (tmp_path / "src").symlink_to(root / "src", target_is_directory=True)
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "0",
         "--seconds", "1", "--trace", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stdout[-2000:] + done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert result["correct"]
    assert [n for n in names if n not in result["metrics"]] == []


def test_each_module_imports_in_a_fresh_interpreter():
    """An import cycle shows only in an interpreter that has imported nothing yet."""
    # the CLI imports each runner on dispatch, so every runner is named here too
    modules = ("mppigrad.problems", "mppigrad.qp", "mppigrad.analysis", "mppigrad.bench.cli",
               "mppigrad.bench.lqr", "mppigrad.bench.dubins", "mppigrad.bench.theory")
    for module in modules:
        done = subprocess.run(
            [sys.executable, "-c", f"import {module}"],
            env=_child_env(), capture_output=True, text=True, timeout=120,
        )
        assert done.returncode == 0, f"import {module} failed:\n{done.stderr}"


def test_readme_library_quickstart_runs():
    """The README's quickstart block runs as written in a fresh interpreter."""
    root = Path(__file__).resolve().parents[1]
    readme = (root / "README.md").read_text(encoding="utf-8")
    section = readme[readme.index("## Library quickstart"):]
    block = section[section.index("```python\n") + len("```python\n"):]
    block = block[: block.index("```")]
    assert "from mppigrad.sampling import GaussianPolicy" in block
    done = subprocess.run(
        [sys.executable, "-c", block],
        cwd=root, env=_child_env(), capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    cost, feasible, ess = done.stdout.split()
    assert math.isfinite(float(cost)) and feasible == "True" and float(ess) >= 1.0


NO_SCIPY_PROBE = """\
import sys, tempfile
from pathlib import Path
if sys.argv[1] == "blocked":
    sys.modules["scipy"] = None  # importing scipy or any submodule now raises ImportError
from mppigrad import qp
from mppigrad.bench.cli import main
from mppigrad.bench.config import load_config
from mppigrad.bench.lqr import _build_spec
from mppigrad.optimizer import PgdConfig, pgd_step
from mppigrad.problems import DubinsSpec, dubins_problem
from mppigrad.sampling import GaussianPolicy
cfg = load_config("configs/dubins.yaml")
problem = dubins_problem(DubinsSpec(**cfg.section("problem")))
pgd_step(problem, GaussianPolicy(problem.known_feasible, 0.25, tau=4.0), PgdConfig(n_samples=64), 0)
desk = qp.lift(_build_spec(load_config("configs/lqr.yaml").section("problem")))
gap = qp.solve_verified(desk).duality_gap
with tempfile.TemporaryDirectory() as tmp:
    Path(tmp, "cfg.yaml").write_text(sys.argv[2])
    code = main(["run", "--experiment", "lqr", "--config", f"{tmp}/cfg.yaml", "--out", f"{tmp}/o",
                 "--workers", "1"])
loaded = sorted(m for m, mod in sys.modules.items() if m.split(".")[0] == "scipy" and mod)
print(repr(gap), code, loaded)
"""


NUMPY_RANDOM_PROBE = """\
import sys
from mppigrad.bench.cli import main
from mppigrad.bench.config import load_config
for name in ("lqr", "dubins", "theory"):
    load_config(f"configs/{name}.yaml")
print("numpy.random" in sys.modules)
"""


def test_config_loading_leaves_numpy_random_unloaded():
    """The Philox key type is built at the first draw, not when the package loads."""
    done = subprocess.run(
        [sys.executable, "-c", NUMPY_RANDOM_PROBE],
        cwd=ROOT, env=_child_env(), capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["False"]


IMPORT_ON_USE_PROBE = """\
import json, sys, tempfile
from pathlib import Path
from mppigrad.bench import load_config
for name in ("lqr", "dubins", "theory"):
    load_config(f"configs/{name}.yaml")
loaded = {}
loaded["load_config"] = sorted(m for m in sys.argv[2:] if m in sys.modules)
from mppigrad.bench.cli import main
with tempfile.TemporaryDirectory() as tmp:
    Path(tmp, "cfg.yaml").write_text(sys.argv[1])
    args = ["run", "--experiment", "dubins", "--config", f"{tmp}/cfg.yaml", "--out", f"{tmp}/o"]
    loaded["code"] = main([*args, "--workers", "1"])
loaded["dubins"] = sorted(m for m in sys.argv[2:] if m in sys.modules)
import mppigrad.bench
loaded["same"] = mppigrad.bench.run_lqr is mppigrad.bench.lqr.run_lqr
print(json.dumps(loaded))
"""


def test_config_loading_and_each_cli_path_import_only_what_they_run():
    """Loading a config loads no runner, `qp` or `analysis`; a Dubins run adds no LQR module."""
    lqr_side = ["mppigrad.analysis", "mppigrad.bench.lqr", "mppigrad.bench.theory", "mppigrad.qp"]
    runners = ["mppigrad.bench.dubins", "mppigrad.bench.records"]
    tiny = TINY_DUBINS.replace("sim_steps: 4", "sim_steps: 1")
    done = subprocess.run(
        [sys.executable, "-c", IMPORT_ON_USE_PROBE, tiny, *lqr_side, *runners],
        cwd=ROOT, env=_child_env(), capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    loaded = json.loads(done.stdout.splitlines()[-1])
    assert loaded["load_config"] == []
    assert loaded["code"] == 0
    assert loaded["dubins"] == runners
    assert loaded["same"] is True


@pytest.mark.parametrize("scipy_state", ["importable", "blocked"])
def test_no_run_path_needs_scipy(scipy_state):
    """Config loading, a Dubins step, the desk QP oracle and an LQR run with FD load no scipy.

    With scipy importable, none of it is imported; with it blocked, the
    certified oracle and the run (its sampled cell and projected FD
    baseline) still succeed, so scipy is a test dependency only.
    """
    done = subprocess.run(
        [sys.executable, "-c", NO_SCIPY_PROBE, scipy_state, TINY_LQR],
        cwd=ROOT, env=_child_env(), capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    gap, code, loaded = done.stdout.splitlines()[-1].split(" ", 2)
    assert abs(float(gap)) < 1e-6
    assert code == "0", done.stdout
    assert loaded == "[]", f"scipy loaded on a run path: {loaded}"


FAILING_PROPERTY = """\
import warnings

from hypothesis import given, settings, strategies as st


@settings(max_examples=20, database=None, deadline=None)
@given(st.integers(0, 100))
def test_deliberately_false(x):
    assert x < 10


def test_other_deprecations_stay_errors():
    warnings.warn("any other deprecation", DeprecationWarning)
"""


def test_a_failing_property_test_is_reported_under_the_suite_settings(tmp_path):
    """A Hypothesis failure prints its falsifying example and exits 1, not INTERNALERROR (3).

    Reporting the example loads libcst, which subclasses the deprecated
    mypy_extensions.TypedDict; `pyproject.toml` ignores that one warning and
    keeps every other DeprecationWarning an error.
    """
    (tmp_path / "test_false.py").write_text(FAILING_PROPERTY)
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(ROOT / "pyproject.toml"), "--rootdir", str(tmp_path), "test_false.py"],
        cwd=tmp_path, env=_child_env(), capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 1, done.stdout + done.stderr
    assert "Falsifying example: test_deliberately_false(" in done.stdout
    assert "DeprecationWarning: any other deprecation" in done.stdout
    assert "2 failed" in done.stdout
    assert "INTERNALERROR" not in done.stdout + done.stderr


# the contract across hosts: discrete values equal, continuous ones within this
CROSS_HOST_RTOL = 1e-9

CROSS_HOST_CONFIGS = {
    "lqr": """
version: 1
experiment: lqr
seeds: [0]
optimizer: {n_samples: 200, iterations: 100}
grid: {eta: [1.0]}
fd: {enabled: true, budget_evals: 2200}
""",
    "dubins": """
version: 1
experiment: dubins
seeds: [0]
sim_steps: 10
optimizer: {n_samples: 128}
grid: {k: [2]}
""",
}

ENABLED_DISPATCH_PROBE = """\
try:
    from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__
except ImportError:  # numpy 1.x
    from numpy.core._multiarray_umath import __cpu_dispatch__, __cpu_features__
print(" ".join(f for f in __cpu_dispatch__ if __cpu_features__.get(f)))
"""


def _agree(a, b):
    """Equal, or two floats within CROSS_HOST_RTOL * (1 + |a|); containers item by item."""
    if isinstance(a, dict):
        return isinstance(b, dict) and a.keys() == b.keys() and all(_agree(a[k], b[k]) for k in a)
    if isinstance(a, list):
        return isinstance(b, list) and len(a) == len(b) and all(map(_agree, a, b))
    if type(a) is float and type(b) is float:
        close = abs(a - b) <= CROSS_HOST_RTOL * (1.0 + abs(a))
        return a == b or close or (math.isnan(a) and math.isnan(b))
    return type(a) is type(b) and a == b


def _csv_value(text):
    """An int where the text is one (`k`, evaluation counts), else a float, else the text."""
    for kind in (int, float):
        try:
            return kind(text)
        except ValueError:
            pass
    return text


def _output_docs(out_dir):
    """Every CSV and JSON output as plain values, less `ms`, `runtime_seconds` and `config.out`.

    The config snapshot (an input) and the theory report's text rendering are left out.
    """
    docs = {}
    for path in sorted(out_dir.glob("*.csv")):
        header, *rows = [line.split(",") for line in path.read_text().splitlines()]
        keep = [i for i, col in enumerate(header) if col != "ms"]
        docs[path.name] = [[_csv_value(row[i]) for i in keep] for row in [header, *rows]]
    for path in sorted(out_dir.glob("*.json")):
        doc = json.loads(path.read_text())
        if isinstance(doc, dict):  # a run summary; the theory report is a list of rows
            doc["summary"].pop("runtime_seconds", None)
            doc["config"].pop("out", None)
        docs[path.name] = doc
    return docs


def test_outputs_agree_across_cpu_dispatch(tmp_path):
    """The cross-host contract, with another host stood in for by the child's CPU dispatch.

    One child runs as it is; the other runs with numpy's dispatched CPU
    features turned off and OpenBLAS held to its Haswell kernels, which
    rounds some sums differently.  Discrete fields must be equal and
    continuous ones within the documented tolerance.
    """
    root = Path(__file__).resolve().parents[1]
    path = os.pathsep.join([str(root / "src"), os.environ.get("PYTHONPATH", "")])
    env = {**os.environ, "PYTHONPATH": path}
    for key in ("NPY_DISABLE_CPU_FEATURES", "OPENBLAS_CORETYPE"):
        env.pop(key, None)

    def child(args, extra_env):
        done = subprocess.run(
            [sys.executable, *args], cwd=root, env={**env, **extra_env},
            capture_output=True, text=True, timeout=300,
        )
        assert done.returncode == 0, done.stderr
        return done.stdout

    dispatched = child(["-c", ENABLED_DISPATCH_PROBE], {}).split()
    if not dispatched:
        pytest.skip("numpy dispatches no optional CPU feature on this host: nothing to disable")
    other_host = {"NPY_DISABLE_CPU_FEATURES": " ".join(dispatched), "OPENBLAS_CORETYPE": "Haswell"}
    assert child(["-c", ENABLED_DISPATCH_PROBE], other_host).split() == []

    configs = {name: write_cfg(tmp_path, text, f"{name}.yaml")
               for name, text in CROSS_HOST_CONFIGS.items()}
    configs["theory"] = root / "configs" / "theory.yaml"
    for name, cfg in configs.items():
        outputs = []
        for label, extra_env in (("here", {}), ("other", other_host)):
            out = tmp_path / f"{name}_{label}"
            child(["-m", "mppigrad.bench.cli", "run", "--experiment", name,
                   "--config", str(cfg), "--out", str(out)], extra_env)
            outputs.append(_output_docs(out))
        here, other = outputs
        assert here and here.keys() == other.keys()
        for file in here:
            assert _agree(here[file], other[file]), f"{name}: {file} breaks the contract"

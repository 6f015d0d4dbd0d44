"""Benchmark harness: config handling, record emission, runners, CLI."""

import dataclasses
import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import yaml

from mppigrad import qp
from mppigrad.bench import cli
from mppigrad.bench.config import _DUBINS_DEFAULTS, RunConfig, load_config, parse_grid_override
from mppigrad.bench.dubins import run_dubins
from mppigrad.bench.lqr import run_lqr
from mppigrad.bench.records import CSV_HEADER, RunRecord, emit
from mppigrad.bench.theory import format_report, run_theory_suite
from mppigrad.errors import ConfigError

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

# the initial position (2.5) sits outside the state box, so the lifted QP has
# no feasible point and the oracle must refuse to certify a reference value
ORACLE_FAILURE_LQR = """
version: 1
experiment: lqr
seeds: [0]
problem:
  x_min: [-0.1, -1.0]
  x_max: [0.1, 1.0]
optimizer: {n_samples: 100, iterations: 5}
grid: {eta: [1.0]}
"""

# zero state and control weights lift to Q_qp = 0: semidefinite, so the config
# loads, but no reference value can be certified
SINGULAR_Q_LQR = """
version: 1
experiment: lqr
seeds: [0]
problem:
  q: [[0.0, 0.0], [0.0, 0.0]]
  r: [[0.0]]
optimizer: {n_samples: 100, iterations: 5}
grid: {eta: [1.0]}
"""


def write_cfg(tmp_path, text, name="cfg.yaml"):
    path = tmp_path / name
    path.write_text(text)
    return path


# ---------------------------------------------------------------------------
# config loading
# ---------------------------------------------------------------------------


def test_shipped_configs_load():
    for name, experiment in (("lqr", "lqr"), ("dubins", "dubins"), ("theory", "theory")):
        cfg = load_config(f"configs/{name}.yaml")
        assert cfg.experiment == experiment
        assert cfg.seeds


def test_defaults_are_merged(tmp_path):
    cfg = load_config(write_cfg(tmp_path, TINY_LQR))
    assert cfg.section("optimizer")["n_samples"] == 200  # from the file
    assert cfg.section("optimizer")["max_retries"] == 5  # from the defaults
    assert cfg.section("sampling")["sigma2"] == pytest.approx(1e-4)
    assert cfg.grid("eta", []) == [1.0]
    assert cfg.grid("sigma2", [7.0]) == [7.0]  # fallback when not gridded


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
    assert cfg.grid("eta", []) == [0.5, "rule"]


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


def test_lqr_oracle_failure_is_flagged(tmp_path):
    records = run_lqr(load_config(write_cfg(tmp_path, ORACLE_FAILURE_LQR)))
    assert len(records) == 1
    assert records[0].flagged
    assert records[0].cell == {"method": "oracle"}
    assert "oracle" in records[0].flag_reason


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


def test_lqr_singular_q_oracle_failure_is_flagged(tmp_path):
    records = run_lqr(load_config(write_cfg(tmp_path, SINGULAR_Q_LQR)))
    assert len(records) == 1
    assert records[0].flagged
    assert records[0].cell == {"method": "oracle"}
    assert "qp oracle failure" in records[0].flag_reason
    assert "positive definite" in records[0].flag_reason


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


def test_dubins_rows_are_reproducible_up_to_timing(tmp_path):
    cfg = load_config(write_cfg(tmp_path, TINY_DUBINS))
    first = run_dubins(cfg)[0]
    second = run_dubins(cfg)[0]
    for a, b in zip(first.rows, second.rows):
        for col in ("k", "gap", "grad_norm_P", "ess", "acceptance", "best_cost"):
            assert a[col] == b[col]
    assert first.plot_rows == second.plot_rows


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


def test_cli_negative_seed_is_a_config_error(tmp_path, capsys):
    path = write_cfg(tmp_path, TINY_LQR)
    out = tmp_path / "o"
    assert cli.main(["run", "--experiment", "lqr", "--config", str(path), "--seed", "-1",
                     "--out", str(out)]) == 1
    assert "config error: seeds must be non-negative" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "experiment, section, message",
    [
        ("dubins", "problem: {dt: -0.1}", "dt and w_max must be positive"),
        ("lqr", "problem: {horizon: 0}", "horizon must be >= 1"),
        ("lqr", "problem: {a: [[1.0]]}", "A must be (2,2)"),
        ("dubins", "optimizer: {n_samples: 3}", "even n_samples"),
        ("dubins", "sampling: {sigma2: -1.0}", "sampling.sigma2 must be positive"),
        ("dubins", "sampling: {tau: abc}", "sampling.tau must be positive"),
        ("lqr", "grid: {tau: [1.0, 0.0]}", "sampling.tau must be positive"),
        ("lqr", "fd: {enabled: true, h: 0.0}", "fd.h must be finite and positive"),
        ("lqr", "fd: {alpha: abc}", "fd.alpha must be finite and positive"),
        ("lqr", "fd: {budget_evals: 5}", "fd.budget_evals must be an integer >= 11"),
        ("lqr", "sampling: {sigma2: .nan}", "sampling.sigma2 must be positive"),
        ("lqr", "grid: {eta: [.nan]}", "must be positive or the string 'rule'"),
        ("lqr", "grid: {tau: [.inf]}", "sampling.tau must be positive"),
        # each case below would run (briefly) if the loader let the value through
        ("dubins", "optimizer: {max_retries: 256}\nsim_steps: 1\ngrid: {k: [1]}\nseeds: [0]",
         "max_retries must be in [0, 255]"),
        ("lqr", "seeds: [true]\noptimizer: {n_samples: 200, iterations: 2}\ngrid: {eta: [1.0]}",
         "seeds must be a non-empty list of integers"),
        ("lqr", "sampling: {sigma2: true, tau: true}\noptimizer: {n_samples: 200, iterations: 2}\n"
         "grid: {eta: [1.0]}", "sampling.sigma2 must be positive"),
        ("dubins", "sim_steps: true\ngrid: {k: [1]}\nseeds: [0]", "sim_steps must be >= 1"),
        ("dubins", "sim_steps: abc", "sim_steps must be >= 1"),
        ("lqr", "optimizer: {iterations: true}\ngrid: {eta: [1.0]}\nseeds: [0]",
         "iteration count must be an integer, got True"),
        ("lqr", "optimizer: {max_retries: true, n_samples: 200, iterations: 2}\n"
         "grid: {eta: [1.0]}\nseeds: [0]", "optimizer.max_retries must be an integer, got True"),
        ("lqr", "optimizer: {n_samples: 200.9, iterations: 2}\ngrid: {eta: [1.0]}\nseeds: [0]",
         "optimizer.n_samples must be an integer, got 200.9"),
        ("dubins", "grid: {k: [1.5]}\nsim_steps: 1\nseeds: [0]",
         "iteration count must be an integer, got 1.5"),
        ("dubins", "optimizer: {antithetic: 'false'}\nsim_steps: 1\ngrid: {k: [1]}\nseeds: [0]",
         "optimizer.antithetic must be true or false, got 'false'"),
        ("dubins", "optimizer: {eta: true, eps_stat: true}\nsim_steps: 1\ngrid: {k: [1]}\n"
         "seeds: [0]", "optimizer.eta must be a finite number, got True"),
        ("dubins", "optimizer: {eta: .inf}\nsim_steps: 1\ngrid: {k: [1]}\nseeds: [0]",
         "optimizer.eta must be a finite number, got inf"),
        ("dubins", "optimizer: {eps_stat: true}\nsim_steps: 1\ngrid: {k: [1]}\nseeds: [0]",
         "optimizer.eps_stat must be a finite number, got True"),
        ("dubins", "optimizer: {eps_stat: .nan}\nsim_steps: 1\ngrid: {k: [1]}\nseeds: [0]",
         "optimizer.eps_stat must be a finite number, got nan"),
        ("lqr", "optimizer: {eps_stat: true, n_samples: 200, iterations: 2}\n"
         "grid: {eta: [1.0]}\nseeds: [0]", "optimizer.eps_stat must be a finite number, got True"),
        ("lqr", "optimizer: {eps_stat: -.inf, n_samples: 200, iterations: 2}\n"
         "grid: {eta: [1.0]}\nseeds: [0]", "optimizer.eps_stat must be a finite number, got -inf"),
        ("lqr", "optimizer: {eta: true, n_samples: 200, iterations: 2}\ngrid: {eta: [1.0]}\n"
         "seeds: [0]", "eta cell True must be positive or the string 'rule'"),
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
    ],
    ids=["dubins_negative_dt", "lqr_zero_horizon", "lqr_wrong_a_shape", "dubins_odd_antithetic",
         "dubins_negative_sigma2", "dubins_non_numeric_tau", "lqr_zero_tau_in_grid",
         "lqr_fd_zero_h", "lqr_fd_non_numeric_alpha", "lqr_fd_budget_below_one_iteration",
         "lqr_nan_sigma2", "lqr_nan_eta_in_grid", "lqr_inf_tau_in_grid",
         "dubins_max_retries_above_counter_range", "lqr_boolean_seed", "lqr_boolean_sigma2_and_tau",
         "dubins_boolean_sim_steps", "dubins_text_sim_steps", "lqr_boolean_iterations",
         "lqr_boolean_max_retries", "lqr_fractional_n_samples", "dubins_fractional_k_cell",
         "dubins_text_antithetic", "dubins_boolean_eta_and_eps_stat", "dubins_infinite_eta",
         "dubins_boolean_eps_stat", "dubins_nan_eps_stat", "lqr_boolean_eps_stat",
         "lqr_infinite_eps_stat", "lqr_boolean_eta_beside_a_grid", "lqr_null_grid",
         "lqr_null_optimizer", "lqr_null_sampling", "lqr_null_fd", "lqr_null_problem",
         "dubins_list_sampling", "dubins_unswept_tau_and_sigma2_axes", "lqr_unswept_k_axis",
         "lqr_unknown_grid_axis", "theory_any_grid_axis", "theory_null_grid",
         "lqr_boolean_horizon", "lqr_fractional_horizon", "dubins_fractional_horizon",
         "dubins_zero_horizon", "dubins_boolean_speed", "dubins_boolean_dt",
         "dubins_boolean_r_weight", "dubins_infinite_w_max"],
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
    cells = load_config(write_cfg(tmp_path, "version: 1\nexperiment: lqr\ngrid: {eta: [rule, 0.5]}\n"))
    assert cells.grid("eta", []) == ["rule", 0.5]
    default = load_config(write_cfg(tmp_path, "version: 1\nexperiment: lqr\noptimizer: {eta: rule}\n"))
    assert default.section("optimizer")["eta"] == "rule"


def test_a_runner_reads_only_the_grid_axes_the_config_accepts(tmp_path):
    cfg = load_config(write_cfg(tmp_path, TINY_DUBINS))
    assert cfg.grid("k", []) == [1]
    with pytest.raises(KeyError, match="does not sweep grid axis 'tau'"):
        cfg.grid("tau", [4.0])


def test_cli_bad_grid_override(tmp_path, capsys):
    path = write_cfg(tmp_path, TINY_LQR)
    code = cli.main(
        ["run", "--experiment", "lqr", "--config", str(path), "--grid", "noequals"]
    )
    assert code == 1
    code = cli.main(["run", "--experiment", "lqr", "--config", str(path), "--grid", "k=1,5"])
    assert code == 1
    assert "grid axis 'k' is not swept by the lqr experiment" in capsys.readouterr().err


def test_cli_theory_ok_and_injected_failure(tmp_path, capsys):
    out = tmp_path / "out"
    code = cli.main(
        ["run", "--experiment", "theory", "--config", "configs/theory.yaml", "--out", str(out)]
    )
    assert code == 0
    assert (out / "theory_report.json").exists()
    assert (out / "theory_report.txt").exists()
    assert (out / "config_snapshot.yaml").exists()
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


def test_cli_oracle_failure_exit_code(tmp_path, capsys):
    cfg = write_cfg(tmp_path, ORACLE_FAILURE_LQR)
    code = cli.main(
        ["run", "--experiment", "lqr", "--config", str(cfg), "--out", str(tmp_path / "o")]
    )
    assert code == 2
    assert "FLAGGED" in capsys.readouterr().out


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
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")])}
    for module in ("mppigrad.problems", "mppigrad.qp", "mppigrad.analysis", "mppigrad.bench.cli"):
        done = subprocess.run(
            [sys.executable, "-c", f"import {module}"],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert done.returncode == 0, f"import {module} failed:\n{done.stderr}"


SCIPY_PROBE = """\
import sys
from mppigrad.bench.cli import main
from mppigrad.bench.config import load_config
from mppigrad.bench.dubins import build_spec
from mppigrad.optimizer import PgdConfig, pgd_step
from mppigrad.problems import dubins_problem
from mppigrad.sampling import GaussianPolicy
cfg = load_config("configs/dubins.yaml")
problem = dubins_problem(build_spec(cfg.section("problem")))
pgd_step(problem, GaussianPolicy(problem.known_feasible, 0.25, tau=4.0), PgdConfig(n_samples=64), 0)
print(sorted(m for m in ("scipy.optimize", "scipy.linalg") if m in sys.modules))
"""

QP_PROBE = """\
import sys
from mppigrad import qp
from mppigrad.problems import double_integrator
assert "scipy.optimize" not in sys.modules
print(qp.solve_verified(qp.lift(double_integrator())).duality_gap, "scipy.optimize" in sys.modules)
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
    root = Path(__file__).resolve().parents[1]
    path = os.pathsep.join([str(root / "src"), os.environ.get("PYTHONPATH", "")])
    done = subprocess.run(
        [sys.executable, "-c", NUMPY_RANDOM_PROBE],
        cwd=root, env={**os.environ, "PYTHONPATH": path}, capture_output=True, text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["False"]


def test_scipy_loads_only_where_a_qp_is_solved():
    """Config loading and a Dubins step import no scipy; the first QP solve does."""
    root = Path(__file__).resolve().parents[1]
    path = os.pathsep.join([str(root / "src"), os.environ.get("PYTHONPATH", "")])
    env = {**os.environ, "PYTHONPATH": path}
    outputs = []
    for probe in (SCIPY_PROBE, QP_PROBE):
        done = subprocess.run(
            [sys.executable, "-c", probe],
            cwd=root, env=env, capture_output=True, text=True, timeout=120,
        )
        assert done.returncode == 0, done.stderr
        outputs.append(done.stdout.split())
    assert outputs[0] == ["[]"], f"scipy loaded before any QP solve: {outputs[0]}"
    gap, loaded = outputs[1]
    assert abs(float(gap)) < 1e-6 and loaded == "True"

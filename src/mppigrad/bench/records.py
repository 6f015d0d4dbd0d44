"""Run records and file emission for the benchmark harness.

Every run produces: a per-iteration CSV (fixed header
`k,gap,grad_norm_P,ess,acceptance,best_cost,ms`), a machine-readable summary
JSON, and a plot-data CSV carrying both iteration and evaluation-count axes.
Values are written with str (for a Python float, the shortest round trip),
UTF-8, LF endings, by `_write_text`, which also writes the CLI's
`config_snapshot.yaml` and the theory report.  The `ms` column and the
summary's runtime fields are the only quantities not determined by
(config, seed); everything else is byte-reproducible.  The cells of one LQR
seed step in lockstep, so a sampled LQR record's `runtime_seconds` is the
time from the start of its seed's run to the end of its own record: it
includes the steps of every cell of that seed, the times of one seed's cells
overlap, and they do not add up to the run's wall time.  Its `ms` column is
the cell's own step time, which for the seed's first cell also holds the
shared noise draw.

For closed-loop (dubins) records the CSV keeps the same header with k = the
simulation step, gap = realized stage cost, and best_cost = the running
average cost; the summary documents this mapping under `csv_semantics`.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Sequence

from .. import __version__

_COLUMNS = ("k", "gap", "grad_norm_P", "ess", "acceptance", "best_cost", "ms")
CSV_HEADER = ",".join(_COLUMNS)
_NAN = float("nan")


@dataclass
class RunRecord:
    """One cell x seed of an experiment, self-contained and re-runnable."""

    experiment: str
    cell: Dict[str, Any]
    seed: int
    rows: List[Dict[str, float]] = field(default_factory=list)
    summary: Dict[str, Any] = field(default_factory=dict)
    plot_rows: List[Dict[str, float]] = field(default_factory=list)
    config_snapshot: Dict[str, Any] = field(default_factory=dict)
    flag_reason: str = ""  # why the record is flagged; empty when it is not

    @property
    def flagged(self) -> bool:
        return bool(self.flag_reason)

    @property
    def name(self) -> str:
        bits = [self.experiment]
        for key in sorted(self.cell):
            bits.append(f"{key}-{_slug(self.cell[key])}")
        bits.append(f"seed{self.seed}")
        return "_".join(bits)

    def add_row(
        self, k, gap, grad_norm_P=_NAN, ess=_NAN, acceptance=_NAN, best_cost=_NAN, ms=_NAN
    ) -> None:
        """Append one per-iteration row; a column the method has no value for is NaN."""
        self.rows.append(dict(zip(_COLUMNS, (k, gap, grad_norm_P, ess, acceptance, best_cost, ms))))


def _slug(value: Any) -> str:
    return str(value).replace(".", "p").replace("-", "m").replace("/", "_")


def _write_text(path: Path, text: str) -> None:
    try:
        path.write_text(text, encoding="utf-8", newline="\n")
    except OSError as exc:
        raise OSError(f"cannot write output file {path}: {exc}") from exc


def _write_csv(path: Path, columns: Sequence[str], rows: List[Dict[str, float]]) -> None:
    lines = [",".join(columns)]
    lines += [",".join(str(row[col]) for col in columns) for row in rows]
    _write_text(path, "\n".join(lines) + "\n")


def emit(records: List[RunRecord], out_dir) -> List[Path]:
    """Write all artifacts for the given records; returns the paths written.

    Emission is strictly sequential in sorted record order, so concurrent
    cell execution upstream cannot affect file contents.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written: List[Path] = []
    for record in sorted(records, key=lambda r: r.name):
        base = record.name
        csv_path = out / f"{base}.csv"
        _write_csv(csv_path, _COLUMNS, record.rows)
        written.append(csv_path)

        if record.plot_rows:
            plot_path = out / f"plot_{base}.csv"
            _write_csv(plot_path, list(record.plot_rows[0]), record.plot_rows)
            written.append(plot_path)

        summary_doc = {
            "experiment": record.experiment,
            "cell": record.cell,
            "seed": record.seed,
            "tool_version": __version__,
            "flagged": record.flagged,
            "flag_reason": record.flag_reason,
            "summary": record.summary,
            "config": record.config_snapshot,
        }
        summary_path = out / f"summary_{base}.json"
        _write_text(summary_path, json.dumps(summary_doc, indent=2, sort_keys=True) + "\n")
        written.append(summary_path)
    return written

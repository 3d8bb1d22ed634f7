"""Data ingestion, result persistence and config files.

All floating-point output is printed with 17 significant digits so every
file round-trips to the exact in-memory double.  CSV files use a comma
delimiter, a dot decimal point and LF line endings regardless of platform,
keeping repeated runs byte-identical.
"""

from __future__ import annotations

import csv
import json
import math
from array import array
from contextlib import contextmanager
from dataclasses import asdict, fields
from itertools import islice
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from .diagnostics import DiagnosticsReport, static_params
from .errors import DataFormatError, ParameterError
from .gibbs import RunSpec
from .model import (
    LATENT_FIELDS, STATIC_NAMES, ChainOutput, LatentSummary, ModelConfig, ReturnsSeries,
    prices_to_returns, returns_array,
)
from .synthetic import SimConfig, SimOutput

__all__ = [
    "ingest_csv",
    "describe",
    "fmt17",
    "to_json17",
    "read_config_file",
    "write_draws_csv",
    "read_draws_csv",
    "write_latent_csv",
    "read_latent_csv",
    "write_sim_csv",
    "write_sim_params",
    "read_sim_csv",
    "report_payload",
    "write_report_json",
    "read_report_json",
]

_MODES = ("prices", "returns")
# (timestamp, value) column pairs accepted per mode, tried in order; the
# second returns pair is the header of the files ``simulate`` writes.
_INPUT_COLUMNS = {
    "prices": (("timestamp", "price"),),
    "returns": (("timestamp", "log_return_pct"), ("t", "return")),
}

LATENT_COLUMNS = ["t", *LATENT_FIELDS]

SIM_COLUMNS = ["t", "return", "true_v", "true_jump", "true_N", "true_gamma"]

# The RunSpec fields a report echoes; the rest (init, keep_latent_draws) are not settings.
_RUN_ECHO = ("iterations", "burn_in", "thin_lag", "n_chains", "seed")

# Rows _read_columns holds as text at a time before parsing them into columns.
_BLOCK_ROWS = 512


def fmt17(x: float) -> str:
    """Format a float with 17 significant digits (lossless round trip)."""
    value = float(x)
    if not math.isfinite(value):
        raise ParameterError(f"cannot serialize non-finite value {value}")
    return format(value, ".17g")


def to_json17(obj, indent: int = 0) -> str:
    """Serialize to JSON with sorted keys and 17-significant-digit floats."""
    pad = "  " * indent
    inner = "  " * (indent + 1)
    if obj is None:
        return "null"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return fmt17(obj)
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = []
        for key in sorted(obj):
            if not isinstance(key, str):
                raise ParameterError(f"JSON keys must be strings, got {key!r}")
            items.append(f"{inner}{json.dumps(key)}: {to_json17(obj[key], indent + 1)}")
        return "{\n" + ",\n".join(items) + f"\n{pad}}}"
    if isinstance(obj, (list, tuple, np.ndarray)):
        seq = list(obj)
        if not seq:
            return "[]"
        items = [f"{inner}{to_json17(item, indent + 1)}" for item in seq]
        return "[\n" + ",\n".join(items) + f"\n{pad}]"
    raise ParameterError(f"cannot serialize object of type {type(obj).__name__} to JSON")


@contextmanager
def _csv_rows(path):
    """A CSV reader over a UTF-8 file, read as the rows are taken.

    A file that cannot be read or decoded is a data error, wherever the
    reading stops.
    """
    try:
        with open(path, encoding="utf-8", newline="") as fh:
            yield csv.reader(fh)
    except OSError as exc:
        raise DataFormatError(f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise DataFormatError(f"{path} is not valid UTF-8: {exc}") from exc


def _read_columns(path, header=None, ints=()) -> dict[str, np.ndarray]:
    """Columns of a header-led numeric CSV file, keyed by column name.

    header, when given, is the exact header the file must have.  Columns
    named in ints parse as int64, the rest as float.  Rows are parsed as
    they are read, _BLOCK_ROWS at a time, into one packed buffer per
    column.  A DataFormatError names the first short row if there is one,
    else the first line of the leftmost column that holds a non-numeric
    cell.
    """
    path = Path(path)
    with _csv_rows(path) as reader:
        names = next(reader, None)
        if names is None:
            raise DataFormatError(f"{path}: file is empty")
        if header is not None and names != list(header):
            raise DataFormatError(
                f"{path}: line 1: unexpected header {names}, expected {list(header)}"
            )
        parsers = [int if name in ints else float for name in names]
        columns = [array("q" if parse is int else "d") for parse in parsers]
        bad: dict[int, tuple[int, str]] = {}  # column -> (line, cell) of its first bad cell
        first = 2  # line number of the block's first row
        while rows := list(islice(reader, _BLOCK_ROWS)):
            for line_no, row in enumerate(rows, start=first):
                if len(row) != len(names):
                    raise DataFormatError(
                        f"{path}: line {line_no}: expected {len(names)} columns, got {len(row)}"
                    )
            for k, (column, parse, cells) in enumerate(zip(columns, parsers, zip(*rows))):
                if k in bad:
                    continue
                try:
                    column.extend(map(parse, cells))
                except ValueError:
                    bad[k] = next(
                        (line_no, cell) for line_no, cell in enumerate(cells, start=first)
                        if not _parses(parse, cell)
                    )
            first += len(rows)
    if bad:
        k = min(bad)
        line_no, cell = bad[k]
        raise DataFormatError(f"{path}: line {line_no}: non-numeric {names[k]} value {cell!r}")
    return {name: np.frombuffer(column, column.typecode) for name, column in zip(names, columns)}


def _parses(parse, cell: str) -> bool:
    try:
        parse(cell)
    except ValueError:
        return False
    return True


def ingest_csv(path, mode: str) -> ReturnsSeries:
    """Read a returns or price CSV into a ReturnsSeries.

    Expects a UTF-8 file with a header row holding ``timestamp,price``
    (mode "prices") or ``timestamp,log_return_pct`` (mode "returns").  In
    returns mode the ``t,return`` columns of a ``simulate`` output file are
    accepted too.  Parse failures report the offending line number.
    """
    if mode not in _MODES:
        raise ParameterError(f"mode must be one of {_MODES}, got {mode!r}")
    path = Path(path)
    with _csv_rows(path) as reader:
        rows = list(reader)
    if not rows:
        raise DataFormatError(f"{path}: file is empty")
    header = [h.strip().lower() for h in rows[0]]
    pairs = _INPUT_COLUMNS[mode]
    ts_col, value_col = next(
        (pair for pair in pairs if pair[0] in header and pair[1] in header), pairs[0]
    )
    if ts_col not in header:
        raise DataFormatError(f"{path}: line 1: missing required column '{ts_col}'")
    if value_col not in header:
        raise DataFormatError(f"{path}: line 1: missing required column '{value_col}'")
    ts_idx = header.index(ts_col)
    val_idx = header.index(value_col)

    timestamps: list[str] = []
    values: list[float] = []
    for line_no, row in enumerate(rows[1:], start=2):
        if not row or all(not cell.strip() for cell in row):
            continue
        if len(row) <= max(ts_idx, val_idx):
            raise DataFormatError(f"{path}: line {line_no}: expected {len(header)} columns, got {len(row)}")
        cell = row[val_idx].strip()
        try:
            value = float(cell)
        except ValueError:
            raise DataFormatError(
                f"{path}: line {line_no}: non-numeric {value_col} value {cell!r}"
            ) from None
        if not math.isfinite(value):
            raise DataFormatError(f"{path}: line {line_no}: non-finite {value_col} value {cell!r}")
        if mode == "prices" and value <= 0.0:
            raise DataFormatError(f"{path}: line {line_no}: price must be > 0, got {cell}")
        timestamps.append(row[ts_idx].strip())
        values.append(value)

    if len(values) < 2:
        raise DataFormatError(f"{path}: need at least 2 data rows, got {len(values)}")
    if mode == "prices":
        return prices_to_returns(np.array(values), timestamps)
    return ReturnsSeries(np.array(values), timestamps)


def describe(y) -> dict:
    """Descriptive statistics of a return series.

    Variance uses ddof=1; skewness is m3/m2^1.5 and kurtosis the plain
    (non-excess) m4/m2^2, both from central sample moments.
    """
    arr = returns_array(y, min_len=2)
    centered = arr - np.mean(arr)
    m2 = float(np.mean(centered**2))
    m3 = float(np.mean(centered**3))
    m4 = float(np.mean(centered**4))
    return {
        "n": int(arr.size),
        "mean": float(np.mean(arr)),
        "variance": float(np.var(arr, ddof=1)),
        "skewness": m3 / m2**1.5 if m2 > 0 else 0.0,
        "kurtosis": m4 / m2**2 if m2 > 0 else 0.0,
        "min": float(np.min(arr)),
        "max": float(np.max(arr)),
    }


def _write_columns(path, columns: dict[str, np.ndarray]) -> None:
    """Write equal-length columns under a header of their names.

    Integer columns print with %d, the rest with %.17g like :func:`fmt17`.
    A non-finite value is refused before the file is opened.
    """
    formats = []
    for name, values in columns.items():
        if np.issubdtype(values.dtype, np.integer):
            formats.append("%d")
        elif np.all(np.isfinite(values)):
            formats.append("%.17g")
        else:
            raise ParameterError(f"cannot serialize non-finite values in column {name!r}")
    row = ",".join(formats) + "\n"
    lines = [row % cells for cells in zip(*(values.tolist() for values in columns.values()))]
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(columns) + "\n")
        fh.writelines(lines)


def write_draws_csv(path, chains: Sequence[ChainOutput]) -> None:
    """Write the draws tables of one or more chains, one after the other.

    Columns: chain, iteration, mu[, jump_prob, jump_mean, jump_var], log_lik.
    Jump columns are omitted for no-jump fits; chains of both models are a
    ParameterError.
    """
    static_params([c.draws for c in chains])
    _write_columns(path, {
        name: np.concatenate([c.draws[name] for c in chains]) for name in chains[0].draws
    })


def read_draws_csv(path) -> dict:
    """Read a draws file back into arrays keyed by column name."""
    data = _read_columns(path, ints=("chain", "iteration"))
    if "mu" not in data or "log_lik" not in data:
        raise DataFormatError(f"{path}: line 1: missing required draw columns 'mu'/'log_lik'")
    missing = [name for name in STATIC_NAMES[1:] if name not in data]
    if 0 < len(missing) < len(STATIC_NAMES) - 1:
        raise DataFormatError(f"{path}: line 1: jump draws lack the columns {', '.join(missing)}")
    return data


def write_latent_csv(path, latent: LatentSummary) -> None:
    """Write the per-t latent summaries (plot-ready)."""
    columns = {name: getattr(latent, name) for name in LATENT_FIELDS}
    _write_columns(path, {"t": np.arange(1, len(latent) + 1), **columns})


def read_latent_csv(path) -> LatentSummary:
    """Read a latent summary file."""
    columns = _read_columns(path, LATENT_COLUMNS)
    del columns["t"]
    return LatentSummary(**columns)


def write_sim_csv(path, sim: SimOutput) -> None:
    """Write a simulated realization with its latent truth."""
    n = len(sim.returns)
    _write_columns(path, dict(zip(SIM_COLUMNS, (
        np.arange(1, n + 1), sim.returns.returns, sim.true_variance, sim.true_jumps,
        sim.true_jump_times, sim.true_mixture,
    ))))


def write_sim_params(path, sc: SimConfig) -> None:
    """Write the generating parameters next to a simulated dataset."""
    payload = {**asdict(sc), "v0": sc.start_variance}
    Path(path).write_text(to_json17(payload) + "\n", encoding="utf-8")


def read_sim_csv(path) -> dict:
    """Read a simulation CSV back into arrays keyed by column name."""
    return _read_columns(path, SIM_COLUMNS)


def report_payload(
    report: DiagnosticsReport,
    cfg: Optional[ModelConfig] = None,
    spec: Optional[RunSpec] = None,
    data_stats: Optional[dict] = None,
    files: Optional[dict] = None,
) -> dict:
    """Build the JSON-ready report structure.

    Deliberately contains nothing non-deterministic (no timings, no
    timestamps) so repeated runs produce byte-identical files.
    """
    diagnostics = {
        f.name: getattr(report, f.name) for f in fields(report) if f.name not in ("params", "latent")
    }
    payload: dict = {
        "diagnostics": diagnostics,
        "params": [asdict(p) for p in report.params],
    }
    if cfg is not None:
        payload["model"] = asdict(cfg)
    if spec is not None:
        payload["run"] = {name: getattr(spec, name) for name in _RUN_ECHO}
    if data_stats is not None:
        payload["data"] = data_stats
    if files is not None:
        payload["files"] = files
    return payload


def write_report_json(path, payload: dict) -> None:
    Path(path).write_text(to_json17(payload) + "\n", encoding="utf-8")


def read_report_json(path) -> dict:
    path = Path(path)
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except OSError as exc:
        raise DataFormatError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise DataFormatError(f"{path}: invalid JSON: {exc}") from exc


def read_config_file(path) -> dict[str, str]:
    """Parse a flat ``key = value`` config file.

    Blank lines and '#' comments are ignored.  Values stay strings; the
    CLI coerces them with the same rules as the matching flags.
    """
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise DataFormatError(f"cannot read config {path}: {exc}") from exc
    out: dict[str, str] = {}
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise DataFormatError(f"{path}: line {line_no}: expected 'key = value', got {raw!r}")
        key, value = line.split("=", 1)
        key = key.strip()
        if not key:
            raise DataFormatError(f"{path}: line {line_no}: empty key")
        out[key] = value.strip()
    return out


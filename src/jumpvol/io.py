"""Data ingestion, result persistence and config files.

All floating-point output is printed with 17 significant digits so every
file round-trips to the exact in-memory double.  CSV files use a comma
delimiter, a dot decimal point and LF line endings regardless of platform,
keeping repeated runs byte-identical.  They are written _BLOCK_ROWS rows at
a time, so a long series never holds its whole file as text.

The numeric files read back (draws, latent summaries, simulations) go
through one reader, _read_columns, in two ways:

    _load_columns   np.loadtxt, one pass with a column dtype per column,   the files this package
                    fed the lines of the handle the header was read from   writes
    _scan_columns   the csv module, float() and int(), _BLOCK_ROWS rows   every other file, and
                    at a time                                              every error message

numpy's reader parses the package's files about twice as fast: at 6,241
points (2-core host, numpy 2.4) a latent summary read in 18-19 ms against
31-40 ms, a simulation file in 7-8 ms against 13 ms.  The scanner stays
because it defines what a readable file is: numpy refuses quoted cells and
1_000, skips blank lines, reads nan and inf, and misreads some non-ASCII
input, so _load_columns hands every such file back to it (see there).
"""

from __future__ import annotations

import codecs
import csv
import json
import math
import warnings
from array import array
from contextlib import contextmanager
from dataclasses import asdict, fields
from itertools import count, islice
from operator import itemgetter
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
    "DEGENERATE_LIMITS",
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

# Rows held as text at a time: by _scan_columns before parsing them into
# columns, by _write_columns before writing them.
_BLOCK_ROWS = 512

# The only bytes of a file numpy's text reader is given: printable ASCII, tab
# and line ends.  numpy parses a cell of these as float() and int() do, but it
# also strips \x1c-\x1f as spaces and reads a non-ASCII digit in an integer
# column as a wrong number (U+0968, DEVANAGARI TWO, as 2360).
_LOADTXT_BYTES = bytes(range(0x20, 0x7F)) + b"\t\n\r"

# The largest tie statistics of describe that fit accepts.  The likelihood
# has no upper bound where a return equals mu exactly.  In fits at n = 2000
# (daily and intraday laws, five data seeds each), 40% zeros (daily law) or
# a run of 100-125 zeros silently gave jump_prob 0.6-0.98 and a variance
# near 0; at 20% zeros or a run of 40, jump_prob stayed within 2.3 times the
# clean fit's.  Returns rounded to 0.01 (about 10% zeros) fit like unrounded ones.
DEGENERATE_LIMITS = {"mode_share": 0.2, "longest_run": 40}


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

    A leading byte-order mark (Excel's "CSV UTF-8") is skipped.  A file that
    cannot be read or decoded is a data error, wherever the reading stops.
    """
    try:
        with open(path, encoding="utf-8-sig", newline="") as fh:
            yield csv.reader(fh)
    except OSError as exc:
        raise DataFormatError(f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise DataFormatError(f"{path} is not valid UTF-8: {exc}") from exc


def _read_columns(path, header=None, ints=()) -> dict[str, np.ndarray]:
    """Columns of a header-led numeric CSV file, keyed by column name.

    header, when given, is the exact header the file must have.  Columns
    named in ints parse as int64, the rest as float.  numpy's C text reader
    parses the file when it can vouch for the result (_load_columns); any
    other file, and every defect, goes to _scan_columns, so both give the
    same columns and the same DataFormatError.
    """
    path = Path(path)
    columns = _load_columns(path, header, ints)
    return _scan_columns(path, header, ints) if columns is None else columns


def _load_columns(path: Path, header, ints) -> Optional[dict[str, np.ndarray]]:
    """The columns of path as np.loadtxt parses them, or None where the scanner must decide.

    numpy is given only files of _LOADTXT_BYTES after an optional leading
    byte-order mark, which the header read skips, and reads the data lines
    from the handle the csv module read the header from, so both split the
    lines alike (given a path, numpy would pick its opener by the suffix
    and decompress a .gz).  Each cell it then parses, float() or int()
    parses to the same value.  None stands for a file numpy refuses (a
    quote, 1_000, an empty cell, a short or long row, an integer beyond
    int64) or warns about (no data row; older numpy parses 1.0 in an
    integer column with a DeprecationWarning), a header other than the one
    expected or spanning lines, a float that is not finite, and a blank
    line, which numpy skips where the csv module sees a row of no cells.
    """
    try:
        with open(path, "rb") as fh:
            if fh.read(len(codecs.BOM_UTF8)) != codecs.BOM_UTF8:
                fh.seek(0)
            while block := fh.read(1 << 16):
                if block.translate(None, _LOADTXT_BYTES):
                    return None
        with open(path, encoding="utf-8-sig", newline="") as fh, warnings.catch_warnings():
            warnings.simplefilter("error")
            reader = csv.reader(fh)
            names = next(reader, None)
            if not names or reader.line_num != 1 or header is not None and names != list(header):
                return None
            taken = count()  # the data lines numpy has read
            table = np.loadtxt(
                map(itemgetter(0), zip(fh, taken)),
                dtype=[("", np.int64 if name in ints else np.float64) for name in names],
                delimiter=",", comments=None, ndmin=1,
            )
    except (OSError, ValueError, Warning):
        return None
    if table.size != next(taken):
        return None
    columns = {name: np.ascontiguousarray(table[field])
               for name, field in zip(names, table.dtype.names)}
    if not all(np.isfinite(column).all() for column in columns.values()
               if column.dtype == np.float64):
        return None
    return columns


def _scan_columns(path: Path, header=None, ints=()) -> dict[str, np.ndarray]:
    """_read_columns by the csv module, float() and int().

    Rows are parsed as they are read, _BLOCK_ROWS at a time, into one
    packed buffer per column.  A DataFormatError names the first short row
    if there is one, else the first line of the leftmost column that holds
    a non-numeric cell, an integer beyond int64 or a float that is not
    finite (nan, inf or an overflow such as 1e999): no file this package
    writes holds one.
    """
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
                    if parse is float and not all(map(math.isfinite, column[-len(cells):])):
                        raise ValueError
                except (ValueError, OverflowError):
                    bad[k] = next(
                        (line_no, cell, problem)
                        for line_no, cell in enumerate(cells, start=first)
                        if (problem := _cell_problem(parse, column.typecode, cell))
                    )
            first += len(rows)
    if bad:
        k = min(bad)
        line_no, cell, problem = bad[k]
        raise DataFormatError(f"{path}: line {line_no}: {problem} {names[k]} value {cell!r}")
    return {name: np.frombuffer(column, column.typecode) for name, column in zip(names, columns)}


def _cell_problem(parse, typecode: str, cell: str) -> Optional[str]:
    """None for a cell that parses into a column of typecode, else what is wrong with it."""
    try:
        value = parse(cell)
        array(typecode, [value])
    except ValueError:
        return "non-numeric"
    except OverflowError:
        return "out-of-range"
    return None if math.isfinite(value) else "non-finite"


def ingest_csv(path, mode: str) -> ReturnsSeries:
    """Read a returns or price CSV into a ReturnsSeries.

    Expects a UTF-8 file with a header row holding ``timestamp,price``
    (mode "prices") or ``timestamp,log_return_pct`` (mode "returns"); a
    leading byte-order mark is skipped.  In returns mode the ``t,return``
    columns of a ``simulate`` output file are accepted too.  Parse failures
    report the offending line number.
    """
    if mode not in _MODES:
        raise ParameterError(f"mode must be one of {_MODES}, got {mode!r}")
    path = Path(path)
    timestamps: list[str] = []
    values: list[float] = []
    with _csv_rows(path) as reader:
        names = next(reader, None)
        if names is None:
            raise DataFormatError(f"{path}: file is empty")
        header = [h.strip().lower() for h in names]
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

        for line_no, row in enumerate(reader, start=2):
            if not row or all(not cell.strip() for cell in row):
                continue
            if len(row) <= max(ts_idx, val_idx):
                raise DataFormatError(
                    f"{path}: line {line_no}: expected {len(header)} columns, got {len(row)}"
                )
            cell = row[val_idx].strip()
            try:
                value = float(cell)
            except ValueError:
                raise DataFormatError(
                    f"{path}: line {line_no}: non-numeric {value_col} value {cell!r}"
                ) from None
            if not math.isfinite(value):
                raise DataFormatError(
                    f"{path}: line {line_no}: non-finite {value_col} value {cell!r}"
                )
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
    (non-excess) m4/m2^2, both from central sample moments.  mode_share is
    the share of returns equal to the most frequent value (0 when no value
    repeats), and longest_run the length of the longest run of identical
    consecutive returns.
    """
    arr = returns_array(y, min_len=2)
    centered = arr - np.mean(arr)
    m2 = float(np.mean(centered**2))
    m3 = float(np.mean(centered**3))
    m4 = float(np.mean(centered**4))
    mode_count = int(np.unique(arr, return_counts=True)[1].max())
    run_ends = np.flatnonzero(arr[1:] != arr[:-1])
    return {
        "n": int(arr.size),
        "mean": float(np.mean(arr)),
        "variance": float(np.var(arr, ddof=1)),
        "skewness": m3 / m2**1.5 if m2 > 0 else 0.0,
        "kurtosis": m4 / m2**2 if m2 > 0 else 0.0,
        "min": float(np.min(arr)),
        "max": float(np.max(arr)),
        "mode_share": mode_count / arr.size if mode_count > 1 else 0.0,
        "longest_run": int(np.diff(run_ends, prepend=-1, append=arr.size - 1).max()),
    }


def _write_columns(path, columns: dict[str, np.ndarray]) -> None:
    """Write equal-length columns under a header of their names.

    Integer columns print with %d, the rest with %.17g like :func:`fmt17`,
    _BLOCK_ROWS rows to a write.  A non-finite value is refused before the
    file is opened.
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
    n = len(next(iter(columns.values())))
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(columns) + "\n")
        for start in range(0, n, _BLOCK_ROWS):
            block = (values[start:start + _BLOCK_ROWS].tolist() for values in columns.values())
            fh.write("".join(row % cells for cells in zip(*block)))


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


def report_payload(report: DiagnosticsReport, cfg: ModelConfig, spec: RunSpec, data_stats: dict,
                   files: dict) -> dict:
    """Build the JSON-ready report structure.

    Deliberately contains nothing non-deterministic (no timings, no
    timestamps) so repeated runs produce byte-identical files.
    """
    diagnostics = {
        f.name: getattr(report, f.name) for f in fields(report) if f.name not in ("params", "latent")
    }
    return {
        "diagnostics": diagnostics,
        "params": [asdict(p) for p in report.params],
        "model": asdict(cfg),
        "run": {name: getattr(spec, name) for name in _RUN_ECHO},
        "data": data_stats,
        "files": files,
    }


def write_report_json(path, payload: dict) -> None:
    Path(path).write_text(to_json17(payload) + "\n", encoding="utf-8")


def read_report_json(path) -> dict:
    path = Path(path)
    try:
        return json.loads(path.read_text(encoding="utf-8-sig"))  # a leading BOM is ignored
    except OSError as exc:
        raise DataFormatError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise DataFormatError(f"{path}: invalid JSON: {exc}") from exc


def read_config_file(path) -> dict[str, str]:
    """Parse a flat ``key = value`` config file.

    Blank lines and '#' comments are ignored, and so is a leading UTF-8
    byte-order mark.  Values stay strings; the CLI coerces them with the
    same rules as the matching flags.
    """
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8-sig")
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


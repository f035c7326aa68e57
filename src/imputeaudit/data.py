"""Synthetic corpora, scenario-faithful splits, and CSV ingestion."""
from __future__ import annotations

import csv
import io
import math
import warnings
from dataclasses import dataclass
from typing import ClassVar, Iterator

import numpy as np

from .core import TimeSeries, _atomic_open

__all__ = [
    "FAMILY_FREQ_BANDS",
    "SyntheticConfig",
    "ScenarioSplit",
    "CsvParseError",
    "CsvSchemaError",
    "generate_synthetic",
    "split_scenario1",
    "split_scenario2",
    "save_csv",
    "load_csv",
]

# Cycles per window. The bands do not overlap, so corpora from the two
# families are separable by dominant frequency — a deterministic stand-in for
# "drawn from different distributions".
FAMILY_FREQ_BANDS: dict[str, tuple[float, float]] = {"A": (1.0, 4.0), "B": (8.0, 16.0)}


class CsvParseError(ValueError):
    """A CSV row could not be parsed; the message names the line."""


class CsvSchemaError(ValueError):
    """Rows parsed but do not form consistent series."""


@dataclass(frozen=True)
class SyntheticConfig:
    TAG: ClassVar[tuple[str, str]] = ("source", "synthetic")

    family: str = "A"
    count: int = 100
    length: int = 64
    dims: int = 1
    seed: int = 0
    components: tuple[int, int] = (1, 3)
    amplitude_range: tuple[float, float] = (0.5, 2.0)
    noise_scale: float = 0.2
    ar_coeff: float = 0.5

    def __post_init__(self) -> None:
        if self.family not in FAMILY_FREQ_BANDS:
            raise ValueError(f"family must be one of {sorted(FAMILY_FREQ_BANDS)}, got {self.family!r}")
        if self.count < 1 or self.length < 2 or self.dims < 1:
            raise ValueError("count >= 1, length >= 2 and dims >= 1 required")
        lo, hi = self.components
        if not 1 <= lo <= hi:
            raise ValueError(f"components range must satisfy 1 <= lo <= hi, got {self.components}")
        a_lo, a_hi = self.amplitude_range
        # NaN fails each check too.
        if not 0 < a_lo <= a_hi < math.inf:
            raise ValueError(f"amplitude_range must satisfy 0 < lo <= hi < inf, got {self.amplitude_range}")
        if not 0 <= self.noise_scale < math.inf:
            raise ValueError(f"noise_scale must be finite and nonnegative, got {self.noise_scale}")
        if not 0 <= self.ar_coeff < 1:
            raise ValueError("AR coefficient must be in [0, 1)")


def _draw_components(rng: np.random.Generator, cfg: SyntheticConfig) -> list[list[tuple[float, float, float]]]:
    """Per dimension, a list of (frequency, amplitude, phase) sinusoid params."""
    f_lo, f_hi = FAMILY_FREQ_BANDS[cfg.family]
    comps = []
    for _ in range(cfg.dims):
        n = int(rng.integers(cfg.components[0], cfg.components[1] + 1))
        comps.append(
            [
                (
                    float(rng.uniform(f_lo, f_hi)),
                    float(rng.uniform(*cfg.amplitude_range)),
                    float(rng.uniform(0.0, 2.0 * np.pi)),
                )
                for _ in range(n)
            ]
        )
    return comps


def _render_components(comps: list[list[tuple[float, float, float]]], length: int) -> np.ndarray:
    t = np.arange(length)
    out = np.zeros((length, len(comps)))
    for d, dim_comps in enumerate(comps):
        for freq, amp, phase in dim_comps:
            out[:, d] += amp * np.sin(2.0 * np.pi * freq * t / length + phase)
    return out


def generate_synthetic(cfg: SyntheticConfig) -> list[TimeSeries]:
    """Sums of 1-3 family-band sinusoids with random phases plus AR(1) noise.

    Deterministic per seed: the same config always yields the same corpus.
    Each series draws its components, then its shocks; the AR(1) recurrence
    then runs once across all series, which gives every element the same
    multiply and add as a per-series loop, hence the same bits.
    """
    rng = np.random.default_rng(cfg.seed)
    comps, noise = [], np.zeros((cfg.count, cfg.length, cfg.dims))  # the shocks, turned into noise in place
    for i in range(cfg.count):
        comps.append(_draw_components(rng, cfg))
        if cfg.noise_scale != 0.0:
            noise[i] = rng.normal(0.0, cfg.noise_scale, size=(cfg.length, cfg.dims))
    for t in range(1, cfg.length):
        noise[:, t] += cfg.ar_coeff * noise[:, t - 1]
    return [
        TimeSeries(f"syn{cfg.family}-{i:04d}", _render_components(c, cfg.length) + noise[i])
        for i, c in enumerate(comps)
    ]


@dataclass(frozen=True, eq=False)
class ScenarioSplit:
    """Disjoint public / private / test partition of a corpus."""

    public: tuple[TimeSeries, ...]
    private: tuple[TimeSeries, ...]
    test: tuple[TimeSeries, ...]


def _split(data: list[TimeSeries], seed: int, n_public: int, n_private: int) -> ScenarioSplit:
    ids = [s.id for s in data]
    if len(set(ids)) != len(ids):
        raise ValueError("series ids must be unique to split")
    rng = np.random.default_rng(seed)
    order = rng.permutation(len(data))
    shuffled = [data[i] for i in order]
    return ScenarioSplit(
        public=tuple(shuffled[:n_public]),
        private=tuple(shuffled[n_public : n_public + n_private]),
        test=tuple(shuffled[n_public + n_private :]),
    )


def split_scenario1(data: list[TimeSeries], seed: int) -> ScenarioSplit:
    """2/5 public, 2/5 private, remainder to test (floor-then-remainder rule)."""
    n = len(data)
    if n < 5:
        raise ValueError(f"need at least 5 series to split, got {n}")
    part = (2 * n) // 5
    return _split(data, seed, part, part)


def split_scenario2(data: list[TimeSeries], seed: int) -> ScenarioSplit:
    """3/5 public, 1/5 private, remainder to test (floor-then-remainder rule)."""
    n = len(data)
    if n < 5:
        raise ValueError(f"need at least 5 series to split, got {n}")
    return _split(data, seed, (3 * n) // 5, n // 5)


_FIELDS = ["id", "t", "dim", "value"]
_RECORD = np.dtype([("id", object), ("t", "<i8"), ("dim", "<i8"), ("value", "<f8")])


def save_csv(data: list[TimeSeries], path: str) -> None:
    """Write `id,t,dim,value` rows grouped by id, ordered by t then dim.

    Values are written with repr, so a save/load round trip is exact.
    Each series goes out as one string, with the bytes ``csv.writer`` writes
    row by row: only the id can need quoting, and it is quoted once.
    """
    with _atomic_open(path, newline="") as fh:
        fh.write(",".join(_FIELDS) + "\r\n")
        for s in data:
            # The id as csv.writer writes it in a row of more than one field
            # (alone in a row, an empty id would be written as "").
            line = io.StringIO()
            csv.writer(line).writerow([s.id, ""])
            sid, dims = line.getvalue()[:-3], s.dims
            cells = enumerate(s.values.ravel().tolist())
            fh.write("".join([f"{sid},{k // dims},{k % dims},{v!r}\r\n" for k, v in cells]))


def _numbers(line: int, row: list[str]) -> Iterator[int | float]:
    """Yield the t, dim and value of ``row`` as numpy's reader reads them; CsvParseError names the first it rejects.

    numpy strips what ``str.strip`` strips, then reads ASCII with no underscore as int() and float() do; an int must fit int64.
    """
    for name, kind, text in zip(_FIELDS[1:], (int, int, float), row[1:]):
        core = text.strip()
        try:
            number = kind(core)
        except ValueError:
            number = None
        if number is None or not core.isascii() or "_" in core or (kind is int and not -(2**63) <= number < 2**63):
            raise CsvParseError(f"line {line}: {name} must be {'an integer' if kind is int else 'a number'}, got {text!r}")
        yield number


def _records(fh) -> np.ndarray | None:
    """The body records at ``fh``, or None when numpy's reader rejects one."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # loadtxt warns on an empty body, which _series rejects
        try:
            return np.loadtxt(fh, dtype=_RECORD, delimiter=",", quotechar='"', comments=None, ndmin=1)
        except UnicodeDecodeError:
            raise
        except ValueError:
            return None


def _number_series(rows: np.ndarray) -> tuple[list[str], np.ndarray]:
    """The ids of ``rows`` in first-appearance order, and each record's index into them.

    Then sets every record's id to None. The names are fresh copies: the first
    id of each series, kept, would pin every pymalloc pool the parse filled
    with ids, and that memory would stay resident for the rest of the run.
    """
    ids = rows["id"]
    # A series' records are usually contiguous, so the dict work is per run of one id, not per record.
    run_start = np.ones(len(ids), dtype=bool)
    run_start[1:] = ids[1:] != ids[:-1]
    starts = np.flatnonzero(run_start)
    run_ids = ids[starts].tolist()
    number = {sid: i for i, sid in enumerate(dict.fromkeys(run_ids))}
    series = np.repeat(np.array([number[sid] for sid in run_ids], dtype=np.intp), np.diff(starts, append=len(ids)))
    names = [sid.encode().decode() for sid in number]
    rows["id"] = None
    return names, series


def _check(reader) -> None:
    """Raise the error for the first bad record ``reader`` reads from the top, else for the first bad series."""
    cells, sid = {}, None  # per id, the line of its first record and its set of (t, dim) cells
    next(reader)
    start = reader.line_num + 1
    for row in reader:
        line, start = start, reader.line_num + 1
        if not row:
            continue
        if len(row) != len(_FIELDS):
            raise CsvParseError(f"line {line}: expected {len(_FIELDS)} fields, got {len(row)}")
        t, dim, value = _numbers(line, row)
        if t < 0 or dim < 0:
            raise CsvParseError(f"line {line}: t and dim must be nonnegative")
        if not math.isfinite(value):
            raise CsvParseError(f"line {line}: value must be finite")
        if row[0] != sid:  # a series' records are usually contiguous
            sid, (_, seen) = row[0], cells.setdefault(row[0], (line, set()))
        if (cell := (t, dim)) in seen:
            raise CsvSchemaError(f"line {line}: series {sid!r}: duplicate entry for (t={t}, dim={dim})")
        seen.add(cell)

    first = None
    for sid, (line, seen) in cells.items():
        shape = tuple(1 + max(axis) for axis in zip(*seen))
        where = f"series {sid!r}, starting at line {line}"
        if len(seen) != shape[0] * shape[1]:
            raise CsvSchemaError(f"{where}: expected {shape[0] * shape[1]} entries for shape {shape}, got {len(seen)}")
        if shape != (first := first or shape):
            raise CsvSchemaError(f"{where}: shape {shape} differs from {first}")


def _series(rows: np.ndarray) -> list[TimeSeries] | None:
    """The series of ``rows``, or None when the records do not fill one (series, t, dim) grid with finite values."""
    if len(rows) == 0:
        raise CsvSchemaError("file contains no data rows")
    names, series = _number_series(rows)
    t, dim, value = rows["t"], rows["dim"], rows["value"]

    # A good file has one record per cell of a (series, t, dim) grid: with
    # exactly as many cells as records, that holds iff no cell is hit twice.
    if (t >= 0).all() and (dim >= 0).all() and np.isfinite(value).all():
        steps, dims = int(t.max()) + 1, int(dim.max()) + 1
        if len(names) * steps * dims == len(rows):
            cell = (series * steps + t) * dims + dim
            hit = np.zeros(len(rows), dtype=bool)
            hit[cell] = True
            if hit.all():
                values = np.empty(len(rows))
                values[cell] = value
                return [TimeSeries(sid, v) for sid, v in zip(names, values.reshape(len(names), steps, dims))]
    return None


def load_csv(path: str) -> list[TimeSeries]:
    """Read a UTF-8 corpus saved by :func:`save_csv` (or matching its schema),
    with or without a byte-order mark.

    numpy's C reader parses the body in one call; series keep the order in which
    their ids first appear. A file it rejects, or whose records do not fill one
    grid, is read again with ``csv.reader``, record by record and each number
    by ``_numbers``' grammar (numpy's own on ASCII text), and raises
    CsvParseError or CsvSchemaError naming the physical line of the first bad
    record in file order. Within a record the checks run in this order: field
    count, t, dim, value, the signs of t and dim, finiteness, and a repeated
    (id, t, dim) cell. Then each series, in first-appearance order, must fill its
    grid of (t, dim) cells and share the first series' shape; those errors name
    the line on which the series starts. A record csv cannot read, such as a
    field past ``csv.field_size_limit()``, raises CsvParseError naming the file
    and the line csv stopped on. numpy's reader reads some non-ASCII characters
    as digits, so a file that is not all ASCII is read record by record too,
    and loads only if that read passes; so is a file with a byte-order mark. A
    file that is not UTF-8 raises CsvParseError naming the byte offset and line
    of its first bad byte, counted in the raw file.
    """
    with open(path, "rb") as raw:
        all_ascii = all(chunk.isascii() for chunk in iter(lambda: raw.read(1 << 16), b""))
    with open(path, newline="", encoding="utf-8-sig") as fh:
        try:
            header = next(reader := csv.reader(fh), None)
            if header is None or [h.strip() for h in header] != _FIELDS:
                raise CsvParseError(f"line 1: expected header 'id,t,dim,value', got {header}")
            rows = _records(fh)
            series = None if rows is None else _series(rows)
            if series is not None and all_ascii:
                return series
            fh.seek(0)
            _check(reader := csv.reader(fh))
            if series is None:
                raise CsvParseError(f"{path}: the file was rejected, but a record-by-record read finds no bad record or series")
            return series
        except UnicodeDecodeError as chunk_error:
            # The text layer's position counts from the start of its current decode chunk: find the file's.
            fh.buffer.seek(0)
            data = fh.buffer.read()
            try:
                data.decode("utf-8")
            except UnicodeDecodeError as exc:
                line = data.count(b"\n", 0, exc.start) + 1
                raise CsvParseError(f"{path} is not UTF-8 text: byte {exc.start} (line {line}): {exc.reason}") from exc
            raise CsvParseError(f"{path} is not UTF-8 text: {chunk_error}") from chunk_error  # it changed while read
        except csv.Error as exc:
            raise CsvParseError(f"{path}: line {reader.line_num}: {exc}") from exc

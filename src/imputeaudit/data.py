"""Synthetic corpora, scenario-faithful splits, and CSV ingestion."""
from __future__ import annotations

import csv
import io
import warnings
from dataclasses import dataclass
from typing import ClassVar, NoReturn

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
        if not 0 < a_lo <= a_hi:
            raise ValueError(f"amplitude range must satisfy 0 < lo <= hi, got {self.amplitude_range}")
        if self.noise_scale < 0:
            raise ValueError("noise scale must be nonnegative")
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


# A body record as numpy's C reader parses it. Its number grammar is numpy's:
# on repr output it returns float()'s bits, but it rejects Python-only
# spellings such as 1_0.
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


def _records(path: str, max_rows: int | None = None) -> np.ndarray | None:
    """The first ``max_rows`` (default: all) body records at ``path``, or None when numpy's reader rejects one of them.

    Blank lines are skipped and do not count toward ``max_rows``.
    """
    with open(path, newline="", encoding="utf-8") as fh:
        try:
            header = next(csv.reader(fh), None)
            if header is not None and [h.strip() for h in header] == _FIELDS:
                with warnings.catch_warnings():
                    # loadtxt warns on an empty body, which load_csv rejects with its own
                    # error, and on each blank line it does not count toward max_rows
                    warnings.simplefilter("ignore", UserWarning)
                    return np.loadtxt(fh, dtype=_RECORD, delimiter=",", quotechar='"', comments=None,
                                      ndmin=1, max_rows=max_rows)
        except UnicodeDecodeError as exc:
            raise CsvParseError(f"{path} is not UTF-8 text: {exc}") from exc
        except ValueError:
            return None
    raise CsvParseError(f"line 1: expected header 'id,t,dim,value', got {header}")


def _parsed_prefix(path: str) -> tuple[int, np.ndarray]:
    """The index of the first record numpy's reader rejects, and the records before it.

    Bisects on ``max_rows``, so every probe is one C parse of a prefix of the body.
    """
    good, rows, bad = 0, np.empty(0, _RECORD), 1
    while (probe := _records(path, bad)) is not None and len(probe) == bad:
        good, rows, bad = bad, probe, 2 * bad
    while bad - good > 1:
        mid = (good + bad) // 2
        probe = _records(path, mid)
        if probe is None:
            bad = mid
        else:
            good, rows = mid, probe
    return good, rows


def _locate(path: str, index: int) -> tuple[int, list[str]]:
    """The physical line on which body record ``index`` starts, and its fields.

    Blank lines are skipped, as numpy's reader skips them; a quoted field may
    span lines. Only a rejected file is read this way.
    """
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        next(reader)
        start = reader.line_num + 1
        for row in reader:
            if row:
                if index == 0:
                    return start, row
                index -= 1
            start = reader.line_num + 1


def _unparsed_field(row: list[str]) -> str:
    """Why numpy's reader rejects ``row``: its field count, else the first of t, dim and value it cannot parse."""
    if len(row) != len(_FIELDS):
        return f"expected {len(_FIELDS)} fields, got {len(row)}"
    for name, text in zip(_FIELDS[1:3], row[1:3]):
        try:
            np.loadtxt(['"' + text.replace('"', '""') + '"'], dtype=_RECORD[name], delimiter=",",
                       quotechar='"', comments=None)
        except ValueError:
            return f"{name} must be an integer, got {text!r}"
    return f"value must be a number, got {row[3]!r}"


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


def _reject(path: str, rows: np.ndarray, unparsed: int | None, names: list[str], series: np.ndarray) -> NoReturn:
    """Raise the error for the first bad record of ``rows``, else for record ``unparsed``, else for the first bad series.

    ``rows`` are the records before ``unparsed``, or all of them, and ``series``
    numbers each record's id in ``names``.
    """
    t, dim, value = rows["t"], rows["dim"], rows["value"]
    # A repeated cell is every record after the first with its (series, t, dim);
    # lexsort is stable, so those follow the first in file order.
    order = np.lexsort((dim, t, series))
    cells = series[order], t[order], dim[order]
    repeat = np.zeros(len(rows), dtype=bool)
    repeat[order[1:][np.logical_and.reduce([c[1:] == c[:-1] for c in cells])]] = True
    negative = (t < 0) | (dim < 0)
    infinite = ~np.isfinite(value)
    flagged = np.flatnonzero(negative | infinite | repeat)
    if flagged.size:
        i = int(flagged[0])
        line = _locate(path, i)[0]
        if negative[i]:
            raise CsvParseError(f"line {line}: t and dim must be nonnegative")
        if infinite[i]:
            raise CsvParseError(f"line {line}: value must be finite")
        raise CsvSchemaError(f"line {line}: series {names[series[i]]!r}: duplicate entry for (t={t[i]}, dim={dim[i]})")
    if unparsed is not None:
        line, row = _locate(path, unparsed)
        raise CsvParseError(f"line {line}: {_unparsed_field(row)}")

    # With no repeated cell, a series fills its grid iff it has one record per cell.
    # The grid size is taken in float64 so that a huge t cannot wrap around.
    last_t = np.zeros(len(names), dtype=np.int64)
    np.maximum.at(last_t, series, t)
    last_dim = np.zeros(len(names), dtype=np.int64)
    np.maximum.at(last_dim, series, dim)
    count = np.bincount(series, minlength=len(names))
    incomplete = count != (last_t + 1.0) * (last_dim + 1.0)
    i = int(np.flatnonzero(incomplete | (last_t != last_t[0]) | (last_dim != last_dim[0]))[0])
    line = _locate(path, int(np.argmax(series == i)))[0]
    steps, dims = int(last_t[i]) + 1, int(last_dim[i]) + 1
    if incomplete[i]:
        problem = f"expected {steps * dims} entries for shape ({steps}, {dims}), got {count[i]}"
    else:
        problem = f"shape ({steps}, {dims}) differs from ({int(last_t[0]) + 1}, {int(last_dim[0]) + 1})"
    raise CsvSchemaError(f"series {names[i]!r}, starting at line {line}: {problem}")


def load_csv(path: str) -> list[TimeSeries]:
    """Read a UTF-8 corpus saved by :func:`save_csv` (or matching its schema).

    numpy's C reader parses the body in one call; series keep the order in
    which their ids first appear. A rejected file raises CsvParseError or
    CsvSchemaError naming the physical line of the first bad record in file
    order. Within a record the checks run in this order: field count, t, dim,
    value, the signs of t and dim, finiteness, and a repeated (id, t, dim)
    cell. Then each series, in first-appearance order, must fill its grid of
    (t, dim) cells and share the first series' shape; those errors name the
    line on which the series starts.
    """
    rows, unparsed = _records(path), None
    if rows is None:
        unparsed, rows = _parsed_prefix(path)
    elif len(rows) == 0:
        raise CsvSchemaError("file contains no data rows")
    names, series = _number_series(rows)
    t, dim, value = rows["t"], rows["dim"], rows["value"]

    # A good file has one record per cell of a (series, t, dim) grid: with
    # exactly as many cells as records, that holds iff no cell is hit twice.
    if unparsed is None and (t >= 0).all() and (dim >= 0).all() and np.isfinite(value).all():
        steps, dims = int(t.max()) + 1, int(dim.max()) + 1
        if len(names) * steps * dims == len(rows):
            cell = (series * steps + t) * dims + dim
            hit = np.zeros(len(rows), dtype=bool)
            hit[cell] = True
            if hit.all():
                values = np.empty(len(rows))
                values[cell] = value
                return [TimeSeries(sid, v) for sid, v in zip(names, values.reshape(len(names), steps, dims))]
    _reject(path, rows, unparsed, names, series)

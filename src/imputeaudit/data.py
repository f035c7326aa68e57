"""Synthetic corpora, scenario-faithful splits, and CSV ingestion."""
from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from typing import ClassVar

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


def save_csv(data: list[TimeSeries], path: str) -> None:
    """Write `id,t,dim,value` rows grouped by id, ordered by t then dim.

    Values are written with repr, so a save/load round trip is exact.
    """
    with _atomic_open(path, newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["id", "t", "dim", "value"])
        for s in data:
            for t in range(s.length):
                for d in range(s.dims):
                    writer.writerow([s.id, t, d, repr(float(s.values[t, d]))])


def load_csv(path: str) -> list[TimeSeries]:
    """Read a corpus saved by :func:`save_csv` (or matching its schema)."""
    per_id: dict[str, dict[tuple[int, int], float]] = {}
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or [h.strip() for h in header] != ["id", "t", "dim", "value"]:
            raise CsvParseError(f"line 1: expected header 'id,t,dim,value', got {header}")
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != 4:
                raise CsvParseError(f"line {lineno}: expected 4 fields, got {len(row)}")
            sid = row[0]
            try:
                t = int(row[1])
                d = int(row[2])
                value = float(row[3])
            except ValueError as exc:
                raise CsvParseError(f"line {lineno}: {exc}") from exc
            if t < 0 or d < 0:
                raise CsvParseError(f"line {lineno}: t and dim must be nonnegative")
            if not math.isfinite(value):
                raise CsvParseError(f"line {lineno}: value must be finite")
            cells = per_id.setdefault(sid, {})
            if (t, d) in cells:
                raise CsvSchemaError(f"series {sid!r}: duplicate entry for (t={t}, dim={d})")
            cells[(t, d)] = value

    if not per_id:
        raise CsvSchemaError("file contains no data rows")

    out = []
    shape: tuple[int, int] | None = None
    for sid, cells in per_id.items():
        steps = 1 + max(t for t, _ in cells)
        dims = 1 + max(d for _, d in cells)
        if len(cells) != steps * dims:
            raise CsvSchemaError(f"series {sid!r}: expected {steps * dims} entries for shape ({steps}, {dims}), got {len(cells)}")
        if shape is None:
            shape = (steps, dims)
        elif shape != (steps, dims):
            raise CsvSchemaError(f"series {sid!r}: shape ({steps}, {dims}) differs from {shape}")
        values = np.empty((steps, dims))
        for (t, d), v in cells.items():
            values[t, d] = v
        out.append(TimeSeries(sid, values))
    return out

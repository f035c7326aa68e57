"""Core domain types: time series, observedness masks, and the imputation boundary.

Everything downstream (training, scoring, metrics) works on the types defined
here. Each type copies, checks and freezes the arrays it keeps, through one
helper, ``_freeze``, so it is immutable after construction, safe to share
across concurrent readers, and leaves the caller's arrays as they were.
``TimeSeries``' public constructor does this for outside input; masked views
and model completions, new finite arrays the program made itself, are frozen
in place by one internal constructor, ``_series``.

A ``MaskedSeries`` carries 0.0 at each hidden entry and ``missing``, a bool
array of the series' shape that is True there (any other dtype or shape
raises ValueError); the paper's observedness
matrix M is ``~missing``, so an oracle keeps the observed entries with
``np.where(x.missing, prediction, x.series.values)``. ``single_unit_mask``
checks its block and builds the block's mask for its view on each call, so no
mask is cached; ``random_missing_mask`` returns a read-only bool array, and
``apply_mask`` cuts the view.

The boundary is ``_query``: an oracle is shown a ``MaskedSeries`` and nothing
else, and every completion it returns is checked there, whoever asked. It
raises ``OracleError``, naming the series and the caller, when the oracle
raises or returns something other than a series of the right shape with its
observed entries unchanged.

The package's one JSON reader is here too: ``_load`` (a UTF-8 file, with or
without a byte-order mark, in which a repeated key is an error) and ``_read``
(a parsed value), with its inverse ``_to_dict``. So is ``_layout``, the
(name, start, stop, shape) of each parameter in a net's flat parameter
vector, which the ``autoencoder`` and ``attention`` nets import from here so
that neither imports ``models``.
"""
from __future__ import annotations

import dataclasses
import functools
import hashlib
import json
import math
import os
import typing
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Protocol, runtime_checkable

import numpy as np

__all__ = [
    "TimeSeries",
    "MaskedSeries",
    "NormParams",
    "ImputationOracle",
    "OracleError",
    "DegenerateMaskError",
    "single_unit_mask",
    "random_missing_mask",
    "apply_mask",
    "zscore_normalize",
    "zscore_denormalize",
    "derive_seed",
]


class DegenerateMaskError(ValueError):
    """A mask would leave nothing observed to condition the imputation on."""


class OracleError(RuntimeError):
    """An imputation oracle failed or broke its contract; the message names the series and the caller."""


def _freeze(value: object, name: str, arr: np.ndarray) -> np.ndarray:
    """Store ``arr``, an array that only ``value`` holds, read-only as the
    field ``name`` of the frozen dataclass ``value``, and return it. Each value
    type builds its own copy of what it keeps and checks it first."""
    arr.setflags(write=False)
    object.__setattr__(value, name, arr)
    return arr


@dataclass(frozen=True, eq=False)
class TimeSeries:
    """A real-valued matrix of shape (steps, dims) with an identity.

    The values array is copied, checked and frozen at construction: it must
    be finite, 1-D or 2-D, with at least one step and one dim; 1-D input is
    promoted to a single-dimension matrix.
    """

    id: str
    values: np.ndarray

    def __post_init__(self) -> None:
        arr = np.asarray(self.values, dtype=np.float64)
        if arr.ndim == 1:
            arr = arr[:, None]
        if arr.ndim != 2:
            raise ValueError(f"series values must be 1-D or 2-D, got ndim={arr.ndim}")
        arr = arr.copy()
        if arr.shape[0] < 1 or arr.shape[1] < 1:
            raise ValueError(f"series {self.id!r}: need at least 1 step and 1 dim, got shape {arr.shape}")
        if not np.isfinite(arr).all():
            raise ValueError(f"series {self.id!r}: values must be finite")
        _freeze(self, "values", arr)

    @property
    def length(self) -> int:
        return self.values.shape[0]

    @property
    def dims(self) -> int:
        return self.values.shape[1]

    @property
    def shape(self) -> tuple[int, int]:
        return self.values.shape


@dataclass(frozen=True, eq=False)
class MaskedSeries:
    """Exactly what an imputation oracle is shown.

    ``series`` carries the sentinel fill (0, in normalized space) at missing
    positions. ``missing`` is a bool array of the series' shape, True at each
    hidden entry, copied and frozen at construction; the paper's observedness
    matrix M is ``~missing``. The auditor keeps the unmasked series to itself.
    """

    series: TimeSeries
    missing: np.ndarray

    def __post_init__(self) -> None:
        missing = np.array(self.missing)
        if missing.dtype != np.bool_ or missing.shape != self.series.shape:
            raise ValueError(f"mask must be a bool array of shape {self.series.shape}, got {missing.dtype} of shape {missing.shape}")
        _freeze(self, "missing", missing)

    @property
    def id(self) -> str:
        return self.series.id


@dataclass(frozen=True, eq=False)
class NormParams:
    """Per-dimension mean/scale allowing exact inversion of a z-score transform."""

    mean: np.ndarray
    scale: np.ndarray

    def __post_init__(self) -> None:
        for name in ("mean", "scale"):
            _freeze(self, name, np.array(getattr(self, name), dtype=np.float64))


@runtime_checkable
class ImputationOracle(Protocol):
    """Black-box query interface: masked series in, completed series out."""

    def impute(self, x: MaskedSeries) -> TimeSeries: ...


def _series(id: str, values: np.ndarray) -> TimeSeries:
    """A ``TimeSeries`` around ``values``, a new finite float64 (steps, dims)
    array that no one else holds, frozen in place: the copy and the checks the
    constructor makes on outside input are skipped. Masked views and model
    completions are built this way."""
    values.setflags(write=False)
    series = object.__new__(TimeSeries)
    series.__dict__.update(id=id, values=values)
    return series


def _query(oracle: ImputationOracle, masked: MaskedSeries, caller: str) -> TimeSeries:
    """One black-box query; a failure or a completion that breaks the contract names the series and the caller."""
    try:
        completed = oracle.impute(masked)
    except Exception as exc:
        raise OracleError(f"{caller} oracle failed on series {masked.id!r}: {exc}") from exc
    if not isinstance(completed, TimeSeries) or completed.shape != masked.series.shape:
        got = f"shape {completed.shape}" if isinstance(completed, TimeSeries) else type(completed).__name__
        raise OracleError(
            f"{caller} oracle returned {got} for series {masked.id!r}, "
            f"expected a series of shape {masked.series.shape}"
        )
    if not ((completed.values == masked.series.values) | masked.missing).all():
        raise OracleError(f"{caller} oracle changed observed entries of series {masked.id!r}")
    return completed


def single_unit_mask(x: TimeSeries, start: int, length: int = 1, dim: int = 0) -> MaskedSeries:
    """Hide one contiguous block of ``length`` steps from ``start`` in ``dim``.

    Raises DegenerateMaskError when the block covers every step of the chosen
    dimension (nothing left to condition on), and ValueError for blocks that
    fall outside the series. Each call builds the block's mask for its view;
    no mask is cached.
    """
    steps, dims = x.shape
    if length < 1:
        raise ValueError(f"block length must be >= 1, got {length}")
    if not 0 <= dim < dims:
        raise ValueError(f"dim {dim} out of range for {dims}-dim series")
    if length >= steps:
        raise DegenerateMaskError(
            f"block length {length} >= series length {steps}: nothing observed to condition on"
        )
    if start < 0 or start + length > steps:
        raise ValueError(f"block [{start}, {start + length}) out of range for length {steps}")
    missing = np.zeros((steps, dims), dtype=bool)
    missing[start : start + length, dim] = True
    return apply_mask(x, missing)


def random_missing_mask(shape: tuple[int, int], fraction: float, seed: int) -> np.ndarray:
    """A read-only bool array of ``shape`` that hides (is True at) exactly
    ``round(fraction * steps * dims)`` entries, drawn uniformly without replacement."""
    if not 0.0 < fraction < 1.0:
        raise ValueError(f"fraction must be in (0, 1), got {fraction}")
    missing = np.zeros(shape, dtype=bool)
    n_hidden = int(round(fraction * missing.size))
    missing.flat[np.random.default_rng(seed).choice(missing.size, size=n_hidden, replace=False)] = True
    missing.setflags(write=False)
    return missing


def apply_mask(x: TimeSeries, missing: np.ndarray) -> MaskedSeries:
    """The view of ``x`` that hides the entries ``missing`` marks: a bool array of
    ``x``'s shape, True at each hidden entry, which the view fills with 0.0 and
    keeps its own read-only copy of."""
    if np.shape(missing) != x.shape:
        raise ValueError(f"shape mismatch: series {x.shape} vs mask {np.shape(missing)}")
    return MaskedSeries(_series(x.id, np.where(missing, 0.0, x.values)), missing)


def zscore_normalize(x: TimeSeries) -> tuple[TimeSeries, NormParams]:
    """Standardize each dimension to mean 0 / variance 1 (population).

    Constant dimensions map to all-zeros with a stored scale of 1 so the
    transform is always exactly invertible.
    """
    if x.length * x.dims < 2:
        raise ValueError(f"series {x.id!r}: need at least 2 values to normalize")
    mean = x.values.mean(axis=0)
    sd = x.values.std(axis=0)  # population
    scale = np.where(sd > 0.0, sd, 1.0)
    normalized = (x.values - mean) / scale
    return TimeSeries(x.id, normalized), NormParams(mean=mean, scale=scale)


def zscore_denormalize(x: TimeSeries, params: NormParams) -> TimeSeries:
    """Invert :func:`zscore_normalize`."""
    return TimeSeries(x.id, x.values * params.scale + params.mean)


def derive_seed(master: int, label: object) -> int:
    """Stable child seed for a named stage of a pipeline."""
    digest = hashlib.sha256(f"{master}:{label}".encode()).digest()
    return int.from_bytes(digest[:4], "big")


_Layout = list[tuple[str, int, int, tuple[int, ...]]]


def _layout(shapes: list[tuple[str, tuple[int, ...]]]) -> _Layout:
    """(name, start, stop, shape) of each parameter in a net's flat vector, computed once per network."""
    layout = []
    ofs = 0
    for name, shape in shapes:
        size = int(np.prod(shape))
        layout.append((name, ofs, ofs + size, shape))
        ofs += size
    return layout


@contextmanager
def _atomic_open(path: str, newline: str | None = None):
    """Write through a temp file beside ``path`` that replaces it whole on success and is removed on any exception."""
    tmp = f"{path}.tmp-{os.getpid()}"
    fh = open(tmp, "w", newline=newline, encoding="utf-8")
    try:
        with fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def _write_json(doc: dict, path: str) -> None:
    with _atomic_open(path) as fh:
        json.dump(doc, fh, sort_keys=True, indent=2)
        fh.write("\n")


def _load(kind, path: str):
    """The UTF-8 JSON file at ``path``, with or without a byte-order mark, read as
    ``kind`` (see ``_read``). A key repeated in one object is an error, where
    json.load would keep its last value; every error names ``path``."""

    def unique_keys(pairs: list) -> dict:
        doc = {}
        for key, value in pairs:
            if key in doc:
                raise ValueError(f"{path}: key {key!r} appears more than once in one object")
            doc[key] = value
        return doc

    with open(path, encoding="utf-8-sig") as fh:
        try:
            return _read(kind, json.load(fh, object_pairs_hook=unique_keys), path)
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise ValueError(f"{path} is not valid JSON: {exc}") from exc


@functools.cache
def _classes(kind) -> tuple:
    """The config dataclasses ``kind`` can hold: itself, or the members of its union."""
    return tuple(c for c in typing.get_args(kind) or (kind,) if dataclasses.is_dataclass(c))


_hints = functools.cache(typing.get_type_hints)  # a class's field types, resolved once


def _read(kind, value, where: str):
    """``value``, parsed from JSON, read as ``kind``; ``where`` names it in errors.

    ``kind`` is a config dataclass, a union of them told apart by each class's
    ``TAG`` ClassVar (its key and value), ``X | None``, a tuple of fixed
    length or ``tuple[X, ...]``, or bool, int, float, str or dict. An object's
    keys must be fields of its class (or its own tag), a key left out takes
    the field's default, and a field without one must be given. A float reads
    from any finite number (not JSON's Infinity or NaN, nor a number past
    float's range), while any other kind reads only from itself; null reads
    only where None is allowed. Anything else raises ValueError naming the key
    and the block it is in, or the item's index in its list.
    """
    if value is None and type(None) in typing.get_args(kind):
        return None
    if typing.get_origin(kind) is tuple:
        items = typing.get_args(kind)
        if not isinstance(value, list):
            raise ValueError(f"{where} must be a list, got {value!r}")
        if items[-1] is Ellipsis:
            items = items[:1] * len(value)
        elif len(value) != len(items):
            raise ValueError(f"{where} must be a list of {len(items)}, got {value!r}")
        return tuple(_read(item_kind, item, f"item {i} of {where}") for i, (item_kind, item) in enumerate(zip(items, value)))
    classes = _classes(kind)
    if classes and not isinstance(value, dict):
        raise ValueError(f"{where} must be an object, got {value!r}")
    if len(classes) > 1:
        key, tags = classes[0].TAG[0], {c.TAG[1]: c for c in classes}
        if value.get(key) not in tags:
            raise ValueError(f"{where} needs {key!r} to be one of {sorted(tags)}, got {value.get(key)!r}")
        return _read(tags[value[key]], value, f"the {value[key]} {where.removeprefix('the ')}")
    if classes:
        cls, tag = classes[0], getattr(classes[0], "TAG", None)
        hints, fields = _hints(cls), {f.name: f for f in dataclasses.fields(cls)}
        for key, item in value.items():
            if key not in fields and (key, item) != tag:
                raise ValueError(f"unknown key {key!r} in {where}")
        parsed = {}
        for key, f in fields.items():
            if key in value:
                nested = f"the {key} block of {where}" if _classes(hints[key]) else f"{key!r} in {where}"
                parsed[key] = _read(hints[key], value[key], nested)
            elif f.default is dataclasses.MISSING and f.default_factory is dataclasses.MISSING:
                raise ValueError(f"missing key {key!r} in {where}")
        try:
            return cls(**parsed)
        except ValueError as exc:  # a value out of range, named by the class's own check
            raise ValueError(f"{where}: {exc}") from exc
    if kind is float and type(value) in (int, float):
        try:
            number = float(value)
        except OverflowError:  # an integer past float's range
            number = math.inf
        if not math.isfinite(number):
            raise ValueError(f"{where} must be a finite float, got {value!r}")
        return number
    if type(value) is kind:
        return kind(value)
    raise ValueError(f"{where} must be {kind.__name__}, got {value!r}")


def _to_dict(obj):
    """The JSON form of a config dataclass that ``_read`` reads back: its tag, if
    it has one, and every field, with tuples as lists."""
    if dataclasses.is_dataclass(obj):
        tag = getattr(obj, "TAG", None)
        return dict([tag] if tag else []) | {f.name: _to_dict(getattr(obj, f.name)) for f in dataclasses.fields(obj)}
    if isinstance(obj, tuple):
        return [_to_dict(item) for item in obj]
    return obj

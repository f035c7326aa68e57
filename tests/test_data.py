from __future__ import annotations

import numpy as np
import pytest
from helpers import generate_synthetic_reference
from hypothesis import given, settings
from hypothesis import strategies as st

from imputeaudit.core import TimeSeries
from imputeaudit.data import (
    FAMILY_FREQ_BANDS,
    CsvParseError,
    CsvSchemaError,
    SyntheticConfig,
    _draw_components,
    generate_synthetic,
    load_csv,
    save_csv,
    split_scenario1,
    split_scenario2,
)


def test_family_bands_are_disjoint():
    (a_lo, a_hi), (b_lo, b_hi) = FAMILY_FREQ_BANDS["A"], FAMILY_FREQ_BANDS["B"]
    assert a_hi < b_lo or b_hi < a_lo


def test_generator_deterministic():
    cfg = SyntheticConfig(count=5, length=32, seed=11)
    first = generate_synthetic(cfg)
    second = generate_synthetic(cfg)
    assert [s.id for s in first] == [s.id for s in second]
    for x, y in zip(first, second):
        assert np.array_equal(x.values, y.values)


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 6), st.integers(2, 40), st.integers(1, 3), st.integers(0, 2**32 - 1),
       st.sampled_from([0.0, 0.2, 0.7]), st.sampled_from([0.0, 0.5, 0.95]), st.sampled_from(["A", "B"]))
def test_generator_matches_the_per_series_loop(count, length, dims, seed, noise_scale, ar_coeff, family):
    cfg = SyntheticConfig(family=family, count=count, length=length, dims=dims, seed=seed,
                          noise_scale=noise_scale, ar_coeff=ar_coeff)
    expected = generate_synthetic_reference(cfg)
    got = generate_synthetic(cfg)
    assert [s.id for s in got] == [s.id for s in expected]
    for x, y in zip(got, expected):
        assert x.values.tobytes() == y.values.tobytes()


def test_noiseless_single_sinusoid_matches_closed_form():
    cfg = SyntheticConfig(count=1, length=48, seed=5, components=(1, 1), noise_scale=0.0)
    series = generate_synthetic(cfg)[0]
    # replay the parameter draw, then evaluate the sinusoid independently
    rng = np.random.default_rng(cfg.seed)
    freq, amp, phase = _draw_components(rng, cfg)[0][0]
    t = np.arange(cfg.length)
    expected = amp * np.sin(2 * np.pi * freq * t / cfg.length + phase)
    assert np.allclose(series.values[:, 0], expected, atol=1e-9)


def test_generated_values_finite_and_shaped():
    for family in ("A", "B"):
        corpus = generate_synthetic(SyntheticConfig(family=family, count=8, length=40, dims=2, seed=1))
        assert len(corpus) == 8
        for s in corpus:
            assert s.shape == (40, 2)
            assert np.all(np.isfinite(s.values))


def dominant_cycles(series: TimeSeries) -> float:
    spectrum = np.abs(np.fft.rfft(series.values[:, 0]))
    spectrum[0] = 0.0  # ignore DC
    return float(np.argmax(spectrum))


def test_family_dominant_frequencies_disjoint():
    cfg_a = SyntheticConfig(family="A", count=200, length=64, seed=21, noise_scale=0.2)
    cfg_b = SyntheticConfig(family="B", count=200, length=64, seed=22, noise_scale=0.2)
    peaks_a = [dominant_cycles(s) for s in generate_synthetic(cfg_a)]
    peaks_b = [dominant_cycles(s) for s in generate_synthetic(cfg_b)]
    assert max(peaks_a) < min(peaks_b)


def test_config_validation():
    with pytest.raises(ValueError):
        SyntheticConfig(family="C")
    with pytest.raises(ValueError):
        SyntheticConfig(components=(2, 1))
    with pytest.raises(ValueError):
        SyntheticConfig(amplitude_range=(0.0, 1.0))
    with pytest.raises(ValueError):
        SyntheticConfig(ar_coeff=1.0)


def corpus_of(n):
    return [TimeSeries(f"s{i:04d}", np.arange(6.0) + i) for i in range(n)]


def test_split_scenario1_sizes():
    split = split_scenario1(corpus_of(1000), seed=0)
    assert (len(split.public), len(split.private), len(split.test)) == (400, 400, 200)

    small = split_scenario1(corpus_of(7), seed=0)
    assert (len(small.public), len(small.private), len(small.test)) == (2, 2, 3)


def test_split_scenario2_sizes():
    split = split_scenario2(corpus_of(1000), seed=0)
    assert (len(split.public), len(split.private), len(split.test)) == (600, 200, 200)


def test_splits_are_exact_partitions():
    data = corpus_of(103)
    for splitter in (split_scenario1, split_scenario2):
        split = splitter(data, seed=3)
        ids = [s.id for part in (split.public, split.private, split.test) for s in part]
        assert len(ids) == len(data)
        assert set(ids) == {s.id for s in data}


def test_split_determinism_and_seed_sensitivity():
    data = corpus_of(50)
    a = split_scenario1(data, seed=9)
    b = split_scenario1(data, seed=9)
    c = split_scenario1(data, seed=10)
    assert [s.id for s in a.public] == [s.id for s in b.public]
    assert [s.id for s in a.public] != [s.id for s in c.public]


def test_split_too_few_series():
    with pytest.raises(ValueError):
        split_scenario1(corpus_of(4), seed=0)


def test_split_duplicate_ids_rejected():
    data = corpus_of(10)
    data[3] = TimeSeries(data[2].id, data[3].values)
    with pytest.raises(ValueError):
        split_scenario2(data, seed=0)


def test_csv_round_trip(tmp_path):
    rng = np.random.default_rng(4)
    corpus = [TimeSeries(f"series-{i}", rng.normal(size=(12, 3))) for i in range(10)]
    path = tmp_path / "corpus.csv"
    save_csv(corpus, str(path))
    loaded = load_csv(str(path))
    assert [s.id for s in loaded] == [s.id for s in corpus]
    for x, y in zip(corpus, loaded):
        assert np.array_equal(x.values, y.values)


def test_csv_parse_error_names_line(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("id,t,dim,value\na,0,0,1.5\na,1,0,not-a-number\n")
    with pytest.raises(CsvParseError, match="line 3"):
        load_csv(str(path))


def test_csv_ragged_series_rejected(tmp_path):
    path = tmp_path / "ragged.csv"
    path.write_text("id,t,dim,value\na,0,0,1.0\na,1,0,2.0\nb,0,0,3.0\n")
    with pytest.raises(CsvSchemaError):
        load_csv(str(path))


def test_csv_incomplete_grid_rejected(tmp_path):
    path = tmp_path / "holes.csv"
    path.write_text("id,t,dim,value\na,0,0,1.0\na,2,0,2.0\n")
    with pytest.raises(CsvSchemaError):
        load_csv(str(path))


def test_csv_duplicate_cell_rejected(tmp_path):
    path = tmp_path / "dup.csv"
    path.write_text("id,t,dim,value\na,0,0,1.0\na,0,0,2.0\n")
    with pytest.raises(CsvSchemaError):
        load_csv(str(path))


def test_csv_bad_header(tmp_path):
    path = tmp_path / "hdr.csv"
    path.write_text("foo,bar\n1,2\n")
    with pytest.raises(CsvParseError, match="line 1"):
        load_csv(str(path))

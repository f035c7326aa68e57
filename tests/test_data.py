from __future__ import annotations

import os
import subprocess
import sys
import tempfile
import warnings

import numpy as np
import pytest
from helpers import generate_synthetic_reference, load_csv_reference, save_csv_reference
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import imputeaudit

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


# Before the bad record: a blank line (line 3) and a quoted id that spans
# lines 4 and 5, so the bad record starts on physical line 6.
CSV_PREFIX = 'id,t,dim,value\na,0,0,1.0\n\n"two\nlines",0,0,2.0\n'


def write_csv(path, text):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(text)
    return str(path)


@pytest.mark.parametrize("bad, error, message", [
    ("c,0,0", CsvParseError, "line 6: expected 4 fields, got 3"),
    ("c,0,0,1.0,2", CsvParseError, "line 6: expected 4 fields, got 5"),
    ("c,x,0,1.0", CsvParseError, "line 6: t must be an integer, got 'x'"),
    ("c,0,1.5,1.0", CsvParseError, "line 6: dim must be an integer, got '1.5'"),
    ("c,0,0,abc", CsvParseError, "line 6: value must be a number, got 'abc'"),
    ("c,-1,0,1.0", CsvParseError, "line 6: t and dim must be nonnegative"),
    ("c,0,-2,1.0", CsvParseError, "line 6: t and dim must be nonnegative"),
    ("c,0,0,inf", CsvParseError, "line 6: value must be finite"),
    ("c,0,0,nan", CsvParseError, "line 6: value must be finite"),
    ("a,0,0,3.0", CsvSchemaError, "line 6: series 'a': duplicate entry for (t=0, dim=0)"),
    ("c,0,0,1.0\nc,2,0,1.0", CsvSchemaError, "series 'c', starting at line 6: expected 3 entries for shape (3, 1), got 2"),
    ("c,0,0,1.0\nc,1,0,2.0", CsvSchemaError, "series 'c', starting at line 6: shape (2, 1) differs from (1, 1)"),
    # within a record: field count, t, dim, value, sign, finiteness, duplicate
    ("c,x,y", CsvParseError, "line 6: expected 4 fields, got 3"),
    ("c,x,-1,nan", CsvParseError, "line 6: t must be an integer, got 'x'"),
    ("c,-1,y,nan", CsvParseError, "line 6: dim must be an integer, got 'y'"),
    ("c,-1,0,nan", CsvParseError, "line 6: t and dim must be nonnegative"),
    ("a,0,0,nan", CsvParseError, "line 6: value must be finite"),
    # across records, file order wins over the kind of check
    ("c,-1,0,1.0\nd,0,0", CsvParseError, "line 6: t and dim must be nonnegative"),
    ("a,0,0,3.0\nd,x,0,1.0", CsvSchemaError, "line 6: series 'a': duplicate entry for (t=0, dim=0)"),
    ("d,x,0,1.0\na,0,0,3.0", CsvParseError, "line 6: t must be an integer, got 'x'"),
    # a line of only whitespace, or only an empty quoted field, is a record of one field, not a blank line
    ("   ", CsvParseError, "line 6: expected 4 fields, got 1"),
    ('""', CsvParseError, "line 6: expected 4 fields, got 1"),
])
def test_csv_rejection_names_the_physical_line(tmp_path, bad, error, message):
    path = write_csv(tmp_path / "bad.csv", CSV_PREFIX + bad + "\n")
    with pytest.raises(error) as caught:
        load_csv(path)
    assert str(caught.value) == message
    with pytest.raises(error) as expected:
        load_csv_reference(path)
    assert str(expected.value) == message


@pytest.mark.parametrize("bad, message", [
    ("c,0,0,1_0", "line 6: value must be a number, got '1_0'"),
    ("c,0,0,1_0.5", "line 6: value must be a number, got '1_0.5'"),
    ("c,1_0,0,1.0", "line 6: t must be an integer, got '1_0'"),
    ("c,١,0,1.0", "line 6: t must be an integer, got '١'"),
    ("c,0,１,1.0", "line 6: dim must be an integer, got '１'"),
    ("c,0,0,١.٥", "line 6: value must be a number, got '١.٥'"),
    ("c,9223372036854775808,0,1.0", "line 6: t must be an integer, got '9223372036854775808'"),
    ("c,-9223372036854775809,0,1.0", "line 6: t must be an integer, got '-9223372036854775809'"),
    ("c,0,9223372036854775808,1.0", "line 6: dim must be an integer, got '9223372036854775808'"),
    ("c,0,-9223372036854775809,1.0", "line 6: dim must be an integer, got '-9223372036854775809'"),
])
def test_csv_numbers_follow_numpys_grammar(tmp_path, bad, message):
    """int() and float() read underscores, non-ASCII digits and integers past int64; numpy's reader rejects them."""
    with pytest.raises(CsvParseError) as caught:
        load_csv(write_csv(tmp_path / "bad.csv", CSV_PREFIX + bad + "\n"))
    assert str(caught.value) == message


def test_csv_first_record_rejected(tmp_path):
    with pytest.raises(CsvParseError, match="^line 2: expected 4 fields, got 2$"):
        load_csv(write_csv(tmp_path / "bad.csv", "id,t,dim,value\nx,y\na,0,0,1.0\n"))


def test_csv_ids_may_start_with_a_hash(tmp_path):
    loaded = load_csv(write_csv(tmp_path / "hash.csv", "id,t,dim,value\n#a,0,0,1.0\n# b,0,0,2.0\n"))
    assert [(s.id, s.values.tolist()) for s in loaded] == [("#a", [[1.0]]), ("# b", [[2.0]])]


@pytest.mark.parametrize("body", ["", "\n\n", "\r\n"])
def test_csv_empty_body_is_a_schema_error_without_a_warning(tmp_path, body):
    path = write_csv(tmp_path / "empty.csv", "id,t,dim,value\n" + body)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(CsvSchemaError, match="no data rows"):
            load_csv(path)


def test_csv_that_is_not_utf8_names_the_file(tmp_path):
    for name, raw in (("body.csv", b"id,t,dim,value\na,0,0,1.0\n\xff,1,0,2.0\n"), ("header.csv", b"\xffid,t,dim,value\n"),
                      ("after_a_bad_record.csv", b"id,t,dim,value\na,0,0,1.0\nb,x,0,1.0\n\xff,1,0,2.0\n")):
        path = tmp_path / name
        path.write_bytes(raw)
        with pytest.raises(CsvParseError, match=f"{name} is not UTF-8 text"):
            load_csv(str(path))


def test_csv_field_past_csvs_limit_names_the_file_and_line(tmp_path):
    # numpy's reader takes a field of any size; csv.reader stops at csv.field_size_limit() (131072).
    long_id = "x" * 200_000
    for name, text, line in (("header.csv", long_id + ",t,dim,value\n", 1),
                             ("body.csv", f"id,t,dim,value\na,0,0,1.0\n{long_id},0,0,2.0\nb,x,0,1.0\n", 3)):
        path = write_csv(tmp_path / name, text)
        with pytest.raises(CsvParseError) as caught:
            load_csv(path)
        assert str(caught.value) == f"{path}: line {line}: field larger than field limit (131072)"
    loaded = load_csv(write_csv(tmp_path / "good.csv", f"id,t,dim,value\n{long_id},0,0,2.0\n"))
    assert [(s.id, s.values.tolist()) for s in loaded] == [(long_id, [[2.0]])]


def test_csv_non_ascii_digits_are_not_read_as_numbers(tmp_path):
    # numpy's reader reads U+01FE as 462, which would complete this series as its last step.
    records = "".join(f"s,{t},0,{t}.0\n" for t in range(462))
    with pytest.raises(CsvParseError) as caught:
        load_csv(write_csv(tmp_path / "digit.csv", "id,t,dim,value\n" + records + "s,\u01fe,0,99.0\n"))
    assert str(caught.value) == "line 464: t must be an integer, got '\u01fe'"
    # Non-ASCII text that numpy's grammar allows still loads: in an id, and as a no-break space around a number.
    loaded = load_csv(write_csv(tmp_path / "text.csv", "id,t,dim,value\n\u01fe,0,0,\xa01.5\n\u01fe,\u30001,0,2.0\n"))
    assert [(s.id, s.values.tolist()) for s in loaded] == [("\u01fe", [[1.5], [2.0]])]


# Spellings of t and dim, then of value: ASCII and Unicode whitespace, signs, leading zeros, int64's ends and
# one past them, underscores, non-ASCII digits, hex, every inf and nan spelling, and a Fortran exponent.
_INT_SPELLINGS = ["0", "7", "-3", "+4", "007", " 5", "5 ", "\t6\t", "\x0b1\x0c", "\x1c1\x1f", "\xa01", "1\u3000",
                  "9223372036854775807", "-9223372036854775808", "9223372036854775808", "-9223372036854775809",
                  "1_0", "١", "１", "0x10", "1.0", "1e3", "", "+"]
_FLOAT_SPELLINGS = ["1.5", "-0.0", "1.", ".5", "+.5e-3", " 2.5 ", "\x1c2.5", "\xa02.5", "5e-324", "1e400", "-1e400",
                    "inf", "-Infinity", "+INF", "iNfInItY", "nan", "-NaN", "+nan", "NAN", "nan(123)", "0x1p3", "1d3",
                    "1_0", "1_0.5", "١.٥", "１", "", ".", "1e"]


@pytest.mark.parametrize("field, text", [(f, s) for f in ("t", "dim") for s in _INT_SPELLINGS]
                         + [("value", s) for s in _FLOAT_SPELLINGS])
def test_csv_record_by_record_read_rejects_what_numpys_reader_rejects(tmp_path, field, text):
    fields = {"t": "0", "dim": "0", "value": "1.0"} | {field: text}
    record = f"a,{fields['t']},{fields['dim']},{fields['value']}"
    try:
        np.loadtxt([record], dtype=[("id", object), ("t", "<i8"), ("dim", "<i8"), ("value", "<f8")], delimiter=",",
                   quotechar='"', comments=None)
        numpy_reads = True
    except ValueError:
        numpy_reads = False
    # numpy's reader rejects the record after it, so the file is read again record by record
    with pytest.raises(CsvParseError) as caught:
        load_csv(write_csv(tmp_path / "g.csv", f"id,t,dim,value\n{record}\nb,x,0,1.0\n"))
    what = "a number" if field == "value" else "an integer"
    assert (str(caught.value) == f"line 2: {field} must be {what}, got {text!r}") is not numpy_reads


_IDS = ["a", "b", "#h", '"q\nx"', '" s, ""z"""']
# Spellings that Python's int() and float() and numpy's reader read alike.
_INTS = ["0", "1", "2", "-1", "+1", "01", " 2", "x", "", "1.5", "1e1"]
_FINITE = ["1.5", "-0.0", "2", "5e-324", "-1e300", " 3"]
_VALUES = _FINITE + ["nan", "-inf", "1e400", "abc", ""]


@st.composite
def csv_texts(draw):
    """A complete grid of records, then up to three edits: blank lines, stray, altered or dropped records, or shuffling."""
    ids = draw(st.lists(st.sampled_from(_IDS), min_size=1, max_size=3, unique=True))
    steps, dims = draw(st.integers(1, 3)), draw(st.integers(1, 2))
    lines = [f"{sid},{t},{d},{draw(st.sampled_from(_FINITE))}" for sid in ids for t in range(steps) for d in range(dims)]
    field = {1: st.sampled_from(_INTS), 2: st.sampled_from(_INTS), 3: st.sampled_from(_VALUES)}
    for _ in range(draw(st.integers(0, 3))):
        edit = draw(st.sampled_from(["blank", "insert", "alter", "drop", "shuffle"]))
        at = draw(st.integers(0, len(lines)))
        if edit == "blank":
            lines.insert(at, "")
        elif edit == "insert":
            fields = [draw(st.sampled_from(_IDS))] + [draw(field[k]) for k in (1, 2, 3)] + ["9"]
            lines.insert(at, ",".join(fields[: draw(st.integers(3, 5))]))
        elif edit == "alter" and at < len(lines) and lines[at]:
            fields = lines[at].rsplit(",", 3)
            k = draw(st.integers(1, len(fields) - 1))
            fields[k] = draw(field[k])
            lines[at] = ",".join(fields)
        elif edit == "drop" and at < len(lines):
            del lines[at]
        elif edit == "shuffle":
            lines = draw(st.permutations(lines))
    newline = draw(st.sampled_from(["\n", "\r\n"]))
    return newline.join(["id,t,dim,value", *lines]) + newline


def _outcome(load, path):
    try:
        return [(s.id, s.values.shape, s.values.tobytes()) for s in load(path)]
    except (CsvParseError, CsvSchemaError) as exc:
        return type(exc), str(exc)


@settings(max_examples=200, deadline=None)
@given(csv_texts())
def test_csv_loader_matches_the_per_record_reference(text):
    with tempfile.TemporaryDirectory() as tmp:
        path = write_csv(os.path.join(tmp, "c.csv"), text)
        assert _outcome(load_csv, path) == _outcome(load_csv_reference, path)


_ID_CHARS = st.one_of(st.sampled_from(list(',"\n\r #é-α')), st.characters(codec="utf-8"))


@st.composite
def corpora(draw):
    """Up to four series of one shape, with distinct ids of any characters (an empty one too) and any finite values."""
    ids = draw(st.lists(st.text(_ID_CHARS, max_size=8), min_size=1, max_size=4, unique=True))
    shape = (draw(st.integers(1, 8)), draw(st.integers(1, 3)))
    finite = st.floats(allow_nan=False, allow_infinity=False)
    return [TimeSeries(sid, draw(hnp.arrays(np.float64, shape, elements=finite))) for sid in ids]


@settings(max_examples=100, deadline=None)
@given(corpora())
def test_csv_round_trip_keeps_ids_and_bits(corpus):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "c.csv")
        save_csv(corpus, path)
        loaded = load_csv(path)
    assert [s.id for s in loaded] == [s.id for s in corpus]
    for x, y in zip(corpus, loaded):
        assert y.values.view(np.uint64).tolist() == x.values.view(np.uint64).tolist()


@settings(max_examples=100, deadline=None)
@given(corpora())
def test_csv_writer_matches_the_per_cell_reference(corpus):
    # An empty id is quoted only when it is alone in a row, so the writer must not quote it alone.
    with tempfile.TemporaryDirectory() as tmp:
        got, want = os.path.join(tmp, "got.csv"), os.path.join(tmp, "want.csv")
        save_csv(corpus, got)
        save_csv_reference(corpus, want)
        with open(got, "rb") as fh_got, open(want, "rb") as fh_want:
            assert fh_got.read() == fh_want.read()


def test_csv_files_do_not_depend_on_the_locale(tmp_path):
    """Under the C locale with UTF-8 mode off, the default text encoding is ASCII."""
    sid = "série-α"
    utf8 = write_csv(tmp_path / "utf8.csv", f"id,t,dim,value\n{sid},0,0,1.5\n")
    labels = tmp_path / "labels.json"
    labels.write_text(f'{{"{sid}": true}}', encoding="utf-8")
    out = str(tmp_path / "out.csv")
    # the script is ASCII: the command line is decoded with the locale's encoding too
    script = f"""
from imputeaudit.core import TimeSeries, _load
from imputeaudit.data import load_csv, save_csv
assert [s.id for s in load_csv({utf8!a})] == [{sid!a}]
save_csv([TimeSeries({sid!a}, [1.5, -0.0])], {out!a})
assert [(s.id, s.values.tolist()) for s in load_csv({out!a})] == [({sid!a}, [[1.5], [-0.0]])]
assert _load(dict, {str(labels)!a}) == {{{sid!a}: True}}
"""
    src = os.path.dirname(os.path.dirname(os.path.abspath(imputeaudit.__file__)))
    env = dict(os.environ, LC_ALL="C", PYTHONCOERCECLOCALE="0", PYTHONUTF8="0", PYTHONPATH=src)
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, timeout=60)
    assert done.returncode == 0, done.stderr.decode("utf-8", "replace")

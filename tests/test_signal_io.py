import io
import itertools
import mmap
import os
import stat
import threading
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from fencedetect import signal_io
from fencedetect.signal_io import (
    GroundTruthEvent,
    SampleStream,
    SyntheticSpec,
    decimate,
    generate_synthetic,
    read_ground_truth,
    read_multichannel_csv,
    read_waveform,
    release,
    write_ground_truth,
    write_synthetic,
    write_waveform,
)


def test_csv_identity_parse(tmp_path):
    path = tmp_path / "wave.csv"
    path.write_text("0.0\n1.5\n-1.5\n")
    stream, report = read_waveform(path, "csv", 6000.0)
    assert stream.samples.tolist() == [0.0, 1.5, -1.5]
    assert stream.sample_rate_hz == 6000.0
    assert report.dropped == 0
    assert report.kept == 3


def test_csv_drops_nan_and_counts(tmp_path):
    path = tmp_path / "wave.csv"
    path.write_text("0.0\nNaN\n2.0\n")
    stream, report = read_waveform(path, "csv", 6000.0)
    assert stream.samples.tolist() == [0.0, 2.0]
    assert report.dropped == 1


def test_csv_header_line_skipped(tmp_path):
    path = tmp_path / "wave.csv"
    path.write_text("current_a\n1.0\n2.0\n")
    stream, report = read_waveform(path, "csv", 6000.0)
    assert stream.samples.tolist() == [1.0, 2.0]
    assert report.dropped == 0


def test_raw_f32_sample_count(tmp_path):
    path = tmp_path / "wave.f32"
    np.arange(6, dtype="<f4").tofile(path)
    assert path.stat().st_size == 24
    stream, _ = read_waveform(path, "raw-f32le", 6000.0)
    assert len(stream) == 6


RAW_FORMATS = [("raw-f32le", "<f4"), ("raw-f64le", "<f8")]


@pytest.mark.parametrize("fmt, dtype", RAW_FORMATS)
def test_raw_drops_non_finite_and_counts(tmp_path, fmt, dtype):
    path = tmp_path / "wave.raw"
    np.array([1.0, np.nan, 2.0, np.inf, -np.inf, 3.0], dtype=dtype).tofile(path)
    stream, report = read_waveform(path, fmt, 6000.0)
    assert stream.samples.dtype == np.float64
    assert stream.samples.tolist() == [1.0, 2.0, 3.0]
    assert (report.kept, report.dropped) == (3, 3)
    assert stream.samples.flags.owndata  # a compacted copy, not the mapping


@pytest.mark.parametrize("fmt, dtype", RAW_FORMATS)
def test_raw_trailing_partial_sample_is_ignored(tmp_path, fmt, dtype):
    path = tmp_path / "wave.raw"
    path.write_bytes(np.array([1.0, 2.0, 3.0], dtype=dtype).tobytes() + b"\x01\x02\x03")
    stream, report = read_waveform(path, fmt, 6000.0)
    assert stream.samples.tolist() == [1.0, 2.0, 3.0]
    assert (report.kept, report.dropped) == (3, 0)


@pytest.mark.parametrize("fmt, dtype", RAW_FORMATS)
@pytest.mark.parametrize("size", [0, 1, 3])
def test_raw_shorter_than_one_sample_has_no_valid_samples(tmp_path, fmt, dtype, size):
    path = tmp_path / "wave.raw"
    path.write_bytes(b"\x00" * size)
    with pytest.raises(ValueError, match="no valid samples"):
        read_waveform(path, fmt, 6000.0)


def test_clean_raw_f64_is_a_read_only_view_of_the_file(tmp_path):
    path = tmp_path / "wave.f64"
    np.arange(8.0).tofile(path)
    stream, _ = read_waveform(path, "raw-f64le", 6000.0)
    assert isinstance(stream.samples.base, np.memmap)
    assert not stream.samples.flags.writeable
    assert stream.samples.tolist() == list(range(8))


def test_zero_valid_samples_rejected(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("header\n")
    with pytest.raises(ValueError):
        read_waveform(path, "csv", 6000.0)


def test_unreadable_file_raises(tmp_path):
    with pytest.raises(OSError):
        read_waveform(tmp_path / "missing.csv", "csv", 6000.0)


def test_unknown_format_rejected(tmp_path):
    path = tmp_path / "wave.csv"
    path.write_text("1.0\n")
    with pytest.raises(ValueError):
        read_waveform(path, "raw-f16le", 6000.0)


def test_multichannel_column_select(tmp_path):
    path = tmp_path / "phases.csv"
    path.write_text("t,ia,ib,v\n0.0,1.0,5.0,120\n1.0,2.0,6.0,120\nbad,row\n")
    stream, report = read_multichannel_csv(path, 2, 12000.0)
    assert stream.samples.tolist() == [5.0, 6.0]
    assert report.dropped == 1
    assert stream.sample_rate_hz == 12000.0


def test_clean_csv_takes_the_c_loader(tmp_path, monkeypatch):
    def tolerant(*args):
        raise AssertionError("clean input fell back to the per-line rules")

    loadtxt_column = signal_io._loadtxt_column
    calls = []

    def recording(lines, *args):
        calls.append(lines)
        return loadtxt_column(lines, *args)

    monkeypatch.setattr(signal_io, "_parse_rows", tolerant)
    monkeypatch.setattr(signal_io, "_loadtxt_column", recording)
    table = np.column_stack([np.arange(50) / 12000.0, np.sin(np.arange(50)),
                             np.cos(np.arange(50)), np.full(50, 120.0)])
    table[7, 1] = np.nan
    rows = "\r\n".join(",".join(f"{v:.8g}" for v in row) for row in table)
    path = tmp_path / "phases.csv"
    expected = np.array([float(f"{v:.8g}") for v in table[:, 1]])
    # the file goes whole to the C loader, a unit label in the header or not
    for header in ("X_Value,Current_A,Current_B,VoltageA", "X_Value,Current_A (µA),B,°C"):
        path.write_text(f"\n{header}\r\n" + rows + "\r\n", newline="", encoding="utf-8")
        calls.clear()
        stream, report = read_multichannel_csv(path, 1, 12000.0)
        assert stream.samples.tolist() == expected[np.isfinite(expected)].tolist()
        assert (report.kept, report.dropped) == (49, 1)
        assert [lines == path for lines in calls] == [True]  # one call, with the file

    single = tmp_path / "wave.csv"
    single.write_text("current_a\n" + "\n".join(f" {float(v)!r} " for v in table[:, 2]) + "\n")
    stream, report = read_waveform(single, "csv", 6000.0)
    assert stream.samples.tobytes() == table[:, 2].tobytes()
    assert (report.kept, report.dropped) == (50, 0)


@pytest.mark.parametrize("name", ["wave.csv.gz", "wave.xz"])
def test_csv_named_like_an_archive_is_read_as_text(tmp_path, name):
    path = tmp_path / name
    path.write_text("1.0\n2.5\n")
    stream, report = read_waveform(path, "csv", 6000.0)
    assert stream.samples.tolist() == [1.0, 2.5]
    assert report.dropped == 0


def test_comment_and_short_rows_fall_back_with_counts(tmp_path):
    path = tmp_path / "phases.csv"
    path.write_text("t,ia,ib\n0,1.0,2.0\n# note\n1,3.0\n2,1_000,4.0\n")
    stream, report = read_multichannel_csv(path, 1, 12000.0)
    assert stream.samples.tolist() == [1.0, 3.0, 1000.0]
    assert report.dropped == 1
    stream, report = read_multichannel_csv(path, 2, 12000.0)
    assert stream.samples.tolist() == [2.0, 4.0]
    assert report.dropped == 2


def test_csv_byte_order_mark_before_a_headerless_first_row(tmp_path, monkeypatch):
    path = tmp_path / "wave.csv"
    clean = signal_io._parse_rows

    def tolerant(*args):
        raise AssertionError("the byte-order mark sent a clean file to the per-line rules")

    monkeypatch.setattr(signal_io, "_parse_rows", tolerant)
    for text in (b"\xef\xbb\xbf0.5\n1.5\n", b"\xef\xbb\xbfcurrent_a\n0.5\n1.5\n"):
        path.write_bytes(text)
        stream, report = read_waveform(path, "csv", 6000.0)
        assert stream.samples.tolist() == [0.5, 1.5]
        assert (report.kept, report.dropped) == (2, 0)
    # a bad row sends its block to the per-line rules, which skip the mark too
    monkeypatch.setattr(signal_io, "_parse_rows", clean)
    path.write_bytes(b"\xef\xbb\xbf0.5,1.0\n# note\n1.5,2.0\n")
    stream, report = read_multichannel_csv(path, 0, 12000.0)
    assert stream.samples.tolist() == [0.5, 1.5]
    assert (report.kept, report.dropped) == (2, 1)


@pytest.mark.parametrize("brk", ["\v", "\u2028", "\x1c"], ids=["vt", "ls", "fs"])
@pytest.mark.parametrize("column, want, dropped", [(0, [1.0, 5.0], 0), (1, [6.0], 1)],
                         ids=["column0", "column1"])
def test_a_csv_line_ends_only_at_cr_or_lf(tmp_path, brk, column, want, dropped):
    # str.splitlines would split the second line in two: [1.0, 3.0, 5.0] and [2.0, 4.0, 6.0]
    path = tmp_path / "phases.csv"
    path.write_text(f"t,ia,ib\n1.0,2.0{brk}3.0,4.0\n5.0,6.0\n", encoding="utf-8")
    stream, report = read_multichannel_csv(path, column, 12000.0)
    assert stream.samples.tolist() == want
    assert (report.kept, report.dropped) == (len(want), dropped)


def test_cr_crlf_and_lf_endings_in_one_file_read_alike(tmp_path):
    rows = ["t,ia", "0,0.5", "1,1.5", "2,# note", "3,2.5", "4,3.5"]
    lf, mixed = tmp_path / "lf.csv", tmp_path / "mixed.csv"
    lf.write_text("\n".join(rows) + "\n")
    endings = itertools.cycle(["\r", "\r\n", "\n"])
    mixed.write_text("".join(row + end for row, end in zip(rows, endings)), newline="")
    for column in (0, 1):
        (want, want_report), (got, got_report) = (
            read_multichannel_csv(path, column, 12000.0) for path in (lf, mixed))
        assert got.samples.tobytes() == want.samples.tobytes()
        assert (got_report.kept, got_report.dropped) == (want_report.kept, want_report.dropped)
    assert read_multichannel_csv(mixed, 1, 12000.0)[0].samples.tolist() == [0.5, 1.5, 2.5, 3.5]
    truth = tmp_path / "truth.csv"
    truth.write_text("time_s,label\r2.5,off\r\r1.0,on\r", newline="")
    assert read_ground_truth(truth) == [GroundTruthEvent(1.0, "on"), GroundTruthEvent(2.5, "off")]


# control and non-ASCII characters; str.splitlines breaks lines at some, a CSV line never does
_ODD_CHARS = "\x00\x0b\x0c\x1c\x1d\x1e\x1f\x85\xa0\u2028\u0661"
_NUMBERS = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
    st.floats(-1e6, 1e6).map(lambda v: f"{v:.8g}"),
    st.sampled_from(["+.5", "5.", "-0", "1e400", "-1e-400", "nan", "-inf",
                     "Infinity", "+NaN", "7", "1E3"]),
)
_JUNK = st.one_of(
    st.sampled_from(["", "abc", "1_000", "#3", "0x1", "1,5", "'2'", "nan(1)"]),
    st.text(alphabet="0123456789.e+-na \t," + _ODD_CHARS, max_size=6),
)


@st.composite
def _csv_text(draw):
    clean = draw(st.booleans())
    field = _NUMBERS if clean else st.one_of(_NUMBERS, _JUNK)
    pad = st.sampled_from(["", " ", "\t", "  "])

    def row():
        width = draw(st.integers(3, 4) if clean else st.integers(1, 4))
        cells = [draw(pad) + draw(field) + draw(pad) for _ in range(width)]
        return ",".join(cells)

    lines = [""] * draw(st.integers(0, 2))
    if draw(st.booleans()):
        lines.append(draw(st.one_of(
            st.sampled_from(["t,ia,ib,v", "current", " X , 1.0 ,b", "t,i (µA),b", "°C",
                             "x\x0c1.5,2", "t\u2028\x0b2,3", "µ\x1e\x1e1"]),
            st.text(alphabet="xµ°1.5 ,\t" + _ODD_CHARS, min_size=1, max_size=8),
        )))
    for _ in range(draw(st.integers(0, 12))):
        kind = draw(st.sampled_from(["row", "row", "row", "blank", "space", "comment"]))
        if kind == "row":
            lines.append(row())
        elif kind == "blank" or clean:
            lines.append("")
        elif kind == "space":
            lines.append(draw(pad))
        else:
            lines.append("# " + draw(st.text(alphabet="ab 1.," + _ODD_CHARS, max_size=5)))
    ending = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    return ending.join(lines) + draw(st.sampled_from(["", ending]))


def _parse_csv_lines(text, column):
    """The tolerant per-line parser of a whole text: what a CSV load must give.

    A first non-blank row whose selected field is not numeric is a header;
    every other line follows ``_parse_rows``.
    """
    text = text.removeprefix("\ufeff")  # one UTF-8 byte-order mark, as Excel writes
    lines = io.StringIO(text, newline=None).read().split("\n")  # ends: \n, \r\n, \r
    first = next((i for i, line in enumerate(lines) if line.strip()), len(lines))
    if first < len(lines):
        first += not signal_io._looks_numeric(signal_io._csv_field(lines[first], column))  # header
    return signal_io._parse_rows(lines[first:], column)


def _load_csv(path, column):
    if column is None:
        return read_waveform(path, "csv", 6000.0)
    return read_multichannel_csv(path, column, 12000.0)


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(text=_csv_text(), block=st.sampled_from([1, 2, 5, 16384]))
def test_csv_column_reader_matches_tolerant_parser(tmp_path, monkeypatch, text, block):
    monkeypatch.setattr(signal_io, "CSV_BLOCK_LINES", block)
    path = tmp_path / "data.csv"
    path.write_text(text, newline="", encoding="utf-8")
    for column in (None, 0, 1, 2, 3):
        values, dropped = signal_io._read_csv_column(path, column)
        want, want_dropped = _parse_csv_lines(path.read_text(encoding="utf-8"), column)
        assert values.dtype == np.float64
        assert values.tobytes() == want.tobytes()
        assert dropped == want_dropped
        if len(want) == 0:
            with pytest.raises(ValueError):
                _load_csv(path, column)
        else:
            stream, report = _load_csv(path, column)
            assert stream.samples.tobytes() == want.tobytes()
            assert (report.kept, report.dropped) == (len(want), want_dropped)


_CLEAN_ROWS = st.lists(
    st.tuples(*[st.floats(-1e6, 1e6).map(lambda v: f"{v:.8g}")] * 3).map(",".join),
    max_size=30,
)
_BAD_ROWS = st.sampled_from(
    ["# end of export", "1,2", "abc", "1_000,2,3", " ", "nan,inf,-inf", "1,,3", "x,y,z,w"])


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(header=st.booleans(), rows=_CLEAN_ROWS, data=st.data(),
       block=st.sampled_from([1, 2, 5, 16384]))
def test_bad_rows_anywhere_in_a_clean_csv_match_the_tolerant_parser(
        tmp_path, monkeypatch, header, rows, data, block):
    monkeypatch.setattr(signal_io, "CSV_BLOCK_LINES", block)
    lines = (["t,ia,ib"] if header else []) + rows
    for bad in data.draw(st.lists(_BAD_ROWS, min_size=1, max_size=4)):
        lines.insert(data.draw(st.integers(0, len(lines))), bad)
    path = tmp_path / "data.csv"
    path.write_text("\n".join(lines) + "\n")
    for column in (None, 0, 1, 2):
        values, dropped = signal_io._read_csv_column(path, column)
        want, want_dropped = _parse_csv_lines(path.read_text(), column)
        assert values.tobytes() == want.tobytes()
        assert dropped == want_dropped


def test_one_bad_row_sends_only_its_block_to_the_per_line_rules(tmp_path, monkeypatch):
    monkeypatch.setattr(signal_io, "CSV_BLOCK_LINES", 100)
    seen = []
    parse_rows = signal_io._parse_rows

    def counting(lines, column):
        seen.append(len(lines))
        return parse_rows(lines, column)

    monkeypatch.setattr(signal_io, "_parse_rows", counting)
    path = tmp_path / "export.csv"
    path.write_text("t,ia\n" + "".join(f"{i},{i / 4}\n" for i in range(1000))
                    + "# end of export\n")
    stream, report = read_multichannel_csv(path, 1, 12000.0)
    assert stream.samples.tolist() == [i / 4 for i in range(1000)]
    assert (report.kept, report.dropped) == (1000, 1)
    assert seen == [1]  # the last block holds the comment line alone


def test_decimate_basic():
    stream = SampleStream(np.array([1.0, 2.0, 3.0, 4.0]), 12000.0)
    out = decimate(stream, 2)
    assert out.samples.tolist() == [1.0, 3.0]
    assert out.sample_rate_hz == 6000.0


def test_decimate_factor_one_is_identity():
    stream = SampleStream(np.arange(10.0), 6000.0)
    out = decimate(stream, 1)
    assert np.array_equal(out.samples, stream.samples)
    assert out.sample_rate_hz == stream.sample_rate_hz


def test_decimate_odd_length():
    stream = SampleStream(np.arange(12001.0), 12000.0)
    assert len(decimate(stream, 2)) == 6001


def test_decimate_zero_factor_rejected():
    stream = SampleStream(np.arange(4.0), 12000.0)
    with pytest.raises(ValueError):
        decimate(stream, 0)


def test_decimate_length_and_composition():
    rng = np.random.default_rng(7)
    for _ in range(25):
        n = int(rng.integers(1, 500))
        stream = SampleStream(rng.standard_normal(n), 12000.0)
        for factor in (1, 2, 3, 5, 11):
            out = decimate(stream, factor)
            assert len(out) == -(-n // factor)  # ceil division
        twice = decimate(decimate(stream, 2), 3)
        assert np.array_equal(twice.samples, decimate(stream, 6).samples)


@pytest.mark.parametrize("chunk", [1, 5, 6, signal_io.RAW_CHUNK])
@pytest.mark.parametrize("n", [1, 29, 30, 31, 1000])
def test_chunked_decimate_of_a_mapped_stream_matches_a_strided_copy(tmp_path, monkeypatch,
                                                                     chunk, n):
    monkeypatch.setattr(signal_io, "RAW_CHUNK", chunk)
    path = tmp_path / "wave.f64"
    np.random.default_rng(n).standard_normal(n).tofile(path)
    stream, _ = read_waveform(path, "raw-f64le", 12000.0)
    assert isinstance(stream.samples.base, np.memmap)
    for factor in (1, 2, 3):
        out = decimate(stream, factor)
        assert np.shares_memory(out.samples, stream.samples)  # a view, not a copy
        assert out.samples.tobytes() == stream.samples[::factor].copy().tobytes()
        assert out.sample_rate_hz == 12000.0 / factor


def _status_kib(key: str) -> int | None:
    """A ``kB`` line of /proc/self/status, or ``None`` where there is none."""
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith(key + ":"):
                    return int(line.split()[1])
    except OSError:
        pass
    return None


def _mapped_arange(path, n: int) -> np.ndarray:
    """``0.0 .. n - 1`` written to ``path`` a slice at a time, loaded as a mapped view."""
    with open(path, "wb") as fh:
        for a in range(0, n, 1 << 20):
            np.arange(a, min(a + (1 << 20), n), dtype="<f8").tofile(fh)
    stream, _ = read_waveform(path, "raw-f64le", 6000.0)
    assert isinstance(stream.samples.base, np.memmap)
    return stream.samples


def test_release_keeps_a_touched_views_values(tmp_path):
    samples = _mapped_arange(tmp_path / "wave.f64", 3 * mmap.PAGESIZE)
    expected = np.arange(len(samples), dtype=np.float64)
    assert samples.tobytes() == expected.tobytes()  # every page touched
    for view in (samples[100:2 * mmap.PAGESIZE + 7], samples[::2], samples[::-3], samples):
        release(view)
        assert samples.tobytes() == expected.tobytes()


@pytest.mark.skipif(_status_kib("VmRSS") is None, reason="no VmRSS in /proc/self/status")
def test_release_returns_a_touched_views_pages(tmp_path):
    size = 64 * 2**20
    n = size // 8
    samples = _mapped_arange(tmp_path / "wave.f64", n)
    for view in (samples, samples[::2]):  # a strided view spans every page too
        assert samples.sum() == n * (n - 1) / 2  # exact below 2**53; reads every page
        before = _status_kib("VmRSS")
        release(view)
        after = _status_kib("VmRSS")
        assert before - after > 0.75 * size / 1024, (before, after)
    assert samples.sum() == n * (n - 1) / 2


def test_release_leaves_memory_it_does_not_own_alone(tmp_path, monkeypatch):
    # anonymous memory would read back as zeros if its pages were dropped
    values = np.arange(2**20, dtype=np.float64)
    release(values)
    release(values[:0])
    assert values.tobytes() == np.arange(2**20, dtype=np.float64).tobytes()

    samples = _mapped_arange(tmp_path / "wave.f64", 4 * mmap.PAGESIZE)
    expected = samples.copy()
    page = mmap.PAGESIZE // 8  # samples per page
    for view in (samples[:0], samples[10:20], samples[page - 100:page + 100]):
        # empty, sub-page, unaligned across a page boundary
        release(view)
    assert samples.tobytes() == expected.tobytes()

    # a copy-on-write mapping would lose its private writes
    private = np.memmap(tmp_path / "wave.f64", dtype="<f8", mode="c")
    private[:] = -1.0
    release(private)
    release(np.asarray(private)[page:])
    assert np.all(private == -1.0)

    monkeypatch.delattr(mmap, "MADV_DONTNEED")  # a platform without it
    release(samples)
    assert samples.tobytes() == expected.tobytes()


@pytest.mark.filterwarnings("error::RuntimeWarning")  # a signalling NaN is dropped without a warning
@pytest.mark.parametrize("chunk", [1, 3, 4096])
@pytest.mark.parametrize("fmt, dtype", RAW_FORMATS)
def test_chunked_raw_load_matches_the_whole_file(tmp_path, monkeypatch, chunk, fmt, dtype):
    monkeypatch.setattr(signal_io, "RAW_CHUNK", chunk)
    rng = np.random.default_rng(chunk)
    values = rng.standard_normal(10_000).astype(dtype)
    bits = values.view(f"<u{np.dtype(dtype).itemsize}")
    specials = np.array([np.nan, np.inf, -np.inf], dtype=dtype).view(bits.dtype).tolist()
    signalling = 0x7F800001 if dtype == "<f4" else 0x7FF0000000000001
    for i, special in zip(rng.integers(0, len(values), 40),
                          itertools.cycle([*specials, signalling])):
        bits[i] = special
    path = tmp_path / "wave.raw"
    values.tofile(path)
    with np.errstate(invalid="ignore"):
        whole = np.fromfile(path, dtype=dtype).astype(np.float64)
    expected = whole[np.isfinite(whole)]
    stream, report = read_waveform(path, fmt, 6000.0)
    assert stream.samples.tobytes() == expected.tobytes()
    assert (report.kept, report.dropped) == (len(expected), len(values) - len(expected))
    values[:] = 1.5  # and a clean file
    values.tofile(path)
    stream, report = read_waveform(path, fmt, 6000.0)
    assert stream.samples.tobytes() == np.full(len(values), 1.5).tobytes()
    assert report.dropped == 0


def _holed_raw(path, dtype, chunk, where):
    """``9 * chunk + 5`` samples (1000 at least) with NaN, inf and -inf put at the
    start, middle and end of the first, a middle and/or the last chunk; returns the
    float64 values written."""
    n = max(9 * chunk + 5, 1000)
    values = np.random.default_rng(chunk).standard_normal(n).astype(dtype)
    last = (n - 1) // chunk
    for c in {"first": [0], "middle": [last // 2], "last": [last],
              "all": [0, last // 2, last], "none": []}[where]:
        stop = min((c + 1) * chunk, n)
        values[[c * chunk, (c * chunk + stop - 1) // 2, stop - 1]] = [np.nan, np.inf, -np.inf]
    values.tofile(path)
    return values.astype(np.float64)


@pytest.mark.parametrize("where", ["first", "middle", "last", "all", "none"])
@pytest.mark.parametrize("chunk", [1, 3, 4096, signal_io.RAW_CHUNK])
@pytest.mark.parametrize("fmt, dtype", RAW_FORMATS)
def test_raw_count_on_any_thread_count_matches_the_whole_file(tmp_path, monkeypatch, fmt,
                                                              dtype, chunk, where):
    """The non-finite count runs on 1, 2 and 3 threads; each gives the one array and count."""
    monkeypatch.setattr(signal_io, "RAW_CHUNK", chunk)
    path = tmp_path / "wave.raw"
    values = _holed_raw(path, dtype, chunk, where)
    expected = values[np.isfinite(values)]
    for workers in (1, 2, 3):
        monkeypatch.setattr(signal_io, "_workers", lambda: workers)
        stream, report = read_waveform(path, fmt, 6000.0)
        assert stream.samples.tobytes() == expected.tobytes(), workers
        assert (report.kept, report.dropped) == (len(expected), len(values) - len(expected))


@pytest.mark.parametrize("workers", [2, 3])
def test_a_failed_raw_count_chunk_is_raised_once_and_stops_every_thread(tmp_path, monkeypatch,
                                                                        workers):
    monkeypatch.setattr(signal_io, "RAW_CHUNK", 8)
    monkeypatch.setattr(signal_io, "_workers", lambda: workers)
    path = tmp_path / "wave.f64"
    _holed_raw(path, "<f8", 8, "none")  # 1000 samples: 125 chunks
    calls, release = itertools.count(), signal_io.release

    def failing(view):
        if next(calls) == 2:  # the end of the third chunk, on whichever thread took it
            raise MemoryError("cannot count the chunk")
        time.sleep(0.01)  # the other threads hold a chunk when it fails
        release(view)

    monkeypatch.setattr(signal_io, "release", failing)
    before = threading.active_count()
    with pytest.raises(MemoryError, match="cannot count the chunk"):
        read_waveform(path, "raw-f64le", 6000.0)
    assert threading.active_count() == before
    # of 125 chunks: after it, each other thread ends the chunk it held and at most one more
    assert next(calls) <= 3 + 2 * (workers - 1)


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_the_raw_count_takes_at_most_one_chunk_per_thread_ahead(tmp_path, monkeypatch, workers):
    """The count runs on every thread, each taking its next chunk from the file once its
    last one is done: never all chunks handed out at once."""
    monkeypatch.setattr(signal_io, "RAW_CHUNK", 8)
    monkeypatch.setattr(signal_io, "_workers", lambda: workers)
    path = tmp_path / "wave.f64"
    values = _holed_raw(path, "<f8", 8, "middle")  # 1000 samples: 125 chunks
    taken, done, most, lock, threads = 0, 0, 0, threading.Lock(), set()
    chunks, release = signal_io._chunks, signal_io.release

    def counted_chunks(values, length):
        nonlocal taken, most
        for chunk in chunks(values, length):
            with lock:
                taken += 1
                most = max(most, taken - done)
            yield chunk

    def counted_release(view):
        nonlocal done
        time.sleep(0.001)  # every thread gets chunks
        release(view)
        with lock:
            done += 1
            threads.add(threading.get_ident())

    monkeypatch.setattr(signal_io, "_chunks", counted_chunks)
    monkeypatch.setattr(signal_io, "release", counted_release)
    stream, report = read_waveform(path, "raw-f64le", 6000.0)
    assert stream.samples.tobytes() == values[np.isfinite(values)].tobytes()
    assert taken == done == 2 * 125  # the count, then the compaction
    assert 1 <= most <= workers
    assert len(threads) == workers


def test_synthetic_ground_truth_matches_spec():
    spec = SyntheticSpec(duration_s=10.0, events=((3.0, 0.5),), seed=1)
    _, truth = generate_synthetic(spec)
    assert [ev.time_s for ev in truth] == [3.0]
    assert truth[0].label == "on"


def test_synthetic_noiseless_amplitude_bound():
    spec = SyntheticSpec(duration_s=2.0, base_amplitude_a=1.3, noise_std_a=0.0)
    stream, truth = generate_synthetic(spec)
    assert truth == []
    assert np.max(np.abs(stream.samples)) <= 1.3 + 1e-12


def test_synthetic_determinism():
    spec = SyntheticSpec(duration_s=3.0, noise_std_a=0.02,
                         events=((1.0, 0.4), (2.0, -0.4)), seed=99)
    a, _ = generate_synthetic(spec)
    b, _ = generate_synthetic(spec)
    assert a.samples.tobytes() == b.samples.tobytes()


def test_synthetic_event_outside_duration_rejected():
    with pytest.raises(ValueError):
        SyntheticSpec(duration_s=5.0, events=((5.0, 0.5),))


def test_synthetic_harmonic_content_lands_on_harmonic():
    spec = SyntheticSpec(
        duration_s=2.0, mains_hz=60.0, noise_std_a=0.0,
        events=((0.0, 0.5, ((3, 1.0),)),), sample_rate_hz=6000.0)
    stream, _ = generate_synthetic(spec)
    spectrum = np.abs(np.fft.rfft(stream.samples))
    freqs = np.fft.rfftfreq(len(stream), 1 / 6000.0)
    assert spectrum[np.argmin(np.abs(freqs - 180.0))] > 100.0


def test_raw_f64_round_trip(tmp_path):
    rng = np.random.default_rng(3)
    stream = SampleStream(rng.standard_normal(257), 6000.0)
    path = tmp_path / "wave.f64"
    write_waveform(stream, path, "raw-f64le")
    back, _ = read_waveform(path, "raw-f64le", 6000.0)
    assert np.array_equal(back.samples, stream.samples)


def test_csv_round_trip(tmp_path):
    rng = np.random.default_rng(4)
    stream = SampleStream(rng.standard_normal(64), 6000.0)
    path = tmp_path / "wave.csv"
    write_waveform(stream, path, "csv")
    back, _ = read_waveform(path, "csv", 6000.0)
    assert np.array_equal(back.samples, stream.samples)


def test_ground_truth_sorted(tmp_path):
    path = tmp_path / "truth.csv"
    path.write_text("5.0,kettle\n2.0,lamp\n")
    events = read_ground_truth(path)
    assert [(ev.time_s, ev.label) for ev in events] == [(2.0, "lamp"), (5.0, "kettle")]


def test_ground_truth_empty_file(tmp_path):
    path = tmp_path / "truth.csv"
    path.write_text("")
    assert read_ground_truth(path) == []


def test_ground_truth_duplicates_preserved(tmp_path):
    path = tmp_path / "truth.csv"
    path.write_text("1.0\n1.0\n")
    assert [ev.time_s for ev in read_ground_truth(path)] == [1.0, 1.0]


def test_ground_truth_negative_time_rejected(tmp_path):
    path = tmp_path / "truth.csv"
    path.write_text("-1.0\n")
    with pytest.raises(ValueError):
        read_ground_truth(path)


@pytest.mark.parametrize("value", ["nan", "inf", "-inf", "NaN"])
def test_ground_truth_non_finite_time_rejected(tmp_path, value):
    path = tmp_path / "truth.csv"
    path.write_text(f"3.0\n{value}\n1.0\n2.0\n")
    with pytest.raises(ValueError, match="non-finite or negative event time on row 2"):
        read_ground_truth(path)


def test_ground_truth_byte_order_mark_before_a_headerless_first_row(tmp_path):
    path = tmp_path / "truth.csv"
    path.write_bytes("\ufeff1.0,on\n2.0,off\n".encode())
    assert read_ground_truth(path) == [GroundTruthEvent(1.0, "on"), GroundTruthEvent(2.0, "off")]
    path.write_bytes("\ufefftime_s,label\n2.0,off\n".encode())
    assert read_ground_truth(path) == [GroundTruthEvent(2.0, "off")]


def test_ground_truth_bad_row_rejected(tmp_path):
    path = tmp_path / "truth.csv"
    path.write_text("1.0\nnot-a-time,label\n")
    with pytest.raises(ValueError):
        read_ground_truth(path)


@pytest.mark.parametrize("lead", ["\n", "  \n", "# exported truth\n", "\n# a\n\n"])
def test_ground_truth_header_after_blank_or_comment_lines(tmp_path, lead):
    path = tmp_path / "truth.csv"
    path.write_text(lead + "time_s,label\n2.5,on\n1.0\n")
    assert read_ground_truth(path) == [GroundTruthEvent(1.0, None), GroundTruthEvent(2.5, "on")]


@pytest.mark.parametrize("text", ["time_s,label\n1.0\nlabel,on\n",
                                  "# truth\ntime_s\n\n1.0\ntime_s\n"])
def test_ground_truth_non_numeric_row_after_the_header_rejected(tmp_path, text):
    path = tmp_path / "truth.csv"
    path.write_text(text)
    with pytest.raises(ValueError, match="unparseable ground-truth row"):
        read_ground_truth(path)


def test_ground_truth_round_trip(tmp_path):
    events = [GroundTruthEvent(1.25, "on"), GroundTruthEvent(2.5, None)]
    path = tmp_path / "truth.csv"
    write_ground_truth(events, path)
    assert read_ground_truth(path) == events


def test_ground_truth_quoted_labels_load(tmp_path):
    path = tmp_path / "truth.csv"
    path.write_text('2.0,"kettle, on"\n1.0,"say ""off"""\n"3.0"," two\nlines "\n')
    assert read_ground_truth(path) == [GroundTruthEvent(1.0, 'say "off"'),
                                       GroundTruthEvent(2.0, "kettle, on"),
                                       GroundTruthEvent(3.0, "two\nlines")]


def test_ground_truth_oversized_field_rejected(tmp_path):
    path = tmp_path / "truth.csv"
    path.write_text("1.0,on\n2.0," + "x" * 131073 + "\n")
    with pytest.raises(ValueError, match=r"truth\.csv:2: malformed CSV: field larger"):
        read_ground_truth(path)


def test_ground_truth_unterminated_quoted_time_rejected(tmp_path):
    # the quote would otherwise swallow every later line into one header field
    path = tmp_path / "truth.csv"
    path.write_text('"1.0\n2.0\n')
    with pytest.raises(ValueError, match=r"truth\.csv:2: malformed CSV: unexpected end"):
        read_ground_truth(path)


def test_ground_truth_unterminated_quoted_label_rejected(tmp_path):
    # the quote would otherwise swallow the second row into the first one's label
    path = tmp_path / "truth.csv"
    path.write_text('1.0,"on\n2.0,off\n')
    with pytest.raises(ValueError, match=r"truth\.csv:2: malformed CSV: unexpected end"):
        read_ground_truth(path)


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(text=st.text(st.one_of(st.sampled_from('0123456789.,"#e-+ \t\r\n'),
                              st.characters(blacklist_categories=("Cs",))), max_size=60))
def test_ground_truth_any_text_loads_sorted_or_raises_value_error(tmp_path, text):
    path = tmp_path / "truth.csv"
    path.write_text(text, encoding="utf-8", newline="")
    try:
        events = read_ground_truth(path)
    except ValueError:
        return
    times = [ev.time_s for ev in events]
    assert times == sorted(times)
    assert all(np.isfinite(t) and t >= 0 for t in times)


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(rows=st.lists(st.tuples(
    st.floats(min_value=0.0, allow_nan=False, allow_infinity=False),
    st.one_of(st.none(), st.text(st.one_of(st.sampled_from(',"\r\n #'),
                                           st.characters(blacklist_categories=("Cs",))),
                                 max_size=12)),
), max_size=12))
def test_ground_truth_write_then_read_round_trips(tmp_path, rows):
    path = tmp_path / "truth.csv"
    write_ground_truth([GroundTruthEvent(t, label) for t, label in rows], path)
    want = sorted(((t, (label or "").strip() or None) for t, label in rows), key=lambda r: r[0])
    assert [(ev.time_s, ev.label) for ev in read_ground_truth(path)] == want


_SPECIAL = [np.nan, np.inf, -np.inf, -np.nan, 0.0, -0.0, 1.5]


@pytest.mark.filterwarnings("error::RuntimeWarning")  # a signalling NaN is dropped without a warning
@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(fmt_dtype=st.sampled_from(RAW_FORMATS), data=st.data())
def test_raw_loader_matches_fromfile_with_a_finite_mask(tmp_path, fmt_dtype, data):
    fmt, dtype = fmt_dtype
    itemsize = np.dtype(dtype).itemsize
    # random bytes, whole samples drawn from special values (NaN payloads
    # included), and a trailing partial sample, in any order
    pieces = data.draw(st.lists(st.one_of(
        st.binary(max_size=3 * itemsize),
        st.sampled_from(_SPECIAL).map(lambda v: np.array([v], dtype=dtype).tobytes()),
        st.integers(0, 2**(8 * itemsize) - 1).map(lambda bits: np.array(
            [bits | (0x7FF << 52 if itemsize == 8 else 0x7F8 << 20)],
            dtype=f"<u{itemsize}").tobytes()),
    ), max_size=8))
    raw = b"".join(pieces) + data.draw(st.binary(max_size=itemsize - 1))
    path = tmp_path / "wave.raw"
    path.write_bytes(raw)
    expected = np.fromfile(path, dtype=dtype, count=len(raw) // itemsize)
    expected = expected[np.isfinite(expected)].astype(np.float64)
    if len(expected) == 0:
        with pytest.raises(ValueError, match="no valid samples"):
            read_waveform(path, fmt, 6000.0)
        return
    stream, report = read_waveform(path, fmt, 6000.0)
    assert stream.samples.dtype == np.float64
    assert stream.samples.tobytes() == expected.tobytes()
    assert report.kept == len(expected)
    assert report.kept + report.dropped == len(raw) // itemsize


def test_stream_requires_positive_rate():
    for rate in (0.0, -6000.0, float("nan"), float("inf")):
        with pytest.raises(ValueError):
            SampleStream(np.arange(4.0), rate)


@settings(max_examples=80, deadline=None)
@given(
    duration_s=st.floats(0.01, 1.5),
    rate=st.sampled_from([997.0, 6000.0]),
    base=st.floats(-2.0, 2.0),
    # fractions from a small set make specs repeat onsets; order is random
    events=st.lists(
        st.tuples(st.sampled_from([0.0, 0.25, 0.5, 0.5, 0.999999]), st.floats(-1.0, 1.0)),
        max_size=10,
    ),
)
def test_synthetic_level_matches_per_event_loop(duration_s, rate, base, events):
    spec = SyntheticSpec(
        duration_s=duration_s, sample_rate_hz=rate, base_amplitude_a=base,
        events=tuple((frac * duration_s, delta) for frac, delta in events),
    )
    stream, _ = generate_synthetic(spec)
    n = int(round(duration_s * rate))
    # the per-sample loop: every event adds its delta from its onset onward
    level = np.full(n, base)
    for time_s, delta, _ in spec.events:
        level[int(time_s * rate):] += delta
    t = np.arange(n) / rate
    expected = np.ones(n) * level * np.sin(2.0 * np.pi * spec.mains_hz * t)
    assert stream.samples.tobytes() == expected.tobytes()


def _reference_synthetic(spec):
    """Whole-array rendering: each stage runs once over the full time axis."""
    rate = spec.sample_rate_hz
    n = int(round(spec.duration_s * rate))
    t = np.arange(n) / rate

    def envelope(t):
        if spec.drift_depth == 0:
            return np.ones(len(t))
        phase = 4.0 * (t / spec.drift_period_s % 1.0)
        return 1.0 + spec.drift_depth * np.where(phase < 2.0, phase - 1.0, 3.0 - phase)

    level = np.full(n, spec.base_amplitude_a)
    for time_s, delta, _ in spec.events:
        level[int(time_s * rate):] += delta
    signal = level * envelope(t) * np.sin(2.0 * np.pi * spec.mains_hz * t)
    for time_s, delta, harmonics in spec.events:
        start = int(time_s * rate)
        for order, frac in harmonics:
            tone = np.sin(2.0 * np.pi * order * spec.mains_hz * t[start:])
            signal[start:] += envelope(t[start:]) * frac * delta * tone
    if spec.noise_std_a > 0:
        signal += spec.noise_std_a * np.random.default_rng(spec.seed).standard_normal(n)
    return signal


@st.composite
def _synthetic_specs(draw, max_samples):
    rate = draw(st.sampled_from([997.0, 6000.0, 12000.0]))
    # lengths off the sample grid, and seldom a chunk multiple
    duration_s = (draw(st.integers(1, max_samples)) + draw(st.floats(-0.4, 0.4))) / rate
    harmonics = st.lists(st.tuples(st.integers(1, 9), st.floats(-1.0, 1.0)), max_size=2)
    events = draw(st.lists(
        st.tuples(st.floats(0.0, 0.999), st.floats(-1.0, 1.0), harmonics), max_size=6))
    return SyntheticSpec(
        duration_s=duration_s, sample_rate_hz=rate,
        mains_hz=draw(st.sampled_from([50.0, 60.0, 59.97])),
        base_amplitude_a=draw(st.floats(-2.0, 2.0)),
        noise_std_a=draw(st.sampled_from([0.0, 0.01, 0.5])),
        events=tuple((frac * duration_s, delta, h) for frac, delta, h in events),
        seed=draw(st.integers(0, 2**32 - 1)),
        drift_depth=draw(st.sampled_from([0.0, 0.05, 0.3])),
        drift_period_s=draw(st.floats(0.01, 20.0)),
    )


@pytest.mark.parametrize("chunk", [1, 7, 4096, signal_io.SYNTH_CHUNK])
def test_chunked_generator_matches_whole_array_reference(tmp_path, monkeypatch, chunk):
    monkeypatch.setattr(signal_io, "SYNTH_CHUNK", chunk)
    path = tmp_path / "wave.f64"

    # streams up to three chunks long, so every chunk boundary case shows
    @settings(max_examples=40, deadline=None)
    @given(spec=_synthetic_specs(max_samples=3 * chunk + 100))
    def check(spec):
        expected = _reference_synthetic(spec).tobytes()
        stream, truth = generate_synthetic(spec)
        assert len(stream) == spec.n_samples
        assert stream.samples.tobytes() == expected
        assert write_synthetic(spec, path) == truth
        assert path.read_bytes() == expected

    check()
    assert [p.name for p in tmp_path.iterdir()] == ["wave.f64"]


def test_closing_the_renderer_early_joins_its_helper(monkeypatch):
    monkeypatch.setattr(signal_io, "SYNTH_CHUNK", 4096)
    before = set(threading.enumerate())
    chunks = signal_io._render_synthetic(SyntheticSpec(duration_s=10.0, noise_std_a=0.01))
    assert len(next(chunks)) == 4096
    assert set(threading.enumerate()) > before  # the helper is running
    chunks.close()
    assert set(threading.enumerate()) <= before


def test_streamed_synth_memory_is_chunk_bounded(tmp_path):
    """A 600 s stream is a 28.8 MB file; rendering it holds a few chunks at a time."""
    from fencedetect import cli

    wave = tmp_path / "wave.f64"
    argv = ["synth", "--duration", "600", "--noise-std", "0.01", "--drift-depth", "0.05",
            "--event", "120.5:0.8:3x0.2", "--event", "300.25:-0.8",
            "--out", str(wave), "--truth", str(tmp_path / "truth.csv")]
    tracemalloc.start()
    try:
        assert cli.main(argv) == 0
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert wave.stat().st_size == 28_800_000
    assert peak < 8 * 2**20, f"peak {peak / 2**20:.1f} MiB"


def test_write_synthetic_refuses_an_output_larger_than_the_free_space(tmp_path, monkeypatch):
    spec = SyntheticSpec(duration_s=1.0)  # 6000 samples, 48000 bytes
    usage = signal_io.shutil.disk_usage(tmp_path)._replace(free=47999)
    monkeypatch.setattr(signal_io.shutil, "disk_usage", lambda where: usage)
    path = tmp_path / "wave.f64"
    with pytest.raises(OSError) as raised:
        write_synthetic(spec, path)
    assert str(raised.value).startswith(f"{path}: the waveform needs 48000 bytes")
    assert list(tmp_path.iterdir()) == []


_SMALL_SPEC = SyntheticSpec(duration_s=3.0, noise_std_a=0.01, events=((1.5, 0.8, ()),), seed=3)


def test_write_synthetic_through_a_symlink_replaces_its_target(tmp_path):
    target, link = tmp_path / "data" / "wave.f64", tmp_path / "wave.f64"
    target.parent.mkdir()
    target.write_bytes(b"earlier")
    link.symlink_to(target)
    write_synthetic(_SMALL_SPEC, link)
    assert link.is_symlink() and link.resolve() == target
    assert target.read_bytes() == generate_synthetic(_SMALL_SPEC)[0].samples.tobytes()
    assert sorted(p.name for p in tmp_path.rglob("*")) == ["data", "wave.f64", "wave.f64"]


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no FIFOs on this platform")
def test_write_synthetic_writes_through_a_fifo(tmp_path):
    fifo = tmp_path / "wave.f64"
    os.mkfifo(fifo)
    received = []
    reader = threading.Thread(target=lambda: received.append(fifo.read_bytes()), daemon=True)
    reader.start()
    try:
        write_synthetic(_SMALL_SPEC, fifo)
    finally:
        reader.join(timeout=10)
    assert stat.S_ISFIFO(fifo.stat().st_mode)
    assert received == [generate_synthetic(_SMALL_SPEC)[0].samples.tobytes()]
    assert [p.name for p in tmp_path.iterdir()] == ["wave.f64"]


@example([-0.0, 0.0, 5e-324, 0.5, 1.0, 2.0**52 - 0.5, 2.0**53 + 2.0, 1e300])
@given(st.lists(st.floats(min_value=0.0, allow_nan=False, allow_infinity=False),
                min_size=1, max_size=40))
def test_floor_form_has_the_bits_of_unit_remainder(values):
    x = np.array(values)
    assert (x - np.floor(x)).tobytes() == (x % 1.0).tobytes()

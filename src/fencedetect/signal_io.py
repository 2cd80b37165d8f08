"""Waveform and ground-truth file handling, plus synthetic stream generation.

Streams are plain float64 sample arrays tagged with a sample rate. Loaders
drop non-finite entries rather than interpolating them and report how many
were removed, so a noisy export never silently poisons the detector.
"""

from __future__ import annotations

import csv
import io
import math
import mmap
import os
import shutil
import warnings
from collections import deque
from collections.abc import Iterator
from contextlib import ExitStack, closing, contextmanager
from dataclasses import dataclass
from itertools import chain, islice
from pathlib import Path

import numpy as np

_RAW_DTYPES = {
    "raw-f32le": np.dtype("<f4"),
    "raw-f64le": np.dtype("<f8"),
}

FORMATS = ("csv", "raw-f32le", "raw-f64le")

# samples per generator pass; bounds every temporary the synthetic renderer holds
SYNTH_CHUNK = 16384
# lines per block of a CSV file whose rows np.loadtxt cannot read whole
CSV_BLOCK_LINES = 16384
# samples per pass over a raw file or a stream; bounds the mapped pages a pass keeps
RAW_CHUNK = 1 << 16


@dataclass(frozen=True)
class SampleStream:
    """A finite run of current samples (amperes) at a fixed sample rate."""

    samples: np.ndarray
    sample_rate_hz: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.sample_rate_hz) and self.sample_rate_hz > 0):
            raise ValueError("sample_rate_hz must be finite and positive")
        object.__setattr__(
            self, "samples", np.asarray(self.samples, dtype=np.float64)
        )

    def __len__(self) -> int:
        return len(self.samples)


@dataclass(frozen=True)
class GroundTruthEvent:
    """A labelled instant at which an appliance changed state."""

    time_s: float
    label: str | None = None


@dataclass(frozen=True)
class LoadReport:
    """What a loader kept and what it threw away."""

    source: str
    kept: int
    dropped: int


@dataclass(frozen=True)
class SyntheticSpec:
    """Recipe for a generated test waveform.

    ``events`` is a sequence of ``(time_s, amplitude_delta_a)`` tuples; an
    optional third element lists ``(harmonic_order, fraction)`` pairs whose
    contribution (fraction of the delta, at order times the mains frequency)
    switches on at the same instant.

    ``drift_depth``/``drift_period_s`` add a slow triangle-wave amplitude
    modulation on top of the mains tone. The default depth of zero keeps the
    classic flat-amplitude signal; a small nonzero depth mimics the gentle
    load wander of a real feeder and stops long steady stretches from being
    spectrally degenerate.
    """

    duration_s: float
    mains_hz: float = 60.0
    base_amplitude_a: float = 1.0
    noise_std_a: float = 0.0
    events: tuple = ()
    seed: int = 0
    sample_rate_hz: float = 6000.0
    drift_depth: float = 0.0
    drift_period_s: float = 10.0

    def __post_init__(self) -> None:
        for name in ("duration_s", "mains_hz", "base_amplitude_a", "noise_std_a",
                     "sample_rate_hz", "drift_depth", "drift_period_s"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        if self.duration_s <= 0:
            raise ValueError("duration_s must be positive")
        if self.sample_rate_hz <= 0:
            raise ValueError("sample_rate_hz must be positive")
        if not math.isfinite(self.duration_s * self.sample_rate_hz):
            raise ValueError("duration_s * sample_rate_hz overflows")
        if self.n_samples < 1:
            raise ValueError("duration_s is shorter than one sample at sample_rate_hz")
        if self.noise_std_a < 0:
            raise ValueError("noise_std_a must be nonnegative")
        if self.drift_depth < 0:
            raise ValueError("drift_depth must be nonnegative")
        if self.drift_period_s <= 0:
            raise ValueError("drift_period_s must be positive")
        normalized = []
        for ev in self.events:
            time_s, delta = float(ev[0]), float(ev[1])
            harmonics = tuple(
                (int(order), float(frac)) for order, frac in (ev[2] if len(ev) > 2 else ())
            )
            if not 0.0 <= time_s < self.duration_s:
                raise ValueError(f"event time {time_s} outside [0, {self.duration_s})")
            if not all(math.isfinite(v) for v in (delta, *(f for _, f in harmonics))):
                raise ValueError(f"event at {time_s} has a non-finite amplitude")
            normalized.append((time_s, delta, harmonics))
        object.__setattr__(self, "events", tuple(normalized))

    @property
    def n_samples(self) -> int:
        return int(round(self.duration_s * self.sample_rate_hz))


def _looks_numeric(text: str) -> bool:
    try:
        float(text)
        return True
    except ValueError:
        return False


def _csv_field(line: str, column: int | None) -> str:
    """The selected comma-separated field of a line; ``None`` selects the whole line."""
    if column is None:
        return line.strip()
    parts = line.split(",")
    return parts[column].strip() if column < len(parts) else ""


def _finite(values: np.ndarray) -> tuple[np.ndarray, int]:
    """The finite entries of ``values`` and the count of the others."""
    finite = np.isfinite(values)
    dropped = values.size - int(np.count_nonzero(finite))
    return (values[finite] if dropped else values), dropped


def _parse_rows(lines: list[str], column: int | None) -> tuple[np.ndarray, int]:
    """Apply the per-line rules to lines that follow the header.

    Blank lines are skipped; a line counts as dropped when its field is
    missing, fails ``float()`` or parses to NaN/Inf. Returns the finite
    values and the dropped count.
    """
    kept = []
    bad = 0
    for line in lines:
        if line.strip():
            try:
                kept.append(float(_csv_field(line, column)))
            except ValueError:
                bad += 1
    values, dropped = _finite(np.array(kept, dtype=np.float64))
    return values, bad + dropped


# np.loadtxt decompresses a path with one of these suffixes
_COMPRESSED_SUFFIXES = (".bz2", ".gz", ".lzma", ".xz")


def _loadtxt_column(lines, column: int | None, skip: int = 0) -> np.ndarray | None:
    """One column of a file or a list of lines by np.loadtxt; ``None`` if it rejects them."""
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # no rows after the header
            values = np.loadtxt(
                lines, delimiter=",", usecols=column, comments=None,
                dtype=np.float64, ndmin=2, skiprows=skip, encoding="utf-8-sig",
            )
    except ValueError:  # a UnicodeDecodeError too; _read_csv_column's block pass raises it
        return None
    return values[:, 0] if values.shape[1] == 1 else None  # more: a comma in a whole-line file


def _read_csv_column(path: Path, column: int | None) -> tuple[np.ndarray, int]:
    """Parse one comma-separated column (``None``: the whole line) of a file.

    The text is UTF-8 whatever the locale, one leading byte-order mark
    skipped, and a line ends at ``\\n``, ``\\r\\n`` or ``\\r``, as Python text
    files and ``np.loadtxt`` read it. The first non-blank line is a header
    when its selected field is not numeric, and is then skipped; every later
    line follows ``_parse_rows``. Text that is not UTF-8 raises
    ``ValueError`` naming the file. Unless the name is an archive's, the
    whole file goes through numpy's C loader, which accepts only what
    ``float()`` accepts, with the same value. Any other file, and one it
    rejects a row of, is read in blocks of ``CSV_BLOCK_LINES`` lines: each
    block goes to the C loader, and only a block it rejects goes through the
    per-line rules.
    """
    parts, dropped = [], 0
    try:
        with open(path, encoding="utf-8-sig") as fh:
            skip = 0  # file lines before the rows: leading blank lines and the header
            rows = fh
            for line in fh:
                if line.strip():
                    header = not _looks_numeric(_csv_field(line, column))
                    skip += header
                    rows = chain([line][header:], fh)
                    break
                skip += 1
            if path.suffix not in _COMPRESSED_SUFFIXES:
                values = _loadtxt_column(path, column, skip)
                if values is not None:
                    return _finite(values)
            for block in iter(lambda: list(islice(rows, CSV_BLOCK_LINES)), []):
                values = _loadtxt_column(block, column)
                kept, bad = _finite(values) if values is not None else _parse_rows(block, column)
                parts.append(kept)
                dropped += bad
    except UnicodeDecodeError as exc:  # its offset counts from the decoder's chunk, not the file
        raise ValueError(f"{path}: not UTF-8 text: {exc.reason}") from None
    return np.concatenate(parts) if parts else np.empty(0), dropped


def release(view: np.ndarray) -> None:
    """Drop the resident pages of a 1-D view of a read-only file mapping.

    The whole pages between the view's lowest and highest byte leave the
    process (``madvise(MADV_DONTNEED)``), whatever its stride; a later read
    faults them back in from the page cache with the same bytes, so no
    value of the mapping ever changes. Only its memory does: a pass over a
    mapped file that releases each chunk after it holds a chunk's pages, not
    the file's. A no-op for in-memory arrays, views of a writable mapping,
    views spanning less than a page, and platforms without
    ``MADV_DONTNEED``.
    """
    base = view  # np.memmap keeps its mapping as _mmap; find it along the .base chain
    while isinstance(base, np.ndarray) and getattr(base, "_mmap", None) is None:
        base = base.base
    if (not isinstance(base, np.memmap) or base.mode != "r"
            or not hasattr(mmap, "MADV_DONTNEED")):
        return
    extent = max(len(view) - 1, 0) * view.strides[0]  # first element to last; < 0 if reversed
    low = view.ctypes.data + min(extent, 0) - np.frombuffer(base._mmap, np.uint8).ctypes.data
    first = -(-low // mmap.PAGESIZE) * mmap.PAGESIZE
    stop = (low + abs(extent) + view.itemsize) // mmap.PAGESIZE * mmap.PAGESIZE
    if stop > first:
        base._mmap.madvise(mmap.MADV_DONTNEED, first, stop - first)


def _chunks(values: np.ndarray, length: int) -> Iterator[tuple[int, np.ndarray]]:
    """``(start, values[start:start + length])`` for each chunk of ``values``, in order."""
    return ((a, values[a:a + length]) for a in range(0, len(values), length))


def _map_raw(path: Path, dtype: np.dtype) -> tuple[np.ndarray, int]:
    """Map a headerless raw file read-only; a trailing partial sample is ignored.

    A first pass counts the non-finite samples. A clean float64 file then
    comes back as a read-only view of the mapping, not a copy. Any other
    file, float32 or one with non-finite samples, is compacted into one
    float64 array of its finite samples. Both passes walk the file in
    ``RAW_CHUNK``-sample chunks and release each one, so no pass keeps the
    file's pages resident.
    """
    count = path.stat().st_size // dtype.itemsize
    if count == 0:
        return np.empty(0), 0  # np.memmap refuses a zero-length map
    raw = np.asarray(np.memmap(path, dtype=dtype, mode="r", shape=(count,)))
    dropped = 0
    for _, chunk in _chunks(raw, RAW_CHUNK):
        dropped += len(chunk) - int(np.count_nonzero(np.isfinite(chunk)))
        release(chunk)
    if dtype == np.float64 and not dropped:
        return raw, 0
    kept, n = np.empty(count - dropped), 0
    for _, chunk in _chunks(raw, RAW_CHUNK):
        finite = chunk[np.isfinite(chunk)] if dropped else chunk
        kept[n:n + len(finite)] = finite
        n += len(finite)
        release(chunk)
    return kept, dropped


def read_waveform(
    path: str | Path, fmt: str, sample_rate_hz: float
) -> tuple[SampleStream, LoadReport]:
    """Load a single-channel waveform file.

    Args:
        path: file to read.
        fmt: one of ``csv`` (one sample per line, optional single header
            line), ``raw-f32le`` or ``raw-f64le`` (headerless little-endian
            IEEE-754).
        sample_rate_hz: rate to tag the stream with.

    Returns:
        The stream plus a report counting dropped (non-finite or
        unparseable) entries. CSV text is UTF-8 whatever the locale, with
        lines ending at ``\\n``, ``\\r\\n`` or ``\\r``; unless the name is an
        archive's it goes whole through numpy's C loader, and a file with a
        row that loader rejects is read in blocks of lines
        (``_read_csv_column``). Raw files are memory-mapped read-only; a
        clean ``raw-f64le`` file's samples are a read-only view of the
        mapping, not a copy, and any other raw file's finite samples fill
        one float64 array. The loader releases the pages it reads
        (``release``), so they are resident only while in use.

    Raises:
        ValueError: unknown format or no valid samples.
        OSError: unreadable file.
    """
    path = Path(path)
    if fmt == "csv":
        samples, dropped = _read_csv_column(path, None)
    elif fmt in _RAW_DTYPES:
        samples, dropped = _map_raw(path, _RAW_DTYPES[fmt])
    else:
        raise ValueError(f"unknown waveform format: {fmt!r}")
    if len(samples) == 0:
        raise ValueError(f"no valid samples in {path}")
    stream = SampleStream(samples, sample_rate_hz)
    return stream, LoadReport(source=str(path), kept=len(samples), dropped=dropped)


def read_multichannel_csv(
    path: str | Path, column: int, sample_rate_hz: float
) -> tuple[SampleStream, LoadReport]:
    """Load one column of a comma-separated multi-channel export.

    Rows whose selected column is missing or non-finite are dropped and
    counted; a non-numeric first row is treated as a header. The text is
    read as ``read_waveform`` reads CSV (``_read_csv_column``).
    """
    path = Path(path)
    samples, dropped = _read_csv_column(path, column)
    if len(samples) == 0:
        raise ValueError(f"no valid samples in column {column} of {path}")
    stream = SampleStream(samples, sample_rate_hz)
    return stream, LoadReport(source=str(path), kept=len(samples), dropped=dropped)


def write_waveform(stream: SampleStream, path: str | Path, fmt: str) -> None:
    """Write a stream in any of the formats read_waveform accepts."""
    path = Path(path)
    if fmt == "csv":
        with open(path, "w") as fh:
            for value in stream.samples:
                fh.write(f"{float(value)!r}\n")
    elif fmt in _RAW_DTYPES:
        stream.samples.astype(_RAW_DTYPES[fmt], copy=False).tofile(path)
    else:
        raise ValueError(f"unknown waveform format: {fmt!r}")


def decimate(stream: SampleStream, factor: int) -> SampleStream:
    """Keep every factor-th sample, starting at index 0.

    Plain sample dropping, no anti-alias filtering; the output rate is the
    input rate divided by the factor. The output's samples are a strided
    view of the input's, not a copy, so a file-mapped input stays mapped
    and ``release`` can drop its pages as ``detect`` goes.
    """
    if int(factor) != factor or factor < 1:
        raise ValueError("decimation factor must be an integer >= 1")
    return SampleStream(stream.samples[::int(factor)], stream.sample_rate_hz / factor)


def _triangle(t: np.ndarray, period_s: float) -> np.ndarray:
    # unit triangle wave in [-1, 1], starting at -1, built in one buffer;
    # for phase >= 0, phase - floor(phase) has the bits of phase % 1 and is
    # faster; scaling by 4 is exact, so the bits match 4*phase-1 / 3-4*phase
    phase = t / period_s
    phase -= np.floor(phase)
    phase *= 4.0
    rising = phase < 2.0
    np.subtract(phase, 1.0, out=phase, where=rising)
    np.subtract(3.0, phase, out=phase, where=np.logical_not(rising, out=rising))
    return phase


def _envelope(t: np.ndarray, spec: SyntheticSpec) -> np.ndarray:
    # amplitude factor at times t: 1 + drift_depth * triangle
    if spec.drift_depth > 0:
        envelope = _triangle(t, spec.drift_period_s)
        envelope *= spec.drift_depth
        envelope += 1.0
        return envelope
    return np.ones(len(t))


def _render_synthetic(spec: SyntheticSpec) -> Iterator[np.ndarray]:
    """Yield the rendered stream in ``SYNTH_CHUNK``-sample chunks, in stream order.

    Each sample sees the same float operations in the same order as a
    whole-array rendering: ``(level * envelope) * sin``, then each harmonic
    event in spec order, then the noise, drawn in sequence from one
    generator. The noise-free part of each chunk is rendered on one helper
    thread, at most two chunks ahead; the calling thread draws each chunk's
    noise in stream order and adds it. The bytes therefore depend on neither
    the thread count nor the chunk length. Closing the generator cancels the
    chunks not yet started and joins the helper.
    """
    from concurrent.futures import ThreadPoolExecutor  # kept off the CLI's import path

    rate = spec.sample_rate_hz
    n = spec.n_samples
    omega = 2.0 * np.pi * spec.mains_hz

    # piecewise constant between onsets; each segment adds its deltas in spec order
    onsets = [min(int(time_s * rate), n) for time_s, _, _ in spec.events]
    edges = np.array(sorted({0, *onsets}))
    ends = np.append(edges[1:], n)
    values = np.full(len(edges), spec.base_amplitude_a, dtype=np.float64)
    for onset, (_, delta, _) in zip(onsets, spec.events):
        values[edges >= onset] += delta

    # (start, delta, [(angular frequency, fraction), ...]) in spec order
    harmonic_events = [
        (int(time_s * rate), delta,
         [(2.0 * np.pi * order * spec.mains_hz, frac) for order, frac in harmonics])
        for time_s, delta, harmonics in spec.events if harmonics
    ]

    def tone(a: int, b: int) -> np.ndarray:
        # the noise-free samples [a, b); reads nothing but the spec
        t = np.arange(a, b) / rate
        envelope = _envelope(t, spec)

        # segments overlapping [a, b), each clipped to the chunk
        first = int(np.searchsorted(edges, a, side="right")) - 1
        last = int(np.searchsorted(edges, b, side="left"))
        lengths = np.minimum(ends[first:last], b) - np.maximum(edges[first:last], a)
        out = np.repeat(values[first:last], lengths)
        out *= envelope
        phase = np.multiply(t, omega)
        out *= np.sin(phase, out=phase)

        for start, delta, tones in harmonic_events:
            if start < b:
                s = max(start, a) - a
                for w, frac in tones:
                    out[s:] += envelope[s:] * frac * delta * np.sin(w * t[s:])
        return out

    rng = np.random.default_rng(spec.seed) if spec.noise_std_a > 0 else None
    chunks = ((a, min(a + SYNTH_CHUNK, n)) for a in range(0, n, SYNTH_CHUNK))
    pool = ThreadPoolExecutor(1)
    try:
        ahead = deque(pool.submit(tone, a, b) for a, b in islice(chunks, 2))
        while ahead:
            out = ahead.popleft().result()
            ahead.extend(pool.submit(tone, a, b) for a, b in islice(chunks, 1))
            if rng is not None:
                noise = rng.standard_normal(len(out))
                noise *= spec.noise_std_a
                out += noise
            yield out
    finally:
        pool.shutdown(cancel_futures=True)  # joins the helper


def _truth(spec: SyntheticSpec) -> list[GroundTruthEvent]:
    return sorted(
        (GroundTruthEvent(time_s, "on" if delta > 0 else "off")
         for time_s, delta, _ in spec.events),
        key=lambda ev: ev.time_s,
    )


def generate_synthetic(spec: SyntheticSpec) -> tuple[SampleStream, list[GroundTruthEvent]]:
    """Render a spec into a stream plus its ground-truth event list.

    The signal is ``base_amplitude * sin(2*pi*mains_hz*t)`` with each event
    adding its amplitude delta from its onset onward, optional harmonic
    content per event, optional triangle amplitude drift, and seeded
    Gaussian noise. The same spec (seed included) always produces
    bit-identical output, the same bytes ``write_synthetic`` writes.

    The output array is filled one ``SYNTH_CHUNK``-sample chunk at a time,
    so every temporary stays chunk-sized and peak memory is about the
    output itself.
    """
    signal = np.empty(spec.n_samples)
    a = 0
    with closing(_render_synthetic(spec)) as chunks:
        for out in chunks:
            signal[a:a + len(out)] = out
            a += len(out)
    return SampleStream(signal, spec.sample_rate_hz), _truth(spec)


@contextmanager
def replaced_at_end(*paths: str | Path | None, mode: str = "w") -> Iterator[list]:
    """Open each path for writing (``None`` gives ``None``); none is replaced until all are done.

    A path that is, or links to, an existing file that is not a regular
    file (a device such as ``/dev/null``, or a FIFO) is written through.
    Every other path is written to a temporary ``.part`` file beside the
    file it names (the target of a symlink, not the link), and only once the
    block ends without error does each ``.part`` file replace its target.
    On any error they are all removed, so no path holds a partial file and
    an earlier file stays as it was. A path that cannot be opened raises
    its ``OSError`` naming that path, not its ``.part`` file.
    """
    parts = []
    try:
        with ExitStack() as files:
            handles = []
            for path in paths:
                if path is None or (os.path.exists(path) and not os.path.isfile(path)):
                    handles.append(path and files.enter_context(open(path, mode)))
                    continue
                target = Path(os.path.realpath(path))
                # numbered, so two paths naming one file replace it in turn
                part = target.with_name(f".{target.name}.{os.getpid()}.{len(parts)}.part")
                try:
                    # "x": an existing name is not ours to remove, so it joins parts once opened
                    handles.append(files.enter_context(open(part, mode.replace("w", "x"))))
                except OSError as exc:
                    exc.filename = os.fspath(path)  # the path asked for, not its .part file
                    raise
                parts.append((part, target))
            yield handles
        for part, target in parts:
            os.replace(part, target)
    except BaseException:
        for part, _ in parts:
            part.unlink(missing_ok=True)
        raise


def write_synthetic(spec: SyntheticSpec, path: str | Path,
                    truth_path: str | Path | None = None) -> list[GroundTruthEvent]:
    """Render a spec straight to a raw-f64le file and return its ground-truth events.

    The file gets the bytes of ``generate_synthetic``'s samples, written one
    ``SYNTH_CHUNK``-sample chunk at a time through ``replaced_at_end``, so
    memory stays chunk-bounded whatever the duration and ``path`` never holds
    a truncated stream. Given ``truth_path``, the events go there as
    ``write_ground_truth`` writes them, opened with ``path`` before rendering,
    and neither file is replaced unless both are complete. Unless ``path`` is
    written through, an output larger than the free space of its directory
    raises ``OSError`` before anything is written.
    """
    path = Path(path)
    needed = spec.n_samples * _RAW_DTYPES["raw-f64le"].itemsize
    if path.is_file() or not path.exists():
        free = shutil.disk_usage(Path(os.path.realpath(path)).parent).free
        if needed > free:
            raise OSError(f"{path}: the waveform needs {needed} bytes, "
                          f"but its directory has {free} free")
    events = _truth(spec)
    # closing: a failed write joins the helper before the files are removed
    with (replaced_at_end(path, truth_path, mode="wb") as (fh, truth),
          closing(_render_synthetic(spec)) as chunks):
        for out in chunks:
            fh.write(out.astype(_RAW_DTYPES["raw-f64le"], copy=False))
        if truth is not None:
            truth.write(_truth_csv(events))
    return events


def read_ground_truth(path: str | Path) -> list[GroundTruthEvent]:
    """Read a ``time_s[,label]`` CSV, sorted ascending by time.

    One leading UTF-8 byte-order mark, blank lines and ``#`` comment lines
    are skipped; the first other row is a header when its time field is not
    numeric. Duplicate timestamps are preserved. A time that is unparseable,
    non-finite or negative raises ``ValueError``, as do malformed CSV (an
    unterminated quote, or a field over the csv module's size limit) and
    text that is not UTF-8.
    """
    path = Path(path)
    events: list[GroundTruthEvent] = []
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh, strict=True)
        try:
            rows = [(i, row) for i, row in enumerate(reader)
                    if "".join(row).strip() and not row[0].lstrip().startswith("#")]
        except csv.Error as exc:
            raise ValueError(f"{path}:{reader.line_num}: malformed CSV: {exc}") from None
        except UnicodeDecodeError as exc:
            raise ValueError(f"{path}: not UTF-8 text: {exc.reason}") from None
        for n, (i, row) in enumerate(rows):
            if n == 0 and not _looks_numeric(row[0]):
                continue  # header
            try:
                time_s = float(row[0])
            except ValueError as exc:
                raise ValueError(f"unparseable ground-truth row {i + 1}: {row!r}") from exc
            if not (math.isfinite(time_s) and time_s >= 0):
                raise ValueError(f"non-finite or negative event time on row {i + 1}: {time_s}")
            label = row[1].strip() if len(row) > 1 and row[1].strip() else None
            events.append(GroundTruthEvent(time_s, label))
    events.sort(key=lambda ev: ev.time_s)
    return events


def _truth_csv(events: list[GroundTruthEvent]) -> bytes:
    """The ``time_s[,label]`` UTF-8 rows that read_ground_truth reads."""
    text = io.StringIO()
    csv.writer(text).writerows([repr(ev.time_s)] + ([ev.label] if ev.label else [])
                               for ev in events)
    return text.getvalue().encode("utf-8")


def write_ground_truth(events: list[GroundTruthEvent], path: str | Path) -> None:
    """Write events as ``time_s[,label]`` UTF-8 rows, as read_ground_truth reads them."""
    Path(path).write_bytes(_truth_csv(events))

"""Waveform and ground-truth file handling, plus synthetic stream generation.

Streams are plain float64 sample arrays tagged with a sample rate. Loaders
drop non-finite entries rather than interpolating them and report how many
were removed, so a noisy export never silently poisons the detector.
"""

from __future__ import annotations

import csv
import math
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

_RAW_DTYPES = {
    "raw-f32le": np.dtype("<f4"),
    "raw-f64le": np.dtype("<f8"),
}

FORMATS = ("csv", "raw-f32le", "raw-f64le")

# samples per generator pass; bounds every temporary generate_synthetic holds
SYNTH_CHUNK = 16384


@dataclass(frozen=True)
class SampleStream:
    """A finite run of current samples (amperes) at a fixed sample rate."""

    samples: np.ndarray
    sample_rate_hz: float

    def __post_init__(self) -> None:
        if self.sample_rate_hz <= 0:
            raise ValueError("sample_rate_hz must be positive")
        object.__setattr__(
            self, "samples", np.asarray(self.samples, dtype=np.float64)
        )

    def __len__(self) -> int:
        return len(self.samples)

    @property
    def duration_s(self) -> float:
        return len(self.samples) / self.sample_rate_hz


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


def _parse_csv_lines(text: str, column: int | None) -> tuple[np.ndarray, int]:
    """The tolerant per-line parser: the one definition of what a CSV load drops.

    Blank lines are skipped; a first non-blank row whose selected field is
    not numeric is a header. Every other row counts as dropped when its
    field is missing, fails ``float()`` or parses to NaN/Inf. Returns the
    finite values and the dropped count.
    """
    text = text.removeprefix("\ufeff")  # one UTF-8 byte-order mark, as Excel writes
    fields = [_csv_field(line, column) for line in text.splitlines() if line.strip()]
    if fields and not _looks_numeric(fields[0]):
        fields = fields[1:]  # single header row
    kept = []
    bad = 0
    for field_text in fields:
        try:
            kept.append(float(field_text))
        except ValueError:
            bad += 1
    values = np.array(kept, dtype=np.float64)
    finite = np.isfinite(values)
    return values[finite], bad + int((~finite).sum())


# str.splitlines also breaks lines at these bytes; np.loadtxt does not
_EXTRA_LINE_BREAKS = (b"\x0b", b"\x0c", b"\x1c", b"\x1d", b"\x1e")
# np.loadtxt decompresses a path with one of these suffixes
_COMPRESSED_SUFFIXES = (".bz2", ".gz", ".lzma", ".xz")


def _loadtxt_safe(path: Path) -> bool:
    """True when np.loadtxt would see the lines str.splitlines sees.

    That needs plain ASCII text, none of the extra line-break bytes, and a
    name np.loadtxt does not take for an archive.
    """
    if path.suffix in _COMPRESSED_SUFFIXES:
        return False
    with open(path, "rb") as fh:
        if fh.read(3) != b"\xef\xbb\xbf":  # a UTF-8 byte-order mark may lead the text
            fh.seek(0)
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            if not chunk.isascii() or any(brk in chunk for brk in _EXTRA_LINE_BREAKS):
                return False
    return True


def _read_csv_column(path: Path, column: int | None) -> tuple[np.ndarray, int]:
    """Parse one comma-separated column (``None``: the whole line) of a file.

    Clean files go through numpy's C loader. ``np.loadtxt`` accepts only
    text that ``float()`` accepts, with the same rounding, so whenever it
    reads every row its values and drop count equal those of
    ``_parse_csv_lines``. Any file it rejects (an unparseable field, a
    missing column, a whitespace-only line, a ``#`` line, ``1_000``) is
    parsed by ``_parse_csv_lines`` instead.
    """
    if _loadtxt_safe(path):
        skip = 0  # leading blank lines, and the header row if there is one
        with open(path, encoding="utf-8-sig") as fh:
            for line in fh:
                if line.strip():
                    if not _looks_numeric(_csv_field(line, column)):
                        skip += 1
                    break
                skip += 1
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", UserWarning)  # no rows after the header
                values = np.loadtxt(
                    path, delimiter=",", usecols=column, comments=None,
                    dtype=np.float64, ndmin=2, skiprows=skip, encoding="utf-8-sig",
                )
        except ValueError:
            pass
        else:
            if values.shape[1] == 1:  # more columns: a comma in a whole-line file
                values = values[:, 0]
                finite = np.isfinite(values)
                dropped = values.size - int(np.count_nonzero(finite))
                return (values[finite] if dropped else values), dropped
    return _parse_csv_lines(path.read_text(), column)


def _map_raw(path: Path, dtype: np.dtype) -> tuple[np.ndarray, int]:
    """Map a headerless raw file read-only; a trailing partial sample is ignored.

    A clean float64 file comes back as a read-only view of the mapping, not
    a copy. Float32 converts once. Non-finite samples are counted on the
    mapping and, when there are any, leave a compacted copy.
    """
    count = path.stat().st_size // dtype.itemsize
    if count == 0:
        return np.empty(0), 0  # np.memmap refuses a zero-length map
    mapped = np.memmap(path, dtype=dtype, mode="r", shape=(count,))
    with np.errstate(invalid="ignore"):  # a float32 signalling NaN is dropped, not warned of
        raw = np.asarray(mapped).astype(np.float64, copy=False)
    finite = np.isfinite(raw)
    dropped = count - int(np.count_nonzero(finite))
    return (raw[finite] if dropped else raw), dropped


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
        unparseable) entries. Raw files are memory-mapped read-only; a
        clean ``raw-f64le`` file's samples are a read-only view of the
        mapping, not a copy.

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
    counted; a non-numeric first row is treated as a header.
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
    input rate divided by the factor.
    """
    if int(factor) != factor or factor < 1:
        raise ValueError("decimation factor must be an integer >= 1")
    factor = int(factor)
    if factor == 1:
        return stream
    return SampleStream(stream.samples[::factor].copy(), stream.sample_rate_hz / factor)


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


def generate_synthetic(spec: SyntheticSpec) -> tuple[SampleStream, list[GroundTruthEvent]]:
    """Render a spec into a stream plus its ground-truth event list.

    The signal is ``base_amplitude * sin(2*pi*mains_hz*t)`` with each event
    adding its amplitude delta from its onset onward, optional harmonic
    content per event, optional triangle amplitude drift, and seeded
    Gaussian noise. The same spec (seed included) always produces
    bit-identical output.

    The output is filled ``SYNTH_CHUNK`` samples at a time, so every
    temporary stays chunk-sized and peak memory is about the output itself.
    Each sample sees the same float operations in the same order as a
    whole-array rendering: ``(level * envelope) * sin``, then each harmonic
    event in spec order, then the noise, drawn in sequence from one
    generator, so the bytes do not depend on the chunk length.
    """
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
    rng = np.random.default_rng(spec.seed) if spec.noise_std_a > 0 else None

    signal = np.empty(n)
    for a in range(0, n, SYNTH_CHUNK):
        b = min(a + SYNTH_CHUNK, n)
        out = signal[a:b]
        t = np.arange(a, b) / rate
        envelope = _envelope(t, spec)

        # segments overlapping [a, b), each clipped to the chunk
        first = int(np.searchsorted(edges, a, side="right")) - 1
        last = int(np.searchsorted(edges, b, side="left"))
        lengths = np.minimum(ends[first:last], b) - np.maximum(edges[first:last], a)
        np.multiply(np.repeat(values[first:last], lengths), envelope, out=out)
        tone = np.multiply(t, omega)
        out *= np.sin(tone, out=tone)

        for start, delta, tones in harmonic_events:
            if start < b:
                s = max(start, a) - a
                for w, frac in tones:
                    out[s:] += envelope[s:] * frac * delta * np.sin(w * t[s:])

        if rng is not None:
            noise = rng.standard_normal(b - a)
            noise *= spec.noise_std_a
            out += noise

    truth = sorted(
        (GroundTruthEvent(time_s, "on" if delta > 0 else "off")
         for time_s, delta, _ in spec.events),
        key=lambda ev: ev.time_s,
    )
    return SampleStream(signal, rate), truth


def read_ground_truth(path: str | Path) -> list[GroundTruthEvent]:
    """Read a ``time_s[,label]`` CSV, sorted ascending by time.

    One leading UTF-8 byte-order mark, blank lines and ``#`` comment lines
    are skipped; the first other row is a header when its time field is not
    numeric. Duplicate timestamps are preserved. A time that is unparseable,
    non-finite or negative raises ``ValueError``, as does malformed CSV (an
    unterminated quote, or a field over the csv module's size limit).
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


def write_ground_truth(events: list[GroundTruthEvent], path: str | Path) -> None:
    """Write events as ``time_s[,label]`` UTF-8 rows, as read_ground_truth reads them."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        for ev in events:
            writer.writerow([repr(ev.time_s)] + ([ev.label] if ev.label else []))

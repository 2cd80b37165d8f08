"""Waveform and ground-truth file handling, plus synthetic stream generation.

Streams are plain float64 sample arrays tagged with a sample rate. Loaders
drop non-finite entries rather than interpolating them and report how many
were removed, so a noisy export never silently poisons the detector.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

_RAW_DTYPES = {
    "raw-f32le": np.dtype("<f4"),
    "raw-f64le": np.dtype("<f8"),
}

FORMATS = ("csv", "raw-f32le", "raw-f64le")


@dataclass(frozen=True)
class SampleStream:
    """A finite run of current samples (amperes) at a fixed sample rate."""

    samples: np.ndarray
    sample_rate_hz: float
    origin_offset_s: float = 0.0

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
        if self.duration_s <= 0:
            raise ValueError("duration_s must be positive")
        if self.sample_rate_hz <= 0:
            raise ValueError("sample_rate_hz must be positive")
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
            normalized.append((time_s, delta, harmonics))
        object.__setattr__(self, "events", tuple(normalized))


def _parse_float_lines(lines: list[str]) -> tuple[np.ndarray, int]:
    """Parse decimal text lines to float64, dropping the failures.

    Returns the finite values and the count of lines that either failed to
    parse or parsed to NaN/Inf.
    """
    try:
        values = np.array(lines, dtype=np.float64)
        bad = 0
    except ValueError:
        kept = []
        bad = 0
        for text in lines:
            try:
                kept.append(float(text))
            except ValueError:
                bad += 1
        values = np.array(kept, dtype=np.float64)
    finite = np.isfinite(values)
    dropped = bad + int((~finite).sum())
    return values[finite], dropped


def _looks_numeric(text: str) -> bool:
    try:
        float(text)
        return True
    except ValueError:
        return False


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
        unparseable) entries.

    Raises:
        ValueError: unknown format or no valid samples.
        OSError: unreadable file.
    """
    path = Path(path)
    if fmt == "csv":
        lines = [ln.strip() for ln in path.read_text().splitlines()]
        lines = [ln for ln in lines if ln]
        if lines and not _looks_numeric(lines[0]):
            lines = lines[1:]  # single header line is allowed
        samples, dropped = _parse_float_lines(lines)
    elif fmt in _RAW_DTYPES:
        raw = np.fromfile(path, dtype=_RAW_DTYPES[fmt]).astype(np.float64, copy=False)
        finite = np.isfinite(raw)
        dropped = raw.size - int(np.count_nonzero(finite))
        samples = raw[finite] if dropped else raw
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
    rows = [ln for ln in path.read_text().splitlines() if ln.strip()]
    fields = []
    for row in rows:
        parts = row.split(",")
        fields.append(parts[column].strip() if column < len(parts) else "")
    if fields and not _looks_numeric(fields[0]):
        fields = fields[1:]
    samples, dropped = _parse_float_lines(fields)
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
        stream.samples.astype(_RAW_DTYPES[fmt]).tofile(path)
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
    return SampleStream(
        stream.samples[::factor].copy(),
        stream.sample_rate_hz / factor,
        stream.origin_offset_s,
    )


def _triangle(t: np.ndarray, period_s: float) -> np.ndarray:
    # unit triangle wave in [-1, 1], starting at -1
    phase = (t / period_s) % 1.0
    return np.where(phase < 0.5, 4.0 * phase - 1.0, 3.0 - 4.0 * phase)


def generate_synthetic(spec: SyntheticSpec) -> tuple[SampleStream, list[GroundTruthEvent]]:
    """Render a spec into a stream plus its ground-truth event list.

    The signal is ``base_amplitude * sin(2*pi*mains_hz*t)`` with each event
    adding its amplitude delta from its onset onward, optional harmonic
    content per event, optional triangle amplitude drift, and seeded
    Gaussian noise. The same spec (seed included) always produces
    bit-identical output.
    """
    rate = spec.sample_rate_hz
    n = int(round(spec.duration_s * rate))
    t = np.arange(n) / rate

    # envelope before level and noise added in place: fewer full-length arrays alive at once
    envelope = np.ones(n)
    if spec.drift_depth > 0:
        envelope += spec.drift_depth * _triangle(t, spec.drift_period_s)

    # piecewise constant between onsets; each segment adds its deltas in spec order
    onsets = [min(int(time_s * rate), n) for time_s, _, _ in spec.events]
    edges = np.array(sorted({0, *onsets}))
    values = np.full(len(edges), spec.base_amplitude_a, dtype=np.float64)
    for onset, (_, delta, _) in zip(onsets, spec.events):
        values[edges >= onset] += delta
    level = np.repeat(values, np.diff(edges, append=n))

    signal = envelope * level * np.sin(2.0 * np.pi * spec.mains_hz * t)
    for time_s, delta, harmonics in spec.events:
        start = int(time_s * rate)
        for order, frac in harmonics:
            tone = np.sin(2.0 * np.pi * order * spec.mains_hz * t[start:])
            signal[start:] += envelope[start:] * frac * delta * tone

    if spec.noise_std_a > 0:
        rng = np.random.default_rng(spec.seed)
        noise = rng.standard_normal(n)
        noise *= spec.noise_std_a
        signal += noise

    truth = sorted(
        (GroundTruthEvent(time_s, "on" if delta > 0 else "off")
         for time_s, delta, _ in spec.events),
        key=lambda ev: ev.time_s,
    )
    return SampleStream(signal, rate), truth


def read_ground_truth(path: str | Path) -> list[GroundTruthEvent]:
    """Read a ``time_s[,label]`` CSV, sorted ascending by time.

    Blank lines and ``#`` comment lines are skipped; a non-numeric first row
    is treated as a header. Duplicate timestamps are preserved.
    """
    path = Path(path)
    events: list[GroundTruthEvent] = []
    with open(path, newline="") as fh:
        for i, row in enumerate(csv.reader(fh)):
            if not row or not "".join(row).strip():
                continue
            if row[0].lstrip().startswith("#"):
                continue
            if i == 0 and not _looks_numeric(row[0]):
                continue  # header
            try:
                time_s = float(row[0])
            except ValueError as exc:
                raise ValueError(f"unparseable ground-truth row {i + 1}: {row!r}") from exc
            if time_s < 0:
                raise ValueError(f"negative event time on row {i + 1}: {time_s}")
            label = row[1].strip() if len(row) > 1 and row[1].strip() else None
            events.append(GroundTruthEvent(time_s, label))
    events.sort(key=lambda ev: ev.time_s)
    return events


def write_ground_truth(events: list[GroundTruthEvent], path: str | Path) -> None:
    """Write events as ``time_s[,label]`` rows."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        for ev in events:
            writer.writerow([repr(ev.time_s)] + ([ev.label] if ev.label else []))

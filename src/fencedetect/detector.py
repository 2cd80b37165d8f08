"""Event detection over windowed current spectrograms.

Per window the pipeline is: pick the frequency bin whose first-half/second-half
mean gap is largest, walk a short forward standard deviation along that bin's
block series, fence the deviations with Tukey's rule, and flag the window when
any deviation falls outside the fences. Runs of flagged windows merge into
single timestamped events.

Each stage accepts one window or a stack of windows along a leading axis and
returns plain arrays; ``detect`` runs them once per chunk of consecutive
windows and keeps the per-window outcomes as rows of one numpy record array,
one field per column. A stage is a few ufunc calls over the whole stack: its
sums are ``np.add.reduce`` over the views numpy's ``mean`` and ``std`` would
sum, so its bits are theirs without their Python wrappers. Chunks run on one
thread per CPU the process may use, the caller included, with no setting,
through ``signal_io.drain``, the loop the raw loader's non-finite count also
runs on; each chunk writes only its own rows, so the bytes are the same for
any thread count. The chunk size shrinks with the thread count, so at most
``CHUNK_WINDOWS`` windows are in flight at once, each with its blocks,
complex spectra and magnitudes. The samples no later chunk reads are
released once a chunk is done (``signal_io.release``), so a file-mapped
stream keeps about a chunk per thread resident, not the whole file: on a
1 h raw file ``detect`` peaks about 9 MiB above its imports on one CPU and
10 MiB on two.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

from .signal_io import SampleStream, _workers, drain, release
from .spectral import spectrogram
from .windowing import Window, to_block_matrix, windows

# windows in flight at once over all threads; bounds the samples and spectra held, which
# is about 120 kB a default window (48 kB of samples, 49 kB complex, 24 kB magnitudes)
CHUNK_WINDOWS = 64


@dataclass(frozen=True)
class DetectorConfig:
    """Window geometry in samples, the Tukey constant and the deviation width in blocks.

    block_len, the FFT length, is a power of two that divides window_len. The
    step is a multiple of block_len no longer than window_len, so the windows
    tile or overlap the stream on one block grid; it defaults to window_len.
    """

    window_len: int = 6016
    step: int | None = None
    block_len: int = 128
    k: float = 0.5
    std_window: int = 4

    def __post_init__(self) -> None:
        if self.step is None:  # windows back to back
            object.__setattr__(self, "step", self.window_len)
        if self.window_len < 1 or self.step < 1 or self.block_len < 1:
            raise ValueError("window_len, step and block_len must be positive")
        limit = np.iinfo(np.int64).max  # sample indices are int64
        for name in ("window_len", "step", "block_len"):
            if getattr(self, name) > limit:
                raise ValueError(f"{name} must be at most {limit}, got {getattr(self, name)}")
        if self.block_len < 2 or self.block_len & (self.block_len - 1):
            raise ValueError(f"block_len must be a power of two >= 2, got {self.block_len}")
        if self.window_len % self.block_len != 0:
            raise ValueError(
                f"block_len {self.block_len} does not divide window_len {self.window_len}"
            )
        if self.step % self.block_len != 0 or self.step > self.window_len:
            raise ValueError(f"step must be a multiple of block_len {self.block_len} and at "
                             f"most window_len {self.window_len}, got {self.step}")
        if not (math.isfinite(self.k) and self.k >= 0):
            raise ValueError("k must be finite and nonnegative")
        if self.std_window < 2:
            raise ValueError("std_window must be at least 2")
        if self.std_window > self.blocks_per_window:
            raise ValueError(
                "std_window cannot exceed the number of blocks per window"
            )

    @property
    def blocks_per_window(self) -> int:
        return self.window_len // self.block_len


def delta_p(spectrogram_f: np.ndarray) -> np.ndarray:
    """Per-bin absolute gap between early-half and late-half mean magnitude.

    The halves take equally many rows from each end; with an odd row count
    the middle row is left out so neither mean is favored. A bin whose
    magnitude jumps partway through the window scores high, a stationary
    bin scores near zero. Each mean is ``.mean(axis=-2)``'s sum over the same
    rows, divided in place, so the bits are its bits.
    """
    f = np.asarray(spectrogram_f)
    rows = f.shape[-2]
    if rows < 2:
        raise ValueError("need at least 2 spectrogram rows")
    half = rows // 2
    dtype = np.float64 if f.dtype.kind in "biu" else None  # as .mean sums integers
    early = np.add.reduce(f[..., :half, :], axis=-2, dtype=dtype)
    late = np.add.reduce(f[..., rows - half:, :], axis=-2, dtype=dtype)
    early /= half
    late /= half
    early -= late
    return np.abs(early, out=early)


def select_bin(spectrogram_f: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Pick the bin with the largest half-mean gap, lowest index on ties.

    Returns the selected bin, its gap and every bin's gap.
    """
    gaps = delta_p(spectrogram_f)
    return gaps.argmax(axis=-1), np.maximum.reduce(gaps, axis=-1), gaps


def extract_series(spectrogram_f: np.ndarray, selected_bin: int | np.ndarray) -> np.ndarray:
    """Column of the spectrogram at the selected bin (one per window of a stack)."""
    f = np.asarray(spectrogram_f)
    chosen = np.asarray(selected_bin)
    if (np.minimum.reduce(chosen, axis=None, initial=0) < 0
            or np.maximum.reduce(chosen, axis=None, initial=0) >= f.shape[-1]):
        raise ValueError(f"bin {selected_bin} out of range for {f.shape[-1]} bins")
    # each leading index with its own bin; the block axis between them comes after both
    return f[(*np.ix_(*map(range, f.shape[:-2])), slice(None), chosen)]


def forward_std(series: np.ndarray, w: int = 4) -> np.ndarray:
    """Population standard deviation over each length-w forward slice.

    Output index t covers ``series[..., t .. t+w-1]``, so the last axis of
    the result has ``len - w + 1`` entries. The sums are those ``np.std``
    takes over the same slices, so the bits are its bits.
    """
    x = np.asarray(series, dtype=np.float64)
    if w < 1:
        raise ValueError("w must be positive")
    if x.shape[-1] < w:
        raise ValueError(f"series of length {x.shape[-1]} is shorter than w={w}")
    slices = np.lib.stride_tricks.sliding_window_view(x, w, axis=-1)
    mean = np.add.reduce(slices, axis=-1, keepdims=True)
    mean /= w
    deviation = np.subtract(slices, mean)
    np.square(deviation, out=deviation)
    var = np.add.reduce(deviation, axis=-1)
    var /= w
    return np.sqrt(var, out=var)


def _interpolate(s: np.ndarray, q: float):
    """Linear interpolation at position (n-1)*q along the last axis of sorted ``s``."""
    n = s.shape[-1]
    pos = (n - 1) * q
    lower = int(pos)
    frac = pos - lower
    if lower + 1 < n:
        return s[..., lower] + frac * (s[..., lower + 1] - s[..., lower])
    return s[..., lower]


def _sorted(values: np.ndarray) -> np.ndarray:
    s = np.sort(np.asarray(values, dtype=np.float64), axis=-1)
    if s.size == 0:
        raise ValueError("quantile of empty input")
    return s


def quantile(values: np.ndarray, q: float):
    """Sorted linear-interpolation quantile at position (n-1)*q, along the last axis.

    ``np.quantile`` can differ from this rule in the last bit, enough to
    move a deviation across a fence.
    """
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"q must lie in [0, 1], got {q}")
    return _interpolate(_sorted(values), q)


def tukey_fences(sigma: np.ndarray, k: float) -> tuple[np.ndarray, ...]:
    """Quartiles and fences ``(q1, q3, lo, hi)``, [Q1 - k*IQR, Q3 + k*IQR], of the deviations.

    Both quartiles are ``quantile``'s, read off one sort.
    """
    s = _sorted(sigma)
    q1, q3 = _interpolate(s, 0.25), _interpolate(s, 0.75)
    iqr = q3 - q1
    return q1, q3, q1 - k * iqr, q3 + k * iqr


def classify_window(sigma: np.ndarray, lo: np.ndarray, hi: np.ndarray
                    ) -> tuple[np.ndarray, np.ndarray]:
    """Flag the window when any deviation falls strictly outside the fences.

    The fence interval is closed, so values sitting exactly on a fence are
    ordinary. Returns the flag and the index of the first outlying
    deviation, -1 where the window is not flagged.
    """
    outside = (sigma < np.asarray(lo)[..., None]) | (sigma > np.asarray(hi)[..., None])
    flagged = outside.any(axis=-1)
    # [()] makes the one-window 0-d result a scalar, as the other stages give
    return flagged, np.where(flagged, np.argmax(outside, axis=-1), -1)[()]


def _fill_rows(rows: np.recarray, samples: np.ndarray, cfg: DetectorConfig) -> None:
    """Run the stages over the windows starting at ``rows.window_start``, one verdict row each.

    The chunk's span, from its first window's start to its last window's end,
    is cut into blocks on the stream's block grid and each block is
    transformed once; window ``w`` is then ``blocks_per_window`` rows of
    those spectra from row ``w * step / block_len`` on, a view, and the
    per-window stages run once over the whole chunk.
    """
    cols = rows.view(np.ndarray)  # a recarray sets each field through Python
    first, last = cols["window_start"][[0, -1]].tolist()
    span = samples[first:last + cfg.window_len]
    spec = spectrogram(to_block_matrix(Window(first, span), cfg.block_len))
    spec = np.lib.stride_tricks.sliding_window_view(spec, cfg.blocks_per_window, axis=0)
    spec = spec[::cfg.step // cfg.block_len].swapaxes(1, 2)  # (windows, blocks, bins)
    selected, gap, _ = select_bin(spec)
    sigma = forward_std(extract_series(spec, selected), cfg.std_window)
    q1, q3, lo, hi = tukey_fences(sigma, cfg.k)
    flagged, first_outlier = classify_window(sigma, lo, hi)
    cols["selected_bin"], cols["delta_p"], cols["q1"], cols["q3"] = selected, gap, q1, q3
    cols["lo"], cols["hi"], cols["is_event"], cols["first_outlier_block"] = (
        lo, hi, flagged, first_outlier)


class _Rows(np.recarray):
    """The verdicts' record array; iterating it gives rows of Python values.

    numpy's own rows hold numpy scalars, which ``json`` refuses, and the
    bench tracer (``bench/spans.py``) sums ``v.is_event`` over the rows into
    its JSON report.
    """

    def __iter__(self) -> Iterator[SimpleNamespace]:
        names = self.dtype.names
        return (SimpleNamespace(**dict(zip(names, row))) for row in self.tolist())


def detect(
    stream: SampleStream, cfg: DetectorConfig | None = None
) -> tuple[np.recarray, np.recarray]:
    """Run the full pipeline over a stream.

    Consecutive flagged windows are merged into one event; a single clean
    window in between splits two events apart. Each event is stamped at the
    first outlying block of the first flagged window of its run, converted
    to a sample index on the block grid (block_len samples) but not accurate
    to a block: on synthetic streams with steps at uniform phase within a
    window its median error is 69-228 ms, its 95th percentile 573-886 ms.
    With overlapping windows a run can point at or before the last event,
    whose index is the largest of the earlier runs'; it then joins that
    event, so indices strictly rise.

    Returns the merged events and the per-window verdicts, both in stream
    order, as two record arrays (``np.recarray``). The events have the
    fields ``sample_index``, ``time_s`` (the index over the sample rate) and
    ``window_start`` (of the first flagged window of the run). The verdicts
    have one row per window, 65 bytes each, and the fields ``window_start``,
    ``is_event``, ``first_outlier_block`` (-1 where ``is_event`` is False),
    ``selected_bin``, ``delta_p``, ``q1``, ``q3``, ``lo`` and ``hi``; every
    bin's gap is ``select_bin``'s to give, not a verdict's. A stream shorter
    than one window yields no events and no verdicts.

    Windows are analysed in chunks on one thread per CPU this process may
    use (``signal_io.drain``): the calling thread and a pool thread for each
    further CPU take the next chunk in turn until none is left. Each chunk
    writes only its own rows, and the run merge waits for all of them, so the
    output does not depend on the thread count. A chunk holds ``CHUNK_WINDOWS // threads``
    windows (at least one), so at most ``CHUNK_WINDOWS`` windows' blocks,
    complex spectra and magnitudes are held at once (see ``_fill_rows``). A
    chunk releases its samples up to the next chunk's first window, so the
    resident pages of a file-mapped stream stay about a chunk per thread.
    After a failure no thread takes a further chunk, and the error is raised
    once every thread has stopped.
    """
    if cfg is None:
        cfg = DetectorConfig()
    starts = windows(stream, cfg)
    verdicts = _Rows(len(starts), dtype=[
        ("window_start", np.int64), ("is_event", bool), ("first_outlier_block", np.int64),
        ("selected_bin", np.int64), ("delta_p", np.float64),
        ("q1", np.float64), ("q3", np.float64), ("lo", np.float64), ("hi", np.float64),
    ])
    verdicts.window_start = starts
    workers = _workers()
    per_task = max(1, CHUNK_WINDOWS // workers)
    chunks = range(0, len(starts), per_task)

    def fill(i0: int) -> None:
        _fill_rows(verdicts[i0:i0 + per_task], stream.samples, cfg)
        # the samples no later chunk reads
        stop = starts[i0 + per_task] if i0 + per_task < len(starts) else len(stream)
        release(stream.samples[starts[i0]:stop])

    drain(fill, chunks, min(workers, len(chunks)))

    flagged = np.flatnonzero(verdicts.is_event)
    first = flagged[np.diff(flagged, prepend=-2) != 1]  # the first window of each run
    run_start = verdicts.window_start[first]
    index = run_start + verdicts.first_outlier_block[first] * cfg.block_len
    # the last event's index is the largest earlier run's; a run not past it joins that event
    keep = index > np.maximum.accumulate(np.append(-1, index))[:-1]
    events = np.rec.fromarrays(
        [index[keep], index[keep] / stream.sample_rate_hz, run_start[keep]],
        dtype=[("sample_index", np.int64), ("time_s", np.float64), ("window_start", np.int64)])
    return events, verdicts

"""Fixed-length window slicing and block-matrix reshaping."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .signal_io import SampleStream


@dataclass(frozen=True)
class WindowingConfig:
    """Window geometry in samples; block_len, the FFT length, is a power of two."""

    window_len: int = 6016
    step: int = 6016
    block_len: int = 128

    def __post_init__(self) -> None:
        if self.window_len < 1 or self.step < 1 or self.block_len < 1:
            raise ValueError("window_len, step and block_len must be positive")
        if self.block_len < 2 or self.block_len & (self.block_len - 1):
            raise ValueError(f"block_len must be a power of two >= 2, got {self.block_len}")
        if self.window_len % self.block_len != 0:
            raise ValueError(
                f"block_len {self.block_len} does not divide window_len {self.window_len}"
            )

    @property
    def blocks_per_window(self) -> int:
        return self.window_len // self.block_len


@dataclass(frozen=True)
class Window:
    """The argument of ``to_block_matrix``: a start index into the stream plus its samples."""

    start_index: int
    samples: np.ndarray


def windows(stream: SampleStream, cfg: WindowingConfig) -> np.ndarray:
    """Start index of each window, 0, step, 2*step, ..., as one int64 array.

    A trailing stretch shorter than ``window_len`` is dropped, never padded.
    The array is empty when the stream is shorter than one window.
    """
    count = max(0, (len(stream.samples) - cfg.window_len) // cfg.step + 1)
    return np.arange(count, dtype=np.int64) * cfg.step


def to_block_matrix(window: Window, block_len: int) -> np.ndarray:
    """Reshape a window row-major into (blocks, block_len).

    Row r holds samples ``r*block_len .. (r+1)*block_len - 1`` of the window,
    so flattening the result reproduces the window exactly.
    """
    n = len(window.samples)
    if block_len < 1 or n % block_len != 0:
        raise ValueError(f"block_len {block_len} does not divide window length {n}")
    return window.samples.reshape(-1, block_len)

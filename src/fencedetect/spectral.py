"""Block-level Fourier analysis.

Magnitudes come from numpy's real-input FFT (``np.fft.rfft``), the
unnormalized forward transform

    X[j] = sum_n x[n] * exp(-2i*pi*j*n/N)

taken along the last axis, so stacked inputs transform row by row.
"""

from __future__ import annotations

import numpy as np


def magnitude_spectrum(block: np.ndarray) -> np.ndarray:
    """Magnitudes of the first N/2 + 1 FFT bins (DC through Nyquist).

    Real input makes the upper half of the spectrum redundant by conjugate
    symmetry, so only these bins carry information and only these are
    computed.
    """
    return np.abs(np.fft.rfft(block))


def spectrogram(matrix: np.ndarray) -> np.ndarray:
    """Per-row magnitude spectra of a block matrix.

    A (blocks, block_len) input yields (blocks, block_len/2 + 1).
    """
    m = np.asarray(matrix)
    if m.ndim != 2:
        raise ValueError(f"expected a 2-D block matrix, got shape {m.shape}")
    return magnitude_spectrum(m)

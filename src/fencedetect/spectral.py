"""Block-level Fourier analysis.

Magnitudes come from numpy's real-input FFT (``np.fft.rfft``), the
unnormalized forward transform

    X[j] = sum_n x[n] * exp(-2i*pi*j*n/N)

taken along the last axis, so stacked inputs transform row by row.
"""

from __future__ import annotations

import numpy as np


def magnitude_spectrum(block: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Magnitudes of the first N/2 + 1 FFT bins (DC through Nyquist).

    Real input makes the upper half of the spectrum redundant by conjugate
    symmetry, so only these bins carry information and only these are
    computed. Given ``out``, of exactly the result's shape, the magnitudes
    are written there and ``out`` is returned.
    """
    spectra = np.fft.rfft(block)
    if out is not None and out.shape != spectra.shape:
        raise ValueError(f"out has shape {out.shape}, the magnitudes have {spectra.shape}")
    return np.abs(spectra, out=out)


def spectrogram(matrix: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Per-row magnitude spectra of a block matrix.

    A (blocks, block_len) input yields (blocks, block_len/2 + 1), written
    into ``out`` when one is given (see ``magnitude_spectrum``).
    """
    m = np.asarray(matrix)
    if m.ndim != 2:
        raise ValueError(f"expected a 2-D block matrix, got shape {m.shape}")
    return magnitude_spectrum(m, out)

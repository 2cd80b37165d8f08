import numpy as np
import pytest

from fencedetect.spectral import spectrogram


def dft_naive(block: np.ndarray) -> np.ndarray:
    """Direct O(N^2) evaluation of the DFT sum, any length >= 1.

    Deliberately built from nothing but the definition so it can vouch for
    the fast transform.
    """
    x = np.asarray(block, dtype=np.complex128)
    n = x.shape[-1]
    if n < 1:
        raise ValueError("dft_naive needs at least one sample")
    j = np.arange(n)
    kernel = np.exp(-2j * np.pi * np.outer(j, j) / n)  # symmetric
    return x @ kernel


def _oracle_magnitudes(x):
    """|DFT| from the definition sum, cut to the bins spectrogram keeps."""
    n = np.shape(x)[-1]
    return np.abs(dft_naive(x))[..., : n // 2 + 1]


def _magnitudes(block):
    """spectrogram of a one-row block matrix: the magnitudes of one block."""
    return spectrogram(np.asarray(block)[None])[0]


def test_constant_signal_is_dc_only():
    c = 0.75
    out = _magnitudes(np.full(8, c))
    assert out[0] == pytest.approx(8 * c, abs=1e-12)
    assert np.all(out[1:] < 1e-12)


def test_impulse_has_flat_spectrum():
    x = np.zeros(8)
    x[0] = 1.0
    assert _magnitudes(x) == pytest.approx(np.ones(5), abs=1e-12)


def test_single_tone_lands_in_two_bins():
    n = 8
    x = np.cos(2 * np.pi * np.arange(n) / n)
    full = np.abs(dft_naive(x))
    assert full[1] == pytest.approx(4.0, abs=1e-12)
    assert full[7] == pytest.approx(4.0, abs=1e-12)
    assert np.all(np.delete(full, [1, 7]) < 1e-12)
    # the kept half holds the lower of the two mirrored bins
    out = _magnitudes(x)
    assert out[1] == pytest.approx(4.0, abs=1e-12)
    assert np.all(np.delete(out, 1) < 1e-12)


def test_naive_dft_agrees_on_closed_form_cases():
    cases = [np.full(8, 0.75), np.eye(8)[0], np.cos(2 * np.pi * np.arange(8) / 8)]
    for x in cases:
        assert np.max(np.abs(_magnitudes(x) - _oracle_magnitudes(x))) < 1e-9


def test_fft_matches_naive_dft_on_random_input():
    rng = np.random.default_rng(42)
    x = rng.standard_normal(16)
    scale = np.max(np.abs(dft_naive(x)))
    assert np.max(np.abs(_magnitudes(x) - _oracle_magnitudes(x))) / scale < 1e-9


def test_naive_dft_length_one_is_identity():
    assert dft_naive(np.array([2.5])) == pytest.approx([2.5])


def test_magnitude_spectrum_bin_count():
    assert spectrogram(np.zeros((1, 128))).shape == (1, 65)


def test_magnitude_spectrum_zero_block():
    assert np.all(_magnitudes(np.zeros(128)) == 0.0)


def test_magnitude_spectrum_scales_linearly():
    rng = np.random.default_rng(8)
    x = rng.standard_normal(64)
    base = _magnitudes(x)
    assert _magnitudes(2.5 * x) == pytest.approx(2.5 * base, rel=1e-12)


def test_spectrogram_shape():
    rng = np.random.default_rng(9)
    out = spectrogram(rng.standard_normal((47, 128)))
    assert out.shape == (47, 65)


def test_spectrogram_is_rowwise():
    row = np.random.default_rng(10).standard_normal(128)
    out = spectrogram(np.stack([row, row, row]))
    assert np.array_equal(out[0], out[1])
    assert np.array_equal(out[0], out[2])


def test_spectrogram_delta_and_zero_rows():
    out = spectrogram(np.array([[1.0, 0.0, 0.0, 0.0], [0.0, 0.0, 0.0, 0.0]]))
    assert out[0] == pytest.approx([1.0, 1.0, 1.0])
    assert out[1] == pytest.approx([0.0, 0.0, 0.0])


def test_spectrogram_requires_2d():
    with pytest.raises(ValueError):
        spectrogram(np.zeros(128))


def test_parseval_energy_identity():
    rng = np.random.default_rng(12)
    for n in (8, 16, 64, 256, 1024):
        x = rng.standard_normal(n)
        time_energy = np.sum(x**2)
        # bins 1 .. n/2-1 stand for their mirrored upper twins too
        weights = np.full(n // 2 + 1, 2.0)
        weights[[0, -1]] = 1.0
        freq_energy = np.sum(weights * _magnitudes(x) ** 2) / n
        assert freq_energy == pytest.approx(time_energy, rel=1e-9)


def test_fft_linearity():
    rng = np.random.default_rng(13)
    x, y = rng.standard_normal(128), rng.standard_normal(128)
    lhs = _magnitudes(2.0 * x - 3.0 * y)
    rhs = np.abs(2.0 * dft_naive(x) - 3.0 * dft_naive(y))[:65]
    assert np.max(np.abs(lhs - rhs)) / np.max(rhs) < 1e-9


def test_fft_batch_matches_rowwise():
    rng = np.random.default_rng(15)
    block = rng.standard_normal((5, 64))
    batched = spectrogram(block)
    for i in range(5):
        assert np.max(np.abs(batched[i] - spectrogram(block[i:i + 1])[0])) < 1e-12

import numpy as np
import pytest

from fencedetect.signal_io import SampleStream
from fencedetect.windowing import Window, WindowingConfig, to_block_matrix, windows


def _stream(n):
    return SampleStream(np.arange(float(n)), 6000.0)


def test_exact_division_two_windows():
    out = windows(_stream(12032), WindowingConfig())
    assert out.dtype == np.int64
    assert out.tolist() == [0, 6016]


def test_below_minimum_yields_nothing():
    out = windows(_stream(6015), WindowingConfig())
    assert out.dtype == np.int64 and out.tolist() == []


def test_small_step_window_count():
    out = windows(_stream(6400), WindowingConfig(step=128))
    assert out.tolist() == [0, 128, 256, 384]


def test_window_count_formula():
    rng = np.random.default_rng(11)
    for _ in range(30):
        n = int(rng.integers(0, 40000))
        step = int(rng.integers(1, 8000))
        cfg = WindowingConfig(step=step)
        expected = (n - 6016) // step + 1 if n >= 6016 else 0
        assert len(windows(_stream(n), cfg)) == expected


def test_nonoverlapping_windows_partition_prefix():
    stream = _stream(6016 * 3 + 100)
    out = windows(stream, WindowingConfig())
    joined = np.concatenate([stream.samples[s:s + 6016] for s in out])
    assert np.array_equal(joined, stream.samples[: 6016 * 3])


def test_block_matrix_row_major_layout():
    # window holding values 1..6016: row 1 starts at the 129th sample
    w = Window(0, np.arange(1.0, 6017.0))
    m = to_block_matrix(w, 128)
    assert m.shape == (47, 128)
    assert m[0, 0] == 1.0
    assert m[1, 0] == 129.0
    assert m[46, 127] == 6016.0


def test_block_matrix_small_reshape():
    m = to_block_matrix(Window(0, np.array([1.0, 2.0, 3.0, 4.0])), 2)
    assert m.tolist() == [[1.0, 2.0], [3.0, 4.0]]


def test_block_matrix_indivisible_length_rejected():
    with pytest.raises(ValueError):
        to_block_matrix(Window(0, np.zeros(6016)), 100)


def test_block_matrix_flatten_is_lossless():
    rng = np.random.default_rng(5)
    samples = rng.standard_normal(6016)
    m = to_block_matrix(Window(0, samples), 128)
    assert np.array_equal(m.reshape(-1), samples)


def test_windows_deterministic_order():
    stream = _stream(30000)
    cfg = WindowingConfig(step=1504)
    first = windows(stream, cfg)
    second = windows(stream, cfg)
    assert first.tolist() == second.tolist()
    starts = first.tolist()
    assert starts == sorted(starts)


def test_config_rejects_indivisible_block():
    with pytest.raises(ValueError):
        WindowingConfig(window_len=6016, block_len=100)


def test_config_rejects_non_power_of_two_block():
    for block_len in (1, 3, 6, 94, 100):
        with pytest.raises(ValueError):
            WindowingConfig(window_len=block_len * 64, step=block_len * 64,
                            block_len=block_len)


def test_config_rejects_nonpositive_fields():
    with pytest.raises(ValueError):
        WindowingConfig(step=0)
    with pytest.raises(ValueError):
        WindowingConfig(window_len=0, block_len=1)


def test_blocks_per_window():
    assert WindowingConfig().blocks_per_window == 47

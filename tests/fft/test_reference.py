"""Unit tests for the sequential reference FFT."""

import numpy as np
import pytest

from repro.fft import dft_direct, fft_dif, ifft_dif


class TestAgainstNumpy:
    @pytest.mark.parametrize("n", [2, 4, 8, 16, 64, 256, 1024, 4096])
    def test_random_complex(self, n, rng):
        x = rng.normal(size=n) + 1j * rng.normal(size=n)
        assert np.allclose(fft_dif(x), np.fft.fft(x))

    @pytest.mark.parametrize("n", [8, 32])
    def test_real_input(self, n, rng):
        x = rng.normal(size=n)
        assert np.allclose(fft_dif(x), np.fft.fft(x))

    def test_against_direct_dft(self, rng):
        x = rng.normal(size=16) + 1j * rng.normal(size=16)
        assert np.allclose(fft_dif(x), dft_direct(x))


class TestAnalyticCases:
    def test_impulse_gives_flat_spectrum(self):
        x = np.zeros(8)
        x[0] = 1.0
        assert np.allclose(fft_dif(x), np.ones(8))

    def test_dc_gives_single_bin(self):
        x = np.ones(16)
        expected = np.zeros(16, dtype=complex)
        expected[0] = 16.0
        assert np.allclose(fft_dif(x), expected)

    def test_single_tone(self):
        n, k = 32, 5
        t = np.arange(n)
        x = np.exp(2j * np.pi * k * t / n)
        spectrum = fft_dif(x)
        assert abs(spectrum[k] - n) < 1e-9
        mask = np.ones(n, bool)
        mask[k] = False
        assert np.all(np.abs(spectrum[mask]) < 1e-9)

    def test_linearity(self, rng):
        x = rng.normal(size=16)
        y = rng.normal(size=16)
        assert np.allclose(fft_dif(2 * x + 3 * y), 2 * fft_dif(x) + 3 * fft_dif(y))

    def test_parseval(self, rng):
        x = rng.normal(size=64) + 1j * rng.normal(size=64)
        lhs = np.sum(np.abs(x) ** 2)
        rhs = np.sum(np.abs(fft_dif(x)) ** 2) / 64
        assert lhs == pytest.approx(rhs)


class TestInverse:
    @pytest.mark.parametrize("n", [4, 16, 128])
    def test_roundtrip(self, n, rng):
        x = rng.normal(size=n) + 1j * rng.normal(size=n)
        assert np.allclose(ifft_dif(fft_dif(x)), x)

    def test_matches_numpy_ifft(self, rng):
        x = rng.normal(size=32) + 1j * rng.normal(size=32)
        assert np.allclose(ifft_dif(x), np.fft.ifft(x))


class TestValidation:
    def test_rejects_non_power_of_two(self):
        with pytest.raises(ValueError):
            fft_dif(np.zeros(12))

    def test_rejects_2d_input(self):
        with pytest.raises(ValueError):
            fft_dif(np.zeros((4, 4)))

    def test_size_one(self):
        assert np.allclose(fft_dif(np.array([3.0 + 1j])), [3.0 + 1j])

"""Discrete affine Fourier transform (DAFT) machinery for AFDM frames.

The forward transform is a unitary DFT sandwiched between two quadratic
phase (chirp) multiplications.  The first chirp rate is the rational
``chirp_sign * chirp_num / (2 * n)``; with an even frame length this makes
every delay-induced phase an exact root of unity, so the chirp-periodic
prefix degenerates to a plain cyclic prefix and a single on-grid path
(delay ``l``, Doppler ``q``) moves a transform-domain impulse at index
``m`` to ``(m + q - chirp_sign * chirp_num * l) mod n`` with unit-modulus
gain.

Transforms are applied operationally (FFT plus two diagonal chirp
multiplications); no dense transform matrix is formed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

__all__ = [
    "AfdmParams",
    "idaft_modulate",
    "daft_demodulate",
    "cpp_extend",
    "cpp_strip",
    "daft_domain_shift",
    "select_chirp_rate",
]


@dataclass(frozen=True)
class AfdmParams:
    """Waveform geometry: frame length, chirp rates and prefix length.

    The first chirp rate is ``c1 = chirp_sign * chirp_num / (2 * n)``.
    ``c2`` is a free finite real parameter (default 0); the index structure of
    all downstream operators does not depend on it.
    """

    n: int
    chirp_num: int = 1
    chirp_sign: int = 1
    c2: float = 0.0
    cpp_len: int = 0

    def __post_init__(self) -> None:
        if self.n <= 0 or self.n % 2 != 0:
            raise ValueError(f"frame length must be positive and even, got {self.n}")
        if self.chirp_num < 1:
            raise ValueError(f"chirp numerator must be >= 1, got {self.chirp_num}")
        if self.chirp_sign not in (-1, 1):
            raise ValueError(f"chirp sign must be +1 or -1, got {self.chirp_sign}")
        if self.cpp_len < 0:
            raise ValueError(f"prefix length must be >= 0, got {self.cpp_len}")
        if not math.isfinite(self.c2):  # every chirp table would be NaN
            raise ValueError(f"c2 must be finite, got {self.c2}")

    @property
    def c1(self) -> float:
        return self.chirp_sign * self.chirp_num / (2.0 * self.n)


@lru_cache(maxsize=64)
def _chirp_tables(params: AfdmParams) -> tuple[np.ndarray, np.ndarray]:
    """Return (e^{-i2pi c1 n^2}, e^{-i2pi c2 k^2}) as read-only vectors.

    The c1 phase is reduced with exact integer arithmetic so that large
    frames do not lose precision to huge float phase arguments.
    """
    n = params.n
    idx = np.arange(n, dtype=np.int64)
    frac = (params.chirp_sign * params.chirp_num * (idx * idx)) % (2 * n)
    first = np.exp(-1j * np.pi * frac / n)
    second = np.exp(-2j * np.pi * np.mod(params.c2 * (idx * idx), 1.0))
    first.setflags(write=False)
    second.setflags(write=False)
    return first, second


def _as_frame(x, n: int, what: str) -> np.ndarray:
    x = np.asarray(x, dtype=np.complex128)
    if x.shape != (n,):
        raise ValueError(f"{what} must have shape ({n},), got {x.shape}")
    return x


def idaft_modulate(x, params: AfdmParams) -> np.ndarray:
    """Map transform-domain symbols to time samples (inverse DAFT).

    ``s_m = sum_k x_k exp(+i 2 pi (c2 k^2 + k m / n + c1 m^2)) / sqrt(n)``.
    Energy preserving.
    """
    x = _as_frame(x, params.n, "symbol vector")
    first, second = _chirp_tables(params)
    return first.conj() * np.fft.ifft(second.conj() * x, norm="ortho")


def daft_demodulate(r, params: AfdmParams) -> np.ndarray:
    """Map time samples (prefix already stripped) to transform-domain symbols.

    Exact adjoint of :func:`idaft_modulate`.
    """
    r = _as_frame(r, params.n, "time signal")
    first, second = _chirp_tables(params)
    return second * np.fft.fft(first * r, norm="ortho")


def cpp_extend(s, params: AfdmParams) -> np.ndarray:
    """Prepend the chirp-periodic prefix.

    The prefix sample at position ``m = -j`` equals ``s_{n-j}`` times
    ``exp(-i 2 pi c1 (n^2 + 2 n m))``; with ``2 c1 n`` integral and ``n``
    even that factor is exactly 1, so the prefix is a plain cyclic copy.
    """
    s = _as_frame(s, params.n, "time signal")
    if params.cpp_len == 0:
        return s.copy()
    if params.cpp_len > params.n:
        raise ValueError("prefix longer than the frame is not supported")
    return np.concatenate([s[params.n - params.cpp_len :], s])


def cpp_strip(s_cpp, params: AfdmParams) -> np.ndarray:
    """Remove the chirp-periodic prefix; inverse of :func:`cpp_extend`."""
    s_cpp = np.asarray(s_cpp, dtype=np.complex128)
    expected = params.n + params.cpp_len
    if s_cpp.shape != (expected,):
        raise ValueError(f"prefixed signal must have shape ({expected},), got {s_cpp.shape}")
    return s_cpp[params.cpp_len :].copy()


def daft_domain_shift(params: AfdmParams, delay: int, doppler: int) -> int:
    """Transform-domain index shift produced by an on-grid path.

    An impulse at index ``m`` reappears at ``(m + shift) mod n``.
    """
    return (doppler - params.chirp_sign * params.chirp_num * delay) % params.n


def select_chirp_rate(l_taps: int, q_max: int, s_delay: int, s_doppler: int) -> int:
    """Smallest chirp numerator whose per-pilot window covers the unknowns.

    Returns the smallest integer ``P >= 1`` with
    ``(l_taps - 1) P + 2 q_max + 1 >= s_delay * s_doppler``, clamped above
    at ``2 q_max + 1`` (the full-diversity, non-compressive extreme;
    ``P = 1`` is the most compressive choice).
    """
    if l_taps < 1 or q_max < 0:
        raise ValueError("l_taps must be >= 1 and q_max >= 0")
    full = 2 * q_max + 1
    if not 1 <= s_delay <= l_taps:
        raise ValueError(f"s_delay must lie in [1, {l_taps}], got {s_delay}")
    if not 1 <= s_doppler <= full:
        raise ValueError(f"s_doppler must lie in [1, {full}], got {s_doppler}")
    need = s_delay * s_doppler - full
    if l_taps == 1 or need <= 0:
        return 1
    p = -(-need // (l_taps - 1))
    return min(p, full)

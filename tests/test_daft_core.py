from dataclasses import asdict

import numpy as np
import pytest

from afdm_sense import (
    AfdmParams,
    cpp_extend,
    daft_demodulate,
    idaft_modulate,
    select_chirp_rate,
)


def build_daft_operator(params):
    """Dense forward transform, one demodulated unit frame per column."""
    return np.stack([daft_demodulate(e, params) for e in np.eye(params.n)], axis=1)


def kernel_matrix(params):
    """Independent oracle: elementwise evaluation of the transform kernel."""
    n = params.n
    c1 = params.chirp_sign * params.chirp_num / (2 * n)
    k = np.arange(n)[:, None]
    m = np.arange(n)[None, :]
    return np.exp(-2j * np.pi * (params.c2 * k**2 + k * m / n + c1 * m**2)) / np.sqrt(n)


@pytest.mark.parametrize("n", [4, 16, 64, 256])
def test_operator_unitary(n):
    params = AfdmParams(n=n, chirp_num=3, c2=0.173)
    phi = build_daft_operator(params)
    assert np.abs(phi @ phi.conj().T - np.eye(n)).max() < 1e-12


def test_operator_unitary_large_frame_operational():
    # matrix-free check at a transform size the dense operator should not touch
    params = AfdmParams(n=4096, chirp_num=5, c2=0.31)
    rng = np.random.default_rng(0)
    x = rng.standard_normal(4096) + 1j * rng.standard_normal(4096)
    s = idaft_modulate(x, params)
    assert abs(np.linalg.norm(s) - np.linalg.norm(x)) < 1e-9
    assert np.abs(daft_demodulate(s, params) - x).max() < 1e-12


def test_zero_chirp_rates_reduce_to_dft():
    params = AfdmParams(n=4, chirp_num=1)
    phi = build_daft_operator(params)
    # chirp_num=1 still has c1 != 0; build the c1=c2=0 case via the kernel oracle
    k = np.arange(4)[:, None] * np.arange(4)[None, :]
    dft = np.exp(-2j * np.pi * k / 4) / 2.0
    zero = kernel_matrix(params)
    assert np.abs(phi - zero).max() < 1e-12
    # impulse through the plain DFT pair
    x = np.array([1.0, 0, 0, 0], dtype=complex)
    s = np.conj(dft.T) @ x
    assert np.abs(s - 0.5).max() < 1e-12


def test_operator_matches_kernel_small_and_random():
    params = AfdmParams(n=2, chirp_num=1)  # c1 = 1/4
    phi = build_daft_operator(params)
    assert np.abs(phi - kernel_matrix(params)).max() < 1e-12
    for seed in range(3):
        rng = np.random.default_rng(seed)
        params = AfdmParams(n=16, chirp_num=int(rng.integers(1, 6)), c2=float(rng.uniform(-1, 1)))
        assert np.abs(build_daft_operator(params) - kernel_matrix(params)).max() < 1e-12


def test_modulate_impulse_n2():
    params = AfdmParams(n=2, chirp_num=1)
    s = idaft_modulate(np.array([1.0, 0.0]), params)
    expected = np.array([1.0, np.exp(1j * np.pi / 2)]) / np.sqrt(2)
    assert np.abs(s - expected).max() < 1e-12


def test_demodulate_constant_is_impulse():
    params = AfdmParams(n=4, chirp_num=2)
    # c1 = c2 = 0 case via the kernel: use unitarity of the plain DFT instead
    r = np.ones(4, dtype=complex)
    y = np.fft.fft(r, norm="ortho")
    assert np.abs(y - np.array([2, 0, 0, 0])).max() < 1e-12
    # and via the library transform the energy still lands on one bin pair
    y2 = daft_demodulate(idaft_modulate(np.array([2.0, 0, 0, 0]), params), params)
    assert np.abs(y2 - np.array([2, 0, 0, 0])).max() < 1e-12


def test_roundtrip_random():
    rng = np.random.default_rng(1)
    for n, p, c2 in [(8, 1, 0.0), (64, 3, -0.4), (128, 5, 0.9)]:
        params = AfdmParams(n=n, chirp_num=p, c2=c2)
        x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        assert np.abs(daft_demodulate(idaft_modulate(x, params), params) - x).max() < 1e-12
        assert abs(np.linalg.norm(idaft_modulate(x, params)) - np.linalg.norm(x)) < 1e-12


def test_cpp_is_plain_cyclic_prefix():
    params = AfdmParams(n=8, chirp_num=2, cpp_len=1)
    rng = np.random.default_rng(2)
    s = rng.standard_normal(8) + 1j * rng.standard_normal(8)
    ext = cpp_extend(s, params)
    # prefix phase factor exp(-i 2 pi c1 (n^2 + 2 n m)) is exactly 1 here
    assert ext[0] == s[7]
    assert np.array_equal(ext[params.cpp_len :], s)


def test_cpp_zero_length_identity():
    params = AfdmParams(n=8, chirp_num=1, cpp_len=0)
    s = np.arange(8, dtype=complex)
    assert np.array_equal(cpp_extend(s, params), s)


def test_cpp_of_whole_frame():
    params = AfdmParams(n=8, chirp_num=1, cpp_len=8)
    s = np.arange(8, dtype=complex)
    assert np.array_equal(cpp_extend(s, params), np.concatenate([s, s]))


@pytest.mark.parametrize("sign", [1, -1])
def test_shift_structure_single_path(sign):
    """A path (l, q) moves an impulse at m to (m + q - sign*P*l) mod n."""
    n, p = 32, 3
    params = AfdmParams(n=n, chirp_num=p, chirp_sign=sign, c2=0.21, cpp_len=6)
    rng = np.random.default_rng(4)
    for _ in range(10):
        m = int(rng.integers(0, n))
        l = int(rng.integers(0, 6))
        q = int(rng.integers(-4, 5))
        x = np.zeros(n, dtype=complex)
        x[m] = 1.0
        s = idaft_modulate(x, params)
        r = np.exp(2j * np.pi * np.arange(n) * q / n) * np.roll(s, l)
        y = daft_demodulate(r, params)
        k = (m + q - sign * p * l) % n
        assert abs(abs(y[k]) - 1.0) < 1e-12
        mask = np.ones(n, dtype=bool)
        mask[k] = False
        assert np.abs(y[mask]).max() < 1e-12


def test_select_chirp_rate_values():
    assert select_chirp_rate(30, 7, 6, 3) == 1
    assert select_chirp_rate(30, 7, 6, 6) == 1
    assert select_chirp_rate(2, 1, 2, 3) == 3


def test_select_chirp_rate_is_smallest_and_clamped():
    for l_taps, q_max, s_d, s_dop in [(5, 2, 3, 4), (10, 3, 7, 5), (4, 1, 4, 3)]:
        p = select_chirp_rate(l_taps, q_max, s_d, s_dop)
        full = 2 * q_max + 1
        assert 1 <= p <= full
        if (l_taps - 1) * p + full < s_d * s_dop:
            assert p == full  # clamped at the full-diversity extreme
        if p > 1:
            assert (l_taps - 1) * (p - 1) + full < s_d * s_dop


def test_select_chirp_rate_validates():
    for l_taps, q_max in ((0, 2), (4, -1)):
        with pytest.raises(ValueError, match="l_taps must be >= 1 and q_max >= 0$"):
            select_chirp_rate(l_taps, q_max, 1, 1)
    with pytest.raises(ValueError):
        select_chirp_rate(4, 2, 0, 1)
    with pytest.raises(ValueError):
        select_chirp_rate(4, 2, 5, 1)
    with pytest.raises(ValueError):
        select_chirp_rate(4, 2, 2, 6)


def test_params_validation():
    with pytest.raises(ValueError):
        AfdmParams(n=5)
    with pytest.raises(ValueError):
        AfdmParams(n=8, chirp_num=0)
    # c1 acts on integer sample indices, so chirp_num and chirp_num + 2n give
    # the same chirp; 2^63 overflowed the chirp table, and 2^40 at n = 6000
    # wrapped its int64 product silently
    for n, chirp_num in ((8, 16), (64, 2**63), (6000, 2**40)):
        with pytest.raises(ValueError, match=rf"must lie in \[1, {2 * n}\), got {chirp_num}$"):
            AfdmParams(n=n, chirp_num=chirp_num)
    assert AfdmParams(n=8, chirp_num=15).chirp_num == 15
    with pytest.raises(ValueError):
        AfdmParams(n=8, chirp_sign=2)
    with pytest.raises(ValueError):
        AfdmParams(n=8, cpp_len=-1)
    # the prefix copies the frame's tail, so it is at most the frame
    with pytest.raises(ValueError, match=r"prefix length must lie in \[0, n = 8\], got 9"):
        AfdmParams(n=8, cpp_len=9)


def test_length_mismatch_raises():
    params = AfdmParams(n=8)
    with pytest.raises(ValueError):
        idaft_modulate(np.zeros(7), params)
    with pytest.raises(ValueError):
        daft_demodulate(np.zeros(9), params)


def test_chirp_table_is_exact_for_every_numerator():
    # at n = 2e6 the numerator 2n - 1 times idx^2 exceeds int64; the table
    # reduces idx^2 first, so its phases are the exact ones, whatever the
    # sign and c2.  Each waveform is fresh and keeps its 64 MB of tables
    # only while it lives
    n = 2_000_000
    idx = [1, n // 2 + 1, 1_700_001, n - 1]
    for chirp_sign, c2 in ((1, 0.0), (-1, 0.0), (1, 0.37)):
        params = AfdmParams(n=n, chirp_num=2 * n - 1, chirp_sign=chirp_sign, c2=c2)
        first = params.chirps[0]
        exact = [(chirp_sign * params.chirp_num * i * i) % (2 * n) for i in idx]
        assert np.abs(first[idx] - np.exp(-1j * np.pi * np.array(exact) / n)).max() < 1e-12


def test_chirp_tables_are_kept_on_the_waveform():
    params = AfdmParams(n=64, chirp_num=3, chirp_sign=-1, c2=0.21, cpp_len=2)
    first, second = params.chirps
    # computed once: a second read returns the same arrays, which no caller can write
    assert params.chirps[0] is first and params.chirps[1] is second
    for table in (first, second):
        with pytest.raises(ValueError):
            table[0] = 0
    # an equal waveform computes its own tables, to the same bits
    twin = AfdmParams(n=64, chirp_num=3, chirp_sign=-1, c2=0.21, cpp_len=2)
    assert twin.chirps[0] is not first
    assert twin.chirps[0].tobytes() == first.tobytes()
    assert twin.chirps[1].tobytes() == second.tobytes()
    # the tables stay off the fields: equality, hash and asdict see only these
    assert twin == params and hash(twin) == hash(params) and {twin: 1}[params] == 1
    assert asdict(params) == dict(n=64, chirp_num=3, chirp_sign=-1, c2=0.21, cpp_len=2)

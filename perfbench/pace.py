"""Host pace helper: times a fixed kernel shaped like a trial, on request.

Run as ``python pace.py``.  Each line read from standard input runs the
kernel once and prints the seconds it took; the process ends at the end of
its input.  The kernel is a least-squares refit on gathered columns of a
tall complex operator, gradient steps, chirp-weighted FFTs and a
Python-level top-k loop, on inputs drawn from a constant seed, so every
call does the same work.  It runs in its own process so that its memory
does not count in the peak memory of the sweeps the benchmark spawns.
"""

import os

os.environ["OPENBLAS_NUM_THREADS"] = "1"

import sys
import time

import numpy as np


def make_inputs():
    rng = np.random.default_rng(12345)
    matrix = (rng.standard_normal((2046, 448)) + 1j * rng.standard_normal((2046, 448))) / 64
    y = rng.standard_normal(2046) + 1j * rng.standard_normal(2046)
    x = rng.standard_normal(4096) + 1j * rng.standard_normal(4096)
    cols = [np.sort(rng.choice(448, 48, replace=False)) for _ in range(12)]
    return matrix, y, x, cols


def kernel(matrix, y, x, cols) -> float:
    start = time.perf_counter()
    for c in cols:
        np.linalg.lstsq(matrix[:, c], y, rcond=1e-10)
    r = y
    for _ in range(30):
        r = y - matrix @ (0.01 * (matrix.conj().T @ r))
    for _ in range(150):
        np.fft.ifft(np.fft.fft(x * x[0]), norm="ortho")
    for i in range(2000):
        v = np.abs(x[i % 64:i % 64 + 448])
        v[np.argpartition(v, -8)[-8:]].sum()
    return time.perf_counter() - start


def main() -> None:
    inputs = make_inputs()
    kernel(*inputs)
    for _ in sys.stdin:
        print(repr(kernel(*inputs)), flush=True)


if __name__ == "__main__":
    main()

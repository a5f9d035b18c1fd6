"""Hierarchically sparse recovery by hard thresholding pursuit.

The hierarchical thresholding operator keeps, inside every block, the
``s_entry`` largest-magnitude entries, then keeps the ``s_block`` blocks
with the largest kept energy.  The pursuit alternates a gradient step, the
thresholding operator and a least-squares refit on the selected support
until the support repeats or the iteration cap is reached.  A flat top-s
variant serves as the classical baseline.

All tie-breaks go to the lowest index so identical inputs produce
identical supports.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "SupportSet",
    "RecoveryResult",
    "hierarchical_threshold",
    "flat_threshold",
    "restricted_least_squares",
    "hihtp_recover",
    "htp_recover",
]

_RANK_TOL = 1e-10


@dataclass(frozen=True)
class SupportSet:
    """Sorted (block, within-block index) pairs."""

    pairs: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "pairs", tuple(sorted(self.pairs)))
        if len(set(self.pairs)) != len(self.pairs):
            raise ValueError("support contains duplicate entries")

    def __len__(self) -> int:
        return len(self.pairs)

    def flat_indices(self, block_size: int) -> np.ndarray:
        return np.array([b * block_size + j for b, j in self.pairs], dtype=np.int64)

    @classmethod
    def from_flat(cls, indices, block_size: int) -> "SupportSet":
        return cls(tuple((int(i) // block_size, int(i) % block_size) for i in indices))

    def block_counts(self) -> dict[int, int]:
        counts: dict[int, int] = {}
        for b, _ in self.pairs:
            counts[b] = counts.get(b, 0) + 1
        return counts

    def is_hierarchical(self, s_block: int, s_entry: int) -> bool:
        counts = self.block_counts()
        return len(counts) <= s_block and all(c <= s_entry for c in counts.values())


@dataclass
class RecoveryResult:
    """Estimate, selected support and the iteration trace."""

    alpha: np.ndarray
    support: SupportSet
    iterations: int
    residual_trace: list[float]
    converged_by: str


def _check_grid(x: np.ndarray, n_blocks: int, block_size: int) -> None:
    if x.ndim != 1 or x.size != n_blocks * block_size:
        raise ValueError(
            f"vector of size {x.size} does not tile into {n_blocks} blocks of {block_size}"
        )


def hierarchical_threshold(
    x, n_blocks: int, block_size: int, s_block: int, s_entry: int
) -> SupportSet:
    """Best support with at most s_block blocks of at most s_entry entries.

    Within each block the s_entry largest magnitudes are kept, then the
    s_block blocks with the largest kept l2 norm are selected; ties break
    toward the lowest index.
    """
    x = np.asarray(x, dtype=np.complex128)
    _check_grid(x, n_blocks, block_size)
    if not 1 <= s_entry <= block_size:
        raise ValueError(f"s_entry must lie in [1, {block_size}], got {s_entry}")
    if not 1 <= s_block <= n_blocks:
        raise ValueError(f"s_block must lie in [1, {n_blocks}], got {s_block}")
    mags = np.abs(x).reshape(n_blocks, block_size)
    kept = np.argsort(-mags, axis=1, kind="stable")[:, :s_entry]
    kept_energy = np.take_along_axis(mags, kept, axis=1) ** 2
    block_order = np.argsort(-kept_energy.sum(axis=1), kind="stable")[:s_block]
    pairs = tuple(
        (int(b), int(j)) for b in block_order for j in kept[b]
    )
    return SupportSet(pairs)


def flat_threshold(x, n_blocks: int, block_size: int, s: int) -> SupportSet:
    """Top-s magnitudes over the whole vector, expressed on the block grid."""
    x = np.asarray(x, dtype=np.complex128)
    _check_grid(x, n_blocks, block_size)
    if not 1 <= s <= x.size:
        raise ValueError(f"s must lie in [1, {x.size}], got {s}")
    order = np.argsort(-np.abs(x), kind="stable")[:s]
    return SupportSet.from_flat(order, block_size)


def _operator_matrix(op, n_blocks, block_size):
    matrix = getattr(op, "matrix", None)
    if matrix is not None:
        return np.asarray(matrix), op.l_taps, op.block_size
    matrix = np.asarray(op)
    if n_blocks is None or block_size is None:
        raise ValueError("n_blocks and block_size are required with a bare matrix")
    return matrix, n_blocks, block_size


def restricted_least_squares(matrix, y, support: SupportSet, block_size: int) -> np.ndarray:
    """Least-squares fit constrained to the support, zero elsewhere.

    Solved by SVD with relative rank tolerance 1e-10; rank-deficient
    systems get the minimum-norm solution.
    """
    matrix = np.asarray(matrix)
    y = np.asarray(y, dtype=np.complex128)
    idx = support.flat_indices(block_size)
    if len(idx) > matrix.shape[0]:
        raise ValueError(
            f"support of {len(idx)} exceeds the {matrix.shape[0]} observations"
        )
    if len(idx) and idx[-1] >= matrix.shape[1]:
        raise ValueError("support index outside the operator columns")
    z = np.zeros(matrix.shape[1], dtype=np.complex128)
    if len(idx):
        sol, *_ = np.linalg.lstsq(matrix[:, idx], y, rcond=_RANK_TOL)
        z[idx] = sol
    return z


def _pursuit(matrix, y, threshold, block_size, k_max):
    if k_max < 1:
        raise ValueError(f"k_max must be >= 1, got {k_max}")
    y = np.asarray(y, dtype=np.complex128)
    if y.shape != (matrix.shape[0],):
        raise ValueError(f"observation vector must have shape ({matrix.shape[0]},)")
    # step ncols / ||M||_F^2 is the unit step after scaling the columns to unit
    # mean squared norm, the near-isometry the gradient iteration assumes
    sq_norm = float(np.vdot(matrix, matrix).real)
    step = matrix.shape[1] / sq_norm if sq_norm > 0.0 else 1.0
    alpha = np.zeros(matrix.shape[1], dtype=np.complex128)
    trace = [float(np.linalg.norm(y))]
    prev: SupportSet | None = None
    for it in range(1, k_max + 1):
        residual = y - matrix @ alpha
        gradient = alpha + step * (residual.conj() @ matrix).conj()
        support = threshold(gradient)
        if support == prev:
            return RecoveryResult(alpha, support, it, trace, "support_fixed")
        alpha = restricted_least_squares(matrix, y, support, block_size)
        trace.append(float(np.linalg.norm(y - matrix @ alpha)))
        prev = support
    return RecoveryResult(alpha, prev, k_max, trace, "max_iter")


def hihtp_recover(
    op,
    y,
    s_block: int,
    s_entry: int,
    k_max: int = 20,
    n_blocks: int | None = None,
    block_size: int | None = None,
) -> RecoveryResult:
    """Hierarchical hard thresholding pursuit.

    ``op`` is a MeasurementOperator or a bare matrix (then ``n_blocks``
    and ``block_size`` are required).  Stops when the selected support
    repeats or after ``k_max`` iterations; the estimate is hierarchically
    sparse with exact zeros off the support.
    """
    matrix, nb, bs = _operator_matrix(op, n_blocks, block_size)
    return _pursuit(
        matrix,
        y,
        lambda g: hierarchical_threshold(g, nb, bs, s_block, s_entry),
        bs,
        k_max,
    )


def htp_recover(
    op,
    y,
    s: int,
    k_max: int = 20,
    n_blocks: int | None = None,
    block_size: int | None = None,
) -> RecoveryResult:
    """Classical pursuit baseline with flat top-s thresholding."""
    matrix, nb, bs = _operator_matrix(op, n_blocks, block_size)
    return _pursuit(matrix, y, lambda g: flat_threshold(g, nb, bs, s), bs, k_max)

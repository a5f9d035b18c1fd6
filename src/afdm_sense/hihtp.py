"""Hierarchically sparse recovery by hard thresholding pursuit.

The hierarchical thresholding operator keeps, inside every block, the
``s_entry`` largest-magnitude entries, then keeps the ``s_block`` blocks
with the largest kept energy.  The pursuit alternates a gradient step, the
thresholding operator and a least-squares refit on the selected support
until the support repeats or the iteration cap is reached.  A flat top-s
variant serves as the classical baseline.  From threshold to refit, a
support is the sorted flat indices of its columns (``SupportSet``).

After a refit the next support depends only on the refit support, so once
a support selected earlier comes back the pursuit has entered a cycle.
The remaining iterations up to the cap are then filled in from the cycle
instead of being recomputed; the result equals that of running all
``k_max`` iterations, bit for bit.

The pursuit runs on the operator's column-hit structure rather than on its
dense matrix: each column keeps only its exact nonzeros, and columns that
share an observation row fall into one component.  Every column hits one
observation per pilot, so the Gram matrix ``G = M^H M`` is block-diagonal
over the components, and the pursuit works in the coefficient domain: it
gathers ``b = M^H y`` once per call and forms every gradient as
``alpha + step (b - G alpha)``, one batched product of the stored Gram
blocks; the first gradient, from ``alpha = 0``, is ``step b``.  The refits
take their right-hand side ``A_S^H y`` as ``b[S]``, so a pursuit forms no
residual.

The refit takes one of three paths, chosen once per operator at build.
Where every pair of columns within a component is orthogonal or parallel,
as with evenly spread pilots (parallel pairs are Dopplers that alias onto
one Fourier column below 2Q+1 pilots), each class of parallel columns is a
rank-one block and the refit is a closed-form scale.  Otherwise a
conditioning certificate (the largest singular value over all components
divided by the smallest, infinite when a component has more columns than
rows or a zero singular value) picks one batched solve of the normal
equations where it is small, and a dense least-squares solve where it is
not (see ``restricted_least_squares``), which a sweep refuses; a scaling
operator's certificate comes from its column norms, without an SVD.  All
paths give the same solution to round-off (see ``_GRAM_COND_MAX``).

All tie-breaks go to the lowest index so identical inputs produce
identical supports.
"""

from __future__ import annotations

import math
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
# Refits of operators whose certificate is at most this solve the normal
# equations.  Singular values interlace, so the singular values of any column
# subset of a full-column-rank component lie within that component's, and
# those within the range over all components: a support's blocks are at most
# this badly conditioned, the SVD path's global _RANK_TOL rule keeps every
# singular value, and both paths compute the same full-rank solution.  The
# normal equations square the condition number, so their relative error is
# of order cond^2 * eps <= ~1e-10.
_GRAM_COND_MAX = 1e3
# Two columns a_j, a_k of one component count as orthogonal when
# |a_j^H a_k| <= _PAIR_TOL ||a_j|| ||a_k||, and as parallel when the residual of
# projecting a_k on a_j is at most _PAIR_TOL ||a_k||.  Evenly spread pilots
# make every pair one or the other, off by transform round-off (about 1e-16);
# the same bound as the operator build's tolerance off the hit pattern
_PAIR_TOL = 1e-12
# The Gram alone resolves angles down to about 1e-8: a non-orthogonal pair whose
# squared sine, taken from the Gram, exceeds this is not parallel.  Only the
# other pairs have their projection residuals formed; those of every linked
# pair of a contiguous layout at n=16384, L=128 would take over a gigabyte
_NEAR_PARALLEL_SIN2 = 1e-6


@dataclass(frozen=True, eq=False)
class SupportSet:
    """Support on the block grid: the sorted, duplicate-free, read-only flat
    indices ``block * block_size + entry``, compared and hashed by their bytes
    and ``block_size``.  ``pairs`` gives the (block, within-block index) pairs."""

    indices: np.ndarray
    block_size: int

    def __post_init__(self) -> None:
        indices = np.sort(np.asarray(self.indices, dtype=np.int64).reshape(-1))
        if (indices[1:] == indices[:-1]).any():
            raise ValueError("support contains duplicate entries")
        indices.flags.writeable = False
        object.__setattr__(self, "indices", indices)
        object.__setattr__(self, "_key", (self.block_size, indices.tobytes()))

    def __eq__(self, other) -> bool:
        return isinstance(other, SupportSet) and self._key == other._key

    def __hash__(self) -> int:
        return hash(self._key)

    def __len__(self) -> int:
        return len(self.indices)

    @property
    def pairs(self) -> tuple[tuple[int, int], ...]:
        blocks, entries = np.divmod(self.indices, self.block_size)
        return tuple(zip(blocks.tolist(), entries.tolist()))

    def is_hierarchical(self, s_block: int, s_entry: int) -> bool:
        counts = np.bincount(self.indices // self.block_size)
        return bool(np.count_nonzero(counts) <= s_block and counts.max(initial=0) <= s_entry)


@dataclass(eq=False)
class RecoveryResult:
    """What a pursuit computed: the estimate (zero off its support), that
    support as flat indices, the iterations it counts and why it stopped,
    ``"support_fixed"`` or ``"max_iter"``."""

    alpha: np.ndarray
    support: SupportSet
    iterations: int
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
    kept_energy = mags[np.arange(n_blocks)[:, None], kept] ** 2
    block_order = np.argsort(-kept_energy.sum(axis=1), kind="stable")[:s_block]
    return SupportSet(block_order[:, None] * block_size + kept[block_order], block_size)


def flat_threshold(x, n_blocks: int, block_size: int, s: int) -> SupportSet:
    """Top-s magnitudes over the whole vector, expressed on the block grid."""
    x = np.asarray(x, dtype=np.complex128)
    _check_grid(x, n_blocks, block_size)
    if not 1 <= s <= x.size:
        raise ValueError(f"s must lie in [1, {x.size}], got {s}")
    order = np.argsort(-np.abs(x), kind="stable")[:s]
    return SupportSet(order, block_size)


class _Columns:
    """Exact-nonzero structure of an ``m``-row operator, stored per column.

    Built from a table of every column's hits, padded with row ``m`` and
    value 0, which may list a column's hits in any order, padding among
    them, and repeat a row: a column's hits on one row add up, in the given
    order, on the first.  ``rows`` and ``vals`` hold the merged hits in
    increasing row order, then the padding; row ``m`` addresses a zero
    appended to each observation vector.  ``comp`` labels
    the connected components of columns that share a row.  For an operator
    built on the delay-Doppler grid these are the paper's residue classes of
    the window shift ``q - chirp_sign P l``: taken mod ``(L-1) P + 1`` when a
    reduced pilot train wraps the frame, and unreduced for spread disjoint
    pilots; acceptance criterion 5 checks this.  ``slot`` is every column's
    position among its component's columns.

    ``gram`` holds each component's Gram block ``A_c^H A_c`` indexed by
    ``slot``, padded with zeros to the widest component, and ``cell`` every
    column's position in the flattened (component, slot) layout; ``diag`` is
    every column's Gram diagonal entry, its squared norm, and ``eye`` the
    identity of one Gram block.  ``alias`` is set when every pair of columns
    within a component is orthogonal or parallel, and parallelism partitions
    them into classes: it gives every column the ``cell`` of its class's
    first column; otherwise it is None.  ``cond`` is the conditioning
    certificate: the largest singular value of any component's block over
    the smallest, infinite when a component has more columns than rows or a
    zero singular value.  The build computes it from what it already holds:
    with ``alias`` set the singular values are the column norms, unless a
    class holds two columns, so no SVD is taken; otherwise it takes one
    batched SVD of the component blocks it scattered for the Gram.
    ``refit`` names the refit path taken for this operator: ``"scale"``,
    ``"solve"`` or ``"svd"`` (see ``restricted_least_squares``).
    """

    def __init__(self, m: int, rows, vals) -> None:
        rows, vals = np.asarray(rows, dtype=np.int64), np.asarray(vals, dtype=np.complex128)
        for _ in range(2):  # the second pass sorts the hits merged away, now padding, last
            order = np.argsort(rows, axis=1, kind="stable")
            rows, vals = np.take_along_axis(rows, order, 1), np.take_along_axis(vals, order, 1)
            # a column's hits on one row add up, in the given order, on the first of them
            repeat = (np.diff(rows, axis=1, prepend=-1) == 0) & (rows < m)
            col, pos = np.nonzero(repeat)
            head = np.maximum.accumulate(np.where(repeat, 0, np.arange(rows.shape[1])), axis=1)
            np.add.at(vals, (col, head[col, pos]), vals[col, pos])
            rows[col, pos], vals[col, pos] = m, 0.0
        self.rows, self.vals = rows, vals
        ncols, width = self.rows.shape
        self.shape = (m, ncols)
        col, pos = np.nonzero(self.rows < m)  # every hit, by column, rows increasing
        row = self.rows[col, pos]
        self.sq_norm = float(np.sum(self.vals.real**2 + self.vals.imag**2))

        # label propagation: every column takes the smallest label among the
        # columns it shares a row with, until no label changes
        label = np.arange(ncols)
        while True:
            row_min = np.full(m + 1, ncols)
            np.minimum.at(row_min, row, label[col])
            new = np.minimum(label, row_min[self.rows].min(axis=1, initial=ncols))
            if np.array_equal(new, label):
                break
            label = new
        self.comp = np.unique(label, return_inverse=True)[1].reshape(-1)

        # distinct (component, row) keys; np.unique would import numpy.ma on first use
        keys = np.sort(self.comp[col] * (m + 1) + row)
        keys = keys[np.diff(keys, prepend=-1) != 0]
        # every component's distinct rows, and every hit's position among its
        # component's rows in increasing order; padding points one past the most
        per_comp = np.bincount(keys // (m + 1), minlength=int(self.comp.max(initial=-1)) + 1)
        first = np.cumsum(per_comp) - per_comp
        depth = int(per_comp.max(initial=1))  # one all-padding row when nothing hits
        local = np.full((ncols, width), depth, dtype=np.int64)
        hit_comp = self.comp[col]
        local[col, pos] = np.searchsorted(keys, hit_comp * (m + 1) + row) - first[hit_comp]

        comp_cols = np.bincount(self.comp, minlength=len(per_comp))
        order = np.argsort(self.comp, kind="stable")
        self.slot = np.empty(ncols, dtype=np.int64)
        self.slot[order] = np.arange(ncols) - (np.cumsum(comp_cols) - comp_cols)[self.comp[order]]
        # every component's block, one spare row taking the padding hits; it
        # stays zero, as do the slots past a smaller component's columns
        slots = int(self.slot.max(initial=0)) + 1
        a = np.zeros((len(per_comp), depth + 1, slots), dtype=np.complex128)
        a[self.comp[:, None], local, self.slot[:, None]] = self.vals
        self.cell = self.comp * slots + self.slot
        self.gram = np.einsum("crj,crk->cjk", a.conj(), a)
        self.diag = np.diagonal(self.gram, axis1=1, axis2=2).real.reshape(-1)[self.cell]
        self.eye = np.eye(slots)
        label = _parallel_classes(a, self.gram, comp_cols)
        self.alias = None if label is None else self.comp * slots + label[self.comp, self.slot]
        if self.alias is not None:
            # orthogonal classes of parallel columns: a class of two or more
            # columns, or a zero column, leaves a zero singular value, and
            # otherwise the singular values are the column norms
            lo = self.diag.min(initial=np.inf)
            single = lo > 0.0 and np.array_equal(self.alias, self.cell)
            self.cond = math.sqrt(self.diag.max(initial=0.0) / lo) if single else np.inf
            self.refit = "scale"
        else:
            # a padded block's singular values are its own plus zeros, so a
            # full-column-rank component's smallest is at index (columns - 1)
            s = np.linalg.svd(a, compute_uv=False)
            tall = np.all(per_comp >= comp_cols)
            s_min = s[np.arange(len(a)), comp_cols - 1].min(initial=np.inf) if tall else 0.0
            self.cond = float(s[:, 0].max(initial=0.0) / s_min) if s_min > 0.0 else np.inf
            # a NaN certificate takes the SVD
            self.refit = "solve" if self.cond <= _GRAM_COND_MAX else "svd"

    @classmethod
    def from_dense(cls, matrix) -> "_Columns":
        """Hits of a dense matrix: its exact nonzeros, column by column.  The
        one way a dense matrix enters the solver, which takes no bare matrix."""
        matrix = np.asarray(matrix, dtype=np.complex128)
        if matrix.ndim != 2:
            raise ValueError(f"operator must be a matrix, got {matrix.ndim} dimensions")
        # every column's nonzero rows first, in increasing order
        width = int(np.count_nonzero(matrix, axis=0).max(initial=0))
        rows = np.argsort(matrix.T == 0, axis=1, kind="stable")[:, :width]
        vals = np.take_along_axis(matrix.T, rows, axis=1)
        return cls(len(matrix), np.where(vals != 0, rows, len(matrix)), vals)

    def dense(self, idx) -> np.ndarray:
        """Columns ``idx`` of the dense matrix, exact zeros off their hits."""
        out = np.zeros((self.shape[0] + 1, len(idx)), dtype=np.complex128)
        out[self.rows[idx], np.arange(len(idx))[:, None]] = self.vals[idx]
        return out[:-1]  # the last row took the padding

    def matvec(self, x: np.ndarray) -> np.ndarray:
        """``M @ x`` as a scatter of the hits of the columns where ``x`` is nonzero.

        The terms of an exact zero add nothing to any row's running sum, so
        leaving them out changes no bit of the result.
        """
        on = np.flatnonzero(x)
        contrib = (self.vals[on] * x[on, None]).ravel()
        rows = self.rows[on].ravel()
        size = self.shape[0] + 1
        out = np.bincount(rows, weights=contrib.real, minlength=size) + 1j * np.bincount(
            rows, weights=contrib.imag, minlength=size
        )
        return out[:-1]

    def rmatvec(self, r: np.ndarray) -> np.ndarray:
        """``M^H r`` as a gather over the column hits.

        ``conj(v) y`` is ``conj(v conj(y))`` bit for bit, up to the sign of
        an exact zero, so ``r`` is conjugated once rather than every hit on
        each call.
        """
        padded = np.empty(self.shape[0] + 1, dtype=np.complex128)
        np.conj(r, out=padded[:-1])
        padded[-1] = 0.0  # the padding row
        return np.conj((self.vals * padded[self.rows]).sum(axis=1))

    def gram_matvec(self, x: np.ndarray) -> np.ndarray:
        """``M^H M x`` as one batched product of the component Gram blocks."""
        n_comp, slots = self.gram.shape[:2]
        blocks = np.zeros(n_comp * slots, dtype=np.complex128)
        blocks[self.cell] = x
        return np.matmul(self.gram, blocks.reshape(n_comp, slots, 1)).reshape(-1)[self.cell]


def _parallel_classes(a, gram, comp_cols):
    """Every slot's class within its component, or None when some pair of a
    component's columns is neither orthogonal nor parallel, or parallelism
    does not partition the columns.

    ``a`` holds the component blocks, ``gram`` their Gram blocks and
    ``comp_cols`` every component's column count.  A slot's class is the
    first slot it is parallel to; a zero column is orthogonal to every
    column and forms its own class.
    """
    n_comp, slots = gram.shape[:2]
    energy = np.diagonal(gram, axis1=1, axis2=2).real
    used = np.arange(slots) < comp_cols[:, None]
    pair = used[:, :, None] & used[:, None, :] & ~np.eye(slots, dtype=bool)
    outer = energy[:, :, None] * energy[:, None, :]
    mag2 = gram.real**2 + gram.imag**2
    linked = pair & (mag2 > _PAIR_TOL**2 * outer)
    if np.any(linked & (mag2 < (1.0 - _NEAR_PARALLEL_SIN2) * outer)):
        return None
    c, j, k = np.nonzero(linked)
    resid = a[c, :, k] - (gram[c, j, k] / gram[c, j, j])[:, None] * a[c, :, j]
    if np.any(np.linalg.norm(resid, axis=1) > _PAIR_TOL * np.sqrt(energy[c, k])):
        return None
    parallel = linked | np.eye(slots, dtype=bool)
    label = np.argmax(parallel, axis=1)
    same = label[:, :, None] == label[:, None, :]
    if np.any(pair & (same != parallel)):
        return None
    return label


def restricted_least_squares(op, y, support: SupportSet, b=None) -> np.ndarray:
    """Least-squares fit constrained to the support, zero elsewhere.

    ``op`` is a MeasurementOperator or its column structure ``columns``,
    which the pursuit hands every refit, and ``support.indices`` are the
    columns the fit may use.  ``b`` is ``M^H y`` as ``_Columns.rmatvec``
    forms it, gathered here when not given; the first two paths below read
    ``A_S^H y`` as ``b[S]`` and solve the components' independent blocks.  The operator's
    build chose one of three paths (``_Columns.refit``):

    * ``"scale"``: the columns fall into classes of parallel columns,
      orthogonal to one another (``_Columns.alias``), so the support's
      columns of one class form a rank-one block whose minimum-norm fit is
      ``z_j = A_j^H y / sum_k ||A_k||^2`` over the class's support columns
      ``k``; a class whose singular value, the root of that sum, is at or
      below 1e-10 times the largest among the support's classes is zeroed,
      the SVD path's rank rule, so no conditioning bound is needed.  A
      class of one column divides by its squared norm;
    * ``"solve"``: the certificate is at most ``_GRAM_COND_MAX`` (1e3), so every
      support has full column rank; the stored Gram blocks, restricted to
      the support by the identity elsewhere, and ``A_S^H y`` are solved by
      one batched ``np.linalg.solve`` over all components;
    * ``"svd"``: the support's columns are scattered into a dense matrix
      (``_Columns.dense``) and solved by ``np.linalg.lstsq``, LAPACK's
      SVD-based ``gelsd``; singular values at or below 1e-10 times the
      largest count as zero, so rank-deficient systems get the minimum-norm
      solution.  A sweep never takes this path: it refuses such operators.

    The first two equal the SVD solve to round-off.
    """
    cols = getattr(op, "columns", op)
    m, ncols = cols.shape
    y = np.asarray(y, dtype=np.complex128)
    if y.shape != (m,):
        raise ValueError(f"observation vector must have shape ({m},)")
    idx = support.indices
    if len(idx) > m:
        raise ValueError(f"support of {len(idx)} exceeds the {m} observations")
    if len(idx) and (idx[0] < 0 or idx[-1] >= ncols):
        raise ValueError("support index outside the operator columns")
    z = np.zeros(ncols, dtype=np.complex128)
    if not len(idx):
        return z
    if cols.refit == "svd":
        z[idx] = np.linalg.lstsq(cols.dense(idx), y, rcond=_RANK_TOL)[0]
        return z
    if b is None:
        b = cols.rmatvec(y)
    h = b[idx]
    if cols.refit == "scale":
        # a class of parallel columns is a rank-one block, whose squared
        # singular value is the sum of its columns' squared norms
        alias = cols.alias[idx]
        energy = np.bincount(alias, weights=cols.diag[idx])[alias]
        weak = energy <= _RANK_TOL**2 * energy.max()
        if weak.any():
            h[weak], energy[weak] = 0.0, 1.0
        z[idx] = h / energy
        return z
    # the support's entries of every Gram block, the identity elsewhere
    n_comp, slots = cols.gram.shape[:2]
    cell = cols.cell[idx]
    on = np.zeros(n_comp * slots, dtype=bool)
    on[cell] = True
    on = on.reshape(n_comp, slots)
    g = np.where(on[:, :, None] & on[:, None, :], cols.gram, cols.eye)
    rhs = np.zeros(n_comp * slots, dtype=np.complex128)
    rhs[cell] = h
    z[idx] = np.linalg.solve(g, rhs.reshape(n_comp, slots, 1)).reshape(-1)[cell]
    return z


def _pursuit(cols, y, threshold, k_max):
    if k_max < 1:
        raise ValueError(f"k_max must be >= 1, got {k_max}")
    m, ncols = cols.shape
    y = np.asarray(y, dtype=np.complex128)
    if y.shape != (m,):
        raise ValueError(f"observation vector must have shape ({m},)")
    # step ncols / ||M||_F^2 is the unit step after scaling the columns to unit
    # mean squared norm, the near-isometry the gradient iteration assumes
    step = ncols / cols.sq_norm if cols.sq_norm > 0.0 else 1.0
    # the observations are read once: the gradient alpha + step M^H (y - M alpha)
    # is alpha + step (b - G alpha) with b = M^H y and the Gram matrix G
    b = cols.rmatvec(y)
    alpha = np.zeros(ncols, dtype=np.complex128)
    prev: SupportSet | None = None
    # after a refit the next support depends only on the refit support, so a
    # support seen before starts a cycle that the remaining iterations replay
    history: list[tuple[SupportSet, np.ndarray]] = []
    seen: dict[SupportSet, int] = {}
    for it in range(1, k_max + 1):
        # alpha is zero on the first iteration, where the Gram product adds nothing
        gradient = step * b if it == 1 else alpha + step * (b - cols.gram_matvec(alpha))
        support = threshold(gradient)
        if support == prev:
            return RecoveryResult(alpha, support, it, "support_fixed")
        if support in seen:
            start = seen[support]
            support, alpha = history[start + (k_max - it) % (len(history) - start)]
            return RecoveryResult(alpha, support, k_max, "max_iter")
        alpha = restricted_least_squares(cols, y, support, b)
        seen[support] = len(history)
        history.append((support, alpha))
        prev = support
    return RecoveryResult(alpha, prev, k_max, "max_iter")


def hihtp_recover(op, y, s_block: int, s_entry: int, k_max: int = 20) -> RecoveryResult:
    """Hierarchical hard thresholding pursuit.

    ``op`` is a MeasurementOperator: the pursuit runs on the column
    structure built with it, ``op.columns``, on its block grid of
    ``op.l_taps`` blocks of ``op.block_size``.  Stops when the selected
    support repeats or after ``k_max`` iterations; the estimate is
    hierarchically sparse with exact zeros off the support.  Once the
    supports cycle, the iterations left to ``k_max`` are read off the
    cycle rather than recomputed, with the same result as the full
    ``k_max`` iterations.
    """
    nb, bs = op.l_taps, op.block_size
    return _pursuit(
        op.columns, y, lambda g: hierarchical_threshold(g, nb, bs, s_block, s_entry), k_max
    )


def htp_recover(op, y, s: int, k_max: int = 20) -> RecoveryResult:
    """Classical pursuit baseline: flat top-s thresholding on the operator's grid."""
    nb, bs = op.l_taps, op.block_size
    return _pursuit(op.columns, y, lambda g: flat_threshold(g, nb, bs, s), k_max)

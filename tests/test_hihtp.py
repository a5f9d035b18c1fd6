import dataclasses
import tracemalloc
from collections import Counter
from itertools import combinations, cycle, product
from types import SimpleNamespace

import numpy as np
import pytest

from afdm_sense import (
    AfdmParams,
    PilotScheme,
    SupportSet,
    build_measurement_operator,
    build_pilot_frame,
    flat_threshold,
    hierarchical_threshold,
    hihtp_recover,
    htp_recover,
    idaft_modulate,
    restricted_least_squares,
)
from afdm_sense import hihtp
from afdm_sense.hihtp import _GRAM_COND_MAX, RecoveryResult, _Columns, _pursuit


def all_hierarchical_supports(n_blocks, block_size, s_block, s_entry):
    for blocks in combinations(range(n_blocks), s_block):
        pools = [combinations(range(block_size), s_entry) for _ in blocks]
        for picks in product(*pools):
            yield SupportSet(
                [b * block_size + j for b, pick in zip(blocks, picks) for j in pick], block_size
            )


def best_support_oracle(x, n_blocks, block_size, s_block, s_entry):
    """Exhaustive best (s_block, s_entry)-approximation by kept energy."""
    best, best_energy = None, -1.0
    for sup in all_hierarchical_supports(n_blocks, block_size, s_block, s_entry):
        energy = sum(abs(x[b * block_size + j]) ** 2 for b, j in sup.pairs)
        if energy > best_energy + 1e-15:
            best, best_energy = sup, energy
    return best


def exhaustive_recovery_oracle(op, y, s_block, s_entry):
    best, best_res = None, np.inf
    for sup in all_hierarchical_supports(op.l_taps, op.block_size, s_block, s_entry):
        z = restricted_least_squares(op, y, sup)
        res = np.linalg.norm(y - op.matrix @ z)
        if res < best_res - 1e-12:
            best, best_res = z, res
    return best


def test_threshold_fixed_point():
    x = np.array([0, 2.0, 0, 0, 0, 3j], dtype=complex)
    sup = hierarchical_threshold(x, 2, 3, 2, 1)
    assert sup == SupportSet([1, 5], 3)


def test_threshold_examples():
    x = np.array([1, -3, 2, 0.5, 0.1, 0], dtype=complex)
    sup = hierarchical_threshold(x, 2, 3, 1, 2)
    assert sup == SupportSet([1, 2], 3)
    kept = np.zeros_like(x)
    kept[sup.indices] = x[sup.indices]
    assert np.array_equal(kept, np.array([0, -3, 2, 0, 0, 0], dtype=complex))
    sup2 = hierarchical_threshold(x, 2, 3, 2, 1)
    assert sup2 == SupportSet([1, 3], 3)
    kept2 = np.zeros_like(x)
    kept2[sup2.indices] = x[sup2.indices]
    assert np.array_equal(kept2, np.array([0, -3, 0, 0.5, 0, 0], dtype=complex))


def test_threshold_matches_exhaustive_oracle():
    rng = np.random.default_rng(0)
    for _ in range(120):
        n_blocks = int(rng.integers(2, 5))
        block_size = int(rng.integers(2, 5))
        s_block = int(rng.integers(1, n_blocks + 1))
        s_entry = int(rng.integers(1, block_size + 1))
        x = rng.standard_normal(n_blocks * block_size) + 1j * rng.standard_normal(
            n_blocks * block_size
        )
        got = hierarchical_threshold(x, n_blocks, block_size, s_block, s_entry)
        assert got == best_support_oracle(x, n_blocks, block_size, s_block, s_entry)


def test_threshold_tie_break_lowest_index():
    x = np.array([1.0, 1.0, 0, 1.0, 0, 0], dtype=complex)
    sup = hierarchical_threshold(x, 2, 3, 1, 1)
    assert sup == SupportSet([0], 3)
    sup2 = hierarchical_threshold(np.zeros(6, dtype=complex), 2, 3, 1, 2)
    assert sup2 == SupportSet([0, 1], 3)


def test_threshold_validates():
    with pytest.raises(ValueError):
        hierarchical_threshold(np.zeros(5), 2, 3, 1, 1)
    with pytest.raises(ValueError):
        hierarchical_threshold(np.zeros(6), 2, 3, 3, 1)
    with pytest.raises(ValueError):
        hierarchical_threshold(np.zeros(6), 2, 3, 1, 4)


def test_support_set_helpers():
    sup = SupportSet([5, 1], 3)
    assert sup.indices.tolist() == [1, 5] and sup.indices.dtype == np.int64
    assert sup.pairs == ((0, 1), (1, 2))
    assert len(sup) == 2
    assert sup.is_hierarchical(2, 1)
    assert not sup.is_hierarchical(1, 2)
    assert SupportSet([], 3).pairs == () and SupportSet([], 3).is_hierarchical(1, 1)
    for duplicated in ([0, 0], [5, 1, 5], np.array([[3, 4], [4, 7]])):
        with pytest.raises(ValueError, match="duplicate"):
            SupportSet(duplicated, 3)


def test_support_equality_and_hash_follow_the_indices():
    x = np.zeros(12, dtype=complex)
    x[[7, 2, 9]] = [3.0, 2.0, 1.0]
    supports = [
        SupportSet([2, 7, 9], 3),
        SupportSet(np.array([9, 2, 7], dtype=np.int32), 3),
        hierarchical_threshold(x, 4, 3, 3, 1),
        flat_threshold(x, 4, 3, 3),
    ]
    for sup in supports:
        assert sup == supports[0] and hash(sup) == hash(supports[0])
    assert len(set(supports)) == 1
    # the same indices on another block grid are another support
    assert SupportSet([2, 7, 9], 4) != supports[0]
    assert SupportSet([2, 7], 3) != supports[0]
    assert supports[0] != [2, 7, 9]


def test_support_indices_are_read_only():
    source = np.array([4, 1])
    sup = SupportSet(source, 3)
    key = hash(sup)
    seen = {sup: 0}
    with pytest.raises(ValueError, match="read-only"):
        sup.indices[0] = 7
    with pytest.raises(dataclasses.FrozenInstanceError):
        sup.indices = np.array([7])
    # the support holds its own copy, so writing to its source changes nothing
    source[0] = 7
    assert sup.indices.tolist() == [1, 4] and hash(sup) == key
    assert seen[SupportSet([1, 4], 3)] == 0


def test_is_hierarchical_matches_brute_force_count():
    rng = np.random.default_rng(31)
    for _ in range(300):
        n_blocks, block_size = (int(v) for v in rng.integers(1, 6, size=2))
        size = n_blocks * block_size
        flat = rng.choice(size, rng.integers(0, size + 1), replace=False)
        sup = SupportSet(flat, block_size)
        s_block, s_entry = int(rng.integers(1, n_blocks + 1)), int(rng.integers(1, block_size + 1))
        counts = Counter(i // block_size for i in flat.tolist())
        expected = len(counts) <= s_block and all(c <= s_entry for c in counts.values())
        assert sup.is_hierarchical(s_block, s_entry) == expected


def test_restricted_ls_unitary_full_support():
    rng = np.random.default_rng(1)
    a = np.linalg.qr(rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6)))[0]
    y = rng.standard_normal(6) + 1j * rng.standard_normal(6)
    sup = SupportSet(range(6), 3)
    cols = _Columns.from_dense(a)
    z = restricted_least_squares(cols, y, sup)
    assert np.abs(z - a.conj().T @ y).max() < 1e-10
    # the empty support fits nothing
    empty = restricted_least_squares(cols, y, SupportSet([], 3))
    assert empty.shape == (6,) and not empty.any()


def test_restricted_ls_consistent_system():
    rng = np.random.default_rng(2)
    a = rng.standard_normal((12, 9)) + 1j * rng.standard_normal((12, 9))
    alpha = np.zeros(9, dtype=complex)
    sup = SupportSet([1, 6], 3)
    idx = sup.indices
    alpha[idx] = [1.5, -2j]
    z = restricted_least_squares(_Columns.from_dense(a), a @ alpha, sup)
    assert np.abs(z - alpha).max() < 1e-10
    off = np.ones(9, dtype=bool)
    off[idx] = False
    assert not z[off].any()


def test_restricted_ls_rank_deficient_minimum_norm():
    rng = np.random.default_rng(3)
    col = rng.standard_normal(8) + 1j * rng.standard_normal(8)
    a = np.stack([col, col, rng.standard_normal(8) + 0j], axis=1)
    y = rng.standard_normal(8) + 1j * rng.standard_normal(8)
    sup = SupportSet([0, 1, 2], 3)
    z = restricted_least_squares(_Columns.from_dense(a), y, sup)
    oracle = np.linalg.pinv(a) @ y  # SVD pseudo-inverse: minimum-norm solution
    assert np.abs(z[:3] - oracle).max() < 1e-10


def test_restricted_ls_overdetermined_support_rejected():
    a = _Columns.from_dense(np.eye(2, dtype=complex))
    sup = SupportSet([0, 1, 2], 2)
    with pytest.raises(ValueError, match="exceeds"):
        restricted_least_squares(a, np.zeros(2, dtype=complex), sup)
    with pytest.raises(ValueError, match="shape"):
        restricted_least_squares(a, np.zeros(3, dtype=complex), SupportSet([0], 2))
    for outside in ([-1], [2]):
        with pytest.raises(ValueError, match="outside"):
            restricted_least_squares(a, np.zeros(2, dtype=complex), SupportSet(outside, 2))


def dense_operator(matrix, block_size):
    """What the pursuits read of an operator, for a dense matrix on a grid
    of ``block_size`` columns a block."""
    cols = _Columns.from_dense(matrix)
    return SimpleNamespace(columns=cols, l_taps=cols.shape[1] // block_size, block_size=block_size)


def lstsq_reference(matrix, y, support):
    idx = support.indices
    z = np.zeros(matrix.shape[1], dtype=complex)
    z[idx] = np.linalg.lstsq(matrix[:, idx], y, rcond=1e-10)[0]
    return z


def paper_operator(n_pilots=8, **layout):
    # the C4 sweep geometry, by default its n_p=8 cell: n=4096, L=30, Q=7, chirp numerator 1
    params = AfdmParams(n=4096, chirp_num=1, cpp_len=64)
    scheme = PilotScheme.uniform(params, n_pilots, 30, 7, amplitude=25.0, **layout)
    return build_measurement_operator(scheme, params, 30, 7)


def subnyquist_operator():
    # the reduced train of the sub-Nyquist benchmark config: 255 pilots, L=8, Q=3
    params = AfdmParams(n=4096, chirp_num=1, cpp_len=7)
    scheme = PilotScheme.uniform(params, 255, 8, 3, overlap_mode="reduced")
    return build_measurement_operator(scheme, params, 8, 3)


@pytest.fixture(scope="module")
def structured_systems():
    """(matrix, y, support) for the paper n_p=8 operator with a
    rank-deficient hierarchical support, the sub-Nyquist operator on its
    full support, a dense Gaussian matrix, and a rank-deficient dense matrix
    whose third column is the sum of the first two."""
    rng = np.random.default_rng(20)
    systems = []
    op = paper_operator()
    sup = hierarchical_threshold(
        rng.standard_normal(op.shape[1]) + 1j * rng.standard_normal(op.shape[1]), 30, 15, 15, 8
    )
    systems.append((op.matrix, sup))
    op = subnyquist_operator()
    systems.append((op.matrix, SupportSet(np.arange(op.shape[1]), 7)))
    dense = rng.standard_normal((40, 24)) + 1j * rng.standard_normal((40, 24))
    systems.append((dense, SupportSet(rng.choice(24, 10, replace=False), 3)))
    dependent = rng.standard_normal((12, 6)) + 1j * rng.standard_normal((12, 6))
    dependent[:, 2] = dependent[:, 0] + dependent[:, 1]
    systems.append((dependent, SupportSet(range(6), 3)))
    return [
        (m, rng.standard_normal(m.shape[0]) + 1j * rng.standard_normal(m.shape[0]), sup)
        for m, sup in systems
    ]


@pytest.fixture(scope="module")
def certified_systems():
    """(operator, y, support) for the operators whose refits skip
    the SVD: the paper n_p=8, 16 and 32 operators and the sub-Nyquist
    operator, each with random hierarchical supports whose blocks hold
    between one column and a full block.  The n_p=8 supports take at most
    20 blocks, so they fit its 352 observations, plus one pair of columns
    that alias onto one Fourier column: taps l and l+8 at Dopplers q and q+8."""
    rng = np.random.default_rng(23)
    systems = []
    for op, n_blocks, max_blocks, bs, draws in (
        (paper_operator(8), 30, 20, 15, 6),
        (paper_operator(16), 30, 30, 15, 3),
        (paper_operator(32), 30, 30, 15, 3),
        (subnyquist_operator(), 8, 8, 7, 3),
    ):
        for _ in range(draws):
            blocks = rng.choice(n_blocks, rng.integers(2, max_blocks + 1), replace=False)
            sizes = rng.integers(1, bs + 1, len(blocks))
            sizes[0] = 1
            flat = [b * bs + rng.choice(bs, k, replace=False) for b, k in zip(blocks, sizes)]
            if op.shape[0] == 352:
                tap, doppler = rng.integers(0, 22), rng.integers(0, 7)
                flat.append(np.array([tap * bs + doppler, (tap + 8) * bs + doppler + 8]))
            y = rng.standard_normal(op.shape[0]) + 1j * rng.standard_normal(op.shape[0])
            systems.append((op, y, SupportSet(np.unique(np.concatenate(flat)), bs)))
    return systems


def test_restricted_ls_matches_dense_lstsq(structured_systems, certified_systems):
    ranks = []
    paths = ("scale", "solve", "solve", "svd")
    for (matrix, y, sup), path in zip(structured_systems, paths, strict=True):
        cols = _Columns.from_dense(matrix)
        assert cols.refit == path
        ref = lstsq_reference(matrix, y, sup)
        got = restricted_least_squares(cols, y, sup)
        assert np.linalg.norm(got - ref) <= 1e-10 * np.linalg.norm(ref)
        sv = np.linalg.svd(matrix[:, sup.indices], compute_uv=False)
        ranks.append(int((sv > 1e-10 * sv[0]).sum()))
    # the paper n_p=8 and the dependent supports are rank-deficient, the others
    # have full column rank
    assert len(structured_systems[0][2]) == 120 and ranks[0] < 120
    assert ranks[1:] == [56, 10, 5]
    group_sizes = set()
    # the paper operators refit by scaling, the sub-Nyquist one by a solve
    paths = ["scale"] * 12 + ["solve"] * 3
    for (op, y, sup), path in zip(certified_systems, paths, strict=True):
        assert op.columns.refit == path
        ref = lstsq_reference(op.matrix, y, sup)
        got = restricted_least_squares(op.columns, y, sup)
        assert np.linalg.norm(got - ref) <= 1e-12 * np.linalg.norm(ref)
        idx = sup.indices
        counts = np.bincount(op.columns.comp[idx])
        group_sizes.update(counts[counts > 0].tolist())
        if op.shape[0] == 352:
            # every n_p=8 support holds Dopplers that alias onto one column
            assert len(np.unique(op.columns.alias[idx])) < len(idx)
    # the supports split into component groups of unequal size, one column included
    assert 1 in group_sizes and len(group_sizes) > 3


def test_scale_refit_on_parallel_classes():
    # two exactly parallel columns and one orthogonal to both: two classes
    rng = np.random.default_rng(26)
    y = rng.standard_normal(6) + 1j * rng.standard_normal(6)
    col = np.array([1.0, 2.0j, -1.0, 0.0, 0.0, 0.0])
    matrix = np.stack([col, (2.0 - 1.0j) * col, [0, 0, 0, 3.0, 1.0j, 0]], axis=1)
    sup = SupportSet(range(3), 3)
    cols = _Columns.from_dense(matrix)
    assert cols.refit == "scale" and cols.alias[0] == cols.alias[1] != cols.alias[2]
    ref = lstsq_reference(matrix, y, sup)
    got = restricted_least_squares(cols, y, sup)
    assert np.linalg.norm(got - ref) <= 1e-12 * np.linalg.norm(ref)
    # pairs at sine 1e-6 and 1e-9: their squared sines from the Gram are
    # 1e-12 and exactly 0, but the projection residuals are 1e-6 and 1e-9 of
    # the column
    for sine in (1e-9, 1e-6):
        tilted = matrix.copy()
        tilted[:, 1] = col + sine * np.linalg.norm(col) * np.eye(6)[5]
        cols = _Columns.from_dense(tilted)
        assert cols.refit != "scale" and cols.alias is None
    ref = lstsq_reference(tilted, y, sup)
    got = restricted_least_squares(cols, y, sup)
    assert np.linalg.norm(got - ref) <= 1e-8 * np.linalg.norm(ref)
    # parallel pairs must partition the columns: a Gram block linking column
    # 0 to column 1 but not 1 to 0 gives no classes
    a = np.array([[[1.0, 2.0], [0.0, 0.0]]], dtype=complex)
    gram = np.array([[[1.0, 2.0], [0.0, 4.0]]], dtype=complex)
    assert hihtp._parallel_classes(a, gram, np.array([2])) is None
    hermitian = a.conj().transpose(0, 2, 1) @ a
    assert hihtp._parallel_classes(a, hermitian, np.array([2])).tolist() == [[0, 0]]
    # orthogonal columns of norms 1 and 1e-11: the weak one is dropped by the
    # global rank rule, as lstsq(rcond=1e-10) drops it
    weak = np.diag([1.0, 1e-11, 0.0])[:, :2] + 0j
    sup = SupportSet(range(2), 2)
    y = y[:3]
    cols = _Columns.from_dense(weak)
    assert cols.refit == "scale"
    got = restricted_least_squares(cols, y, sup)
    assert got[1] == 0.0 and np.abs(got - lstsq_reference(weak, y, sup)).max() <= 1e-15


def test_restricted_ls_rank_rule_is_global():
    # two independent blocks, the second 1e-11 times weaker: a dense SVD solve
    # drops it by the 1e-10 relative rule taken over the whole system
    rng = np.random.default_rng(21)
    a = rng.standard_normal((4, 2)) + 1j * rng.standard_normal((4, 2))
    matrix = np.zeros((8, 4), dtype=complex)
    matrix[:4, :2] = a
    matrix[4:, 2:] = 1e-11 * a
    y = rng.standard_normal(8) + 1j * rng.standard_normal(8)
    sup = SupportSet(range(4), 2)
    got = restricted_least_squares(_Columns.from_dense(matrix), y, sup)
    assert np.abs(got - lstsq_reference(matrix, y, sup)).max() < 1e-10
    assert not got[2:].any()


def test_column_structure_products_match_dense(structured_systems):
    rng = np.random.default_rng(22)
    for matrix, y, _ in structured_systems:
        cols = _Columns.from_dense(matrix)
        x = rng.standard_normal(matrix.shape[1]) + 1j * rng.standard_normal(matrix.shape[1])
        ref = matrix @ x
        assert np.linalg.norm(cols.matvec(x) - ref) <= 1e-12 * np.linalg.norm(ref)
        ref = matrix.conj().T @ y
        assert np.linalg.norm(cols.rmatvec(y) - ref) <= 1e-12 * np.linalg.norm(ref)
        assert cols.sq_norm == pytest.approx(np.vdot(matrix, matrix).real, rel=1e-12)


def count_calls(monkeypatch, name="svd"):
    calls = []
    func = getattr(np.linalg, name)

    def counting(*args, **kwargs):
        calls.append(1)
        return func(*args, **kwargs)

    monkeypatch.setattr(np.linalg, name, counting)
    return calls


def test_column_structure_certificate(monkeypatch):
    # a "scale" build takes its certificate from the column norms and no
    # SVD, also once the certificate is read; columns within a component are
    # exactly orthogonal at n_p=16 and 32, and 8 pilots give components of
    # 15 columns on 8 rows, whose parallel classes hold two or more columns
    calls = count_calls(monkeypatch)
    for n_pilots in (8, 16, 32):
        cols = paper_operator(n_pilots).columns
        assert cols.refit == "scale"
        assert cols.cond == np.inf if n_pilots == 8 else abs(cols.cond - 1.0) <= 1e-12
        assert not calls
    # any other build takes the components' singular values once, to choose its refit
    cols = subnyquist_operator().columns
    assert cols.refit == "solve" and len(calls) == 1
    assert 1.0 < cols.cond <= _GRAM_COND_MAX and len(calls) == 1
    monkeypatch.undo()
    # contiguous and reduced layouts link most pairs of a component; the Gram
    # rules them out as parallel before any projection residual is formed
    norm = np.linalg.norm
    residuals = []
    monkeypatch.setattr(np.linalg, "norm", lambda *a, **k: residuals.append(1) or norm(*a, **k))
    for n_pilots in (16, 32):
        for layout in (dict(contiguous=True), dict(overlap_mode="reduced")):
            cols = paper_operator(n_pilots, **layout).columns
            assert cols.cond > _GRAM_COND_MAX and cols.refit == "svd" and cols.alias is None
    assert not residuals
    monkeypatch.undo()
    # orthogonal columns of unequal norm scale, whatever their certificate;
    # columns neither orthogonal nor parallel with a certificate above the
    # bound take the SVD
    assert _Columns.from_dense(np.diag([1.0, 2.0, 4.0])).refit == "scale"
    assert _Columns.from_dense(np.diag([1.0, 2e3])).refit == "scale"
    assert _Columns.from_dense(np.array([[1.0, 1.0], [0.0, 1e-4]])).refit == "svd"
    # a zero column is a component without rows
    assert _Columns.from_dense(np.eye(3, 2) * [1.0, 0.0]).cond == np.inf
    assert _Columns.from_dense(np.array([[1.0, 1.0], [1.0, 1.0], [0.0, 0.0]])).cond > _GRAM_COND_MAX
    assert _Columns.from_dense(np.diag([1.0, 2.0, 4.0])).cond == pytest.approx(4.0, rel=1e-15)


@pytest.mark.parametrize(
    "n_pilots, layout, lstsq_calls",
    [(8, {}, False), (16, {}, False), (32, {}, False), (16, dict(contiguous=True), True)],
    ids=["8-False", "16-False", "32-False", "16-contiguous-True"],
)
def test_certified_refits_skip_svd(n_pilots, layout, lstsq_calls, monkeypatch):
    # any certificate is taken at build; only the "svd" refits call the
    # SVD-based dense least-squares solve
    op = paper_operator(n_pilots, **layout)
    svd_calls, calls = count_calls(monkeypatch), count_calls(monkeypatch, "lstsq")
    res = hihtp_recover(op, paper_trial(op, 0), 15, 8)
    assert bool(calls) == lstsq_calls and not svd_calls
    assert res.support.is_hierarchical(15, 8)


def test_column_structure_components(structured_systems):
    cols = paper_operator().columns
    # shift classes of the paper operator: each column hits its class's 8 rows
    assert cols.comp.max() + 1 == 44
    assert np.bincount(cols.comp).max() == 15
    assert cols.rows.shape == (450, 8)
    for c in range(44):
        members = np.flatnonzero(cols.comp == c)
        assert all(set(cols.rows[j]) == set(cols.rows[members[0]]) for j in members)
    cols = subnyquist_operator().columns
    assert cols.comp.max() + 1 == 8 and np.bincount(cols.comp).tolist() == [7] * 8
    assert cols.rows.shape == (56, 255)
    assert not _Columns.from_dense(structured_systems[2][0]).comp.any()
    # a bidiagonal chain links its ends only through every column between them
    chain = np.eye(7, 6, dtype=complex) + np.eye(7, 6, k=-1)
    chain[:, 5] = 0.0
    assert _Columns.from_dense(chain).comp.tolist() == [0, 0, 0, 0, 0, 1]


@pytest.mark.parametrize(
    "n, layout, chirp",
    [
        (256, dict(), dict()),
        (256, dict(contiguous=True), dict()),
        (256, dict(overlap_mode="reduced"), dict()),
        (256, dict(), dict(chirp_sign=-1, c2=0.37)),
        (256, dict(overlap_mode="reduced"), dict(chirp_sign=-1, chirp_num=2, c2=-0.21)),
        (256, dict(start=0), dict(chirp_num=2, c2=0.11)),
        (4096, dict(), dict(c2=0.137)),
        (4096, dict(overlap_mode="reduced"), dict(chirp_sign=-1, chirp_num=3, c2=0.137)),
        (16384, dict(overlap_mode="reduced"), dict(chirp_num=3, c2=0.2)),
        (16384, dict(), dict(chirp_sign=-1, c2=0.2)),
    ],
    ids=[
        "disjoint", "contiguous", "reduced", "negative-c2", "reduced-negative-p2", "wrapped",
        "4096-c2", "4096-reduced-negative-c2", "16384-reduced-c2", "16384-negative-c2",
    ],
)
def test_built_structure_matches_dense_adapter(n, layout, chirp):
    # the build hands its hits over unsorted (the first pilot's window wraps
    # past index 0 in the "wrapped" case); the structure must equal the one
    # the dense adapter derives from the dense view
    l_taps, q_max = 6, 2
    params = AfdmParams(n=n, cpp_len=5, **{"chirp_num": 1, **chirp})
    layout = dict(layout)
    start = layout.pop("start", None)
    scheme = PilotScheme.uniform(params, 6, l_taps, q_max, **layout)
    if start is not None:  # the same train, shifted mod n to its first pilot
        shift = start - scheme.positions[0]
        scheme = dataclasses.replace(scheme, positions=[(m + shift) % n for m in scheme.positions])
    op = build_measurement_operator(scheme, params, l_taps, q_max)
    # the build's closed form against the transform chain: the pilot frame,
    # delayed by each tap and de-chirped, with Doppler q shifting its
    # spectrum by q bins
    s_p = idaft_modulate(build_pilot_frame(scheme, params, l_taps, q_max), params)
    first, second = params.chirps
    taps = np.arange(l_taps)
    spectra = np.fft.fft(first * s_p[(np.arange(n) - taps[:, None]) % n], axis=1, norm="ortho")
    base = (np.asarray(scheme.positions)[:, None] - params.chirp_sign * params.chirp_num * taps) % n
    hits = ((base[:, :, None] + np.arange(-q_max, q_max + 1)) % n).reshape(len(base), -1)
    vals = second[hits] * spectra[taps, base].repeat(2 * q_max + 1, 1)
    chain = _Columns(op.shape[0], np.searchsorted(op.row_indices, hits).T, vals.T)
    assert np.array_equal(op.columns.rows, chain.rows)
    # round-off only: under 4x the worst measured over these cases (7.1e-16)
    assert np.abs(op.columns.vals - chain.vals).max() <= 2.8e-15 * np.abs(chain.vals).max()
    built, ref = op.columns, _Columns.from_dense(op.matrix)
    assert built.shape == ref.shape == op.matrix.shape
    for name in ("rows", "vals", "comp", "slot", "gram", "alias"):
        assert np.array_equal(getattr(built, name), getattr(ref, name)), name
    assert built.cond == ref.cond and built.sq_norm == ref.sq_norm
    rng = np.random.default_rng(24)
    x = rng.standard_normal(op.shape[1]) + 1j * rng.standard_normal(op.shape[1])
    y = rng.standard_normal(op.shape[0]) + 1j * rng.standard_normal(op.shape[0])
    assert np.array_equal(built.matvec(x), ref.matvec(x))
    assert np.array_equal(built.rmatvec(y), ref.rmatvec(y))
    assert np.linalg.norm(built.matvec(x) - op.matrix @ x) <= 1e-12 * np.linalg.norm(x)
    # any columns, in any order, scatter to the same bytes as the dense view's
    idx = rng.choice(op.shape[1], size=op.shape[1] // 3, replace=False)
    assert built.dense(idx).tobytes() == op.matrix[:, idx].tobytes()


def test_repeated_hits_on_a_row_add_up():
    # three columns of hits on four rows, padded with row 4: column 0 lists
    # row 2 twice and out of order, column 1 lists row 1 three times with
    # padding among them, column 2 lists its two rows out of order
    rng = np.random.default_rng(31)
    a, b, c, d, e, f, g, h = rng.standard_normal(8) + 1j * rng.standard_normal(8)
    rows = [[2, 0, 2, 4], [1, 4, 1, 1], [3, 0, 4, 4]]
    vals = [[a, b, c, 0], [d, 0, e, f], [g, h, 0, 0]]
    cols = _Columns(4, rows, vals)
    # the same hits with each row's added up in the given order
    merged = _Columns(4, [[0, 2], [1, 4], [0, 3]], [[b, a + c], [d + e + f, 0], [h, g]])
    for name in ("gram", "diag", "comp", "cell"):
        assert getattr(cols, name).tobytes() == getattr(merged, name).tobytes(), name
    assert (cols.sq_norm, cols.cond, cols.refit) == (merged.sq_norm, merged.cond, merged.refit)
    x = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    normal = cols.rmatvec(cols.matvec(x))
    assert np.linalg.norm(cols.gram_matvec(x) - normal) <= 1e-12 * np.linalg.norm(normal)
    # the Gram diagonal and the squared Frobenius norm count both hits on row 0
    ones = _Columns(3, [[0, 0, 1], [1, 2, 3]], [[1, 1, 1], [1, 1, 0]])
    assert ones.gram[0, 0, 0] == ones.rmatvec(ones.matvec(np.eye(2)[0]))[0] == 5
    assert ones.sq_norm == 7


@pytest.fixture(scope="module")
def gradient_operators():
    """(column structure, dense matrix) of the paper n_p=8, 16 and 32
    operators, the sub-Nyquist operator and a dense Gaussian matrix."""
    ops = [paper_operator(8), paper_operator(16), paper_operator(32), subnyquist_operator()]
    dense = np.random.default_rng(25).standard_normal((40, 24)) + 0.5j
    return [(op.columns, op.matrix) for op in ops] + [(_Columns.from_dense(dense), dense)]


def sparse_coefficients(rng, ncols, k):
    alpha = np.zeros(ncols, dtype=complex)
    alpha[rng.choice(ncols, k, replace=False)] = rng.standard_normal(k) + 1j * rng.standard_normal(k)
    return alpha


def test_gram_gradient_matches_observation_domain(gradient_operators):
    # the pursuit's gradient alpha + step (M^H y - G alpha) against the one
    # formed from the residual in the observation domain
    rng = np.random.default_rng(26)
    for cols, matrix in gradient_operators:
        m, ncols = matrix.shape
        step = ncols / cols.sq_norm
        y = rng.standard_normal(m) + 1j * rng.standard_normal(m)
        for k in (0, 1, ncols // 4, ncols):
            alpha = sparse_coefficients(rng, ncols, k)
            ref = alpha + step * (matrix.conj().T @ (y - matrix @ alpha))
            got = alpha + step * (cols.rmatvec(y) - cols.gram_matvec(alpha))
            assert np.linalg.norm(got - ref) <= 1e-12 * np.linalg.norm(ref)


def test_rmatvec_equals_conjugated_hits_form(gradient_operators):
    # rmatvec conjugates the observations and the sums, not every hit; for
    # observations with no exact zero the bytes match, and otherwise only
    # the sign of an exactly zero sum may differ.  It conjugates into a
    # padded buffer of its own: the bytes are those of conjugating,
    # appending the padding zero and gathering, zeros of either sign included
    rng = np.random.default_rng(29)
    for cols, _ in gradient_operators:
        m = cols.shape[0]
        for k in range(50):
            r = rng.standard_normal(m) + 1j * rng.standard_normal(m)
            if k % 5 == 4:
                r[rng.random(m) < 0.5] = -0.0 if k % 10 == 4 else 0.0
            ref = (cols.vals.conj() * np.append(r, 0.0)[cols.rows]).sum(axis=1)
            got = cols.rmatvec(r)
            appended = np.conj((cols.vals * np.append(np.conj(r), 0.0)[cols.rows]).sum(axis=1))
            assert got.tobytes() == appended.tobytes()
            if k % 5 == 4:
                assert np.array_equal(got, ref)
            else:
                assert got.tobytes() == ref.tobytes()


def test_support_scatter_equals_full_scatter(gradient_operators):
    # matvec scatters only the columns where x is nonzero; the scatter over
    # every column's hits gives the same bytes
    rng = np.random.default_rng(27)
    for cols, _ in gradient_operators:
        m, ncols = cols.shape
        for k in (0, 1, ncols // 4, ncols):
            x = sparse_coefficients(rng, ncols, k)
            contrib = (cols.vals * x[:, None]).ravel()
            rows = cols.rows.ravel()
            full = np.bincount(rows, weights=contrib.real, minlength=m + 1) + 1j * np.bincount(
                rows, weights=contrib.imag, minlength=m + 1
            )
            assert cols.matvec(x).tobytes() == full[:-1].tobytes()


def test_pursuit_reads_observations_once(paper_np8, monkeypatch):
    calls = []
    rmatvec = _Columns.rmatvec

    def counting(self, r):
        calls.append(1)
        return rmatvec(self, r)

    monkeypatch.setattr(_Columns, "rmatvec", counting)
    op, observations = paper_np8
    for y in observations[:2]:
        calls.clear()
        assert hihtp_recover(op, y, 15, 8).iterations == 20
        assert len(calls) == 1
    op = subnyquist_operator()
    calls.clear()
    res = htp_recover(op, op.columns.matvec((np.arange(56) % 5 == 0).astype(complex)) + 0.1, 12)
    assert res.iterations > 1 and len(calls) == 1


def small_operator(n=32, l_taps=4, q_max=1, n_pilots=4, chirp_num=1):
    params = AfdmParams(n=n, chirp_num=chirp_num, cpp_len=l_taps - 1)
    scheme = PilotScheme.uniform(params, n_pilots, l_taps, q_max)
    return build_measurement_operator(scheme, params, l_taps, q_max)


def test_hihtp_zero_observations_give_zero():
    op = small_operator()
    res = hihtp_recover(op, np.zeros(op.shape[0], dtype=complex), 2, 1)
    assert not res.alpha.any()
    assert res.converged_by == "support_fixed"


def test_hihtp_single_path_two_iterations():
    op = small_operator()
    nd = 3
    alpha = np.zeros(op.shape[1], dtype=complex)
    alpha[2 * nd + 1] = 1.3 - 0.4j
    res = hihtp_recover(op, op.matrix @ alpha, 1, 1)
    assert res.iterations <= 2
    assert np.linalg.norm(res.alpha - alpha) < 1e-8
    # oracle: least squares on the true support
    oracle = restricted_least_squares(op, op.matrix @ alpha, res.support)
    assert np.linalg.norm(res.alpha - oracle) < 1e-10


def test_hihtp_matches_exhaustive_oracle_noise_free():
    op = small_operator()
    wins = 0
    for t in range(100):
        rng = np.random.default_rng([7, t])
        alpha = np.zeros(op.shape[1], dtype=complex)
        for b in rng.choice(4, 2, replace=False):
            j = int(rng.integers(0, 3))
            alpha[b * 3 + j] = rng.standard_normal() + 1j * rng.standard_normal()
        y = op.matrix @ alpha
        res = hihtp_recover(op, y, 2, 1)
        oracle = exhaustive_recovery_oracle(op, y, 2, 1)
        if np.linalg.norm(res.alpha - oracle) <= 1e-8:
            wins += 1
    assert wins >= 95


def test_hihtp_output_is_hierarchically_sparse():
    op = small_operator()
    rng = np.random.default_rng(8)
    y = rng.standard_normal(op.shape[0]) + 1j * rng.standard_normal(op.shape[0])
    res = hihtp_recover(op, y, 2, 1)
    assert res.support.is_hierarchical(2, 1)
    off = np.ones(op.shape[1], dtype=bool)
    off[res.support.indices] = False
    assert not res.alpha[off].any()


def test_hihtp_deterministic():
    op = small_operator()
    rng = np.random.default_rng(9)
    y = rng.standard_normal(op.shape[0]) + 1j * rng.standard_normal(op.shape[0])
    r1 = hihtp_recover(op, y.copy(), 2, 1)
    r2 = hihtp_recover(op, y.copy(), 2, 1)
    assert r1.support == r2.support
    assert np.array_equal(r1.alpha, r2.alpha)


def test_noise_free_error_decays_geometrically():
    op = small_operator(n=64, l_taps=4, q_max=1, n_pilots=6)
    # every ratio ||M x||^2 / ||x||^2 lies within a factor cond^2 of every other
    assert op.columns.cond**2 < 3.0  # conditioned configuration
    rng = np.random.default_rng(11)
    errors = []
    for t in range(20):
        alpha = np.zeros(op.shape[1], dtype=complex)
        for b in rng.choice(4, 2, replace=False):
            alpha[b * 3 + int(rng.integers(0, 3))] = rng.standard_normal() + 1j * rng.standard_normal()
        y = op.matrix @ alpha
        # run one and two iterations and compare distances to the truth
        r1 = hihtp_recover(op, y, 2, 1, k_max=1)
        r2 = hihtp_recover(op, y, 2, 1, k_max=2)
        e0 = np.linalg.norm(alpha)
        e1 = np.linalg.norm(r1.alpha - alpha)
        e2 = np.linalg.norm(r2.alpha - alpha)
        errors.append((e0, e1, e2))
    for e0, e1, e2 in errors:
        assert e1 < e0 or e1 < 1e-10
        assert e2 <= e1 + 1e-12


def test_htp_full_sparsity_is_unrestricted_least_squares():
    op = small_operator(n=64, l_taps=4, q_max=1, n_pilots=6)
    rng = np.random.default_rng(12)
    y = rng.standard_normal(op.shape[0]) + 1j * rng.standard_normal(op.shape[0])
    res = htp_recover(op, y, op.shape[1], k_max=5)
    direct, *_ = np.linalg.lstsq(op.matrix, y, rcond=None)
    assert np.abs(res.alpha - direct).max() < 1e-8


def test_htp_single_path_agrees_with_hihtp():
    op = small_operator()
    alpha = np.zeros(op.shape[1], dtype=complex)
    alpha[7] = 2.0 + 1j
    y = op.matrix @ alpha
    flat = htp_recover(op, y, 1)
    hier = hihtp_recover(op, y, 1, 1)
    assert flat.support == hier.support
    assert np.abs(flat.alpha - hier.alpha).max() < 1e-10


def test_adversarial_instance_separates_hihtp_from_htp():
    """Duplicated in-block columns trap flat thresholding; the hierarchical
    operator is forced to spread across blocks and recovers exactly."""
    col_a = np.array([1.0, 0.0, 0.0, 0.0], dtype=complex)
    col_b = np.array([0.0, 1.0, 0.0, 0.0], dtype=complex)
    matrix = np.stack([col_a, col_a, col_b, np.array([0, 0, 1, 0], dtype=complex)], axis=1)
    truth = np.array([1.0, 0.0, 0.5, 0.0], dtype=complex)  # blocks (0,) and (1,)
    y = matrix @ truth
    op = dense_operator(matrix, 2)
    hier = hihtp_recover(op, y, 2, 1)
    assert np.linalg.norm(hier.alpha - truth) < 1e-10
    flat = htp_recover(op, y, 2)
    assert np.linalg.norm(flat.alpha - truth) > 0.1


def test_flat_threshold_examples():
    x = np.array([0.1, 3.0, -2.0, 0.5], dtype=complex)
    sup = flat_threshold(x, 2, 2, 2)
    assert sup == SupportSet([1, 2], 2)
    with pytest.raises(ValueError):
        flat_threshold(x, 2, 2, 5)


def test_kmax_validated():
    op = small_operator()
    with pytest.raises(ValueError):
        hihtp_recover(op, np.zeros(op.shape[0], dtype=complex), 1, 1, k_max=0)
    with pytest.raises(ValueError, match=rf"must have shape \({op.shape[0]},\)"):
        hihtp_recover(op, np.zeros(op.shape[0] + 1, dtype=complex), 1, 1)
    # a column structure is built from a matrix only
    with pytest.raises(ValueError, match="operator must be a matrix, got 1 dimensions"):
        _Columns.from_dense(np.ones(4))


@pytest.mark.parametrize("c", [1e-3, 1e3])
@pytest.mark.parametrize("solver", ["hihtp", "htp"])
def test_pursuit_is_scale_invariant(solver, c):
    # a small Gaussian operator on which both pursuits refit a support
    # before it settles, so the gradient step after a refit is exercised
    rng = np.random.default_rng(3)
    matrix = rng.standard_normal((8, 12)) + 1j * rng.standard_normal((8, 12))
    alpha = np.zeros(12, dtype=complex)
    alpha[[1, 7]] = [1.0 - 0.5j, -0.8 + 0.3j]
    y = matrix @ alpha + 0.3 * (rng.standard_normal(8) + 1j * rng.standard_normal(8))

    def recover(m, obs):
        op = dense_operator(m, 3)
        if solver == "hihtp":
            return hihtp_recover(op, obs, 2, 1)
        return htp_recover(op, obs, 2)

    base = recover(matrix, y)
    assert base.iterations == 3
    scaled = recover(c * matrix, c * y)
    assert scaled.support == base.support
    assert scaled.iterations == base.iterations
    assert np.linalg.norm(scaled.alpha - base.alpha) <= 1e-12 * np.linalg.norm(base.alpha)


def reference_pursuit(cols, y, threshold, k_max):
    """The pursuit computing every iteration, with no cycle shortcut."""
    step = cols.shape[1] / cols.sq_norm
    alpha = np.zeros(cols.shape[1], dtype=complex)
    residual = y
    prev = None
    for it in range(1, k_max + 1):
        support = threshold(alpha + step * cols.rmatvec(residual))
        if support == prev:
            return RecoveryResult(alpha, support, it, "support_fixed")
        alpha = restricted_least_squares(cols, y, support)
        residual = y - cols.matvec(alpha)
        prev = support
    return RecoveryResult(alpha, prev, k_max, "max_iter")


def assert_same_result(got, ref):
    assert got.support == ref.support
    assert got.alpha.tobytes() == ref.alpha.tobytes()
    assert got.iterations == ref.iterations
    assert got.converged_by == ref.converged_by


@pytest.mark.parametrize("k_max", range(1, 10))
@pytest.mark.parametrize("period", [2, 3])
def test_cycle_shortcut_matches_full_iterations_scripted(period, k_max):
    # thresholds scripted to cycle A -> B (-> C) -> A, so every phase of the
    # cycle ends some k_max and k_max = period + 1 sees the repeat last
    rng = np.random.default_rng(30)
    matrix = rng.standard_normal((8, 12)) + 1j * rng.standard_normal((8, 12))
    y = rng.standard_normal(8) + 1j * rng.standard_normal(8)
    supports = [
        SupportSet([0, 4], 3),
        SupportSet([6, 11], 3),
        SupportSet([2, 9], 3),
    ][:period]
    calls = []

    def scripted():
        sequence = cycle(supports)

        def threshold(gradient):
            calls.append(1)
            return next(sequence)

        return threshold

    cols = _Columns.from_dense(matrix)
    ref = reference_pursuit(cols, y, scripted(), k_max)
    calls.clear()
    got = _pursuit(cols, y, scripted(), k_max)
    assert_same_result(got, ref)
    assert got.converged_by == "max_iter" and got.iterations == k_max
    assert len(calls) == min(k_max, period + 1)


def paper_trial(op, trial):
    """Observations of a 4-block, 12-path channel on the paper n_p=8 operator."""
    rng = np.random.default_rng([20260809, trial])
    alpha = np.zeros(op.shape[1], dtype=complex)
    for b in rng.choice(30, 4, replace=False):
        gains = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        alpha[b * 15 + rng.choice(15, 3, replace=False)] = gains
    noise = rng.standard_normal(op.shape[0]) + 1j * rng.standard_normal(op.shape[0])
    return op.matrix @ alpha + 0.1 * noise


@pytest.fixture(scope="module")
def paper_np8():
    op = paper_operator()
    return op, [paper_trial(op, t) for t in range(5)]


def test_cycle_shortcut_matches_full_iterations_on_paper_trials(paper_np8, monkeypatch):
    # 8 pilots are fewer than 2Q+1 = 15: the pursuit cycles instead of settling
    op, observations = paper_np8
    refits = []

    def counting(*args):
        refits.append(1)
        return restricted_least_squares(*args)

    monkeypatch.setattr(hihtp, "restricted_least_squares", counting)
    for y in observations:
        ref = reference_pursuit(
            op.columns, y, lambda g: hierarchical_threshold(g, 30, 15, 15, 8), 20
        )
        refits.clear()
        got = hihtp_recover(op, y, 15, 8)
        assert_same_result(got, ref)
        assert got.iterations == 20 and len(refits) < 20
        ref = reference_pursuit(op.columns, y, lambda g: flat_threshold(g, 30, 15, 120), 20)
        assert_same_result(htp_recover(op, y, 120), ref)


@pytest.mark.parametrize("k_max", [1, 20])
def test_max_iter_contract(paper_np8, k_max):
    # k_max = 1 stops before any support can repeat
    op, observations = paper_np8
    res = hihtp_recover(op, observations[0], 15, 8, k_max=k_max)
    assert res.converged_by == "max_iter"
    assert res.iterations == k_max
    assert res.support.is_hierarchical(15, 8)
    off = np.ones(op.shape[1], dtype=bool)
    off[res.support.indices] = False
    assert not res.alpha[off].any()


def test_cycle_replay_holds_no_per_iteration_state(paper_np8):
    # a cycle is replayed to the cap by its start and length alone, so a huge
    # k_max costs neither time nor memory
    op, observations = paper_np8
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        res = hihtp_recover(op, observations[0], 15, 8, k_max=10**7)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert res.iterations == 10**7 and res.converged_by == "max_iter"
    assert peak < 2**20
    # the trial is a 2-cycle, so every even cap ends on the same estimate
    ref = hihtp_recover(op, observations[0], 15, 8, k_max=20)
    assert res.support == ref.support and res.alpha.tobytes() == ref.alpha.tobytes()


def test_pursuit_matches_reference_on_both_refits(paper_np8, monkeypatch):
    # both pursuits, on the paper n_p=8 operator ("scale" refit) and on the
    # sub-Nyquist one ("solve" refit), give the result of the pursuit
    # computing every iteration, and form no residual doing so; the last two
    # observations, pure noise, make both cycle on the "solve" refit
    calls = []
    matvec = _Columns.matvec

    def counting(self, x):
        calls.append(1)
        return matvec(self, x)

    op, observations = paper_np8
    sub = subnyquist_operator()
    assert (op.columns.refit, sub.columns.refit) == ("scale", "solve")
    y_sub = sub.columns.matvec((np.arange(56) % 5 == 0).astype(complex)) + 0.1
    rng = np.random.default_rng(69)
    noise = rng.standard_normal(sub.shape[0]) + 1j * rng.standard_normal(sub.shape[0])
    cases = [
        (op, observations[0], lambda g: hierarchical_threshold(g, 30, 15, 15, 8),
         lambda o, y: hihtp_recover(o, y, 15, 8)),
        (op, observations[1], lambda g: flat_threshold(g, 30, 15, 120),
         lambda o, y: htp_recover(o, y, 120)),
        (sub, y_sub, lambda g: hierarchical_threshold(g, 8, 7, 6, 4),
         lambda o, y: hihtp_recover(o, y, 6, 4)),
        (sub, y_sub, lambda g: flat_threshold(g, 8, 7, 12), lambda o, y: htp_recover(o, y, 12)),
        (sub, noise, lambda g: hierarchical_threshold(g, 8, 7, 6, 4),
         lambda o, y: hihtp_recover(o, y, 6, 4)),
        (sub, noise, lambda g: flat_threshold(g, 8, 7, 12), lambda o, y: htp_recover(o, y, 12)),
    ]
    monkeypatch.setattr(_Columns, "matvec", counting)
    results = []
    for operator, y, threshold, recover in cases:
        calls.clear()
        results.append(recover(operator, y))
        assert not calls
        assert_same_result(results[-1], reference_pursuit(operator.columns, y, threshold, 20))
    # the paper n_p=8 trials and the noise cycle, so their results are replayed
    # from the cycle
    assert [r.iterations for r in results] == [20, 20, 3, 2, 20, 20]
    assert [r.converged_by for r in results[2:4]] == ["support_fixed"] * 2


@pytest.mark.parametrize(
    "n_pilots, layout, path",
    [(16, {}, "scale"), (8, {}, "scale"), (255, None, "solve"), (16, dict(contiguous=True), "svd")],
    ids=["16-scale", "8-scale", "subnyquist-solve", "16-contiguous-svd"],
)
def test_refit_from_pursuit_gradient_matches_gather(n_pilots, layout, path):
    # the pursuit hands its b = M^H y to every refit, which reads A_S^H y as b[S],
    # the same bytes as gathering the support's hits alone; the SVD path does
    # not read b at all
    op = subnyquist_operator() if layout is None else paper_operator(n_pilots, **layout)
    cols = op.columns
    assert cols.refit == path
    n_blocks, block_size = op.l_taps, op.block_size
    s_block, s_entry = (15, 8) if n_blocks == 30 else (6, 4)
    rng = np.random.default_rng(31)
    m, ncols = cols.shape
    for _ in range(4):
        y = rng.standard_normal(m) + 1j * rng.standard_normal(m)
        x = rng.standard_normal(ncols) + 1j * rng.standard_normal(ncols)
        sup = hierarchical_threshold(x, n_blocks, block_size, s_block, s_entry)
        idx = sup.indices
        gather = np.full(ncols, np.nan, dtype=complex)
        gather[idx] = (cols.vals[idx].conj() * np.append(y, 0.0)[cols.rows[idx]]).sum(axis=1)
        ref = restricted_least_squares(cols, y, sup, gather).tobytes()
        assert restricted_least_squares(cols, y, sup, cols.rmatvec(y)).tobytes() == ref
        assert restricted_least_squares(cols, y, sup).tobytes() == ref
        if path == "svd":
            unused = np.full(ncols, np.nan, dtype=complex)
            assert restricted_least_squares(cols, y, sup, unused).tobytes() == ref


@pytest.mark.parametrize("n_pilots", [16, 255], ids=["paper-16", "subnyquist"])
def test_refit_takes_the_operator(n_pilots):
    # the refit takes what the pursuits take: an operator gives its own column
    # structure, so the fit is the same bytes as from that structure
    op = subnyquist_operator() if n_pilots == 255 else paper_operator(n_pilots)
    s_block, s_entry = (15, 8) if op.l_taps == 30 else (6, 4)
    rng = np.random.default_rng(33)
    m, ncols = op.shape
    for _ in range(3):
        y = rng.standard_normal(m) + 1j * rng.standard_normal(m)
        x = rng.standard_normal(ncols) + 1j * rng.standard_normal(ncols)
        sup = hierarchical_threshold(x, op.l_taps, op.block_size, s_block, s_entry)
        ref = restricted_least_squares(op.columns, y, sup).tobytes()
        assert restricted_least_squares(op, y, sup).tobytes() == ref

import hashlib
import itertools
import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as npst

from alqecg import net as _net
from alqecg import quantizer as _quantizer
from alqecg.data import Dataset
from alqecg.errors import ConfigError
from alqecg.net import (
    Network,
    NetworkSpec,
    conv,
    dense,
    flatten,
    init_params,
    pool,
    softmax_dense,
)
from alqecg.quantizer import (
    COORD_EPS,
    ENUM_BITWIDTH_LIMIT,
    GRAM_COND_LIMIT,
    AlqConfig,
    GroupSet,
    QuantLayer,
    alq_pipeline,
    calib_loss,
    calib_subset,
    canonicalize,
    dequantized_network,
    group_sizes,
    init_decompose,
    init_layers,
    layer_i_max,
    model_avg_bitwidth,
    optimize_bases,
    optimize_coords,
    partition_groups,
    prune_coordinates,
    refine_layers,
    row_keys,
    score_coordinates,
    total_coords,
    uniform_baseline,
)
from conftest import noise_dataset
from alqecg.bitpack import serialize_bytes


# ---------------------------------------------------------------------------
# building layers from per-group (bases, coords) pairs and back


def layer_of(groups, group_size=None, layer_index=0) -> QuantLayer:
    """A layer from (bases (size, k), coords (k,)) pairs; all but the last full."""
    groups = [(np.asarray(b, dtype=np.int8), np.asarray(c, dtype=np.float64))
              for b, c in groups]
    group_size = group_size or groups[0][0].shape[0]
    width = max(c.size for _, c in groups)
    signs = np.zeros((len(groups), group_size, width), dtype=np.int8)
    coords = np.zeros((len(groups), width))
    for g, (b, c) in enumerate(groups):
        signs[g, : b.shape[0], : c.size] = b
        coords[g, : c.size] = c
    count = sum(b.shape[0] for b, _ in groups)
    return QuantLayer(signs, coords, [c.size for _, c in groups], group_size, count,
                      layer_index)


def empty_layer(ql: QuantLayer) -> QuantLayer:
    """The layer with every coordinate pruned."""
    n = len(ql.bits)
    return QuantLayer(np.zeros((n, ql.group_size, 0)), np.zeros((n, 0)), np.zeros(n),
                      ql.group_size, ql.param_count, ql.layer_index)


def groups_of(ql: QuantLayer) -> list[tuple[np.ndarray, np.ndarray]]:
    """Per-group (bases, coords) of a layer, without padding."""
    return [(ql.signs[g, :m, :b], ql.coords[g, :b])
            for g, (m, b) in enumerate(zip(ql.sizes, ql.bits))]


def layers_equal(a: list[QuantLayer], b: list[QuantLayer]) -> bool:
    return len(a) == len(b) and all(
        (x.group_size, x.param_count, x.layer_index) == (y.group_size, y.param_count,
                                                         y.layer_index)
        and np.array_equal(x.bits, y.bits)
        and np.array_equal(x.signs, y.signs)
        and x.coords.tobytes() == y.coords.tobytes()
        for x, y in zip(a, b)
    )


def arrays_sha256(model) -> str:
    """SHA-256 of every layer's signs, coords and bits arrays, with their
    shapes: the quantizer's output, apart from any container format."""
    h = hashlib.sha256()
    for ql in model.layers:
        for a in (ql.signs, ql.coords, ql.bits):
            h.update(repr(a.shape).encode())
            h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


def init_one(w, i_max):
    w = np.asarray(w, dtype=np.float64)
    return groups_of(init_decompose(w, w.size, i_max))[0]


def refine_step(step, flat, ql: QuantLayer) -> QuantLayer:
    """``step`` (optimize_bases or optimize_coords) on one layer's groups."""
    got = step(partition_groups(flat, ql.group_size),
               GroupSet(ql.signs, ql.coords, ql.bits, ql.sizes))
    return replace(ql, signs=got.signs, coords=got.coords, bits=got.bits)


def bases_one(w, bases, coords):
    return groups_of(refine_step(optimize_bases, np.asarray(w, dtype=np.float64),
                                 layer_of([(bases, coords)])))[0]


def coords_one(w, bases, coords):
    return groups_of(refine_step(optimize_coords, np.asarray(w, dtype=np.float64),
                                 layer_of([(bases, coords)])))[0]


def recon_error(w, bases, coords) -> float:
    return float(np.linalg.norm(np.asarray(w) - ref_reconstruct(bases, coords)))


# ---------------------------------------------------------------------------
# per-group reference implementations: the batched layer functions must
# reproduce them bit for bit


def ref_reconstruct(bases, coords):
    out = np.zeros(bases.shape[0])
    for i in range(len(coords)):
        out += coords[i] * bases[:, i]
    return out


def ref_canonicalize(bases, coords):
    bases = np.asarray(bases, dtype=np.int8)
    coords = np.asarray(coords, dtype=np.float64).copy()
    if coords.size:
        neg = coords < 0
        if neg.any():
            bases = bases.copy()
            bases[:, neg] *= -1
            coords[neg] = -coords[neg]
    merged: dict[bytes, float] = {}
    columns: dict[bytes, np.ndarray] = {}
    for i in range(coords.size):
        if coords[i] <= COORD_EPS:
            continue
        key = bases[:, i].tobytes()
        merged[key] = merged.get(key, 0.0) + coords[i]
        columns[key] = bases[:, i]
    keys = [k for k in merged if merged[k] > COORD_EPS]
    if not keys:
        return np.zeros((bases.shape[0], 0), dtype=np.int8), np.zeros(0)
    out_bases = np.stack([columns[k] for k in keys], axis=1)
    out_coords = np.array([merged[k] for k in keys])
    order = sorted(range(len(keys)),
                   key=lambda i: (-out_coords[i], out_bases[:, i].tobytes()))
    return out_bases[:, order], out_coords[order]


def row_unique_canonicalize(signs, coords):
    """The batched canonicalize as it was before the 1-D merge key: distinct
    columns come from ``np.unique(axis=0)`` over (group, sign < 0 ...) rows."""
    signs = np.asarray(signs, dtype=np.int8)
    coords = np.asarray(coords, dtype=np.float64)
    n_groups = len(signs)
    neg = coords < 0
    signs = np.where(neg[:, None, :], -signs, signs)
    coords = np.where(neg, -coords, coords)
    group, col = np.nonzero(coords > COORD_EPS)
    keys = np.column_stack([group, signs[group, :, col] < 0]).astype(np.int64)
    uniq, ids = np.unique(keys, axis=0, return_inverse=True)
    merged = np.zeros(len(uniq))
    np.add.at(merged, ids.reshape(-1), coords[group, col])
    kept = np.flatnonzero(merged > COORD_EPS)
    kept = kept[np.lexsort((kept, -merged[kept], uniq[kept, 0]))]
    out_group = uniq[kept, 0]
    bits = np.bincount(out_group, minlength=n_groups)
    pos = np.arange(kept.size) - (np.cumsum(bits) - bits)[out_group]
    out_signs = np.zeros_like(signs)
    out_coords = np.zeros_like(coords)
    out_signs[out_group, :, pos] = 1 - 2 * uniq[kept, 1:]
    out_coords[out_group, pos] = merged[kept]
    return out_signs, out_coords, bits


def ref_init_decompose(w, i_max):
    r = w.copy()
    cols, alphas = [], []
    for _ in range(i_max):
        alpha = float(np.abs(r).mean())
        if alpha <= COORD_EPS:
            break
        beta = np.where(r >= 0, 1, -1).astype(np.int8)
        cols.append(beta)
        alphas.append(alpha)
        r = r - alpha * beta
    if not cols:
        return np.zeros((w.size, 0), dtype=np.int8), np.zeros(0)
    return ref_canonicalize(np.stack(cols, axis=1), np.array(alphas))


def ref_optimize_bases(w, bases, coords):
    if coords.size == 0:
        return bases.copy(), coords.copy()
    signs = np.array(list(itertools.product((1, -1), repeat=coords.size)), dtype=np.int8)
    levels = np.zeros(signs.shape[0])
    for i in range(coords.size):
        levels += coords[i] * signs[:, i]
    order = np.lexsort((levels < 0, np.abs(levels)))
    signs, levels = signs[order], levels[order]
    dists = np.abs(w[:, None] - levels[None, :])
    best = np.zeros(w.size, dtype=np.int64)
    best_d = dists[:, 0].copy()
    for j in range(1, levels.size):
        better = dists[:, j] < best_d
        best[better] = j
        best_d[better] = dists[better, j]
    return signs[best], coords.copy()


def ref_optimize_coords(w, bases, coords, paths=None):
    """``paths`` (a dict) counts the pinv fallbacks and the error guard."""
    if coords.size == 0:
        return bases.copy(), coords.copy()
    b = bases.astype(np.float64)
    gram = b.T @ b
    rhs = b.T @ w
    cond = np.linalg.cond(gram)
    if np.isfinite(cond) and cond < GRAM_COND_LIMIT:
        new = np.linalg.solve(gram, rhs)
    else:
        new = np.linalg.pinv(b) @ w
        if paths is not None:
            paths["pinv"] += 1
    cand = ref_canonicalize(bases, new)
    if np.linalg.norm(w - ref_reconstruct(*cand)) > np.linalg.norm(
            w - ref_reconstruct(bases, coords)):
        if paths is not None:
            paths["guard"] += 1
        return bases.copy(), coords.copy()
    return cand


def assert_groups_equal(got, want):
    assert len(got) == len(want)
    for (gb, gc), (wb, wc) in zip(got, want):
        assert np.array_equal(gb, wb)
        assert gc.tobytes() == wc.tobytes()


# ---------------------------------------------------------------------------
# independent oracles


def oracle_nearest_levels(w, coords):
    """Per-position exhaustive level search with the documented tie rule."""
    rows = []
    for wj in w:
        best = None
        for signs in itertools.product((1, -1), repeat=len(coords)):
            level = sum(s * a for s, a in zip(signs, coords))
            key = (abs(wj - level), abs(level), 0 if level > 0 else 1)
            if best is None or key < best[0]:
                best = (key, signs)
        rows.append(best[1])
    return np.array(rows, dtype=np.int8)


def oracle_best_sign_matrix(w, bitwidth):
    """Global minimum reconstruction error over all sign matrices with LS coords."""
    n = len(w)
    best = np.inf
    for bits in itertools.product((1, -1), repeat=n * bitwidth):
        b = np.array(bits, dtype=np.float64).reshape(n, bitwidth)
        coords = np.linalg.pinv(b) @ w
        best = min(best, float(np.linalg.norm(w - b @ coords)))
    return best


def ranked_coordinates(qlayers, scores):
    """(score, magnitude, layer, group, coord) of every retained coordinate, in
    the documented pruning order."""
    rows = []
    for li, (ql, s) in enumerate(zip(qlayers, scores)):
        for gi, (m, b) in enumerate(zip(ql.sizes, ql.bits)):
            for ci in range(b):
                rows.append((float(s[gi, ci]), float(ql.coords[gi, ci] * np.sqrt(m)),
                             li, gi, ci))
    return sorted(rows)


def without_coordinate(qlayers, li, gi, ci):
    """Copies of the layers with one coordinate removed."""
    out = list(qlayers)
    groups = groups_of(qlayers[li])
    bases, coords = groups[gi]
    keep = [c for c in range(coords.size) if c != ci]
    groups[gi] = (bases[:, keep], coords[keep])
    ql = qlayers[li]
    out[li] = layer_of(groups, ql.group_size, ql.layer_index)
    return out


def random_layer(rng, count=None, group_size=None, i_max=None):
    """(flat values, greedy init layer) with zero groups and a short tail."""
    count = count or int(rng.integers(1, 200))
    group_size = group_size or int(rng.integers(1, 20))
    flat = rng.normal(size=count) * rng.uniform(0.1, 3)
    for off in range(0, count, group_size):
        if rng.random() < 0.1:
            flat[off : off + group_size] = 0.0
    return flat, init_decompose(flat, group_size, i_max or int(rng.integers(1, 5)))


# ---------------------------------------------------------------------------


class TestPartition:
    def test_layer_sized_vector(self):
        groups = partition_groups(np.arange(136, dtype=float), 16)
        assert groups.shape == (9, 16)
        np.testing.assert_array_equal(groups[-1, 8:], np.zeros(8))

    def test_exact_division(self):
        groups = partition_groups(np.arange(32, dtype=float), 16)
        assert groups.shape == (2, 16)

    @pytest.mark.parametrize("count, n, sizes", [
        (136, 16, [16] * 8 + [8]), (32, 16, [16, 16]), (5, 16, [5]), (7, 1, [1] * 7)])
    def test_group_sizes(self, count, n, sizes):
        assert group_sizes(count, n).tolist() == sizes
        assert len(group_sizes(count, n)) == len(partition_groups(np.zeros(count), n))

    def test_short_vector(self):
        groups = partition_groups(np.arange(5, dtype=float), 16)
        assert groups.shape == (1, 16)
        np.testing.assert_array_equal(groups[0, :5], np.arange(5))

    @settings(max_examples=50, deadline=None)
    @given(
        values=npst.arrays(np.float64, st.integers(1, 70),
                           elements=st.floats(-10, 10)),
        n=st.integers(1, 20),
    )
    def test_concatenation_restores_vector(self, values, n):
        groups = partition_groups(values, n)
        assert groups.shape == (-(-values.size // n), n)
        assert np.array_equal(groups.reshape(-1)[: values.size], values)
        assert not groups.reshape(-1)[values.size :].any()


class TestInitDecompose:
    def test_constant_group(self):
        bases, coords = init_one([0.7, 0.7, 0.7, 0.7], 1)
        assert coords.size == 1
        assert np.array_equal(bases[:, 0], [1, 1, 1, 1])
        assert coords[0] == pytest.approx(0.7)
        np.testing.assert_allclose(ref_reconstruct(bases, coords), [0.7] * 4)

    def test_hand_trace(self):
        bases, coords = init_one([3.0, 1.0], 2)
        assert np.array_equal(bases, [[1, 1], [1, -1]])
        np.testing.assert_allclose(coords, [2.0, 1.0])
        np.testing.assert_allclose(ref_reconstruct(bases, coords), [3.0, 1.0])

    def test_zero_group(self):
        ql = init_decompose(np.zeros(3), 3, 4)
        assert ql.bits.tolist() == [0]
        np.testing.assert_array_equal(ql.reconstruct(), [0.0, 0.0, 0.0])

    def test_canonical_output(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            bases, coords = init_one(rng.normal(size=rng.integers(1, 17)),
                                     int(rng.integers(1, 5)))
            assert np.all(coords > 0)
            assert np.all(np.diff(coords) <= 0)
            cols = {bases[:, i].tobytes() for i in range(coords.size)}
            assert len(cols) == coords.size

    @settings(max_examples=60, deadline=None)
    @given(
        values=npst.arrays(np.float64, st.integers(1, 16),
                           elements=st.floats(-5, 5, allow_subnormal=False)),
        i_max=st.integers(1, 6),
    )
    def test_residual_norm_strictly_decreases(self, values, i_max):
        w = values
        r = w.copy()
        prev = np.linalg.norm(r)
        for _ in range(i_max):
            alpha = np.abs(r).mean()
            if alpha <= 1e-12:
                break
            r = r - alpha * np.where(r >= 0, 1.0, -1.0)
            now = np.linalg.norm(r)
            assert now < prev or prev == 0.0
            prev = now
        assert recon_error(w, *init_one(w, i_max)) <= np.linalg.norm(w) + 1e-12


class TestOptimizeBases:
    def test_two_coordinate_levels(self):
        bases, coords = bases_one([2.9, -0.8], [[1, 1], [1, 1]], [2.0, 1.0])
        levels = bases.astype(float) @ coords
        np.testing.assert_allclose(levels, [3.0, -1.0])
        assert bases[0].tolist() == [1, 1]
        assert bases[1].tolist() == [-1, 1]

    def test_fixed_point(self):
        q = init_one([3.0, 1.0], 2)
        bases, coords = bases_one([3.0, 1.0], *q)
        assert np.array_equal(bases, q[0])
        np.testing.assert_allclose(ref_reconstruct(bases, coords), [3.0, 1.0])

    def test_tie_breaks_positive(self):
        bases, _ = bases_one([0.0], [[-1]], [1.0])
        assert bases[0, 0] == 1

    def test_tie_breaks_smaller_magnitude(self):
        # w = 2 sits exactly between levels 1 and 3; the smaller level wins
        bases, coords = bases_one([2.0], [[1, 1]], [2.0, 1.0])
        assert float(bases.astype(float)[0] @ coords) == 1.0

    def test_rejects_wide_groups(self):
        wide = layer_of([(np.ones((4, 17)), np.linspace(17, 1, 17))])
        with pytest.raises(ConfigError, match="enumeration"):
            refine_step(optimize_bases, np.zeros(4), wide)

    def test_matches_oracle(self):
        rng = np.random.default_rng(7)
        for _ in range(300):
            n = int(rng.integers(1, 7))
            w = rng.normal(size=n) * rng.uniform(0.1, 3)
            q = init_one(w, int(rng.integers(1, 3)))
            if q[1].size == 0:
                continue
            bases, _ = bases_one(w, *q)
            assert np.array_equal(bases, oracle_nearest_levels(w, q[1]))


class TestOptimizeCoords:
    def test_normal_equations_hand_example(self):
        _, coords = coords_one([3.0, 1.0], [[1, 1], [1, -1]], [1.0, 0.5])
        np.testing.assert_allclose(coords, [2.0, 1.0])

    def test_duplicate_columns_min_norm(self):
        bases, coords = coords_one([3.0, 1.0], [[1, 1], [1, 1]], [1.0, 0.5])
        # merged into a single column whose reconstruction equals
        # the single-column least-squares fit
        assert coords.size == 1
        np.testing.assert_allclose(ref_reconstruct(bases, coords), [2.0, 2.0])

    def test_negative_coordinate_flips_column(self):
        bases, coords = coords_one([0.5, 1.5], [[1, 1], [1, -1]], [1.0, 1.0])
        assert np.all(coords > 0)
        np.testing.assert_allclose(ref_reconstruct(bases, coords), [0.5, 1.5])

    def test_never_increases_error(self):
        rng = np.random.default_rng(3)
        for _ in range(500):
            w = rng.normal(size=int(rng.integers(1, 17)))
            q = init_one(w, int(rng.integers(1, 5)))
            if q[1].size == 0:
                continue
            before = recon_error(w, *q)
            q2 = bases_one(w, *q)
            mid = recon_error(w, *q2)
            assert mid <= before + 0.0
            assert recon_error(w, *coords_one(w, *q2)) <= mid

    def test_matches_pinv_oracle(self):
        rng = np.random.default_rng(5)
        for _ in range(300):
            n = int(rng.integers(1, 10))
            i = int(rng.integers(1, 4))
            w = rng.normal(size=n)
            bases = rng.choice([-1, 1], size=(n, i)).astype(np.int8)
            coords = np.sort(rng.uniform(0.1, 2, size=i))[::-1]
            out = coords_one(w, bases, coords)
            oracle = bases.astype(float) @ (np.linalg.pinv(bases.astype(float)) @ w)
            assert recon_error(w, *out) <= float(np.linalg.norm(w - oracle)) + 1e-8

    def test_gram_rule_decides_as_cond(self, monkeypatch):
        # where (b m)^b < GRAM_COND_LIMIT the solvable groups are picked by
        # |det| instead of cond; on random +-1 bases, a third with a duplicated
        # or negated column, the solved Grams must be exactly those whose cond
        # is finite and below the limit
        rng = np.random.default_rng(41)
        solved = []
        real_solve = np.linalg.solve

        def spy(a, b):
            solved.append(a.copy())
            return real_solve(a, b)

        monkeypatch.setattr(np.linalg, "solve", spy)
        outcomes = set()
        for m in (1, 2, 3, 5, 8, 16):
            for b in range(1, 9):
                n = 60
                signs = rng.choice(np.array([-1, 1], np.int8), size=(n, m, b))
                for g in range(0, n, 3):
                    if b > 1:
                        i, j = rng.choice(b, size=2, replace=False)
                        signs[g, :, j] = signs[g, :, i] * rng.choice([-1, 1])
                coords = np.sort(rng.uniform(0.1, 2, size=(n, b)), axis=1)[:, ::-1]
                rows = rng.normal(size=(n, m))
                basis = signs.astype(np.float64)
                grams = basis.transpose(0, 2, 1) @ basis
                cond = np.linalg.cond(grams)
                ok = np.isfinite(cond) & (cond < GRAM_COND_LIMIT)
                got = optimize_coords(rows, GroupSet(signs, coords, np.full(n, b),
                                                     np.full(n, m)))
                assert np.array_equal(solved[-1], grams[ok])
                rule = "det" if (b * m) ** b < GRAM_COND_LIMIT else "cond"
                outcomes |= {(rule, bool(x)) for x in ok}
                want = [ref_optimize_coords(rows[g], signs[g], coords[g]) for g in range(n)]
                assert_groups_equal([(got.signs[g, :, : k], got.coords[g, : k])
                                     for g, k in enumerate(got.bits)], want)
        assert {("det", True), ("det", False), ("cond", True)} <= outcomes


class TestBatchedMatchesPerGroupReference:
    """The layer functions reproduce the per-group reference bit for bit."""

    def test_canonicalize(self):
        rng = np.random.default_rng(31)
        for _ in range(200):
            n_groups, size, k = (int(v) for v in rng.integers(1, [12, 9, 7]))
            # few distinct columns, so duplicates (up to k-way) are common
            pool = rng.choice(np.array([-1, 1], dtype=np.int8), size=(3, size))
            signs = pool[rng.integers(0, 3, size=(n_groups, k))].transpose(0, 2, 1)
            coords = rng.choice([-1.0, 1.0], size=(n_groups, k)) * rng.uniform(
                0.01, 2, size=(n_groups, k))
            coords[rng.random((n_groups, k)) < 0.2] = 0.0
            coords[rng.random((n_groups, k)) < 0.1] = 5e-13
            coords[:, -1] = coords[:, 0]  # exact ties, broken by column bytes
            out_signs, out_coords, bits = canonicalize(signs, coords)
            assert out_signs.shape == signs.shape and out_coords.shape == coords.shape
            assert not out_signs[np.arange(k) >= bits[:, None, None].repeat(size, 1)].any()
            for g in range(n_groups):
                want_b, want_c = ref_canonicalize(signs[g], coords[g])
                assert bits[g] == want_c.size
                assert np.array_equal(out_signs[g, :, : bits[g]], want_b)
                assert out_coords[g, : bits[g]].tobytes() == want_c.tobytes()
                assert not out_coords[g, bits[g] :].any()

    @pytest.mark.parametrize("size", [9, 17, 33])
    def test_canonicalize_key_across_bytes(self, size):
        # sizes whose packed columns end in pad bits, and more than 256 groups
        # so that the group's higher key bytes take part in the order
        rng = np.random.default_rng(size)
        n_groups, k = 700, 6
        pool = rng.choice(np.array([-1, 1], dtype=np.int8), size=(4, size))
        # columns that differ only in their last row, past the first byte
        pool[1] = pool[0]
        pool[1, -1] = -pool[0, -1]
        signs = pool[rng.integers(0, 4, size=(n_groups, k))].transpose(0, 2, 1)
        coords = rng.choice([-1.0, 1.0], size=(n_groups, k)) * rng.uniform(
            0.01, 2, size=(n_groups, k))
        coords[rng.random((n_groups, k)) < 0.15] = 0.0
        coords[:, -1] = coords[:, 0]  # exact ties, broken by column bytes
        got = canonicalize(signs, coords)
        want = row_unique_canonicalize(signs, coords)
        for a, b in zip(got, want):
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
        out_signs, out_coords, bits = got
        for g in range(n_groups):
            want_b, want_c = ref_canonicalize(signs[g], coords[g])
            assert np.array_equal(out_signs[g, :, : bits[g]], want_b)
            assert out_coords[g, : bits[g]].tobytes() == want_c.tobytes()

    def test_row_keys_sort_like_rows(self):
        rng = np.random.default_rng(37)
        group = rng.integers(0, 70000, size=3000)
        group[:1000] = group[1000:2000]  # equal groups, so the rows decide
        rows = rng.integers(0, 256, size=(3000, 3), dtype=np.uint8)
        rows[::3, 1:] = rows[1::3, 1:]
        order = np.argsort(row_keys(group, rows), kind="stable")
        want = np.lexsort((*rows.T[::-1], group))
        assert np.array_equal(order, want)

    def test_init_decompose(self):
        rng = np.random.default_rng(32)
        for _ in range(100):
            flat, ql = random_layer(rng)
            i_max = int(rng.integers(1, 5))
            ql = init_decompose(flat, ql.group_size, i_max)
            rows = partition_groups(flat, ql.group_size)
            assert_groups_equal(groups_of(ql), [
                ref_init_decompose(rows[g, :m], i_max) for g, m in enumerate(ql.sizes)
            ])
            assert ql.reconstruct().tobytes() == np.concatenate(
                [ref_reconstruct(*q) for q in groups_of(ql)]).tobytes()

    def test_refinement_steps(self):
        rng = np.random.default_rng(33)
        paths = {"pinv": 0, "guard": 0}
        for trial in range(150):
            flat, ql = random_layer(rng)
            if trial % 3 == 0:
                # exactly representable weights: the least-squares step can
                # only round away from them, which the error guard refuses
                flat = ql.reconstruct()
            if trial % 3 == 1:
                # duplicate sign columns make the Gram matrix singular (pinv)
                signs = ql.signs.copy()
                signs[:, :, -1] = signs[:, :, 0] * (ql.bits[:, None] > 1)
                ql = QuantLayer(signs, ql.coords, ql.bits, ql.group_size,
                                ql.param_count, ql.layer_index)
            rows = partition_groups(flat, ql.group_size)
            for step, ref in ((optimize_bases, ref_optimize_bases),
                              (optimize_coords, ref_optimize_coords)):
                want = [ref(rows[g, : q[0].shape[0]], *q, *([paths] if ref is
                                                           ref_optimize_coords else []))
                        for g, q in enumerate(groups_of(ql))]
                ql = refine_step(step, flat, ql)
                assert_groups_equal(groups_of(ql), want)
        assert paths["pinv"] > 0 and paths["guard"] > 0

    def test_group_rows_form(self):
        # rows and a GroupSet padded past the group size and the bitwidth, as
        # refine_layers pads every layer to the network's largest, give the
        # groups that the layer's own rows give
        rng = np.random.default_rng(36)
        for _ in range(40):
            flat, ql = random_layer(rng)
            pad = int(rng.integers(1, 4))
            count, n, width = ql.signs.shape
            rows = np.zeros((count, n + pad))
            rows[:, :n] = partition_groups(flat, n)
            got = GroupSet(np.zeros((count, n + pad, width + pad), np.int8),
                           np.zeros((count, width + pad)), ql.bits, ql.sizes)
            got.signs[:, :n, :width], got.coords[:, :width] = ql.signs, ql.coords
            for step in (optimize_bases, optimize_coords):
                got = step(rows, got)
                ql = refine_step(step, flat, ql)
                assert isinstance(got, GroupSet)
                assert_groups_equal(
                    [(got.signs[g, :m, :b], got.coords[g, :b])
                     for g, (m, b) in enumerate(zip(got.sizes, got.bits))],
                    groups_of(ql))

    @pytest.mark.parametrize("group_size", [1, 5, 7, 16])
    def test_scores(self, group_size):
        from conftest import tiny_spec

        rng = np.random.default_rng(34)
        network = init_params(tiny_spec(), 35)
        qlayers = uniform_baseline(network, 3, group_size).layers
        qlayers = prune_coordinates(
            qlayers, score_coordinates(qlayers, None, None, "magnitude")[0], rate=0.4)
        calib = noise_dataset(rng, 12, 8, 3)
        deq = dequantized_network(network.spec, qlayers)
        _, grads = _net.loss_gradients(deq, calib.records, calib.labels())
        scores, _ = score_coordinates(qlayers, network, calib, "loss_aware", 0.7)
        for ql, s in zip(qlayers, scores):
            for gi, (bases, coords) in enumerate(groups_of(ql)):
                off = gi * ql.group_size
                g_slice = grads[ql.layer_index][off : off + bases.shape[0]]
                for ci in range(coords.size):
                    a = float(coords[ci])
                    want = a * abs(float(g_slice @ bases[:, ci].astype(np.float64)))
                    want += 0.5 * 0.7 * a * a * bases.shape[0]
                    assert s[gi, ci] == want
                assert np.isnan(s[gi, coords.size :]).all()


class TestRefinementVsExhaustive:
    def test_alternating_beats_exhaustive_floor_sanity(self):
        rng = np.random.default_rng(11)
        for _ in range(25):
            n = int(rng.integers(2, 7))
            i = int(rng.integers(1, 3))
            w = rng.normal(size=n)
            q = init_one(w, i)
            init_err = recon_error(w, *q)
            for _ in range(3):
                if q[1].size == 0:
                    break
                q = coords_one(w, *bases_one(w, *q))
            refined_err = recon_error(w, *q)
            assert refined_err <= init_err + 1e-12
            floor = oracle_best_sign_matrix(w, i)
            assert floor <= refined_err + 1e-9


def ref_refine_layers(network, qlayers, iters):
    """Per-layer refinement: every round on every group of one layer at a time."""
    out = []
    for ql in qlayers:
        flat = _net.flatten_params(network, ql.layer_index)
        for _ in range(iters):
            ql = refine_step(optimize_coords, flat, refine_step(optimize_bases, flat, ql))
        out.append(ql)
    return out


def refine_case(group_size, scorer, seed=0):
    """(network, pruned layers) of an 841-parameter conv/dense network with an
    i_max map, pruned by ``scorer`` on random calibration records. Every fifth
    group's coordinates are scaled by 1e-9: its weights then all take the
    outermost level, so its sign columns coincide and refinement merges them."""
    spec = NetworkSpec([conv(5, 6, padding=2), pool(2, 2), conv(3, 8, padding=1),
                        pool(2, 2), flatten(), dense(12), softmax_dense(5)],
                       input_length=24, input_channels=1, class_count=5)
    network = init_params(spec, seed)
    i_max = {"default": 3, "Conv1D_1": 4, "Softmax": 2}
    rng = np.random.default_rng(seed + 1)
    calib = noise_dataset(rng, 16, 24, 5)
    layers = init_layers(network, group_size, i_max)
    scores, _ = score_coordinates(layers, network, calib, scorer)
    layers = prune_coordinates(layers, scores, rate=0.3)
    return network, [replace(ql, coords=ql.coords * np.where(
        np.arange(len(ql.bits)) % 5 == 0, 1e-9, 1.0)[:, None]) for ql in layers]


def changed_groups(before, after) -> int:
    """Number of groups whose (bases, coords) differ between two layer lists."""
    return sum(
        not (np.array_equal(bb, ab) and bc.tobytes() == ac.tobytes())
        for x, y in zip(before, after)
        for (bb, bc), (ab, ac) in zip(groups_of(x), groups_of(y))
    )


class TestRefineLayers:
    @pytest.mark.parametrize("scorer", ["magnitude", "loss_aware"])
    @pytest.mark.parametrize("group_size", [16, 11, 7])
    def test_matches_per_layer_rounds(self, group_size, scorer):
        network, layers = refine_case(group_size, scorer)
        assert len({int(ql.bits.max()) for ql in layers}) > 1
        assert any(ql.param_count % group_size for ql in layers)
        for iters in range(5):
            got = refine_layers(network, layers, iters)
            assert layers_equal(got, ref_refine_layers(network, layers, iters)), iters
        assert any((a.bits < b.bits).any() for a, b in zip(got, layers))
        assert all(a is b for a, b in zip(refine_layers(network, layers, 0), layers))

    @pytest.mark.parametrize("group_size", [16, 7])
    def test_rounds_refine_only_changed_groups(self, monkeypatch, group_size):
        network, layers = refine_case(group_size, "loss_aware", seed=2)
        iters = 8
        rounds = [layers]
        for _ in range(iters):
            rounds.append(ref_refine_layers(network, rounds[-1], 1))
        changed = [changed_groups(a, b) for a, b in zip(rounds, rounds[1:])]
        sizes = []
        real = _quantizer.optimize_coords

        def spy(rows, groups):
            sizes.append(len(groups.bits))
            return real(rows, groups)

        monkeypatch.setattr(_quantizer, "optimize_coords", spy)
        got = refine_layers(network, layers, iters)
        assert layers_equal(got, rounds[-1])
        # round 1 takes every group, round r the groups round r - 1 changed;
        # refinement stops once a round changes none
        want = [sum(len(ql.bits) for ql in layers)] + changed
        want = want[: want.index(0) if 0 in want else iters]
        assert sizes == want
        assert want[1] < want[0] and len(want) > 2


class TestAverageBitwidth:
    def _layer(self, sizes, bits):
        return layer_of(
            [(np.ones((n, b)), np.linspace(b, 1, b)) for n, b in zip(sizes, bits)],
            max(sizes),
        )

    def test_group_mean(self):
        layer = self._layer([8, 8, 8, 8], [2, 1, 1, 0])
        assert model_avg_bitwidth([layer]) == pytest.approx(1.0)

    def test_weighted_mean_with_tail(self):
        layer = self._layer([16, 8], [1, 2])
        assert model_avg_bitwidth([layer]) == pytest.approx((16 + 16) / 24)

    def test_equal_bits_degenerate(self):
        layer = self._layer([16, 16], [3, 3])
        assert model_avg_bitwidth([layer]) == pytest.approx(3.0)


def toy_quant_net(eps=1e-3):
    """9-parameter dense net: exact decomposition plus one tiny extra column.

    Every full-size coordinate carries a margin-critical chunk of the
    classifier, so its removal visibly hurts the calibration loss; the
    injected eps column is negligible for both the estimator and the
    exhaustive-removal oracle.
    """
    spec = NetworkSpec([flatten(), softmax_dense(3)],
                       input_length=2, input_channels=1, class_count=3)
    # flat layout [w00,w01,w10,w11 | w20,w21,b0,b1 | b2], groups of 4
    g0 = ([[1, 1], [1, -1], [-1, 1], [1, -1]], [2.0, eps])
    g1 = init_one([2.0, -2.0, 0.5, -0.5], 2)  # exact: [1.25, 0.75]
    g2 = init_one([0.0], 2)  # empty
    qlayers = [layer_of([g0, g1, g2], 4, layer_index=1)]
    network = dequantized_network(spec, qlayers)
    return network, qlayers


def toy_calib() -> Dataset:
    samples = [[1.0, 1.0], [-1.0, 1.0], [1.0, -1.0], [1.2, 0.8], [-0.8, 1.2], [0.8, -1.2]]
    return Dataset(samples, [0, 1, 2, 0, 1, 2], class_count=3)


class TestScoring:
    def test_magnitude_example(self):
        bases = np.ones((16, 2), dtype=np.int8) * np.array([1, -1], dtype=np.int8)
        layer = layer_of([(bases, [2.0, 0.001])])
        (scores,), loss = score_coordinates([layer], None, None, "magnitude")
        assert loss is None
        assert scores[0, 0] == pytest.approx(8.0)
        assert scores[0, 1] == pytest.approx(0.004)

    def test_loss_aware_matches_exhaustive_removal(self):
        network, qlayers = toy_quant_net()
        calib = toy_calib()
        scores, _ = score_coordinates(qlayers, network, calib, "loss_aware")
        ranked = ranked_coordinates(qlayers, scores)
        predicted = ranked[0][2:]

        base_labels = calib.labels()
        best = None
        for _, magnitude, li, gi, ci in ranked:
            deq = dequantized_network(network.spec, without_coordinate(qlayers, li, gi, ci))
            loss = _net.batch_loss(deq, calib.records, base_labels)
            key = (loss, magnitude, li, gi, ci)
            if best is None or key < best[0]:
                best = (key, (li, gi, ci))
        assert predicted == best[1]

    def test_loss_aware_loss_is_calib_loss(self):
        network, qlayers = toy_quant_net()
        calib = toy_calib()
        _, loss = score_coordinates(qlayers, network, calib, "loss_aware")
        assert loss == calib_loss(network.spec, qlayers, calib)

    def test_loss_aware_requires_calib(self):
        network, qlayers = toy_quant_net()
        with pytest.raises(ConfigError, match="calibration"):
            score_coordinates(qlayers, network, None, "loss_aware")

    def test_deterministic(self):
        network, qlayers = toy_quant_net()
        calib = toy_calib()
        a, _ = score_coordinates(qlayers, network, calib, "loss_aware")
        b, _ = score_coordinates(qlayers, network, calib, "loss_aware")
        assert all(x.tobytes() == y.tobytes() for x, y in zip(a, b))


def ref_prune(qlayers, scores, rate=None, target=None):
    """Per-coordinate reference of prune_coordinates."""
    ranked = ranked_coordinates(qlayers, scores)
    if rate is not None:
        removed = ranked[: int(np.floor(rate * len(ranked) + 0.5))]
    else:
        bits = sum(int(ql.sizes @ ql.bits) for ql in qlayers)
        params = sum(ql.param_count for ql in qlayers)
        removed = []
        for row in ranked:
            if bits / params <= target:
                break
            removed.append(row)
            bits -= qlayers[row[2]].sizes[row[3]]
    out = list(qlayers)
    for _, _, li, gi, ci in sorted(removed, key=lambda r: -r[4]):
        out = without_coordinate(out, li, gi, ci)
    return out


class TestPrune:
    def _two_group_layers(self):
        groups = []
        for seed, coords in ((0, [2.0, 0.001]), (1, [1.25, 0.75])):
            signs = np.sign(np.random.default_rng(seed).normal(size=(1, 16, 2)))
            s, c, b = canonicalize(signs, np.array([coords]))
            groups.append((s[0, :, : b[0]], c[0, : b[0]]))
        layers = [layer_of(groups)]
        scores, _ = score_coordinates(layers, None, None, "magnitude")
        return layers, scores

    def test_rate_zero_noop(self):
        layers, scores = self._two_group_layers()
        out = prune_coordinates(layers, scores, rate=0.0)
        assert layers_equal(out, layers)

    def test_rate_one_empties_everything(self):
        layers, scores = self._two_group_layers()
        out = prune_coordinates(layers, scores, rate=1.0)
        assert all(not ql.bits.any() for ql in out)
        assert model_avg_bitwidth(out) == 0.0
        for ql in out:
            np.testing.assert_array_equal(ql.reconstruct(), np.zeros(ql.param_count))

    def test_lowest_score_removed_first(self):
        layers, scores = self._two_group_layers()
        out = prune_coordinates(layers, scores, rate=0.25)  # one of four coords
        assert out[0].bits.tolist() == [1, 2]
        assert out[0].coords[0, 0] == pytest.approx(2.0)

    def test_target_bitwidth(self):
        layers, scores = self._two_group_layers()
        out = prune_coordinates(layers, scores, target_avg_bitwidth=1.0)
        assert model_avg_bitwidth(out) <= 1.0

    def test_target_already_met_noop(self, caplog):
        layers, scores = self._two_group_layers()
        with caplog.at_level("INFO"):
            out = prune_coordinates(layers, scores, target_avg_bitwidth=5.0)
        assert layers_equal(out, layers)
        assert any("already met" in r.message for r in caplog.records)

    def test_tie_break_order(self):
        # equal scores: magnitude, then (layer, group, coord) decide
        g = ([[1, -1], [1, 1]], [1.0, 0.5])
        out = prune_coordinates([layer_of([g])], [np.array([[1.0, 1.0]])], rate=0.5)
        # coordinate 1 had the lower magnitude and is removed despite equal score
        assert out[0].coords.tolist() == [[1.0]]
        twins = [layer_of([g, g]), layer_of([g], layer_index=1)]
        scores = [np.ones((2, 2)), np.ones((1, 2))]
        out = prune_coordinates(twins, scores, rate=0.5)
        assert [ql.bits.tolist() for ql in out] == [[1, 1], [1]]

    def test_monotone_in_rate(self):
        rng = np.random.default_rng(9)
        layers = [init_decompose(rng.normal(size=128), 16, 3)]
        scores, _ = score_coordinates(layers, None, None, "magnitude")
        prev_bits = np.inf
        for rate in [0.0, 0.2, 0.4, 0.6, 0.8, 1.0]:
            out = prune_coordinates(layers, scores, rate=rate)
            bits = sum(int(ql.sizes @ ql.bits) for ql in out)
            assert bits <= prev_bits
            prev_bits = bits

    def test_matches_per_coordinate_reference(self):
        rng = np.random.default_rng(36)
        for _ in range(40):
            layers = [random_layer(rng, i_max=3)[1] for _ in range(3)]
            # coarse scores produce ties, broken by magnitude and position
            scores = [np.where(np.isnan(s), s, np.round(s, 1))
                      for s in score_coordinates(layers, None, None, "magnitude")[0]]
            for kwargs in ({"rate": float(rng.uniform(0, 1))},
                           {"target_avg_bitwidth": float(rng.uniform(0, 3))}):
                want = ref_prune(layers, scores, kwargs.get("rate"),
                                 kwargs.get("target_avg_bitwidth"))
                got = prune_coordinates(layers, scores, **kwargs)
                for x, y in zip(got, want):
                    assert x.signs.shape[2] == x.bits.max(initial=0)
                    assert_groups_equal(groups_of(x), groups_of(y))

    def test_rejects_mismatched_scores(self):
        layers, scores = self._two_group_layers()
        with pytest.raises(ConfigError, match="score arrays"):
            prune_coordinates(layers, scores * 2, rate=0.5)
        scores[0][1, 0] = np.nan
        with pytest.raises(ConfigError, match="layer 0: scores missing"):
            prune_coordinates(layers, scores, rate=0.5)


class TestPipeline:
    @pytest.mark.parametrize("calib", [None, Dataset(np.zeros((0, 2)), [], class_count=3)])
    def test_loss_aware_pruning_without_calib_rejected_before_init(self, monkeypatch, calib):
        network, _ = toy_quant_net()
        calls = []
        monkeypatch.setattr(_quantizer, "init_layers", lambda *a: calls.append(a))
        config = AlqConfig(group_size=4, i_max=2, prune_rate=0.5, scorer="loss_aware")
        with pytest.raises(ConfigError, match="calibration"):
            alq_pipeline(network, calib, config)
        assert calls == []

    def test_lossless_regime_small_net(self):
        from conftest import tiny_spec
        from alqecg.qinfer import QuantExecutor, dequantize

        network = init_params(tiny_spec(), 21)
        snapped = dequantize(uniform_baseline(network, 1, 16))
        config = AlqConfig(group_size=16, i_max=2, prune_rate=0.0, scorer="magnitude",
                           refine_iters=0, seed=0)
        model, report = alq_pipeline(snapped, None, config)
        deq = dequantize(model)
        for idx, _ in _net.parameterized_layers(snapped.spec):
            np.testing.assert_allclose(
                _net.flatten_params(deq, idx), _net.flatten_params(snapped, idx),
                atol=1e-6,
            )
        rng = np.random.default_rng(0)
        records = [rng.normal(size=8) for _ in range(20)]
        qlog = QuantExecutor(model).logits(records)
        flog = _net.logits_batch(snapped, records)
        assert np.abs(qlog - flog).max() <= 1e-5

    def test_deterministic(self):
        network = init_params(NetworkSpec(
            [flatten(), softmax_dense(4)], input_length=8, input_channels=1,
            class_count=4), 3)
        config = AlqConfig(group_size=8, i_max=3, prune_rate=0.3, scorer="magnitude",
                           refine_iters=2, seed=5)
        a, _ = alq_pipeline(network, None, config)
        b, _ = alq_pipeline(network, None, config)
        assert serialize_bytes(a) == serialize_bytes(b)

    def test_report_tracks_bits_and_loss(self):
        network, _ = toy_quant_net()
        config = AlqConfig(group_size=4, i_max=2, prune_rate=0.5, scorer="loss_aware",
                           refine_iters=1, seed=0)
        model, report = alq_pipeline(network, toy_calib(), config)
        assert report.avg_bitwidth_pruned <= report.avg_bitwidth_init
        assert report.avg_bitwidth_final <= report.avg_bitwidth_pruned + 1e-12
        assert report.pruned_coords > 0
        assert report.calib_loss_init is not None
        assert report.calib_loss_pruned >= report.calib_loss_init - 1e-9


    @pytest.mark.parametrize("scorer, rate, forwards", [
        ("loss_aware", 0.5, 3),  # score (with the initial loss), pruned, final
        ("magnitude", 0.5, 3),  # initial, pruned, final
        ("loss_aware", 0.0, 2),  # no pruning: initial, final
    ])
    def test_calibration_forwards(self, monkeypatch, scorer, rate, forwards):
        network, _ = toy_quant_net()
        calib = toy_calib()
        config = AlqConfig(group_size=4, i_max=2, prune_rate=rate, scorer=scorer,
                           refine_iters=1, seed=0)
        calls = []
        real = _net._forward_batch

        def spy(*args, **kwargs):
            calls.append(kwargs.get("caches") is not None)
            return real(*args, **kwargs)

        monkeypatch.setattr(_net, "_forward_batch", spy)
        _, report = alq_pipeline(network, calib, config)
        assert len(calls) == forwards
        assert calls[0] == (scorer == "loss_aware" and rate > 0)
        monkeypatch.undo()
        initial = init_layers(network, config.group_size, config.i_max)
        assert report.calib_loss_init == calib_loss(
            network.spec, initial, calib_subset(calib, config))


class TestUniformBaseline:
    def test_single_bit(self):
        network = init_params(NetworkSpec(
            [flatten(), softmax_dense(3)], input_length=4, input_channels=1,
            class_count=3), 0)
        model = uniform_baseline(network, 1, 8)
        assert all((ql.bits == 1).all() for ql in model.layers)

    def test_error_monotone_in_bits(self):
        network = init_params(NetworkSpec(
            [flatten(), softmax_dense(3)], input_length=4, input_channels=1,
            class_count=3), 1)
        prev = np.inf
        for i in [1, 2, 4, 8]:
            model = uniform_baseline(network, i, 8)
            err = 0.0
            for ql in model.layers:
                flat = _net.flatten_params(network, ql.layer_index)
                err += float(np.sum((flat - ql.reconstruct()) ** 2))
            assert err <= prev + 1e-15
            prev = err

    def test_deterministic(self):
        network = init_params(NetworkSpec(
            [flatten(), softmax_dense(3)], input_length=4, input_channels=1,
            class_count=3), 2)
        assert serialize_bytes(uniform_baseline(network, 2, 8)) == serialize_bytes(
            uniform_baseline(network, 2, 8)
        )


class TestConfig:
    def test_json_round_trip(self, tmp_path):
        path = tmp_path / "alq.json"
        path.write_text(
            '{"group_size": 8, "i_max": {"default": 2, "Softmax": 4},'
            ' "prune": {"target_avg_bitwidth": 1.5}, "scorer": "magnitude",'
            ' "refine_iters": 1, "calib_batch": 32, "seed": 9}'
        )
        config = AlqConfig.from_json_file(path)
        assert config.group_size == 8
        assert layer_i_max(config.i_max, "Softmax") == 4
        assert layer_i_max(config.i_max, "Conv1D_1") == 2
        assert config.target_avg_bitwidth == 1.5
        assert config.seed == 9

    def test_unknown_i_max_key_rejected(self):
        network = init_params(NetworkSpec(
            [flatten(), softmax_dense(3)], input_length=4, input_channels=1,
            class_count=3), 0)
        for i_max in ({"default": 2, "Softmax": 3, "Dense_2": 1}, {"Dense_2": 1}):
            config = AlqConfig(group_size=4, i_max=i_max, prune_rate=0.0,
                               scorer="magnitude", refine_iters=0)
            with pytest.raises(ConfigError, match=r"\['Dense_2'\]"):
                alq_pipeline(network, None, config)
        config = AlqConfig(group_size=4, i_max={"default": 2, "Softmax": 3},
                           prune_rate=0.0, scorer="magnitude", refine_iters=0)
        model, _ = alq_pipeline(network, None, config)
        assert model.layers[0].bits.max() == 3

    def test_bad_rate(self):
        for rate in (1.5, float("nan"), float("inf")):
            with pytest.raises(ConfigError, match=r"prune.rate must be in \[0,1\)"):
                AlqConfig(prune_rate=rate)

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -0.5])
    def test_bad_target_bitwidth_rejected(self, value):
        # a NaN target pruned every coordinate
        with pytest.raises(ConfigError, match="target_avg_bitwidth must be finite and >= 0"):
            AlqConfig(target_avg_bitwidth=value)

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_curvature_weight_rejected(self, value):
        with pytest.raises(ConfigError, match="curvature_weight must be finite"):
            AlqConfig(curvature_weight=value)

    @pytest.mark.parametrize("seed", [-1, 2**64])
    def test_seed_outside_u64_rejected(self, seed, tmp_path):
        # the container stores the seed as a u64; a JSON config is checked too
        with pytest.raises(ConfigError, match=r"seed must be in 0..2\*\*64-1"):
            AlqConfig(seed=seed)
        path = tmp_path / "alq.json"
        path.write_text(f'{{"seed": {seed}}}')
        with pytest.raises(ConfigError, match="seed must be in"):
            AlqConfig.from_json_file(path)
        assert AlqConfig(seed=2**64 - 1).seed == 2**64 - 1

    @pytest.mark.parametrize("field, value", [
        ("seed", 1.5), ("seed", True), ("group_size", 4.5), ("group_size", True),
        ("refine_iters", 2.5), ("refine_iters", True), ("calib_batch", 8.5),
        ("calib_batch", True), ("i_max", 2.5), ("i_max", True),
        ("i_max", {"default": 2.5}), ("i_max", {"default": 2, "Softmax": True}),
    ], ids=lambda v: str(v).replace(" ", ""))
    def test_non_integer_field_rejected(self, field, value):
        # a JSON config gave these to the pipeline, which failed after running
        # or, for an i_max map, truncated the cap
        with pytest.raises(ConfigError, match=f"{field} must be an integer"):
            AlqConfig(**{field: value})

    @pytest.mark.parametrize("text, message", [
        (b'{"prune": {"rate": "0.5"}}', "prune.rate must be a number, got '0.5'"),
        (b'{"prune": {"rate": true}}', "prune.rate must be a number, got True"),
        (b'{"prune": {"target_avg_bitwidth": "1.5"}}',
         "prune.target_avg_bitwidth must be a number, got '1.5'"),
        (b'{"curvature_weight": "a"}', "curvature_weight must be a number, got 'a'"),
        (b'{"curvature_weight": false}', "curvature_weight must be a number, got False"),
        (b'{"curvature_weight": null}', "curvature_weight must be a number, got None"),
        (b'\xff{}', "invalid JSON config"),
    ], ids=["rate-str", "rate-bool", "target-str", "curvature-str", "curvature-bool",
            "curvature-null", "not-utf8"])
    def test_json_non_number_rejected(self, text, message, tmp_path):
        # each leaked TypeError or UnicodeDecodeError from the JSON loader
        path = tmp_path / "alq.json"
        path.write_bytes(text)
        with pytest.raises(ConfigError, match=re.escape(message)):
            AlqConfig.from_json_file(path)

    def test_conflicting_targets(self):
        with pytest.raises(ConfigError):
            AlqConfig(prune_rate=0.5, target_avg_bitwidth=1.0)

    def test_unknown_key(self, tmp_path):
        path = tmp_path / "alq.json"
        path.write_text('{"group_sizes": 8}')
        with pytest.raises(ConfigError, match="unknown config keys"):
            AlqConfig.from_json_file(path)

    def test_digest_stable(self):
        assert AlqConfig().digest() == AlqConfig().digest()
        assert AlqConfig().digest() != AlqConfig(seed=1).digest()

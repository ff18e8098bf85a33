import hashlib
import itertools
import json
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
    Groups,
    QuantModel,
    alq_pipeline,
    calib_loss,
    calib_subset,
    canonicalize,
    dequantized_network,
    group_sizes,
    init_decompose,
    init_layers,
    layer_i_max,
    layer_spans,
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
from test_net import valid_specs
from alqecg.bitpack import serialize_bytes


# ---------------------------------------------------------------------------
# building groups from per-group (bases, coords) pairs and back


def groups_from(pairs, group_size=None) -> Groups:
    """Groups from (bases (size, k), coords (k,)) pairs, each group's size its
    bases' rows."""
    pairs = [(np.asarray(b, dtype=np.int8), np.asarray(c, dtype=np.float64))
             for b, c in pairs]
    group_size = group_size or pairs[0][0].shape[0]
    width = max(c.size for _, c in pairs)
    signs = np.zeros((len(pairs), group_size, width), dtype=np.int8)
    coords = np.zeros((len(pairs), width))
    for g, (b, c) in enumerate(pairs):
        signs[g, : b.shape[0], : c.size] = b
        coords[g, : c.size] = c
    return Groups(signs, coords, [c.size for _, c in pairs], [b.shape[0] for b, _ in pairs])


def concat(parts) -> Groups:
    """The groups of ``parts`` in order, as one set as wide as the widest."""
    width = max(p.coords.shape[1] for p in parts)

    def padded(name):
        arrays = [getattr(p, name) for p in parts]
        return np.concatenate([np.pad(a, [(0, 0)] * (a.ndim - 1) + [(0, width - a.shape[-1])])
                               for a in arrays])

    return Groups(padded("signs"), padded("coords"), np.concatenate([p.bits for p in parts]),
                  np.concatenate([p.sizes for p in parts]))


def empty_groups(groups: Groups) -> Groups:
    """The groups with every coordinate pruned."""
    n = len(groups.bits)
    return Groups(np.zeros((n, groups.signs.shape[1], 0)), np.zeros((n, 0)), np.zeros(n),
                  groups.sizes)


def values_of(groups: Groups) -> np.ndarray:
    """The values of a layer's groups (all full but the last), end to end."""
    flat = _quantizer._reconstruct(groups.signs, groups.coords).reshape(-1)
    return flat[: int(groups.sizes.sum())]


def groups_of(groups: Groups) -> list[tuple[np.ndarray, np.ndarray]]:
    """Per-group (bases, coords), without padding."""
    return [(groups.signs[g, :m, :b], groups.coords[g, :b])
            for g, (m, b) in enumerate(zip(groups.sizes, groups.bits))]


def groups_equal(a: Groups, b: Groups) -> bool:
    """Equal groups, whatever columns past the widest either set carries."""
    a, b = a.trimmed(), b.trimmed()
    return (np.array_equal(a.sizes, b.sizes) and np.array_equal(a.bits, b.bits)
            and np.array_equal(a.signs, b.signs) and a.coords.shape == b.coords.shape
            and a.coords.tobytes() == b.coords.tobytes())


def model_of(groups: Groups) -> QuantModel:
    """A one-layer model holding ``groups``, all full but the last: a
    one-output softmax-dense layer of as many parameters."""
    count = int(groups.sizes.sum())
    spec = NetworkSpec([flatten(), softmax_dense(1)], input_length=count - 1,
                       input_channels=1, class_count=1)
    return QuantModel(spec, groups, groups.signs.shape[1])


def writable(model: QuantModel) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Writable copies of the model's signs, coords and bits."""
    g = model.groups
    return g.signs.copy(), g.coords.copy(), g.bits.copy()


def with_arrays(model: QuantModel, signs, coords, bits) -> QuantModel:
    """The model with its groups' signs, coords and bits replaced."""
    return replace(model, groups=Groups(signs, coords, bits, model.groups.sizes))


def span_of(model: QuantModel, layer_index: int) -> slice:
    """The slice of the model's groups that holds one layer's."""
    return {row.index: span for row, span in layer_spans(model.spec, model.group_size)}[
        layer_index]


def arrays_sha256(model) -> str:
    """SHA-256 of every layer's signs, coords and bits arrays, cut to the
    layer's widest group, with their shapes: the quantizer's output, apart
    from any container format."""
    h = hashlib.sha256()
    for _, span in layer_spans(model.spec, model.group_size):
        layer = model.groups.trimmed(span)
        for a in (layer.signs, layer.coords, layer.bits):
            h.update(repr(a.shape).encode())
            h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


def init_groups(flat, group_size: int, i_max: int) -> Groups:
    """Greedy init of one layer's flattened values, every group capped at ``i_max``."""
    flat = np.asarray(flat, dtype=np.float64)
    sizes = group_sizes(flat.size, group_size)
    return init_decompose(partition_groups(flat, group_size), sizes,
                          np.full(len(sizes), i_max))


def init_one(w, i_max):
    w = np.asarray(w, dtype=np.float64)
    return groups_of(init_groups(w, w.size, i_max))[0]


def refine_step(step, flat, groups: Groups) -> Groups:
    """``step`` (optimize_bases or optimize_coords) on one layer's groups."""
    return step(partition_groups(flat, groups.signs.shape[1]), groups)


def bases_one(w, bases, coords):
    return groups_of(refine_step(optimize_bases, np.asarray(w, dtype=np.float64),
                                 groups_from([(bases, coords)])))[0]


def coords_one(w, bases, coords):
    return groups_of(refine_step(optimize_coords, np.asarray(w, dtype=np.float64),
                                 groups_from([(bases, coords)])))[0]


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


def ranked_coordinates(groups: Groups, scores):
    """(score, magnitude, group, coord) of every retained coordinate, in the
    documented pruning order."""
    rows = []
    for gi, (m, b) in enumerate(zip(groups.sizes, groups.bits)):
        for ci in range(b):
            rows.append((float(scores[gi, ci]), float(groups.coords[gi, ci] * np.sqrt(m)),
                         gi, ci))
    return sorted(rows)


def without_coordinate(groups: Groups, gi, ci) -> Groups:
    """A copy of the groups with one coordinate removed."""
    pairs = groups_of(groups)
    bases, coords = pairs[gi]
    keep = [c for c in range(coords.size) if c != ci]
    pairs[gi] = (bases[:, keep], coords[keep])
    return groups_from(pairs, groups.signs.shape[1])


def random_layer(rng, count=None, group_size=None, i_max=None):
    """(flat values, greedy init groups) of a layer with zero groups and a
    short tail."""
    count = count or int(rng.integers(1, 200))
    group_size = group_size or int(rng.integers(1, 20))
    flat = rng.normal(size=count) * rng.uniform(0.1, 3)
    for off in range(0, count, group_size):
        if rng.random() < 0.1:
            flat[off : off + group_size] = 0.0
    return flat, init_groups(flat, group_size, i_max or int(rng.integers(1, 5)))


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


class TestLayerSpans:
    @settings(max_examples=60, deadline=None)
    @given(spec=valid_specs(), group_size=st.integers(1, 64))
    def test_spans_follow_the_layer_table(self, spec, group_size):
        rows = [row for row in _net.layer_table(spec) if row.name]
        spans = layer_spans(spec, group_size)
        assert [row for row, _ in spans] == rows
        model = init_layers(init_params(spec, 0), group_size, 1)
        end = 0
        for row, span in spans:
            # contiguous, in layer order, ceil(count / n) groups that hold
            # the layer's values
            assert span.start == end and span.step is None
            assert span.stop - span.start == -(-row.count // group_size)
            assert model.groups.sizes[span].sum() == row.count
            end = span.stop
        assert end == len(model.groups.bits)


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
        groups = init_groups(np.zeros(3), 3, 4)
        assert groups.bits.tolist() == [0]
        np.testing.assert_array_equal(values_of(groups), [0.0, 0.0, 0.0])

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
        wide = groups_from([(np.ones((4, 17)), np.linspace(17, 1, 17))])
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
                got = optimize_coords(rows, Groups(signs, coords, np.full(n, b),
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
            self.check_canonicalize(signs, coords)
        # batches mixing groups already canonical, which pass through, with
        # groups that are not: a coordinate at COORD_EPS (dropped) or just
        # above it (kept), equal columns under strictly descending
        # coordinates, a negative coordinate; k = 1 included
        above = np.nextafter(COORD_EPS, 1.0)
        seen = {"pass": 0, "rebuilt": 0, "k=1 pass": 0, "at eps": 0, "above eps pass": 0,
                "equal columns": 0}
        for _ in range(300):
            n_groups, size, k = (int(v) for v in rng.integers(1, [12, 9, 5]))
            signs = rng.choice(np.array([-1, 1], dtype=np.int8), size=(n_groups, size, k))
            coords = -np.sort(-rng.uniform(0.01, 2, size=(n_groups, k)), axis=1)
            kind = rng.integers(0, 5, size=n_groups)
            coords[kind == 1, -1] = COORD_EPS
            coords[kind == 2, -1] = above
            if k > 1:
                signs[kind == 3, :, -1] = signs[kind == 3, :, 0]
            coords[kind == 4, 0] *= -1
            for g, passed in enumerate(self.check_canonicalize(signs, coords)):
                seen["pass" if passed else "rebuilt"] += 1
                seen["k=1 pass"] += passed and k == 1
                seen["at eps"] += bool(kind[g] == 1)
                seen["above eps pass"] += passed and kind[g] == 2
                seen["equal columns"] += bool(kind[g] == 3 and k > 1)
        assert min(seen.values()) > 20, seen

    @staticmethod
    def check_canonicalize(signs, coords) -> list[bool]:
        """canonicalize against ref_canonicalize group by group; per group,
        whether it was canonical already (the reference returns it as it is)."""
        n_groups, size, k = signs.shape
        out_signs, out_coords, bits = canonicalize(signs, coords)
        assert out_signs.shape == signs.shape and out_coords.shape == coords.shape
        assert not out_signs[np.arange(k) >= bits[:, None, None].repeat(size, 1)].any()
        passed = []
        for g in range(n_groups):
            want_b, want_c = ref_canonicalize(signs[g], coords[g])
            assert bits[g] == want_c.size
            assert np.array_equal(out_signs[g, :, : bits[g]], want_b)
            assert out_coords[g, : bits[g]].tobytes() == want_c.tobytes()
            assert not out_coords[g, bits[g] :].any()
            passed.append(bool(np.array_equal(want_b, signs[g])
                               and want_c.tobytes() == coords[g].tobytes()))
        return passed

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
            flat, groups = random_layer(rng)
            n = groups.signs.shape[1]
            i_max = int(rng.integers(1, 5))
            groups = init_groups(flat, n, i_max)
            rows = partition_groups(flat, n)
            assert_groups_equal(groups_of(groups), [
                ref_init_decompose(rows[g, :m], i_max) for g, m in enumerate(groups.sizes)
            ])
            assert values_of(groups).tobytes() == np.concatenate(
                [ref_reconstruct(*q) for q in groups_of(groups)]).tobytes()

    def test_init_decompose_per_group_caps(self):
        # one pass over groups of several sizes and caps gives each group what
        # a pass over its own layer at its own cap gives
        rng = np.random.default_rng(38)
        for _ in range(30):
            n = int(rng.integers(1, 20))
            layers = [random_layer(rng, group_size=n) for _ in range(3)]
            caps = [int(rng.integers(1, 5)) for _ in layers]
            sizes = np.concatenate([g.sizes for _, g in layers])
            got = init_decompose(
                np.concatenate([partition_groups(flat, n) for flat, _ in layers]), sizes,
                np.repeat(caps, [len(g.sizes) for _, g in layers]))
            want = concat([init_groups(flat, n, cap) for (flat, _), cap in zip(layers, caps)])
            assert groups_equal(got, want)
            assert got.signs.shape[2] == got.bits.max(initial=0)

    def test_refinement_steps(self):
        rng = np.random.default_rng(33)
        paths = {"pinv": 0, "guard": 0}
        for trial in range(150):
            flat, groups = random_layer(rng)
            if trial % 3 == 0:
                # exactly representable weights: the least-squares step can
                # only round away from them, which the error guard refuses
                flat = values_of(groups)
            if trial % 3 == 1:
                # duplicate sign columns make the Gram matrix singular (pinv)
                signs = groups.signs.copy()
                signs[:, :, -1] = signs[:, :, 0] * (groups.bits[:, None] > 1)
                groups = Groups(signs, groups.coords, groups.bits, groups.sizes)
            rows = partition_groups(flat, groups.signs.shape[1])
            for step, ref in ((optimize_bases, ref_optimize_bases),
                              (optimize_coords, ref_optimize_coords)):
                want = [ref(rows[g, : q[0].shape[0]], *q, *([paths] if ref is
                                                           ref_optimize_coords else []))
                        for g, q in enumerate(groups_of(groups))]
                groups = refine_step(step, flat, groups)
                assert_groups_equal(groups_of(groups), want)
        assert paths["pinv"] > 0 and paths["guard"] > 0

    def test_group_rows_form(self):
        # rows and groups padded past the group size and the bitwidth, as a
        # model's set holds a layer's groups at the model's widest, give the
        # groups that the layer's own trimmed rows give
        rng = np.random.default_rng(36)
        for _ in range(40):
            flat, groups = random_layer(rng)
            pad = int(rng.integers(1, 4))
            count, n, width = groups.signs.shape
            rows = np.zeros((count, n + pad))
            rows[:, :n] = partition_groups(flat, n)
            signs = np.zeros((count, n + pad, width + pad), np.int8)
            coords = np.zeros((count, width + pad))
            signs[:, :n, :width], coords[:, :width] = groups.signs, groups.coords
            got = Groups(signs, coords, groups.bits, groups.sizes)
            for step in (optimize_bases, optimize_coords):
                got = step(rows, got)
                groups = refine_step(step, flat, groups)
                assert isinstance(got, Groups) and got.signs.shape == signs.shape
                assert_groups_equal(groups_of(got), groups_of(groups))

    @pytest.mark.parametrize("group_size", [1, 5, 7, 16])
    def test_scores(self, group_size):
        from conftest import tiny_spec

        rng = np.random.default_rng(34)
        network = init_params(tiny_spec(), 35)
        model = uniform_baseline(network, 3, group_size)
        model = replace(model, groups=prune_coordinates(
            model.groups, score_coordinates(model, None, "magnitude")[0], rate=0.4))
        calib = noise_dataset(rng, 12, 8, 3)
        deq = dequantized_network(model)
        _, grads = _net.loss_gradients(deq, calib.records, calib.labels())
        scores, _ = score_coordinates(model, calib, "loss_aware", 0.7)
        assert scores.shape == model.groups.coords.shape
        for row, span in layer_spans(model.spec, group_size):
            s = scores[span]
            for gi, (bases, coords) in enumerate(groups_of(model.groups.trimmed(span))):
                off = gi * group_size
                g_slice = grads[row.index][off : off + bases.shape[0]]
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


def ref_refine_layers(network, model, iters) -> QuantModel:
    """Per-layer refinement: every round on every group of one layer at a time."""
    for _ in range(iters):
        model = ref_round(network, model)[1]
    return model


def ref_round(network, model) -> tuple[Groups, QuantModel]:
    """One per-layer refinement round: (the bases step's groups, the model after it)."""
    based, out = [], []
    for row, span in layer_spans(model.spec, model.group_size):
        flat = _net.flatten_params(network, row.index)
        based.append(refine_step(optimize_bases, flat, model.groups.trimmed(span)))
        out.append(refine_step(optimize_coords, flat, based[-1]))
    return concat(based), replace(model, groups=concat(out))


def refine_case(group_size, scorer, seed=0):
    """(network, pruned model) of an 841-parameter conv/dense network with an
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
    model = init_layers(network, group_size, i_max)
    scores, _ = score_coordinates(model, calib, scorer)
    g = prune_coordinates(model.groups, scores, rate=0.3)
    scale = np.where(np.arange(len(g.bits)) % 5 == 0, 1e-9, 1.0)[:, None]
    return network, replace(model, groups=Groups(g.signs, g.coords * scale, g.bits, g.sizes))


def same_groups(before: Groups, after: Groups, coords: bool = True) -> np.ndarray:
    """Per group, whether its bases (and, with ``coords``, its coordinates)
    are equal in two sets."""
    return np.array([
        np.array_equal(bb, ab) and (not coords or bc.tobytes() == ac.tobytes())
        for (bb, bc), (ab, ac) in zip(groups_of(before), groups_of(after))
    ])


class TestRefineLayers:
    @pytest.mark.parametrize("scorer", ["magnitude", "loss_aware"])
    @pytest.mark.parametrize("group_size", [16, 11, 7])
    def test_matches_per_layer_rounds(self, group_size, scorer):
        network, model = refine_case(group_size, scorer)
        spans = layer_spans(model.spec, group_size)
        assert len({int(model.groups.bits[span].max()) for _, span in spans}) > 1
        assert any(row.count % group_size for row, _ in spans)
        for iters in range(5):
            got = refine_layers(network, model, iters)
            want = ref_refine_layers(network, model, iters)
            assert groups_equal(got.groups, want.groups), iters
        assert (got.groups.bits < model.groups.bits).any()
        assert refine_layers(network, model, 0) is model

    @pytest.mark.parametrize("group_size", [16, 7])
    def test_rounds_refine_only_changed_groups(self, monkeypatch, group_size):
        network, model = refine_case(group_size, "loss_aware", seed=2)
        iters = 8
        rounds, based = [model], []
        for _ in range(iters):
            step, after = ref_round(network, rounds[-1])
            based.append(step)
            rounds.append(after)
        sizes = []
        real = _quantizer.optimize_coords

        def spy(rows, groups):
            sizes.append(len(groups.bits))
            return real(rows, groups)

        monkeypatch.setattr(_quantizer, "optimize_coords", spy)
        got = refine_layers(network, model, iters)
        assert groups_equal(got.groups, rounds[-1].groups)
        # round 1's coordinate step takes every group, round r's the groups
        # round r - 1 changed, less those whose coordinate step then kept the
        # signs and bitwidth (settled) and whose signs round r's bases step
        # keeps; refinement stops once no group is left
        want = [len(model.groups.bits)]
        for r in range(1, iters):
            changed = ~same_groups(rounds[r - 1].groups, rounds[r].groups)
            settled = same_groups(based[r - 1], rounds[r].groups, coords=False)
            kept = same_groups(rounds[r].groups, based[r], coords=False)
            want.append(int((changed & ~(settled & kept)).sum()))
        want = want[: want.index(0) if 0 in want else iters]
        assert sizes == want
        skipped = [int((~same_groups(a.groups, b.groups)).sum()) - n
                   for a, b, n in zip(rounds, rounds[1:], want[1:])]
        # at group size 7 the skip ends refinement after round 2
        assert want[1] < want[0] and max(skipped) > 0 and len(want) > (2 if group_size == 16 else 1)


class TestAverageBitwidth:
    def _groups(self, sizes, bits):
        return groups_from(
            [(np.ones((n, b)), np.linspace(b, 1, b)) for n, b in zip(sizes, bits)],
            max(sizes),
        )

    def test_group_mean(self):
        groups = self._groups([8, 8, 8, 8], [2, 1, 1, 0])
        assert model_avg_bitwidth(groups) == pytest.approx(1.0)
        assert total_coords(groups) == 4

    def test_weighted_mean_with_tail(self):
        groups = self._groups([16, 8], [1, 2])
        assert model_avg_bitwidth(groups) == pytest.approx((16 + 16) / 24)

    def test_equal_bits_degenerate(self):
        groups = self._groups([16, 16], [3, 3])
        assert model_avg_bitwidth(groups) == pytest.approx(3.0)


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
    model = QuantModel(spec, groups_from([g0, g1, g2], 4), 4)
    return dequantized_network(model), model


def toy_calib() -> Dataset:
    samples = [[1.0, 1.0], [-1.0, 1.0], [1.0, -1.0], [1.2, 0.8], [-0.8, 1.2], [0.8, -1.2]]
    return Dataset(samples, [0, 1, 2, 0, 1, 2], class_count=3)


class TestScoring:
    def test_magnitude_example(self):
        bases = np.ones((16, 2), dtype=np.int8) * np.array([1, -1], dtype=np.int8)
        model = model_of(groups_from([(bases, [2.0, 0.001])]))
        scores, loss = score_coordinates(model, None, "magnitude")
        assert loss is None
        assert scores[0, 0] == pytest.approx(8.0)
        assert scores[0, 1] == pytest.approx(0.004)

    def test_loss_aware_matches_exhaustive_removal(self):
        _, model = toy_quant_net()
        calib = toy_calib()
        scores, _ = score_coordinates(model, calib, "loss_aware")
        ranked = ranked_coordinates(model.groups, scores)
        predicted = ranked[0][2:]

        base_labels = calib.labels()
        best = None
        for _, magnitude, gi, ci in ranked:
            trial = replace(model, groups=without_coordinate(model.groups, gi, ci))
            loss = _net.batch_loss(dequantized_network(trial), calib.records, base_labels)
            key = (loss, magnitude, gi, ci)
            if best is None or key < best[0]:
                best = (key, (gi, ci))
        assert predicted == best[1]

    def test_loss_aware_loss_is_calib_loss(self):
        _, model = toy_quant_net()
        calib = toy_calib()
        _, loss = score_coordinates(model, calib, "loss_aware")
        assert loss == calib_loss(model, calib)

    def test_loss_aware_requires_calib(self):
        _, model = toy_quant_net()
        with pytest.raises(ConfigError, match="calibration"):
            score_coordinates(model, None, "loss_aware")

    def test_deterministic(self):
        _, model = toy_quant_net()
        calib = toy_calib()
        a, _ = score_coordinates(model, calib, "loss_aware")
        b, _ = score_coordinates(model, calib, "loss_aware")
        assert a.tobytes() == b.tobytes()


def ref_prune(groups: Groups, scores, rate=None, target=None) -> Groups:
    """Per-coordinate reference of prune_coordinates."""
    ranked = ranked_coordinates(groups, scores)
    if rate is not None:
        removed = ranked[: int(np.floor(rate * len(ranked) + 0.5))]
    else:
        bits = int(groups.sizes @ groups.bits)
        params = int(groups.sizes.sum())
        removed = []
        for row in ranked:
            if bits / params <= target:
                break
            removed.append(row)
            bits -= groups.sizes[row[2]]
    for _, _, gi, ci in sorted(removed, key=lambda r: -r[3]):
        groups = without_coordinate(groups, gi, ci)
    return groups


class TestPrune:
    def _two_groups(self):
        pairs = []
        for seed, coords in ((0, [2.0, 0.001]), (1, [1.25, 0.75])):
            signs = np.sign(np.random.default_rng(seed).normal(size=(1, 16, 2)))
            s, c, b = canonicalize(signs, np.array([coords]))
            pairs.append((s[0, :, : b[0]], c[0, : b[0]]))
        groups = groups_from(pairs)
        scores, _ = score_coordinates(model_of(groups), None, "magnitude")
        return groups, scores

    def test_rate_zero_noop(self):
        groups, scores = self._two_groups()
        out = prune_coordinates(groups, scores, rate=0.0)
        assert groups_equal(out, groups)

    def test_rate_one_empties_everything(self):
        groups, scores = self._two_groups()
        out = prune_coordinates(groups, scores, rate=1.0)
        assert not out.bits.any()
        assert model_avg_bitwidth(out) == 0.0
        np.testing.assert_array_equal(values_of(out), np.zeros(32))

    def test_lowest_score_removed_first(self):
        groups, scores = self._two_groups()
        out = prune_coordinates(groups, scores, rate=0.25)  # one of four coords
        assert out.bits.tolist() == [1, 2]
        assert out.coords[0, 0] == pytest.approx(2.0)

    def test_target_bitwidth(self):
        groups, scores = self._two_groups()
        out = prune_coordinates(groups, scores, target_avg_bitwidth=1.0)
        assert model_avg_bitwidth(out) <= 1.0

    def test_target_already_met_noop(self, caplog):
        groups, scores = self._two_groups()
        with caplog.at_level("INFO"):
            out = prune_coordinates(groups, scores, target_avg_bitwidth=5.0)
        assert groups_equal(out, groups)
        assert any("already met" in r.message for r in caplog.records)

    def test_tie_break_order(self):
        # equal scores: magnitude, then (group, coord) decide
        g = ([[1, -1], [1, 1]], [1.0, 0.5])
        out = prune_coordinates(groups_from([g]), np.array([[1.0, 1.0]]), rate=0.5)
        # coordinate 1 had the lower magnitude and is removed despite equal score
        assert out.coords.tolist() == [[1.0]]
        # three equal groups, as two layers' would lie in a model's set: the
        # earlier groups lose their second coordinate first
        out = prune_coordinates(groups_from([g, g, g]), np.ones((3, 2)), rate=2 / 6)
        assert out.bits.tolist() == [1, 1, 2]

    def test_monotone_in_rate(self):
        rng = np.random.default_rng(9)
        groups = init_groups(rng.normal(size=128), 16, 3)
        scores, _ = score_coordinates(model_of(groups), None, "magnitude")
        prev_bits = np.inf
        for rate in [0.0, 0.2, 0.4, 0.6, 0.8, 1.0]:
            out = prune_coordinates(groups, scores, rate=rate)
            bits = int(out.sizes @ out.bits)
            assert bits <= prev_bits
            prev_bits = bits

    def test_matches_per_coordinate_reference(self):
        rng = np.random.default_rng(36)
        for _ in range(40):
            n = int(rng.integers(1, 20))
            groups = concat([random_layer(rng, group_size=n, i_max=3)[1] for _ in range(3)])
            # coarse magnitude scores produce ties, broken by magnitude and
            # position
            retained = np.arange(groups.coords.shape[1]) < groups.bits[:, None]
            scores = np.where(retained, np.round(groups.coords * np.sqrt(groups.sizes)[:, None],
                                                 1), np.nan)
            for kwargs in ({"rate": float(rng.uniform(0, 1))},
                           {"target_avg_bitwidth": float(rng.uniform(0, 3))}):
                want = ref_prune(groups, scores, kwargs.get("rate"),
                                 kwargs.get("target_avg_bitwidth"))
                got = prune_coordinates(groups, scores, **kwargs)
                assert got.signs.shape[2] == got.bits.max(initial=0)
                assert_groups_equal(groups_of(got), groups_of(want))

    def test_rejects_mismatched_scores(self):
        groups, scores = self._two_groups()
        with pytest.raises(ConfigError, match="scores missing"):
            prune_coordinates(groups, scores[:1], rate=0.5)
        scores[1, 0] = np.nan
        with pytest.raises(ConfigError, match="scores missing for retained coordinates"):
            prune_coordinates(groups, scores, rate=0.5)


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
        assert report.calib_loss_init == calib_loss(initial, calib_subset(calib, config))


class TestUniformBaseline:
    def test_single_bit(self):
        network = init_params(NetworkSpec(
            [flatten(), softmax_dense(3)], input_length=4, input_channels=1,
            class_count=3), 0)
        model = uniform_baseline(network, 1, 8)
        assert (model.groups.bits == 1).all()

    def test_error_monotone_in_bits(self):
        network = init_params(NetworkSpec(
            [flatten(), softmax_dense(3)], input_length=4, input_channels=1,
            class_count=3), 1)
        prev = np.inf
        for i in [1, 2, 4, 8]:
            model = uniform_baseline(network, i, 8)
            err = 0.0
            for row, span in layer_spans(model.spec, model.group_size):
                flat = _net.flatten_params(network, row.index)
                err += float(np.sum((flat - values_of(model.groups.trimmed(span))) ** 2))
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
        assert model.groups.bits.max() == 3

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

    @pytest.mark.parametrize("prune", [[], 0, False, "", None], ids=repr)
    def test_non_object_prune_rejected(self, prune, tmp_path):
        # a falsy non-object prune was read as no pruning target
        path = tmp_path / "alq.json"
        path.write_text(json.dumps({"prune": prune}))
        with pytest.raises(ConfigError, match="prune must be an object"):
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

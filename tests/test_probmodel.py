import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bucketing.errors import (
    MassError,
    NegativeEntry,
    NotNormalized,
    OutOfRange,
    SupportViolation,
    TooLarge,
)
from bucketing.probmodel import (
    bernoulli_matrix,
    generate_dataset,
    kl_extended,
    make_matrix,
    matrix_from_json,
    mutual_information,
    tensor,
)
from bucketing.rng import _pcg64_states, derive_rng, derive_states


class TestDeriveRng:
    def test_same_tags_same_stream(self):
        a = derive_rng(7, "x", 3).integers(1 << 30, size=10)
        b = derive_rng(7, "x", 3).integers(1 << 30, size=10)
        assert np.array_equal(a, b)

    def test_distinct_tags_distinct_streams(self):
        a = derive_rng(7, "x", 3).integers(1 << 30, size=10)
        b = derive_rng(7, "x", 4).integers(1 << 30, size=10)
        c = derive_rng(7, "y", 3).integers(1 << 30, size=10)
        d = derive_rng(8, "x", 3).integers(1 << 30, size=10)
        assert not np.array_equal(a, b)
        assert not np.array_equal(a, c)
        assert not np.array_equal(a, d)

    def test_string_int_tags_not_conflated(self):
        a = derive_rng(0, "1").integers(1 << 30, size=4)
        b = derive_rng(0, 1).integers(1 << 30, size=4)
        assert not np.array_equal(a, b)


class TestDeriveStates:
    @settings(max_examples=60, deadline=None)
    @given(st.lists(
        st.tuples(st.integers(0, 2**64 - 1),
                  st.lists(st.one_of(st.text(max_size=12),
                                     st.integers(-2**63, 2**63 - 1)),
                           max_size=3)),
        min_size=1, max_size=6))
    def test_batch_equals_derive_rng(self, keys):
        keys = [(seed, *tags) for seed, tags in keys]
        for key, state in zip(keys, derive_states(keys), strict=True):
            assert state == derive_rng(*key).bit_generator.state

    @pytest.mark.parametrize("entropy", [
        0, 1, 2**32, 2**64 + 5, 2**96 - 1, 2**128 - 1])
    def test_state_equals_pcg64(self, entropy):
        # SeedSequence drops an entropy's leading zero 32-bit words
        [state] = _pcg64_states(entropy.to_bytes(16, "little"))
        assert state == np.random.PCG64(entropy).state

    def test_loaded_state_drops_buffered_word(self):
        keys = [(3, "a"), (3, "b")]
        first, second = derive_states(keys)
        gen = np.random.default_rng(0)
        gen.bit_generator.state = first
        gen.integers(2)  # leaves has_uint32 = 1
        assert gen.bit_generator.state["has_uint32"] == 1
        gen.bit_generator.state = second
        fresh = derive_rng(*keys[1])
        assert np.array_equal(gen.integers(2, size=9),
                              fresh.integers(2, size=9))
        assert gen.bit_generator.state == fresh.bit_generator.state

    def test_empty_batch(self):
        assert derive_states([]) == []


class TestMakeMatrix:
    def test_marginals(self):
        p = make_matrix([[0.5, 0.1], [0.1, 0.3]])
        assert np.allclose(p.row_marginals, [0.6, 0.4])
        assert np.allclose(p.col_marginals, [0.6, 0.4])

    def test_negative_entry(self):
        with pytest.raises(NegativeEntry):
            make_matrix([[1.1, -0.1], [0.0, 0.0]])

    def test_not_normalized(self):
        with pytest.raises(NotNormalized):
            make_matrix([[0.5, 0.4], [0.05, 0.01]])

    @pytest.mark.parametrize("entries, error", [
        ([[math.nan, 0.5], [0.25, 0.25]], NotNormalized),
        ([[math.inf, 0.5], [0.25, 0.25]], NotNormalized),
        ([[-math.inf, 0.5], [0.25, 0.25]], NegativeEntry),
    ])
    def test_non_finite_entry(self, entries, error):
        with pytest.raises(error):
            make_matrix(entries)

    def test_entries_frozen(self):
        p = make_matrix([[0.5, 0.5]])
        with pytest.raises(ValueError):
            p.entries[0, 0] = 0.3

    def test_vector_input_is_column(self):
        p = make_matrix([0.25, 0.75])
        assert p.entries.shape == (2, 1)

    def test_equality_and_hash_by_value(self):
        a = make_matrix([[0.5, 0.1], [0.1, 0.3]])
        b = make_matrix([[0.5, 0.1], [0.1, 0.3]])
        assert a == b and hash(a) == hash(b)

    def test_json_round_trip(self):
        p = make_matrix([[0.5, 0.1], [0.1, 0.3]])
        q = matrix_from_json(p.to_json())
        assert np.array_equal(p.entries, q.entries)

    def test_json_shape_mismatch(self):
        bad = json.dumps({"rows": 2, "cols": 3, "entries": [[0.5, 0.5]]})
        with pytest.raises(NotNormalized):
            matrix_from_json(bad)


@st.composite
def matrices(draw):
    """A probability matrix of up to 4x4, often with zero cells."""
    rows, cols = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    w = draw(st.lists(st.just(0.0) | st.floats(1e-6, 1.0),
                      min_size=rows * cols, max_size=rows * cols)
             .filter(lambda w: sum(w) > 0))
    return make_matrix(np.array(w).reshape(rows, cols) / sum(w))


class TestMatrixProperties:
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(p=matrices())
    def test_json_round_trip(self, p):
        q = matrix_from_json(p.to_json())
        assert q == p
        assert q.row_marginals.tobytes() == p.row_marginals.tobytes()
        assert q.col_marginals.tobytes() == p.col_marginals.tobytes()

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(p=matrices(), rows=st.integers(1, 5), cols=st.integers(1, 5))
    def test_json_declared_shape_must_match(self, p, rows, cols):
        text = json.dumps({"rows": rows, "cols": cols,
                           "entries": p.entries.tolist()})
        if (rows, cols) == p.entries.shape:
            assert matrix_from_json(text) == p
        else:
            with pytest.raises(NotNormalized):
                matrix_from_json(text)

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(p=matrices(), data=st.data(), bad=st.sampled_from(
        ["negative", "-inf", "inf", "nan"]))
    def test_bad_entry_rejected(self, p, data, bad):
        e = p.entries.copy()
        cell = data.draw(st.integers(0, e.size - 1))
        e.ravel()[cell] = {
            "negative": -data.draw(st.floats(1e-300, 1e3)),
            "-inf": -math.inf, "inf": math.inf, "nan": math.nan,
        }[bad]
        error = NegativeEntry if bad in ("negative", "-inf") else NotNormalized
        with pytest.raises(error):
            make_matrix(e)

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(p=matrices(), off=st.floats(2e-9, 10.0) | st.floats(-0.9, -2e-9))
    def test_total_off_by_more_than_tolerance_rejected(self, p, off):
        # entries summing to 1 + off, with |off| > 1e-9
        with pytest.raises(NotNormalized):
            make_matrix(p.entries * (1.0 + off))


class TestBernoulliMatrix:
    def test_entries(self):
        p = bernoulli_matrix(0.8)
        assert np.allclose(p.entries, [[0.4, 0.1], [0.1, 0.4]])
        assert np.allclose(p.row_marginals, [0.5, 0.5])

    def test_out_of_range(self):
        with pytest.raises(OutOfRange):
            bernoulli_matrix(0.4)
        with pytest.raises(OutOfRange):
            bernoulli_matrix(1.01)


class TestTensor:
    def test_row_major_layout(self):
        p1 = make_matrix([[0.5, 0.1], [0.1, 0.3]])
        p2 = make_matrix([[0.2, 0.2], [0.3, 0.3]])
        t = tensor(p1, p2)
        for j1 in range(2):
            for j2 in range(2):
                for k1 in range(2):
                    for k2 in range(2):
                        assert t.entries[2 * j1 + j2, 2 * k1 + k2] == (
                            pytest.approx(
                                p1.entries[j1, k1] * p2.entries[j2, k2]
                            )
                        )

    def test_marginals_multiply(self):
        p1 = bernoulli_matrix(0.9)
        p2 = make_matrix([[0.2, 0.2], [0.3, 0.3]])
        t = tensor(p1, p2)
        assert np.allclose(
            t.row_marginals, np.kron(p1.row_marginals, p2.row_marginals)
        )


class TestKlExtended:
    def test_self_divergence_zero(self):
        p = make_matrix([[0.5, 0.1], [0.1, 0.3]])
        assert kl_extended(p, p) == pytest.approx(0.0, abs=1e-15)

    def test_hand_value(self):
        # sum r ln(r/p) with r normalized: 0.5 ln 2 + 0 + 0 = ln(2)/2
        r = [[0.5, 0.0], [0.25, 0.25]]
        p = make_matrix([[0.25, 0.25], [0.25, 0.25]])
        assert kl_extended(r, p) == pytest.approx(0.34657359027997264)

    def test_mass_scaling(self):
        # K(cR||P) = c K(R||P): the r_** normalizer absorbs the scale
        r = np.array([[0.5, 0.0], [0.25, 0.25]])
        p = make_matrix([[0.25, 0.25], [0.25, 0.25]])
        base = kl_extended(r, p)
        for c in (0.1, 0.5, 2.0):
            assert kl_extended(c * r, p) == pytest.approx(c * base)

    def test_support_violation(self):
        p = make_matrix([[0.5, 0.0], [0.25, 0.25]])
        with pytest.raises(SupportViolation):
            kl_extended([[0.0, 1.0], [0.0, 0.0]], p)

    def test_zero_rows_ignored(self):
        p = make_matrix([[0.5, 0.0], [0.25, 0.25]])
        assert kl_extended([[1.0, 0.0], [0.0, 0.0]], p) == pytest.approx(
            math.log(2.0)
        )

    def test_shape_and_mass_errors(self):
        p = make_matrix([[0.5, 0.5]])
        with pytest.raises(MassError):
            kl_extended([[0.0, 0.0]], p)
        with pytest.raises(MassError):
            kl_extended([0.5, 0.25, 0.25], p)
        with pytest.raises(NegativeEntry):
            kl_extended([[1.5, -0.5]], p)

    def test_mutual_information_is_kl_to_product(self):
        p = make_matrix([[0.5, 0.1], [0.1, 0.3]])
        prod = make_matrix(np.outer(p.row_marginals, p.col_marginals))
        assert mutual_information(p) == pytest.approx(kl_extended(p, prod))


# 256 rows, four of them positive
SPARSE_256_ROWS = np.zeros((256, 2))
SPARSE_256_ROWS[[0, 77, 200, 255]] = [[0.1, 0.05], [0.2, 0.1],
                                      [0.05, 0.15], [0.25, 0.1]]


class TestGenerateDataset:
    def test_deterministic(self):
        p = bernoulli_matrix(0.9)
        a = generate_dataset(p, 8, 5, 7, seed=11)
        b = generate_dataset(p, 8, 5, 7, seed=11)
        assert np.array_equal(a.x0_points, b.x0_points)
        assert np.array_equal(a.x1_points, b.x1_points)
        assert a.planted == b.planted

    def test_shapes_and_ranges(self):
        p = make_matrix([[0.2, 0.1, 0.1], [0.2, 0.2, 0.2]])
        ds = generate_dataset(p, 6, 4, 9, seed=3)
        assert ds.x0_points.shape == (4, 6) and ds.x1_points.shape == (9, 6)
        assert ds.x0_points.max() < 2 and ds.x1_points.max() < 3
        i0, i1 = ds.planted
        assert 0 <= i0 < 4 and 0 <= i1 < 9

    def test_substreams_independent_of_sizes(self):
        # growing X1 must not perturb the X0 sample
        p = bernoulli_matrix(0.8)
        a = generate_dataset(p, 10, 6, 3, seed=2)
        b = generate_dataset(p, 10, 6, 50, seed=2)
        ia = a.planted[0]
        mask = np.ones(6, dtype=bool)
        mask[ia] = False
        assert np.array_equal(a.x0_points[mask], b.x0_points[mask])

    def test_planted_pair_distribution(self):
        # planted coordinates are i.i.d. from P; check cell frequencies
        p = make_matrix([[0.5, 0.1], [0.1, 0.3]])
        d = 20000
        ds = generate_dataset(p, d, 3, 3, seed=17)
        i0, i1 = ds.planted
        for j in range(2):
            for k in range(2):
                freq = np.mean(
                    (ds.x0_points[i0] == j) & (ds.x1_points[i1] == k)
                )
                target = p.entries[j, k]
                sigma = math.sqrt(target * (1 - target) / d)
                assert abs(freq - target) < 4 * sigma

    def test_non_planted_from_marginals(self):
        p = make_matrix([[0.7, 0.1], [0.1, 0.1]])
        ds = generate_dataset(p, 20000, 2, 2, seed=23)
        other = 1 - ds.planted[0]
        freq = np.mean(ds.x0_points[other] == 0)
        sigma = math.sqrt(0.8 * 0.2 / 20000)
        assert abs(freq - 0.8) < 4 * sigma

    def test_size_validation(self):
        with pytest.raises(OutOfRange):
            generate_dataset(bernoulli_matrix(0.9), 0, 1, 1, seed=0)

    @pytest.mark.parametrize("entries", [
        [[0.45, 0.05], [0.05, 0.45]],
        [[0.2, 0.0, 0.3], [0.0, 0.5, 0.0]],
        [[0.1, 0.0], [0.3, 0.2], [0.0, 0.4]],
        [[0.0, 1.0]],
        SPARSE_256_ROWS,
        SPARSE_256_ROWS.sum(axis=1)[None],
    ])
    def test_draws_match_numpy_choice(self, entries):
        # the sampler inverts the cdf exactly as Generator.choice(p=...)
        # does; a numpy release that changes choice's draws fails here
        p = make_matrix(entries)
        shapes = [
            (7, 3, 5, 25),
            # 1- to 3-symbol marginals are counted by comparison passes
            (40, 30, 26, 5),
            # and so are 256 symbols
            (120, 1100, 1090, 2),
            # and 256 planted cells, whose columns then split a uint8 draw
            (130560, 1, 1, 2),
        ]
        for d, n0, n1, seeds in shapes:
            for seed in range(seeds):
                ds = generate_dataset(p, d, n0, n1, seed)
                x0 = derive_rng(seed, "x0").choice(
                    p.rows, size=(n0, d), p=p.row_marginals)
                x1 = derive_rng(seed, "x1").choice(
                    p.cols, size=(n1, d), p=p.col_marginals)
                cells = derive_rng(seed, "planted_pair").choice(
                    p.rows * p.cols, size=d, p=p.entries.ravel())
                i0, i1 = ds.planted
                x0[i0], x1[i1] = cells // p.cols, cells % p.cols
                assert np.array_equal(ds.x0_points, x0)
                assert np.array_equal(ds.x1_points, x1)

    def test_symbols_beyond_uint8_rejected(self):
        wide = np.zeros((300, 2))
        wide[299] = 0.5
        with pytest.raises(TooLarge):
            generate_dataset(make_matrix(wide), 4, 2, 2, seed=0)
        with pytest.raises(TooLarge):
            generate_dataset(make_matrix(wide.T), 4, 2, 2, seed=0)
        full = np.zeros((256, 1))
        full[255] = 1.0
        ds = generate_dataset(make_matrix(full), 4, 2, 2, seed=0)
        assert np.all(ds.x0_points == 255)

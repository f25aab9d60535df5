"""Sparse symmetric matrices, exact power oracles, and file formats."""

import math

import numpy as np
import pytest

from dee.sparse import (
    DeeInstance,
    Side,
    adjacency_from_edges,
    decide,
    format_matrix,
    from_coordinate_arrays,
    from_coordinate_list,
    gershgorin_bound,
    matvec,
    parse_graph,
    parse_matrix,
    power_diag_exact,
    power_entry_exact,
    read_matrix_file,
    write_matrix_file,
)

from conftest import dense_power_diag, random_sparse_matrix


def triangle():
    return adjacency_from_edges(3, [(0, 1), (1, 2), (0, 2)])


class TestConstruction:
    def test_entry_lookup_is_symmetric(self):
        a = from_coordinate_list(3, [(0, 1, 2.5), (2, 2, -1.0)])
        assert a.entry(0, 1) == 2.5
        assert a.entry(1, 0) == 2.5
        assert a.entry(2, 2) == -1.0
        assert a.entry(0, 2) == 0.0

    def test_duplicate_unordered_pair_rejected(self):
        with pytest.raises(ValueError):
            from_coordinate_list(2, [(0, 1, 1.0), (1, 0, 2.0)])
        with pytest.raises(ValueError):
            from_coordinate_list(2, [(0, 0, 1.0), (0, 0, 1.0)])

    def test_index_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            from_coordinate_list(2, [(0, 2, 1.0)])
        with pytest.raises(ValueError):
            from_coordinate_list(2, [(-1, 0, 1.0)])

    def test_non_finite_value_rejected(self):
        with pytest.raises(ValueError):
            from_coordinate_list(1, [(0, 0, math.nan)])
        with pytest.raises(ValueError):
            from_coordinate_list(1, [(0, 0, math.inf)])

    def test_zero_entries_are_dropped(self):
        a = from_coordinate_list(2, [(0, 1, 0.0), (0, 0, 3.0)])
        assert a.nnz == 1
        assert a.entry(0, 1) == 0.0

    def test_dimension_must_be_positive(self):
        with pytest.raises(ValueError):
            from_coordinate_list(0, [])

    def test_zero_matrix_gets_unit_norm_bound(self):
        a = from_coordinate_list(2, [])
        assert a.norm_bound == 1.0

    def test_explicit_norm_bound_is_trusted(self):
        # Gershgorin overestimates, so a caller may know a tighter valid
        # bound; only positivity and finiteness are enforced here.
        a = from_coordinate_list(2, [(0, 1, 1.0)], norm_bound=4.0)
        assert a.norm_bound == 4.0
        with pytest.raises(ValueError):
            from_coordinate_list(2, [(0, 1, 1.0)], norm_bound=0.0)
        with pytest.raises(ValueError):
            from_coordinate_list(2, [(0, 1, 1.0)], norm_bound=math.inf)

    def test_max_row_nnz_counts_the_fullest_row(self):
        a = from_coordinate_list(4, [(0, 1, 1.0), (0, 2, 1.0), (0, 3, 1.0)])
        assert a.max_row_nnz == 3


class TestAdjacency:
    def test_triangle_shape(self):
        a = triangle()
        assert a.dim == 3
        assert a.nnz == 3
        assert a.norm_bound == 2.0
        assert np.array_equal(a.to_dense(), np.ones((3, 3)) - np.eye(3))

    def test_self_loop_rejected(self):
        with pytest.raises(ValueError):
            adjacency_from_edges(2, [(1, 1)])

    def test_duplicate_edge_rejected(self):
        with pytest.raises(ValueError):
            adjacency_from_edges(3, [(0, 1), (1, 0)])

    def test_empty_graph_bound(self):
        a = adjacency_from_edges(3, [])
        assert a.norm_bound == 1.0


class TestLinearAlgebra:
    def test_matvec_matches_dense(self, rng):
        for _ in range(30):
            n = int(rng.integers(1, 20))
            a = random_sparse_matrix(rng, n)
            v = rng.normal(size=n)
            got = matvec(a, v)
            want = a.to_dense() @ v
            assert np.allclose(got, want, rtol=0.0, atol=1e-12)

    def test_gershgorin_dominates_spectral_norm(self, rng):
        for _ in range(40):
            n = int(rng.integers(1, 16))
            a = random_sparse_matrix(rng, n)
            spec = float(np.abs(np.linalg.eigvalsh(a.to_dense())).max())
            assert gershgorin_bound(a) >= spec - 1e-12

    def test_power_diag_matches_dense_oracle(self, rng):
        for _ in range(40):
            n = int(rng.integers(1, 24))
            a = random_sparse_matrix(rng, n)
            j = int(rng.integers(0, n))
            m = int(rng.integers(1, 16))
            want = dense_power_diag(a, j, m)
            got = power_diag_exact(a, j, m)
            assert abs(got - want) <= 1e-9 * max(1.0, abs(want))

    def test_power_entry_matches_dense_oracle(self, rng):
        for _ in range(30):
            n = int(rng.integers(2, 16))
            a = random_sparse_matrix(rng, n)
            i = int(rng.integers(0, n))
            j = int(rng.integers(0, n))
            m = int(rng.integers(1, 10))
            want = float(np.linalg.matrix_power(a.to_dense(), m)[i, j])
            got = power_entry_exact(a, i, j, m)
            assert abs(got - want) <= 1e-9 * max(1.0, abs(want))

    def test_power_counts_closed_walks(self, rng):
        # On an adjacency matrix the diagonal of A^m counts closed walks,
        # checked against direct enumeration.
        for trial in range(10):
            n = int(rng.integers(2, 7))
            possible = [(i, j) for i in range(n) for j in range(i + 1, n)]
            keep = [e for e in possible if rng.random() < 0.6]
            a = adjacency_from_edges(n, keep)
            neighbors = [[j for j, _ in row] for row in a.rows]
            m = int(rng.integers(1, 7))
            start = int(rng.integers(0, n))

            def count_walks(vertex, steps):
                if steps == 0:
                    return 1 if vertex == start else 0
                return sum(count_walks(w, steps - 1) for w in neighbors[vertex])

            want = count_walks(start, m)
            got = power_diag_exact(a, start, m)
            assert got == float(want)

    def test_triangle_walks_frozen(self):
        a = triangle()
        assert power_diag_exact(a, 0, 2) == 2.0
        assert power_diag_exact(a, 0, 3) == 2.0
        assert power_entry_exact(a, 0, 1, 2) == 1.0

    def test_identity_power(self):
        a = from_coordinate_list(3, [(i, i, 1.0) for i in range(3)])
        for m in (1, 5, 40):
            assert power_diag_exact(a, 1, m) == 1.0


def _fsum_reference(a):
    """max over every row of math.fsum |A_ij|: the correctly rounded bound."""
    return max(math.fsum(row) for row in np.abs(a.vals).tolist())


class TestGershgorinBound:
    def test_matches_all_rows_fsum(self, rng):
        for _ in range(60):
            n = int(rng.integers(1, 40))
            a = random_sparse_matrix(rng, n)
            scaled = from_coordinate_list(n, [(i, j, v * 1e300) for i, row in enumerate(a.rows)
                                              for j, v in row if i <= j])
            for b in (a, scaled):
                assert gershgorin_bound(b) == _fsum_reference(b)

    def test_near_tied_rows(self):
        # row 0's float sum is 1.0, below row 6's 1 + ulp, but its exact sum
        # 1 + 2.45 ulp is the largest (ulp = 2^-52)
        ulp = 2.0**-52
        entries = [(0, 0, 1.0)] + [(0, c, 0.49 * ulp) for c in range(1, 6)] + [(6, 6, 1.0 + ulp)]
        a = from_coordinate_list(7, entries)
        assert gershgorin_bound(a) == _fsum_reference(a) == 1.0 + 2 * ulp
        # every row tied: a cycle's adjacency
        cycle = adjacency_from_edges(9, [(i, (i + 1) % 9) for i in range(9)])
        assert gershgorin_bound(cycle) == _fsum_reference(cycle) == 2.0

    def test_tridiagonal_at_2_20_rows(self):
        n = 1 << 20
        gen = np.random.default_rng(2)
        d, o = gen.uniform(-1.0, 1.0, n), gen.uniform(-1.0, 1.0, n - 1)
        i = np.arange(n)
        rows, cols = np.concatenate([i, i[:-1], i[1:]]), np.concatenate([i, i[1:], i[:-1]])
        a = from_coordinate_arrays(n, rows, cols, np.concatenate([d, o, o]), norm_bound=1.0)
        assert gershgorin_bound(a) == _fsum_reference(a)


class TestInstance:
    def test_valid_instance(self):
        inst = DeeInstance(matrix=triangle(), j=0, m=3, g=1.0, epsilon=0.5, b=2.0)
        assert inst.b == 2.0

    def test_threshold_outside_range_rejected(self):
        with pytest.raises(ValueError):
            DeeInstance(matrix=triangle(), j=0, m=2, g=5.0, epsilon=0.5, b=2.0)

    def test_b_is_a_trusted_promise(self):
        # b below the stored Gershgorin bound is allowed (the true norm can
        # be smaller); the estimator rejects it later if the spectrum of
        # A / b escapes [-1, 1].  Nonpositive b is rejected here.
        path = adjacency_from_edges(3, [(0, 1), (1, 2)])
        inst = DeeInstance(matrix=path, j=0, m=2, g=0.0, epsilon=0.5, b=1.5)
        assert inst.b < path.norm_bound
        with pytest.raises(ValueError):
            DeeInstance(matrix=path, j=0, m=2, g=0.0, epsilon=0.5, b=0.0)

    def test_epsilon_range(self):
        with pytest.raises(ValueError):
            DeeInstance(matrix=triangle(), j=0, m=2, g=0.0, epsilon=0.0, b=2.0)
        with pytest.raises(ValueError):
            DeeInstance(matrix=triangle(), j=0, m=2, g=0.0, epsilon=1.5, b=2.0)

    def test_bad_indices(self):
        with pytest.raises(ValueError):
            DeeInstance(matrix=triangle(), j=3, m=2, g=0.0, epsilon=0.5, b=2.0)
        with pytest.raises(ValueError):
            DeeInstance(matrix=triangle(), j=0, m=0, g=0.0, epsilon=0.5, b=2.0)

    def test_power_overflow_rejected(self):
        with pytest.raises(ValueError):
            DeeInstance(matrix=triangle(), j=0, m=2000, g=0.0, epsilon=0.5, b=2.0)

    def test_decide(self):
        assert decide(1.5, 1.0).side is Side.ABOVE_G
        assert decide(0.5, 1.0).side is Side.BELOW_G
        assert decide(1.0, 1.0).side is Side.BELOW_G


class TestFileFormats:
    def test_matrix_round_trip(self, rng):
        for _ in range(10):
            n = int(rng.integers(1, 12))
            a = random_sparse_matrix(rng, n)
            b = parse_matrix(format_matrix(a))
            assert b.dim == a.dim
            assert np.array_equal(b.to_dense(), a.to_dense())
            assert b.norm_bound == a.norm_bound

    def test_matrix_file_round_trip(self, tmp_path):
        a = triangle()
        path = tmp_path / "tri.mat"
        write_matrix_file(path, a)
        b = read_matrix_file(path)
        assert np.array_equal(b.to_dense(), a.to_dense())

    def test_comments_and_blank_lines_ignored(self):
        text = "# adjacency\n2 1\n\n0 1 1.0  # edge\n"
        a = parse_matrix(text)
        assert a.entry(0, 1) == 1.0

    def test_header_errors_name_the_line(self):
        with pytest.raises(ValueError, match="line 1"):
            parse_matrix("2\n")
        with pytest.raises(ValueError, match="line 2"):
            parse_matrix("2 1\n0 1\n")

    def test_entry_count_mismatch(self):
        with pytest.raises(ValueError):
            parse_matrix("2 2\n0 1 1.0\n")

    def test_lower_triangle_rejected(self):
        with pytest.raises(ValueError, match="line 2"):
            parse_matrix("2 1\n1 0 1.0\n")

    def test_graph_parse(self):
        n, edges = parse_graph("# path\n3 2\n0 1\n1 2\n")
        assert n == 3
        assert edges == [(0, 1), (1, 2)]

    def test_graph_errors(self):
        with pytest.raises(ValueError):
            parse_graph("3 1\n0 1 2\n")
        with pytest.raises(ValueError):
            parse_graph("3 2\n0 1\n")
        # self loops pass parsing and are rejected at adjacency build time
        n, edges = parse_graph("3 1\n0 0\n")
        with pytest.raises(ValueError):
            adjacency_from_edges(n, edges)

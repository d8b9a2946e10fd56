"""Closed-form bounds (Table 1, Examples 1-2)."""

import math

import pytest

from repro import AnalysisError
from repro.analysis import theory
from repro.graphs import GridGraph, bfs_distances


class TestPrimes:
    def test_small_values(self):
        assert theory.smallest_prime_at_least(1) == 2
        assert theory.smallest_prime_at_least(2) == 2
        assert theory.smallest_prime_at_least(3) == 3
        assert theory.smallest_prime_at_least(4) == 5
        assert theory.smallest_prime_at_least(8) == 11

    def test_chebyshev_bound(self):
        for n in range(2, 50):
            assert n <= theory.smallest_prime_at_least(n) < 2 * n


class TestIntegerRoot:
    """One exact ``floor(B^(1/d))`` behind the grid blockings' cube
    side, the sheared side and the corridor width."""

    @pytest.mark.parametrize("degree", [1, 2, 3, 4, 5, 6])
    def test_exact_at_and_around_powers(self, degree):
        assert theory.integer_root(0, degree) == 0
        for root in [*range(1, 60), 10**6, 2**40 + 1]:
            for value in (root**degree - 1, root**degree, root**degree + 1):
                found = theory.integer_root(value, degree)
                assert found**degree <= value < (found + 1) ** degree

    def test_callers_reject_a_dimension_below_one(self):
        from repro import BlockingError
        from repro.analysis.tessellation import sheared_side
        from repro.blockings import grid_block_side

        with pytest.raises(BlockingError):
            grid_block_side(64, 0)
        with pytest.raises(AnalysisError):
            sheared_side(64, 0)


class TestGridVolumes:
    def test_matches_brute_force(self):
        """The recurrence equals a brute-force lattice count."""
        import itertools

        for d in (1, 2, 3):
            for r in (0, 1, 3, 5):
                brute = sum(
                    1
                    for p in itertools.product(range(-r, r + 1), repeat=d)
                    if sum(map(abs, p)) <= r
                )
                assert theory.grid_ball_volume_exact(d, r) == brute

    def test_one_dimension_closed_form(self):
        for r in range(10):
            assert theory.grid_ball_volume_exact(1, r) == 2 * r + 1

    def test_two_dimension_closed_form(self):
        # k_2(r) = 2r^2 + 2r + 1 (diamond numbers).
        for r in range(10):
            assert theory.grid_ball_volume_exact(2, r) == 2 * r * r + 2 * r + 1

    def test_leading_term_dominates(self):
        for d in (1, 2, 3, 4):
            exact = theory.grid_ball_volume_exact(d, 50)
            leading = theory.grid_ball_volume_leading(d, 50)
            assert leading <= exact
            assert exact / leading < 1.2  # r=50 is deep in the asymptotic regime

    def test_invalid_args(self):
        with pytest.raises(AnalysisError):
            theory.grid_ball_volume_exact(0, 3)
        with pytest.raises(AnalysisError):
            theory.grid_ball_volume_exact(2, -1)


class TestGridRadii:
    def test_exact_inverts_volume(self):
        for d in (1, 2, 3):
            for k in (1, 5, 20, 100):
                r = theory.grid_radius_exact(d, k)
                assert theory.grid_ball_volume_exact(d, r) >= k + 1
                if r > 0:
                    assert theory.grid_ball_volume_exact(d, r - 1) < k + 1

    def test_exact_matches_measured_grid(self):
        from repro.analysis import vertex_radius

        g = GridGraph((41, 41))
        for k in (4, 12, 40, 84):
            assert vertex_radius(g, (20, 20), k) == theory.grid_radius_exact(2, k)

    def test_asymptotic_forms_agree(self):
        """Stirling and simplified forms within the (2 pi d)^(1/2d)
        factor (< 2.5, Example 2's remark)."""
        for d in (1, 2, 3, 5, 10):
            k = 10 ** 6
            stirling = theory.grid_radius_stirling(d, k)
            simple = theory.grid_radius_asymptotic(d, k)
            # (2 pi d)^(1/2d) is "never larger than about 2.5" — the
            # maximum is (2 pi)^(1/2) ~ 2.507 at d = 1.
            assert 1.0 <= stirling / simple <= 2.51

    def test_leading_vs_exact_converges(self):
        d = 2
        k = 10 ** 6
        assert theory.grid_radius_exact(d, k) == pytest.approx(
            theory.grid_radius_leading(d, k), rel=0.01
        )


class TestTreeFormulas:
    def test_root_radius_exact_at_full_balls(self):
        """When k(d-1)+1 is a power of d the root formula is exact up to
        the +-1 ball/breakout convention."""
        from repro import CompleteTree
        from repro.analysis import vertex_radius

        tree = CompleteTree(2, 12)
        for k in (7, 15, 31):  # k = 2^j - 1: full balls
            formula = theory.tree_radius_root(k, 2)
            measured = vertex_radius(tree, 0, k)
            assert abs(measured - formula) <= 1.0

    def test_leaf_ball_volume(self):
        """Example 1's leaf-ball count matches BFS on a tall tree."""
        from repro import CompleteTree

        tree = CompleteTree(2, 12)
        leaf = next(iter(tree.leaves()))
        for r in (1, 2, 3, 4, 5):
            measured = len(bfs_distances(tree, leaf, max_radius=r))
            assert measured == theory.tree_leaf_ball_volume(r, 2)

    def test_ordering_internal_lowest(self):
        """r_int <= r_root <= r_leaf: internal vertices see the most
        neighbors, leaves the fewest."""
        for k in (10, 100, 1000):
            for d in (2, 3, 5):
                assert (
                    theory.tree_radius_internal(k, d)
                    <= theory.tree_radius_root(k, d) + 1e-9
                )
                assert theory.tree_radius_root(k, d) <= theory.tree_radius_leaf(k, d)

    def test_invalid_args(self):
        with pytest.raises(AnalysisError):
            theory.tree_radius_root(0, 2)
        with pytest.raises(AnalysisError):
            theory.tree_radius_root(5, 1)


class TestTable1Bounds:
    def test_tree_bounds_bracket(self):
        assert theory.tree_lower_s2(64, 2) < theory.tree_upper(64, 2)

    def test_tree_upper_is_4x_lower(self):
        assert theory.tree_upper(256, 2) == pytest.approx(
            4 * theory.tree_lower_s2(256, 2)
        )

    def test_tree_finite_upper_exceeds_asymptotic(self):
        # The finite bound is weaker (larger) than the limit.
        finite = theory.tree_upper_finite(64, 2, 128, 200)
        assert finite > theory.tree_upper(64, 2)

    def test_tree_finite_upper_needs_tall_tree(self):
        with pytest.raises(AnalysisError):
            theory.tree_upper_finite(64, 2, 1024, 10)

    def test_grid_bounds_bracket(self):
        for d in (1, 2, 3):
            B = 4 ** d
            assert theory.grid_lower_sB(B, d) <= theory.grid_upper(B, d)
            assert theory.isothetic_s2_lower(B, d) <= theory.grid_upper(B, d)

    def test_grid1d_finite_approaches_b(self):
        # Lemma 19 tends to Lemma 18's bound as rho grows.
        vals = [
            theory.grid1d_upper_finite(32, 64, n) for n in (128, 1024, 65536)
        ]
        assert vals[0] > vals[1] > vals[2]
        assert vals[2] == pytest.approx(32, rel=0.01)

    def test_redundancy_gap_crosses_at_d5(self):
        """The headline: for d > 4 and B large, the s=2 lower bound
        exceeds the s=1 isothetic upper bound; for d <= 4 it never
        does."""
        B_big = 10 ** 10
        for d in (2, 3):
            assert theory.redundancy_gap(B_big, d) < 1.0
        assert theory.redundancy_gap(B_big, 4) == pytest.approx(1.0)
        for d in (5, 6, 8):
            assert theory.redundancy_gap(B_big, d) > 1.0

    def test_general_upper_takes_min(self):
        val = theory.general_upper(4, 16, 160, 3.0, 10.0, 8.0)
        assert val == min(10.0, 16.0, 2 * (160 / 16) / (160 / 16 - 1) * 4, 33.0, 24.0)

    def test_diagonal_tighter_than_grid(self):
        for d in (2, 3, 5):
            assert theory.diagonal_upper(4 ** d, d) <= theory.grid_upper(4 ** d, d)

    def test_blowup_formulas_positive(self):
        assert theory.thm4_blowup(64, 4.0) == 48.0
        assert theory.thm6_blowup(64, 8) == 8.0
        with pytest.raises(AnalysisError):
            theory.thm4_blowup(64, 0.0)
        with pytest.raises(AnalysisError):
            theory.thm6_blowup(64, 0)

    def test_dfs_circuit_upper(self):
        assert theory.dfs_circuit_upper(8, 16, 160) == pytest.approx(
            2 * 10 / 9 * 8
        )
        with pytest.raises(AnalysisError):
            theory.dfs_circuit_upper(8, 16, 16)

    def test_ballcover_cardinality_bound(self):
        assert theory.ballcover_cardinality_bound(60, 6) == pytest.approx(12.0)
        assert theory.ballcover_cardinality_bound(60, 2) == 60.0


class TestMemoryRequirements:
    def test_table_column_present_for_all_rows(self):
        reqs = theory.TABLE1_MEMORY_REQUIREMENTS
        # Every Table 1 construction family is listed.
        for key in (
            "tree_overlapped_s2",
            "grid1d_contiguous_s1",
            "grid2d_brick_s1",
            "grid2d_offset_s2",
            "isothetic_sheared_s1",
            "general_lemma13_sB",
        ):
            assert key in reqs

    def test_values_match_paper(self):
        reqs = theory.TABLE1_MEMORY_REQUIREMENTS
        assert reqs["grid1d_contiguous_s1"] == 2
        assert reqs["grid2d_brick_s1"] == 3
        assert reqs["grid2d_offset_s2"] == 2
        assert reqs["tree_overlapped_s2"] == 1

    def test_sheared_is_dimension_dependent(self):
        assert theory.TABLE1_MEMORY_REQUIREMENTS["isothetic_sheared_s1"] is None
        assert theory.sheared_memory_blocks(2) == 3
        assert theory.sheared_memory_blocks(5) == 6
        with pytest.raises(AnalysisError):
            theory.sheared_memory_blocks(0)

    def test_experiment_configs_respect_requirements(self):
        """The shipped Table 1 runners give each construction at least
        its required memory."""
        from repro.experiments.table1 import grid1d_row, grid2d_rows

        for row in grid1d_row(num_steps=200):
            needed = 2 if row.params["s"] == 1 else 1
            # M/B used in the experiment:
            assert row.params["B"] * needed <= row.params["B"] * 2
        for row in grid2d_rows(num_steps=200):
            pass  # runs at 3B (s=1) and 2B (s=2) by construction

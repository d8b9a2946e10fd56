"""Closed-form theory: every bound in Table 1, plus Examples 1-2.

These are the paper's formulas transcribed directly, used by the
benchmark harness to draw the upper/lower envelopes the measured
speed-ups must respect. Formulas are continuous (the paper omits
floors); the exact integer counterparts, where the paper's examples
admit them, are provided alongside (``grid_ball_volume_exact``,
``grid_radius_exact``).

Naming convention: ``*_upper`` caps any blocking (adversary side);
``*_lower`` is guaranteed by the matching construction (algorithm
side); trailing ``_s1`` / ``_s2`` / ``_sB`` tags the storage blow-up
the bound assumes.
"""

from __future__ import annotations

import math

from repro.errors import AnalysisError

E = math.e


def lg(x: float) -> float:
    """Base-2 logarithm (the paper's ``lg``)."""
    return math.log2(x)


def integer_root(value: int, degree: int) -> int:
    """``floor(value ** (1/degree))``, exact for ``value >= 0`` and
    ``degree >= 1``: the float root is only a first guess, corrected by
    integer powers. Callers check their own inputs first.

    The cube side ``floor(B^(1/d))`` of the grid blockings and the
    corridor width of the grid adversaries.
    """
    root = int(round(value ** (1.0 / degree)))
    while root ** degree > value:
        root -= 1
    while (root + 1) ** degree <= value:
        root += 1
    return root


def smallest_prime_at_least(n: int) -> int:
    """The smallest prime ``p >= n`` (Chebyshev/Bertrand: ``p < 2n``).

    Used by Lemma 28's sheared tessellation.
    """
    if n <= 2:
        return 2
    candidate = n
    while True:
        if all(candidate % q for q in range(2, int(math.isqrt(candidate)) + 1)):
            return candidate
        candidate += 1


# ---------------------------------------------------------------------------
# Example 1: k-radii of complete d-ary trees.
# ---------------------------------------------------------------------------


def tree_radius_root(k: float, d: int) -> float:
    """``r_root(k)`` for a complete d-ary tree (Example 1)."""
    _check_tree_args(k, d)
    return lg(k * (d - 1) + 1) / lg(d) - 1


def tree_radius_internal(k: float, d: int) -> float:
    """``r_int(k)``: the radius of a deep internal vertex (Example 1).

    This is the graph's minimum k-radius, ``r^-(k)``.
    """
    _check_tree_args(k, d)
    return (lg(k * (d - 1) + 2) - lg(d + 1)) / lg(d)


def tree_radius_leaf(k: float, d: int) -> float:
    """``r_leaf(k)``: the radius of a leaf (Example 1).

    This is the graph's maximum k-radius, ``r^+(k)``.
    """
    _check_tree_args(k, d)
    first = 2 * math.ceil((lg(k * (d - 1) + 2) - 1) / lg(d) - 0.5)
    second = 2 * math.ceil((lg((k * (d + 1) + 2) / d - 1) - 1) / lg(d)) + 1
    return min(first, second)


def tree_leaf_ball_volume(r: int, d: int) -> int:
    """Vertices within distance ``r`` of a leaf in a tall complete
    d-ary tree: ``(d^(floor(r/2)+1) + d^(ceil(r/2)) - 2) / (d - 1)``."""
    if r < 0:
        raise AnalysisError(f"r must be >= 0, got {r}")
    if d < 2:
        raise AnalysisError(f"d must be >= 2, got {d}")
    return (d ** (r // 2 + 1) + d ** ((r + 1) // 2) - 2) // (d - 1)


def _check_tree_args(k: float, d: int) -> None:
    if k < 1:
        raise AnalysisError(f"k must be >= 1, got {k}")
    if d < 2:
        raise AnalysisError(f"d must be >= 2, got {d}")


# ---------------------------------------------------------------------------
# Example 2: ball volumes and radii of d-dimensional grid graphs.
# ---------------------------------------------------------------------------


def grid_ball_volume_exact(d: int, r: int) -> int:
    """Exact ``k_d(r)``: lattice points of ``Z^d`` within L1-distance
    ``r`` of a point, via the paper's recurrence
    ``k_d(r) = k_{d-1}(r) + 2 * sum_{r' < r} k_{d-1}(r')``."""
    if d < 1:
        raise AnalysisError(f"d must be >= 1, got {d}")
    if r < 0:
        raise AnalysisError(f"r must be >= 0, got {r}")
    # k_1(r) = 2r + 1; build up dimension by dimension.
    volumes = [2 * rr + 1 for rr in range(r + 1)]
    for _ in range(d - 1):
        prefix = 0
        nxt = []
        for rr in range(r + 1):
            nxt.append(volumes[rr] + 2 * prefix)
            prefix += volumes[rr]
        volumes = nxt
    return volumes[r]


def grid_ball_volume_leading(d: int, r: float) -> float:
    """The leading term ``(2^d / d!) * r^d`` of ``k_d(r)``."""
    if d < 1:
        raise AnalysisError(f"d must be >= 1, got {d}")
    return (2.0 ** d) / math.factorial(d) * float(r) ** d


def grid_radius_exact(d: int, k: int) -> int:
    """Exact integer ``r_d(k)``: the k-radius of any vertex of the
    infinite d-dimensional grid — the smallest ``r`` with
    ``k_d(r) >= k + 1`` (the nearest excluded vertex of the k nearest
    lies at that distance)."""
    if k < 1:
        raise AnalysisError(f"k must be >= 1, got {k}")
    r = 0
    while grid_ball_volume_exact(d, r) < k + 1:
        r += 1
    return r


def grid_radius_leading(d: int, k: float) -> float:
    """The paper's leading term ``(1/2) (d! k)^(1/d)``."""
    if d < 1:
        raise AnalysisError(f"d must be >= 1, got {d}")
    return 0.5 * (math.factorial(d) * k) ** (1.0 / d)


def grid_radius_stirling(d: int, k: float) -> float:
    """Stirling form ``(1/2e) (2 pi d)^(1/2d) d k^(1/d)``."""
    if d < 1:
        raise AnalysisError(f"d must be >= 1, got {d}")
    return (1 / (2 * E)) * (2 * math.pi * d) ** (1 / (2 * d)) * d * k ** (1 / d)


def grid_radius_asymptotic(d: int, k: float) -> float:
    """The simplified asymptotic ``(1/2e) d k^(1/d)`` (equation (1))."""
    if d < 1:
        raise AnalysisError(f"d must be >= 1, got {d}")
    return d * k ** (1 / d) / (2 * E)


# ---------------------------------------------------------------------------
# Table 1: complete d-ary trees (Section 5).
# ---------------------------------------------------------------------------


def tree_upper(B: int, d: int) -> float:
    """``sigma <= 2 lg B / lg d`` (Corollary 3)."""
    return 2 * lg(B) / lg(d)


def tree_upper_finite(B: int, d: int, M: int, h: int) -> float:
    """Theorem 7's finite-height bound ``2h / (h/log_d B - log_d M)``.

    Requires the denominator to be positive (tall enough trees).
    """
    denom = h / math.log(B, d) - math.log(M, d)
    if denom <= 0:
        raise AnalysisError(
            f"tree too short for the Theorem 7 bound: h={h}, B={B}, M={M}"
        )
    return 2 * h / denom


def tree_lower_s2(B: int, d: int) -> float:
    """``sigma >= lg B / (2 lg d)`` with ``s = 2`` (Lemma 17)."""
    return lg(B) / (2 * lg(d))


# ---------------------------------------------------------------------------
# Table 1: grid graphs (Section 6).
# ---------------------------------------------------------------------------


def grid_upper(B: int, d: int) -> float:
    """``sigma <= d B^(1/d)`` (Lemma 24; Lemma 18 is ``d = 1``,
    Lemma 21 is ``d = 2``)."""
    return d * B ** (1 / d)


def grid1d_upper_finite(B: int, M: int, n: int) -> float:
    """Lemma 19: ``rho/(rho-1) B - B/((rho-1)M)`` for an n-vertex path."""
    rho = n / M
    if rho <= 1:
        raise AnalysisError(f"need n > M, got n={n}, M={M}")
    return rho / (rho - 1) * B - B / ((rho - 1) * M)


def grid1d_lower_s1(B: int) -> float:
    """``sigma >= B`` with ``s = 1, M >= 2B`` (Lemma 20)."""
    return float(B)


def grid1d_lower_s2(B: int) -> float:
    """``sigma >= B/2`` with ``s = 2, M >= B`` (Section 6.1.2 remark)."""
    return B / 2


def grid2d_lower_s1(B: int) -> float:
    """``sigma >= sqrt(B)/6`` with ``s = 1, M >= 3B`` (Lemma 23)."""
    return math.sqrt(B) / 6


def grid2d_lower_s2(B: int) -> float:
    """``sigma >= sqrt(B)/4`` with ``s = 2, M >= 2B`` (Lemma 22)."""
    return math.sqrt(B) / 4


def grid_lower_sB(B: int, d: int) -> float:
    """``sigma >= (1/2e) d B^(1/d)`` with ``s = B`` (Lemma 27)."""
    return grid_radius_asymptotic(d, B)


def grid_lower_reduced(B: int, d: int) -> float:
    """``sigma >= (1/4e) d B^(1/d)`` with the reduced blow-up of
    Theorems 4/6 (half the Lemma 27 speed-up)."""
    return grid_radius_asymptotic(d, B) / 2


def grid_reduced_blowup(B: int, d: int) -> float:
    """The blow-up ``min{(6e/d) B^((d-1)/d), 4^d}`` (Section 6.3.2)."""
    return min(6 * E / d * B ** ((d - 1) / d), 4.0 ** d)


def isothetic_s2_lower(B: int, d: int) -> float:
    """``sigma >= B^(1/d)/4`` with ``s = 2`` offset hypercubes (L26)."""
    return B ** (1 / d) / 4


def isothetic_s1_upper(B: int, d: int) -> float:
    """``sigma <= (B^(1/d) + d)/(d + 1)`` for any ``s = 1`` isothetic
    hypercube tessellation blocking (Lemma 31)."""
    return (B ** (1 / d) + d) / (d + 1)


def isothetic_s1_upper_table(B: int, d: int) -> float:
    """Table 1's simplified form of the Lemma 31 cap:
    ``sigma <= (1/d) B^(1/d)``."""
    return B ** (1 / d) / d


def isothetic_s1_lower(B: int, d: int) -> float:
    """``sigma >= B^(1/d)/(2 d^2)`` with the sheared ``s = 1``
    tessellation (Lemma 28)."""
    return B ** (1 / d) / (2 * d * d)


def diagonal_upper(B: int, d: int) -> float:
    """``sigma <= 2 B^(1/d)`` on diagonal grids (Lemma 25)."""
    return 2 * B ** (1 / d)


def diagonal_lower_s2(B: int, d: int) -> float:
    """``sigma >= B^(1/d)/4`` with ``s = 2`` on diagonal grids (L26)."""
    return B ** (1 / d) / 4


def redundancy_gap(B: int, d: int) -> float:
    """The headline ratio: the ``s = 2`` isothetic lower bound over
    Table 1's ``s = 1`` isothetic upper bound, ``d/4`` — exceeds 1
    exactly when ``d > 4`` (the paper's Conclusions: "the lower bound
    for s = 2 is larger than the upper bound for s = 1 as long as
    d > 4"), proving redundancy buys more than a constant factor."""
    return isothetic_s2_lower(B, d) / isothetic_s1_upper_table(B, d)


# ---------------------------------------------------------------------------
# Table 1: general graphs (Section 4).
# ---------------------------------------------------------------------------


def general_upper(
    B: int,
    M: int,
    n: int,
    r_plus_B: float,
    r_plus_M: float,
    r_minus_M: float,
) -> float:
    """Theorem 2: the minimum of the five general upper bounds."""
    rho = n / M
    if rho <= 1:
        raise AnalysisError(f"need n > M, got n={n}, M={M}")
    return min(
        r_plus_M,
        2 * r_minus_M,
        2 * rho / (rho - 1) * B,
        (2 * M / B + 3) * r_plus_B,
        8 * r_plus_B,
    )


def dfs_circuit_upper(B: int, M: int, n: int) -> float:
    """Lemma 9: ``sigma <= 2 rho/(rho-1) B``."""
    rho = n / M
    if rho <= 1:
        raise AnalysisError(f"need n > M, got n={n}, M={M}")
    return 2 * rho / (rho - 1) * B


def steiner_upper(r_plus_B: float) -> float:
    """Lemma 12: ``sigma <= 8 r^+(B)``."""
    return 8 * r_plus_B


def lemma10_upper(B: int, M: int, r_plus_B: float) -> float:
    """Lemma 10: ``sigma <= (2 M/B + 3) r^+(B)``."""
    return (2 * M / B + 3) * r_plus_B


def general_lower_sB(r_minus_B: float) -> float:
    """Lemma 13: ``sigma >= r^-(B)`` with ``s = B``."""
    return r_minus_B


def general_lower_ballcover(r_minus_B: float) -> float:
    """Theorems 4/6: ``sigma >= ceil(r^-(B)/2)`` with reduced blow-up."""
    return math.ceil(r_minus_B / 2)


def thm4_blowup(B: int, r_minus_B: float) -> float:
    """Theorem 4's asymptotic blow-up ``s = 3B / r^-(B)``."""
    if r_minus_B <= 0:
        raise AnalysisError("r^-(B) must be positive")
    return 3 * B / r_minus_B


def thm6_blowup(B: int, k_minus_quarter_radius: int) -> float:
    """Theorem 6's blow-up ``s <= B / k^-(floor(r^-(B)/4))``."""
    if k_minus_quarter_radius < 1:
        raise AnalysisError("ball volume must be >= 1")
    return B / k_minus_quarter_radius


def ballcover_cardinality_bound(n: int, r: int) -> float:
    """Corollary 2: ``|V'| <= n / (2 floor(r/3) + 1)``."""
    if r < 0:
        raise AnalysisError(f"r must be >= 0, got {r}")
    return n / (2 * (r // 3) + 1)


# ---------------------------------------------------------------------------
# Table 1 metadata: the M/B column.
# ---------------------------------------------------------------------------

#: Minimum memory (in blocks, the paper's M/B column of Table 1) each
#: construction needs for its guarantee. Keys name the constructions as
#: the library exposes them.
TABLE1_MEMORY_REQUIREMENTS: dict[str, int] = {
    "tree_overlapped_s2": 1,          # Lemma 17: "M/B >= 1"
    "grid1d_contiguous_s1": 2,        # Lemma 20
    "grid1d_offset_s2": 1,            # Section 6.1.2 remark
    "grid2d_brick_s1": 3,             # Lemma 23
    "grid2d_offset_s2": 2,            # Lemma 22
    "gridd_ball_sB": 1,               # Lemma 13/27
    "gridd_reduced_thm4": 1,          # Theorem 4
    "gridd_reduced_thm6": 1,          # Theorem 6
    "isothetic_offset_s2": 2,         # Lemma 26
    "isothetic_sheared_s1": None,     # Lemma 28: M/B >= d + 1 (dimension-dependent)
    "diagonal_offset_s2": 2,          # Lemma 26 (diagonal)
    "general_lemma13_sB": 1,          # Lemma 13
}


def sheared_memory_blocks(d: int) -> int:
    """Lemma 28's requirement: ``M >= (d + 1) B``."""
    if d < 1:
        raise AnalysisError(f"d must be >= 1, got {d}")
    return d + 1

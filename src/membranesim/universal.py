"""Exact mask-averaged collapse probabilities for cellular structures.

All 2**n - 1 nonzero breakable/unbreakable assignments of an n-cell
structure are enumerated with integer bookkeeping and the averages are
Fractions, never floats. Cells are numbered 1..n left to right and cell
c maps to bit c-1 of the mask integer. With the state at contact point
i (so i cells lie to its left), a break in one of the k_i breakable
cells on the right pulls the state to the left end, hence

    P(i -> left | mask) = k_i / k,

where k is the total breakable count; one structure's value is
`density.Cellular1DDensity.region_probabilities`, and this module only
counts masks. Averaging that over every nonzero
mask reproduces the all-breakable value (n - i)/n for every n, which is
what makes the uniform average of all cellular structures behave like
the uniformly breakable one.

The same enumeration covers higher-dimensional tessellations: order the
i cells outside a target region before the n_c - i cells inside it on a
line, and the probability that a breakable cell inside the region
breaks is again k_i / k.

Every enumerated result follows one contract. A single kernel counts
every nonzero mask by k and by the popcounts (`np.bitwise_count`) of
the requested shifts. Those statistics add over disjoint bits, so the
kernel splits each mask into its low ceil(n/2) bits and a high prefix
and counts each half once: one bincount over the low masks gives a
table, one over the high prefixes counts the prefixes at each index,
and each distinct prefix index adds the table at that offset, times
its count. No binomial enters the counts. Integer dot products turn
them into per-k integer sums S_k. Each exact sum, over S_k / k here and
over the binomial terms of the identities, is one integer numerator
over lcm(1..K), made into a single Fraction at the end; the S_k / k
numerator is one C-level sum of products of S_k with lcm(1..K) // k.
An identity's integer terms t_k come in one pass, each from the one
before it by the ratio of consecutive binomials. The weighted sum of
k t_k comes by summation by parts, with no multiply per term: with the
partial sums P_k = t_0 + ... + t_k and R = P_0 + ... + P_n, it is
(n + 1) P_n - R. identity_report carries lcm(1..n + 1) up its walk
over n, and the module keeps no state between calls. No float enters
the enumeration or the reduction.

The kernel can also count masks by a field of `width` bits starting at
`bit`. The theorem table uses that to serve every position of an n-cell
structure from one set of per-cell counts: one pass per 8-bit field
gives N[c, k], the masks with k breakable cells in which cell c + 1 is
breakable, and the sum of N[c, k] over the cells right of position i
is that position's S_k. That is ceil(n/8) passes per n instead of one
per position.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from fractions import Fraction
from math import lcm, prod
from operator import mul

import numpy as np

#: guard on full-mask enumeration; one kernel pass over 2**40 masks takes
#: 0.03-0.04 s with a 25 MiB peak, theorem_report(40) 0.35-0.7 s and
#: theorem_report(24) 0.006-0.013 s (2 vCPU, numpy 2.4.6)
MAX_ENUMERABLE_CELLS = 40
#: largest n_max of the identity table; identity_report(600) takes about
#: 0.07-0.09 s, the CLI run about 0.33-0.44 s (2 vCPU, Python 3.11)
MAX_IDENTITY_N = 600
#: mask bits per kernel pass of the theorem table's per-cell counts
_FIELD_BITS = 8


def _low_bits(n: int) -> int:
    """Mask bits in the kernel's low half: ceil(n/2), so that the low
    masks and the high prefixes each take 2**(n/2) entries at most."""
    return (n + 1) // 2


def _check_enumerable(n: int) -> None:
    if n > MAX_ENUMERABLE_CELLS:
        raise ValueError(
            f"enumeration over 2**{n} masks exceeds the bound of "
            f"{MAX_ENUMERABLE_CELLS} cells"
        )


def _check_target(target: str) -> None:
    if target not in ("left", "right"):
        raise ValueError("target must be 'left' or 'right'")


def _mask_counts(
    n: int, shifts: tuple[int, ...], bit: int | None = None, width: int = 1
) -> np.ndarray:
    """Integer counts of the nonzero n-bit masks by their bit counts.

    Entry [k, r_1, ..., r_m] counts the masks with k breakable cells and
    popcount(mask >> shifts[j]) == r_j. With `bit` given, a last axis of
    length 2**width holds the field (mask >> bit) & (2**width - 1),
    extracted on its own. Every statistic is additive over disjoint
    bits, so the flat index of mask = high + low, with low below bit
    _low_bits(n), is index(high) + index(low). One bincount over the
    low masks gives a table and one over the high prefixes gives each
    index(high) its number of prefixes. Every pair of a nonzero table
    entry and a nonzero prefix count adds their product at the sum of
    their indices, in one integer `np.add.at`: each mask is counted
    once, as a (high, low) pair, in int64 throughout.
    Callers check n against MAX_ENUMERABLE_CELLS first.
    """
    field = (1 << width) - 1
    dims = (
        n + 1,
        *(n - s + 1 for s in shifts),
        *((field + 1,) if bit is not None else ()),
    )

    def flat_index(masks: np.ndarray) -> np.ndarray:
        index = np.bitwise_count(masks).astype(np.intp)
        for s, d in zip(shifts, dims[1:]):
            index *= d
            index += np.bitwise_count(masks >> s)
        if bit is not None:
            index <<= width
            index += (masks >> bit) & field
        return index

    low_bits = _low_bits(n)
    table = np.bincount(flat_index(np.arange(1 << low_bits, dtype=np.int64)))
    highs = np.arange(1 << (n - low_bits), dtype=np.int64) << low_bits
    prefixes = np.bincount(flat_index(highs))
    low, high = np.flatnonzero(table), np.flatnonzero(prefixes)
    counts = np.zeros(prod(dims), dtype=np.int64)
    np.add.at(
        counts,
        (high[:, None] + low).ravel(),
        (prefixes[high][:, None] * table[low]).ravel(),
    )
    counts[0] -= 1  # the zero mask
    return counts.reshape(dims)


def _per_cell_suffix_sums(n: int) -> np.ndarray:
    """Row i, column k: the sum of popcount(mask >> i) over the nonzero
    n-bit masks with k breakable cells, for i = 0..n - 1.

    Each kernel pass counts the masks by k and by one _FIELD_BITS-bit
    field; the 0/1 columns of the field's bits turn those counts into
    N[c, k], the masks with k breakable cells and cell c + 1 breakable.
    Row i sums N[c, k] over the cells right of position i.
    """
    per_cell = np.zeros((n, n + 1), dtype=np.int64)
    for low in range(0, n, _FIELD_BITS):
        width = min(_FIELD_BITS, n - low)
        counts = _mask_counts(n, (), bit=low, width=width)
        cell_bits = (np.arange(1 << width) >> np.arange(width)[:, None]) & 1
        per_cell[low : low + width] = cell_bits @ counts.T
    return np.cumsum(per_cell[::-1], axis=0)[::-1]


def _per_k_total(sums) -> Fraction:
    """Exact sum of sums[k] / k over k = 1..K, K = len(sums) - 1, for
    integer sums: one integer numerator over lcm(1..K), then one Fraction."""
    denominator = lcm(*range(1, len(sums)))
    shares = [denominator // k for k in range(1, len(sums))]
    # tolist() gives Python ints, so no int64 product can overflow
    numerator = sum(map(mul, np.asarray(sums)[1:].tolist(), shares))
    return Fraction(numerator, denominator)


def universal_average_1d(n: int, i: int, target: str = "left") -> Fraction:
    """Average collapse probability over all 2**n - 1 nonzero masks.

    Enumerates every mask of an n-cell structure with the state at
    contact point i and averages P(i -> target | mask) exactly. The
    result equals the all-breakable value, (n - i)/n for the left end.
    """
    _check_target(target)
    if n < 2:
        raise ValueError("need at least two cells for an interior position")
    if not 1 <= i <= n - 1:
        raise ValueError(f"position must be in 1..{n - 1}")
    p_left = universal_average_abstract(n, i)
    return p_left if target == "left" else 1 - p_left


def universal_average_abstract(n_cells: int, cells_in_complement: int) -> Fraction:
    """Mask-averaged probability that a breakable cell inside a target
    region breaks, for a tessellation linearised as n_cells cells with
    the complement's `cells_in_complement` cells placed first.

    Equals (n_cells - cells_in_complement)/n_cells exactly; the edge
    positions 0 and n_cells (empty complement or empty region) are
    allowed and give 1 and 0.
    """
    n, i = n_cells, cells_in_complement
    if n < 1:
        raise ValueError("need at least one cell")
    if not 0 <= i <= n:
        raise ValueError(f"complement size must be in 0..{n}")
    _check_enumerable(n)
    sums = _mask_counts(n, (i,)) @ np.arange(n - i + 1)
    return _per_k_total(sums) / (2**n - 1)


def _binomial_sums(n: int, denominator: int) -> tuple[Fraction, Fraction]:
    """Exact sums of k C(n, k)/(k + 1) and of C(n, k)/(k + 1), k = 0..n,
    each one integer numerator over L = `denominator` = lcm(1..n + 1).
    Term k + 1 of the integers t_k = C(n, k) L/(k + 1) is term k times
    (n - k)/(k + 2), an exact divide. The plain numerator is the partial
    sum P_n = t_0 + ... + t_n. The weighted one is summed by parts: each
    t_j appears in the n + 1 - j partial sums P_j..P_n, so with
    R = P_0 + ... + P_n it is (n + 1) P_n - R, and no term is multiplied
    by k. The caller owns L: identity_report carries it up its walk over
    n, one factor per n, and every other caller builds it from scratch."""
    plain = partials = 0
    term = denominator
    for k in range(n + 1):
        plain += term
        partials += plain
        term = term * (n - k) // (k + 2)
    weighted = (n + 1) * plain - partials
    return Fraction(weighted, denominator), Fraction(plain, denominator)


def _identity(n: int, lhs: Fraction, which: int) -> tuple[Fraction, Fraction]:
    """Identity a (which = 0) or b (which = 1) at n: its left side `lhs`
    against its closed form, instantiated independently. A mismatch
    raises."""
    rhs = Fraction((1 << (n + 1)) - 1 if which else (1 << n) * (n - 1) + 1, n + 1)
    if lhs != rhs:
        raise ArithmeticError(f"identity failed at n={n}: {lhs} != {rhs}")
    return lhs, rhs


def binomial_identity_a(n: int) -> tuple[Fraction, Fraction]:
    """Sum of k/(k+1) * C(n, k) versus its closed form (2**n (n-1) + 1)/(n+1)."""
    if n < 0:
        raise ValueError("n must be non-negative")
    return _identity(n, _binomial_sums(n, lcm(*range(1, n + 2)))[0], 0)


def binomial_identity_b(n: int) -> tuple[Fraction, Fraction]:
    """Sum of 1/(k+1) * C(n, k) versus its closed form (2**(n+1) - 1)/(n+1)."""
    if n < 0:
        raise ValueError("n must be non-negative")
    return _identity(n, _binomial_sums(n, lcm(*range(1, n + 2)))[1], 1)


@dataclass(frozen=True)
class RecurrenceReport:
    """Enumerated and closed-form values for one induction step i -> i+1.

    Sums over masks (always the 2**n - 1 nonzero ones) of left-end
    collapse probabilities, the split at cell i+1, and the per-mask
    difference law. `index_convention` records which binomial form the
    enumerated difference sum matched: "n-1" stands for
    -sum_{k=0}^{n-1} C(n-1, k)/(k+1), "n" for the same form with n.
    """

    n: int
    i: int
    sum_at_i: Fraction
    sum_at_i_closed: Fraction
    sum_at_i_plus_1: Fraction
    sum_at_i_plus_1_closed: Fraction
    unbreakable_split_sum: Fraction
    unbreakable_shifted_sum: Fraction
    difference_sum: Fraction
    difference_sum_closed: Fraction
    difference_binomial_nm1: Fraction
    difference_binomial_n: Fraction
    per_mask_difference_law_holds: bool
    index_convention: str
    all_match: bool

    def as_dict(self) -> dict:
        out = asdict(self)
        for key, val in out.items():
            if isinstance(val, Fraction):
                out[key] = str(val)
        return out


def recurrence_step_check(n: int, i: int) -> RecurrenceReport:
    """Verify one induction step of the mask-average identity by brute force.

    Enumerates all nonzero n-cell masks and checks, exactly: the sums of
    P(i -> left) and P(i+1 -> left) against (2**n - 1)(n - i)/n and the
    i+1 analogue; that masks with an unbreakable cell i+1 contribute the
    same at both positions; that every mask with a breakable cell i+1
    satisfies P(i+1 -> left) - P(i -> left) = -1/k; and that the total
    difference sum equals -(2**n - 1)/n, reconciling the two candidate
    binomial index conventions.
    """
    if n < 3:
        raise ValueError("an induction step needs at least three cells")
    if not 1 <= i <= n - 2:
        raise ValueError(f"position must be in 1..{n - 2}")
    _check_enumerable(n)
    # axes: k, popcount(mask >> i), popcount(mask >> (i + 1)), bit i
    counts = _mask_counts(n, (i, i + 1), bit=i)
    r_i = np.arange(n - i + 1)[:, None, None]
    r_i1 = np.arange(n - i)[:, None]
    bit = np.arange(2)

    def per_k(weight: np.ndarray) -> np.ndarray:
        return (counts * weight).sum(axis=(1, 2, 3))

    occupied = counts.any(axis=0)
    difference_law = bool(np.all((r_i - r_i1 == bit) | ~occupied))
    total = (1 << n) - 1
    sum_at_i = _per_k_total(per_k(r_i))
    sum_at_i1 = _per_k_total(per_k(r_i1))
    unbreakable_split = _per_k_total(per_k(r_i1 * (1 - bit)))
    unbreakable_shifted = _per_k_total(per_k(r_i * (1 - bit)))
    difference = -_per_k_total(per_k(bit))
    closed_i = total * transition_of_uniform(n, i)
    closed_i1 = total * transition_of_uniform(n, i + 1)
    closed_diff = -Fraction(total, n)
    denominator = lcm(*range(1, n + 1))
    binom_nm1 = -_binomial_sums(n - 1, denominator)[1]
    binom_n = -_binomial_sums(n, lcm(denominator, n + 1))[1]
    if difference == binom_nm1:
        convention = "n-1"
    elif difference == binom_n:
        convention = "n"
    else:
        convention = "neither"
    all_match = (
        sum_at_i == closed_i
        and sum_at_i1 == closed_i1
        and unbreakable_split == unbreakable_shifted
        and difference == closed_diff
        and difference_law
        and convention == "n-1"
    )
    return RecurrenceReport(
        n=n,
        i=i,
        sum_at_i=sum_at_i,
        sum_at_i_closed=closed_i,
        sum_at_i_plus_1=sum_at_i1,
        sum_at_i_plus_1_closed=closed_i1,
        unbreakable_split_sum=unbreakable_split,
        unbreakable_shifted_sum=unbreakable_shifted,
        difference_sum=difference,
        difference_sum_closed=closed_diff,
        difference_binomial_nm1=binom_nm1,
        difference_binomial_n=binom_n,
        per_mask_difference_law_holds=difference_law,
        index_convention=convention,
        all_match=all_match,
    )


def transition_of_uniform(n: int, i: int, target: str = "left") -> Fraction:
    """All-breakable collapse probability from contact point i: (n - i)/n left."""
    _check_target(target)
    p_left = Fraction(n - i, n)
    return p_left if target == "left" else 1 - p_left


def theorem_report(max_cells: int) -> dict:
    """JSON-ready table of mask averages versus uniform values for every
    cell count up to `max_cells` and every interior position."""
    if not 2 <= max_cells <= MAX_ENUMERABLE_CELLS:
        raise ValueError(f"table size must be in 2..{MAX_ENUMERABLE_CELLS} cells")
    rows = []
    for n in range(2, max_cells + 1):
        suffix_sums = _per_cell_suffix_sums(n)
        for i in range(1, n):
            avg = _per_k_total(suffix_sums[i]) / (2**n - 1)
            uniform = transition_of_uniform(n, i)
            rows.append(
                {
                    "n_cells": n,
                    "position": i,
                    "average": str(avg),
                    "uniform": str(uniform),
                    "equal": avg == uniform,
                }
            )
    return {"max_cells": max_cells, "rows": rows}


def identity_report(n_max: int) -> dict:
    """JSON-ready table of both binomial identities for n up to n_max."""
    if not 0 <= n_max <= MAX_IDENTITY_N:
        raise ValueError(
            f"n_max must be non-negative and at most {MAX_IDENTITY_N}, got {n_max}"
        )
    rows = []
    denominator = 1
    for n in range(n_max + 1):
        denominator = lcm(denominator, n + 1)
        sums = _binomial_sums(n, denominator)
        lhs_a, rhs_a = _identity(n, sums[0], 0)
        lhs_b, rhs_b = _identity(n, sums[1], 1)
        rows.append(
            {
                "n": n,
                "lhs_a": str(lhs_a),
                "rhs_a": str(rhs_a),
                "equal_a": lhs_a == rhs_a,
                "lhs_b": str(lhs_b),
                "rhs_b": str(rhs_b),
                "equal_b": lhs_b == rhs_b,
            }
        )
    return {"n_max": n_max, "rows": rows}

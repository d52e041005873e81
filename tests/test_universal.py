import itertools
from fractions import Fraction
from math import comb, lcm

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from membranesim import universal
from membranesim.density import Cellular1DDensity, CellularMask, IntervalDensity
from membranesim.simplex import BarycentricState
from membranesim.universal import (
    binomial_identity_a,
    binomial_identity_b,
    identity_report,
    recurrence_step_check,
    theorem_report,
    universal_average_1d,
    universal_average_abstract,
)


def brute_average(n, i):
    """Independent oracle: enumerate masks as bool tuples, no bit tricks."""
    total = Fraction(0)
    count = 0
    for bits in itertools.product((False, True), repeat=n):
        if not any(bits):
            continue
        k = sum(bits)
        k_right = sum(bits[i:])
        total += Fraction(k_right, k)
        count += 1
    return total / count


def brute_recurrence(n, i):
    """Independent oracle for the enumerated RecurrenceReport fields."""
    sums = dict.fromkeys(("at_i", "at_i1", "split", "shifted", "difference"), 0)
    for bits in itertools.product((False, True), repeat=n):
        if not any(bits):
            continue
        k = sum(bits)
        p_i = Fraction(sum(bits[i:]), k)
        p_i1 = Fraction(sum(bits[i + 1 :]), k)
        sums["at_i"] += p_i
        sums["at_i1"] += p_i1
        sums["difference"] += p_i1 - p_i
        if not bits[i]:  # cell i+1 unbreakable
            sums["split"] += p_i1
            sums["shifted"] += p_i
    return sums


def _comb(n, k):
    return comb(n, k) if k >= 0 else 0


def closed_form_counts(n, i):
    """Independent oracle for _mask_counts(n, (i,)): a mask with r
    breakable cells among the n - i above bit i and k - r among the i
    below it; the zero mask is not enumerated."""
    counts = np.zeros((n + 1, n - i + 1), dtype=np.int64)
    for k in range(n + 1):
        for r in range(n - i + 1):
            counts[k, r] = _comb(i, k - r) * comb(n - i, r)
    counts[0, 0] -= 1
    return counts


def closed_form_split_counts(n, i):
    """Independent oracle for _mask_counts(n, (i, i + 1), bit=i): entry
    [k, r + b, r, b] counts masks with bit i equal to b, r breakable
    cells above it and k - r - b below it."""
    counts = np.zeros((n + 1, n - i + 1, n - i, 2), dtype=np.int64)
    for k in range(n + 1):
        for r in range(n - i):
            for b in range(2):
                counts[k, r + b, r, b] = _comb(i, k - r - b) * comb(n - i - 1, r)
    counts[0, 0, 0, 0] -= 1
    return counts


def closed_form_field_counts(n, low, width):
    """Independent oracle for _mask_counts(n, (), bit=low, width=width):
    a mask whose field holds v has popcount(v) breakable cells there and
    k - popcount(v) among the other n - width cells."""
    counts = np.zeros((n + 1, 1 << width), dtype=np.int64)
    for k in range(n + 1):
        for v in range(1 << width):
            counts[k, v] = _comb(n - width, k - v.bit_count())
    counts[0, 0] -= 1
    return counts


def probabilities(mask, i):
    """One structure's collapse probabilities with the state at contact
    point i, from Cellular1DDensity: [right end, left end]."""
    n = mask.n_cells
    x = BarycentricState([Fraction(i, n), Fraction(n - i, n)])
    return Cellular1DDensity(mask).region_probabilities(x)


def left(mask_text, i):
    return probabilities(CellularMask.from_string(mask_text), i)[1]


class TestTransitionProbability:
    def test_two_cell_worked_example(self):
        assert left("bb", 1) == Fraction(1, 2)
        assert left("ub", 1) == 1
        assert left("bu", 1) == 0
        assert probabilities(CellularMask.from_string("bu"), 1)[0] == 1

    def test_all_breakable_closed_form(self):
        assert left("bbbbb", 2) == Fraction(3, 5)
        for n in range(2, 10):
            for i in range(1, n):
                assert left("b" * n, i) == Fraction(n - i, n)

    def test_mixed_mask_direct_count(self):
        # one breakable cell right of position 1 (cell 3), two in total
        assert left("bubu", 1) == Fraction(1, 2)

    @pytest.mark.parametrize("n", range(1, 9))
    def test_complementarity(self, n):
        # counted from the mask text: a break in cells 1..i sends the state
        # to the right end, one in cells i+1..n to the left end
        for bits in range(1, 2**n):
            mask = CellularMask.from_bits(bits, n)
            text = str(mask)
            k = text.count("b")
            for i in range(n + 1):
                right, left_end = probabilities(mask, i)
                assert right == Fraction(text[:i].count("b"), k)
                assert left_end == Fraction(text[i:].count("b"), k)

    def test_all_breakable_monotone_in_position(self):
        n = 9
        values = [left("b" * n, i) for i in range(1, n)]
        assert all(a > b for a, b in zip(values, values[1:]))


#: states inside a cell for most n, where the per-cell shares are partial
OFF_LATTICE = (Fraction(31, 100), Fraction(2, 7), Fraction(1, 3))


def outcome_1_average(densities, x1):
    """Exact average of outcome 1's collapse probability over the
    densities, at the state (x1, 1 - x1)."""
    x = BarycentricState([x1, 1 - x1])
    values = [rho.region_probabilities(x)[0] for rho in densities]
    return sum(values, Fraction(0)) / len(values)


class TestTheoremOffLattice:
    """The average over every nonzero mask equals x1 at any rational
    state, not only at the cell boundaries x1 = i/n that the enumeration
    kernel covers."""

    @pytest.mark.parametrize("n", range(2, 11))
    def test_equal_cells_average_to_the_state(self, n):
        densities = [
            Cellular1DDensity(CellularMask.from_bits(b, n)) for b in range(1, 1 << n)
        ]
        for x1 in OFF_LATTICE:
            assert outcome_1_average(densities, x1) == x1

    @pytest.mark.parametrize("n", range(3, 11))
    def test_unequal_cells_do_not(self, n):
        # negative control: cells 1 and 2 of n merged into one of double length
        edges = [Fraction(0)] + [Fraction(j, n) for j in range(2, n + 1)]
        cells = list(zip(edges, edges[1:]))
        densities = [
            IntervalDensity([c for j, c in enumerate(cells) if b >> j & 1])
            for b in range(1, 1 << len(cells))
        ]
        for x1 in OFF_LATTICE:
            assert outcome_1_average(densities, x1) != x1


class TestUniversalAverage:
    def test_two_cells(self):
        # (1/2 + 1 + 0) / 3
        assert universal_average_1d(2, 1) == Fraction(1, 2)

    def test_three_cells_against_manual_enumeration(self):
        assert universal_average_1d(3, 1) == brute_average(3, 1) == Fraction(2, 3)

    def test_ten_cells(self):
        assert universal_average_1d(10, 7) == Fraction(3, 10)

    def test_matches_brute_oracle(self):
        for n in range(2, 9):
            for i in range(1, n):
                assert universal_average_1d(n, i) == brute_average(n, i)

    def test_at_the_bound(self):
        assert universal_average_1d(40, 13) == Fraction(27, 40)

    def test_right_target(self):
        assert universal_average_1d(4, 1, "right") == Fraction(1, 4)

    def test_bad_target(self):
        with pytest.raises(ValueError, match="target"):
            universal_average_1d(2, 1, "up")

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_equals_all_breakable_value(self, data):
        n = data.draw(st.integers(2, 13))
        i = data.draw(st.integers(1, n - 1))
        assert universal_average_1d(n, i) == Fraction(n - i, n)

    def test_bounds(self):
        with pytest.raises(ValueError):
            universal_average_1d(3, 0)
        with pytest.raises(ValueError):
            universal_average_1d(3, 3)
        with pytest.raises(ValueError):
            universal_average_1d(41, 1)

    @pytest.mark.parametrize(
        "call",
        [
            lambda: universal_average_1d(41, 3),
            lambda: universal_average_abstract(41, 3),
            lambda: recurrence_step_check(41, 3),
        ],
        ids=["average_1d", "abstract", "recurrence"],
    )
    def test_past_the_bound_rejects_before_enumerating(self, call, monkeypatch):
        def no_enumeration(*args, **kwargs):
            raise AssertionError("enumerated before checking the bound")

        monkeypatch.setattr(universal, "_mask_counts", no_enumeration)
        with pytest.raises(ValueError, match="bound of 40 cells"):
            call()


class TestAbstractAverage:
    def test_region_of_twelve_cells_in_sixteen(self):
        assert universal_average_abstract(16, 10) == Fraction(3, 8)

    def test_single_cell(self):
        assert universal_average_abstract(1, 0) == 1

    def test_empty_region(self):
        assert universal_average_abstract(4, 4) == 0

    def test_matches_linearised_positions(self):
        for n in range(2, 10):
            for i in range(n + 1):
                assert universal_average_abstract(n, i) == Fraction(n - i, n)

    def test_bounds(self):
        with pytest.raises(ValueError):
            universal_average_abstract(4, 5)
        with pytest.raises(ValueError):
            universal_average_abstract(0, 0)


class TestBinomialIdentities:
    def test_identity_a_small(self):
        lhs, rhs = binomial_identity_a(3)
        assert lhs == rhs == Fraction(17, 4)

    def test_identity_a_degenerate(self):
        lhs, rhs = binomial_identity_a(0)
        assert lhs == rhs == 0

    def test_identity_a_big_integers(self):
        lhs, rhs = binomial_identity_a(25)
        assert lhs == rhs

    def test_identity_b_small(self):
        lhs, rhs = binomial_identity_b(3)
        assert lhs == rhs == Fraction(15, 4)

    def test_identity_b_degenerate(self):
        lhs, rhs = binomial_identity_b(0)
        assert lhs == rhs == 1

    def test_identity_b_big_integers(self):
        lhs, rhs = binomial_identity_b(25)
        assert lhs == rhs

    @given(st.integers(0, 200))
    @settings(max_examples=80, deadline=None)
    def test_identities_hold_everywhere(self, n):
        binomial_identity_a(n)
        binomial_identity_b(n)


def binomial_oracle(n):
    """Both identities' left sides term by term from math.comb."""
    weighted = sum((Fraction(k * comb(n, k), k + 1) for k in range(n + 1)), Fraction(0))
    plain = sum((Fraction(comb(n, k), k + 1) for k in range(n + 1)), Fraction(0))
    return weighted, plain


class TestBinomialSums:
    def test_matches_the_term_by_term_oracle(self):
        for n in [*range(201), 299, 300, 599, 600]:
            sums = universal._binomial_sums(n, lcm(*range(1, n + 2)))
            assert sums == binomial_oracle(n)

    def test_recurrence_binomial_fields_match_the_oracle(self):
        for n in range(3, 15):
            for i in sorted({1, n - 2}):
                report = recurrence_step_check(n, i)
                assert report.difference_binomial_nm1 == -binomial_oracle(n - 1)[1]
                assert report.difference_binomial_n == -binomial_oracle(n)[1]

    @pytest.mark.parametrize("which", [0, 1], ids=["a", "b"])
    def test_a_sum_off_by_one_over_its_denominator_fails(self, which, monkeypatch):
        real_sums = universal._binomial_sums

        def off_by_one(n, denominator):
            sums = list(real_sums(n, denominator))
            sums[which] += Fraction(1, denominator)
            return tuple(sums)

        monkeypatch.setattr(universal, "_binomial_sums", off_by_one)
        identities = (binomial_identity_a, binomial_identity_b)
        with pytest.raises(ArithmeticError, match="identity failed at n=5"):
            identities[which](5)
        identities[1 - which](5)  # the other identity reads the other sum


class TestRecurrenceStep:
    def test_four_cells(self):
        report = recurrence_step_check(4, 1)
        assert report.sum_at_i == Fraction(45, 4)
        assert report.sum_at_i == report.sum_at_i_closed
        assert report.sum_at_i_plus_1 == Fraction(30, 4)
        assert report.difference_sum == -Fraction(15, 4)
        assert report.difference_sum == report.difference_sum_closed
        assert report.difference_sum == report.difference_binomial_nm1
        assert report.difference_sum != report.difference_binomial_n
        assert report.index_convention == "n-1"
        assert report.per_mask_difference_law_holds
        assert report.all_match

    def test_three_cells_totals(self):
        report = recurrence_step_check(3, 1)
        assert report.sum_at_i == Fraction(14, 3)
        assert report.sum_at_i_plus_1 == Fraction(7, 3)
        assert report.all_match

    def test_unbreakable_split_is_a_pure_shift(self):
        for n in range(3, 9):
            for i in range(1, n - 1):
                report = recurrence_step_check(n, i)
                assert report.unbreakable_split_sum == report.unbreakable_shifted_sum
                assert report.all_match

    def test_matches_brute_oracle(self):
        for n in range(3, 9):
            for i in range(1, n - 1):
                report = recurrence_step_check(n, i)
                brute = brute_recurrence(n, i)
                assert report.sum_at_i == brute["at_i"]
                assert report.sum_at_i_plus_1 == brute["at_i1"]
                assert report.unbreakable_split_sum == brute["split"]
                assert report.unbreakable_shifted_sum == brute["shifted"]
                assert report.difference_sum == brute["difference"]

    def test_difference_law_flags_a_mask_off_the_law(self, monkeypatch):
        n, i = 5, 2
        real_counts = universal._mask_counts

        def moved_one_mask(*args, **kwargs):
            counts = real_counts(*args, **kwargs).copy()
            # one mask with k=2, r_i=1, r_{i+1}=0 and bit i set moves to bit 0
            counts[2, 1, 0, 1] -= 1
            counts[2, 1, 0, 0] += 1
            return counts

        monkeypatch.setattr(universal, "_mask_counts", moved_one_mask)
        report = recurrence_step_check(n, i)
        assert not report.per_mask_difference_law_holds
        assert not report.all_match

    def test_as_dict_is_json_ready(self):
        import json

        report = recurrence_step_check(4, 2)
        payload = json.loads(json.dumps(report.as_dict()))
        assert payload["sum_at_i"] == "15/2"
        assert payload["all_match"] is True

    def test_bounds(self):
        with pytest.raises(ValueError):
            recurrence_step_check(2, 1)
        with pytest.raises(ValueError):
            recurrence_step_check(5, 4)


class TestMaskCounts:
    """The enumeration kernel against closed-form counts, past 2**16
    masks, up to the bound of 40 cells and across the split between the
    low table and the high prefixes at bit ceil(n/2), where the brute
    oracles above (n <= 8) do not reach. Every nonzero mask is counted
    once, so the counts sum to 2**n - 1."""

    @pytest.mark.parametrize(
        "n, i", [(17, 5), (21, 1), (21, 13), (24, 6), (32, 11), (40, 13)]
    )
    def test_one_shift(self, n, i):
        counts = universal._mask_counts(n, (i,))
        np.testing.assert_array_equal(counts, closed_form_counts(n, i))
        assert counts.sum() == (1 << n) - 1

    @pytest.mark.parametrize(
        "n, i", [(17, 9), (21, 2), (24, 17), (32, 16), (40, 1), (40, 27)]
    )
    def test_two_shifts_and_a_bit(self, n, i):
        counts = universal._mask_counts(n, (i, i + 1), bit=i)
        np.testing.assert_array_equal(counts, closed_form_split_counts(n, i))
        assert counts.sum() == (1 << n) - 1

    @pytest.mark.parametrize(
        "n, low, width",
        [
            (17, 0, 8),
            (17, 8, 8),
            (17, 16, 1),
            (21, 8, 8),
            (21, 16, 5),
            (24, 16, 8),
            # fields across bit 16
            (20, 12, 8),
            (24, 14, 5),
            # a field at each end, and one across the split at bit 16 or 20
            (32, 0, 8),
            (32, 24, 8),
            (32, 12, 8),
            (40, 0, 8),
            (40, 32, 8),
            (40, 16, 8),
        ],
    )
    def test_a_field(self, n, low, width):
        counts = universal._mask_counts(n, (), bit=low, width=width)
        np.testing.assert_array_equal(
            counts, closed_form_field_counts(n, low, width)
        )
        assert counts.sum() == (1 << n) - 1

    @pytest.mark.parametrize("split", [0, 1, 5, "half", "n"])
    def test_results_do_not_depend_on_the_split_point(self, split, monkeypatch):
        whole = (
            theorem_report(12),
            universal._mask_counts(17, (5,)),
            recurrence_step_check(13, 4),
        )
        # 0 low bits gives every mask its own high prefix and n low bits puts
        # every mask in the low table: both are one-mask-at-a-time
        # enumerations; 1 and 5 put the split inside every 8-bit field
        seams = {"half": lambda n: (n + 1) // 2, "n": lambda n: n}
        low_bits = seams.get(split, lambda n: min(n, split))
        monkeypatch.setattr(universal, "_low_bits", low_bits)
        assert theorem_report(12) == whole[0]
        np.testing.assert_array_equal(universal._mask_counts(17, (5,)), whole[1])
        assert recurrence_step_check(13, 4) == whole[2]

    def test_one_bincount_per_half(self, monkeypatch):
        real_bincount = np.bincount
        calls = []

        def counted(*args, **kwargs):
            calls.append(1)
            return real_bincount(*args, **kwargs)

        monkeypatch.setattr(np, "bincount", counted)
        np.testing.assert_array_equal(
            universal._mask_counts(24, (6,)), closed_form_counts(24, 6)
        )
        assert len(calls) == 2


_INT64 = st.integers(-(2**63), 2**63 - 1)
_NEAR_2_62 = st.integers(2**62 - 2**20, 2**62 + 2**20)


class TestPerKTotal:
    @given(
        st.lists(
            st.one_of(st.just(0), _INT64, _NEAR_2_62, _NEAR_2_62.map(lambda v: -v)),
            min_size=1,
            max_size=400,
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_the_term_by_term_sum(self, values):
        sums = np.array(values, dtype=np.int64)
        expected = sum(
            (Fraction(int(s), k) for k, s in enumerate(sums) if k), Fraction(0)
        )
        assert universal._per_k_total(sums) == expected

    @pytest.mark.parametrize("length", [2, 3, 41])
    @pytest.mark.parametrize("kind", ["int64", "list"])
    def test_matches_a_plain_fraction_sum(self, length, kind):
        # sums[0] is never read; the rest alternate in sign near the int64 ends
        values = [2**63 - 1] + [
            (-1) ** k * (2**62 + 12345 * k) for k in range(1, length - 1)
        ]
        values.append(-(2**63))
        sums = np.array(values, dtype=np.int64) if kind == "int64" else values
        expected = sum(
            (Fraction(values[k], k) for k in range(1, length)), Fraction(0)
        )
        assert universal._per_k_total(sums) == expected


class TestReports:
    @pytest.mark.parametrize("max_cells", [2, 6])
    def test_theorem_report(self, max_cells):
        report = theorem_report(max_cells)
        assert all(row["equal"] for row in report["rows"])
        assert len(report["rows"]) == sum(n - 1 for n in range(2, max_cells + 1))
        row = report["rows"][0]
        assert row == {
            "n_cells": 2,
            "position": 1,
            "average": "1/2",
            "uniform": "1/2",
            "equal": True,
        }

    def test_theorem_report_equals_the_per_position_average(self):
        # the per-cell table and the popcount path reduce one enumeration two ways
        for row in theorem_report(20)["rows"]:
            n, i = row["n_cells"], row["position"]
            assert row["average"] == str(universal_average_1d(n, i))
            if n <= 8:
                assert row["average"] == str(brute_average(n, i))

    def test_theorem_report_at_the_bound(self):
        report = theorem_report(universal.MAX_ENUMERABLE_CELLS)
        rows = report["rows"]
        assert rows[-1]["n_cells"] == 40
        assert len(rows) == sum(n - 1 for n in range(2, 41))
        for row in rows:
            n, i = row["n_cells"], row["position"]
            assert row["equal"] and row["average"] == str(Fraction(n - i, n))

    def test_theorem_report_runs_the_kernel_once_per_field(self, monkeypatch):
        real_counts = universal._mask_counts
        calls = []

        def counted(n, *args, **kwargs):
            calls.append(n)
            return real_counts(n, *args, **kwargs)

        monkeypatch.setattr(universal, "_mask_counts", counted)
        theorem_report(10)
        assert calls == [*range(2, 9), 9, 9, 10, 10]

    @pytest.mark.parametrize("max_cells", [-1, 0, 1, 41, 42])
    def test_theorem_report_rejects_sizes_before_enumerating(
        self, max_cells, monkeypatch
    ):
        def no_enumeration(*args, **kwargs):
            raise AssertionError("enumerated before validating the table size")

        monkeypatch.setattr(universal, "_mask_counts", no_enumeration)
        with pytest.raises(ValueError, match="table size"):
            theorem_report(max_cells)

    def test_identity_report_rejects_negative_n_max(self):
        with pytest.raises(ValueError, match="non-negative"):
            identity_report(-1)

    def test_identity_report(self):
        report = identity_report(12)
        assert all(r["equal_a"] and r["equal_b"] for r in report["rows"])
        assert report["rows"][3]["lhs_a"] == "17/4"

    def test_identity_report_walk_matches_the_oracle(self):
        # the walk carries lcm(1..n + 1) from one n to the next
        for n, row in enumerate(identity_report(200)["rows"]):
            assert (row["lhs_a"], row["lhs_b"]) == tuple(map(str, binomial_oracle(n)))

    def test_identity_report_at_its_smallest_and_largest_n_max(self):
        assert identity_report(0)["rows"] == [
            {
                "n": 0,
                "lhs_a": "0",
                "rhs_a": "0",
                "equal_a": True,
                "lhs_b": "1",
                "rhs_b": "1",
                "equal_b": True,
            }
        ]
        rows = identity_report(universal.MAX_IDENTITY_N)["rows"]
        assert len(rows) == universal.MAX_IDENTITY_N + 1
        assert all(r["equal_a"] and r["equal_b"] for r in rows)


UNIVERSAL_REJECTIONS = {
    "one cell": (
        lambda: universal_average_1d(1, 1), "at least two cells for an interior"
    ),
    "identity a below 0": (lambda: binomial_identity_a(-1), "n must be non-negative"),
    "identity b below 0": (lambda: binomial_identity_b(-1), "n must be non-negative"),
}


@pytest.mark.parametrize("case", sorted(UNIVERSAL_REJECTIONS))
def test_bad_inputs_are_rejected(case):
    call, message = UNIVERSAL_REJECTIONS[case]
    with pytest.raises(ValueError, match=message):
        call()

import math
import tracemalloc

import numpy as np
import pytest

from membranesim import montecarlo, simplex
from membranesim.density import (
    Cellular1DDensity,
    CellularGridDensity,
    CellularMask,
    DiracMixtureDensity,
    UniformDensity,
)
from membranesim.montecarlo import (
    TransitionEstimate,
    estimate,
    estimate_universal,
    standard_error,
    substream,
    wilson_interval,
)
from membranesim.simplex import BarycentricState
from membranesim.universal import universal_average_1d


class TestWilsonInterval:
    def test_contains_the_point_estimate(self):
        lo, hi = wilson_interval(37, 100)
        assert lo < 0.37 < hi

    def test_zero_count_lower_bound(self):
        lo, hi = wilson_interval(0, 1000)
        assert lo == 0.0
        z = 1.959963984540054
        assert hi == pytest.approx(z * z / (1000 + z * z))

    def test_full_count_upper_bound(self):
        lo, hi = wilson_interval(1000, 1000)
        assert hi == 1.0
        assert lo == pytest.approx(1000 / (1000 + 1.959963984540054**2))

    def test_vectorised(self):
        lo, hi = wilson_interval(np.array([0, 50, 100]), 100)
        assert lo.shape == hi.shape == (3,)
        assert np.all(lo <= hi)


class TestTransitionEstimate:
    def test_counts_must_sum(self):
        with pytest.raises(ValueError):
            TransitionEstimate.from_counts(np.array([3, 4]), 0, 10)

    def test_serialisation_round_trip(self):
        import json

        est = TransitionEstimate.from_counts(np.array([700, 300]), 2, 1000)
        payload = json.loads(est.to_json())
        assert payload["n_samples"] == 1000
        assert payload["boundary_hits"] == 2
        rows = est.to_csv_rows()
        assert [r["outcome_index"] for r in rows] == [1, 2]
        assert rows[0]["p_hat"] == pytest.approx(0.7)
        assert rows[0]["ci_lo"] < 0.7 < rows[0]["ci_hi"]

    def test_summary_lines(self):
        est = TransitionEstimate.from_counts(np.array([700, 300]), 0, 1000)
        lines = est.summary_lines()
        assert len(lines) == 2
        assert lines[0].startswith("outcome 1:")

    def test_leaves_the_callers_counts_writeable(self):
        counts = np.array([700, 300], dtype=np.int64)
        est = TransitionEstimate.from_counts(counts, 0, 1000)
        assert counts.flags.writeable
        assert not est.counts.flags.writeable
        counts[0] = 0
        assert est.counts.tolist() == [700, 300]


class TestEstimate:
    def test_uniform_two_outcomes(self):
        est = estimate(BarycentricState([0.7, 0.3]), UniformDensity(2), 100_000, 7)
        se = standard_error(0.7, 100_000)
        assert abs(est.probabilities[0] - 0.7) <= 4 * se

    def test_reproducibility_is_bitwise(self):
        x = BarycentricState([0.25, 0.35, 0.4])
        rho = UniformDensity(3)
        a = estimate(x, rho, 150_000, seed=42)
        b = estimate(x, rho, 150_000, seed=42)
        assert np.array_equal(a.counts, b.counts)
        assert a.boundary_hits == b.boundary_hits
        assert a.to_json() == b.to_json()

    def test_different_seeds_differ(self):
        x = BarycentricState([0.25, 0.35, 0.4])
        rho = UniformDensity(3)
        a = estimate(x, rho, 100_000, seed=1)
        b = estimate(x, rho, 100_000, seed=2)
        assert not np.array_equal(a.counts, b.counts)

    def test_partitioned_run_reproduces_single_threaded(self):
        x = BarycentricState([0.2, 0.3, 0.5])
        rho = UniformDensity(3)
        serial = estimate(x, rho, 300_000, seed=11, threads=1)
        for threads in (2, 3, 8):
            parallel = estimate(x, rho, 300_000, seed=11, threads=threads)
            assert np.array_equal(serial.counts, parallel.counts)
            assert serial.boundary_hits == parallel.boundary_hits

    def test_dirac_point_is_deterministic(self):
        lam = BarycentricState([0.6, 0.1, 0.3])
        x = BarycentricState([1 / 3, 1 / 3, 1 / 3])
        est = estimate(x, DiracMixtureDensity([lam]), 100_000, seed=0)
        assert est.counts.tolist() == [0, 100_000, 0]
        assert est.boundary_hits == 0
        assert est.ci_half_widths.max() < 1e-4

    def test_boundary_hits_are_rare_for_continuous_densities(self):
        x = BarycentricState([0.2, 0.3, 0.5])
        est = estimate(x, UniformDensity(3), 1_000_000, seed=13)
        assert est.boundary_hits <= 1

    @pytest.mark.slow
    def test_five_outcome_estimates_match_coordinates(self):
        x = BarycentricState([0.1, 0.1, 0.2, 0.3, 0.3])
        est = estimate(x, UniformDensity(5), 1_000_000, seed=55, threads=4)
        for i, target in enumerate(x.coords):
            se = standard_error(float(target), 1_000_000)
            assert abs(est.probabilities[i] - target) <= 4 * se

    @pytest.mark.parametrize("threads", [1, 2])
    @pytest.mark.parametrize(
        "state, counts",
        [
            ([0.3, 0.7], [59808, 140192]),
            ([0.2, 0.3, 0.5], [39892, 60099, 100009]),
            (
                [0.1, 0.1, 0.2, 0.2, 0.15, 0.25],
                [20097, 19873, 39976, 39854, 30089, 50111],
            ),
            (
                [0.05, 0.1, 0.0, 0.25, 0.3, 0.3],
                [9885, 19948, 0, 49761, 60196, 60210],
            ),
        ],
    )
    def test_uniform_stream_is_pinned(self, state, counts, threads):
        # recorded before classify_batch laid its ratios out one outcome per row
        x = BarycentricState(state)
        est = estimate(x, UniformDensity(len(state)), 200_000, 7, threads=threads)
        assert est.counts.tolist() == counts
        assert est.boundary_hits == 0

    @pytest.mark.parametrize("threads", [1, 2])
    def test_boundary_stream_is_pinned(self, threads):
        # x itself ties all three ratios; (0.4, 0.225, 0.375) ties outcomes 2 and 3
        x = BarycentricState([0.2, 0.3, 0.5])
        points = [x.coords, [0.5, 0.3, 0.2], [0.4, 0.225, 0.375], [0.1, 0.6, 0.3]]
        rho = DiracMixtureDensity([BarycentricState(p) for p in points])
        est = estimate(x, rho, 200_000, 7, threads=threads)
        assert est.counts.tolist() == [100049, 49941, 50010]
        assert est.boundary_hits == 99892

    def test_coverage_calibration(self):
        x = BarycentricState([0.3, 0.7])
        rho = UniformDensity(2)
        covered = 0
        runs = 200
        for seed in range(runs):
            est = estimate(x, rho, 10_000, seed=seed)
            if est.ci_lo[0] <= 0.3 <= est.ci_hi[0]:
                covered += 1
        assert covered >= 0.90 * runs

    def test_input_validation(self):
        with pytest.raises(ValueError):
            estimate(BarycentricState([0.5, 0.5]), UniformDensity(3), 100, 0)
        with pytest.raises(ValueError):
            estimate(BarycentricState([0.5, 0.5]), UniformDensity(2), 0, 0)

    @pytest.mark.parametrize("threads", [0, -3])
    def test_rejects_fewer_than_one_thread(self, threads):
        with pytest.raises(ValueError, match="thread"):
            estimate(BarycentricState([0.5, 0.5]), UniformDensity(2), 100, 0, threads)

    def test_rejects_a_missing_seed(self, monkeypatch):
        # a None seed would draw fresh entropy for every block
        monkeypatch.setattr(
            UniformDensity, "sample_batch", lambda *a: pytest.fail("sampled")
        )
        with pytest.raises(ValueError, match="seed"):
            estimate(BarycentricState([0.5, 0.5]), UniformDensity(2), 100_000, None)
        with pytest.raises(ValueError, match="seed"):
            estimate_universal(BarycentricState([0.5, 0.5]), 4, 100_000, None)

    def test_pool_is_capped_at_the_cpu_count(self, monkeypatch):
        # a stand-in executor that starts no thread records the pool size
        asked = []

        class NoPool:
            def __init__(self, max_workers):
                asked.append(max_workers)
                raise RuntimeError("no pool in this test")

        monkeypatch.setattr(montecarlo, "ThreadPoolExecutor", NoPool)
        monkeypatch.setattr(montecarlo.os, "cpu_count", lambda: 2)
        x, rho = BarycentricState([0.5, 0.5]), UniformDensity(2)
        with pytest.raises(RuntimeError, match="no pool"):
            estimate(x, rho, 5 * montecarlo.BLOCK_SIZE, 1, threads=5000)
        assert asked == [2]
        # an unknown CPU count runs on one thread, with no pool at all
        monkeypatch.setattr(montecarlo.os, "cpu_count", lambda: None)
        serial = estimate(x, rho, 3 * montecarlo.BLOCK_SIZE, 1, threads=5000)
        assert asked == [2]
        reference = estimate(x, rho, 3 * montecarlo.BLOCK_SIZE, 1)
        assert np.array_equal(serial.counts, reference.counts)


class TestTiles:
    STATES = [[0.7, 0.3], [0.2, 0.3, 0.5], [0.05, 0.1, 0.0, 0.25, 0.3, 0.3]]

    def runs(self):
        # 20_011 samples end mid-tile at every patched tile length
        estimates = [
            estimate(BarycentricState(s), UniformDensity(len(s)), 20_011, 7).to_json()
            for s in self.STATES
        ]
        grid = CellularGridDensity(3, 4, mask=[1, 0, 1, 1] * 4)
        return estimates, grid.region_probabilities(BarycentricState([0.2, 0.3, 0.5]))

    def test_counts_do_not_depend_on_the_tile(self, monkeypatch):
        whole = self.runs()
        for tile in (1, 7, montecarlo.BLOCK_SIZE):
            monkeypatch.setattr(simplex, "_TILE_POINTS", tile)
            assert self.runs() == whole

    def test_one_block_peaks_at_a_few_tiles_of_ratios(self):
        # the sampled batch plus a few (N, tile) float64 slices; a whole-block
        # classification would add about six such slices
        x = BarycentricState([0.05, 0.1, 0.0, 0.25, 0.3, 0.3])
        rho = UniformDensity(6)
        estimate(x, rho, montecarlo.BLOCK_SIZE, 7)  # first-call allocations
        tracemalloc.start()
        try:
            estimate(x, rho, montecarlo.BLOCK_SIZE, 7)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        lams_bytes = montecarlo.BLOCK_SIZE * 6 * 8
        assert peak < lams_bytes + 3 * 6 * simplex._TILE_POINTS * 8


class TestSubstream:
    def test_blocks_are_stable(self):
        a = substream(5, 0).integers(0, 1 << 30, 8)
        b = substream(5, 0).integers(0, 1 << 30, 8)
        assert np.array_equal(a, b)

    def test_blocks_differ(self):
        a = substream(5, 0).integers(0, 1 << 30, 8)
        b = substream(5, 1).integers(0, 1 << 30, 8)
        assert not np.array_equal(a, b)

    def test_seed_sequences_extend_the_spawn_key(self):
        seq = np.random.SeedSequence(5, spawn_key=(3,))
        a = substream(seq, 2).integers(0, 1 << 30, 8)
        b = np.random.default_rng(
            np.random.SeedSequence(5, spawn_key=(3, 2))
        ).integers(0, 1 << 30, 8)
        assert np.array_equal(a, b)


class TestEstimateUniversal:
    def test_two_cells_at_midpoint(self):
        est = estimate_universal(BarycentricState([0.5, 0.5]), 2, 200_000, seed=5)
        se = standard_error(0.5, 200_000)
        assert abs(est.probabilities[1] - 0.5) <= 4 * se

    def test_sixteen_cells_matches_exact_enumeration(self):
        n_cells, position = 16, 10
        exact = float(universal_average_1d(n_cells, position, "left"))
        x = BarycentricState([position / n_cells, 1 - position / n_cells])
        est = estimate_universal(x, n_cells, 100_000, seed=3)
        se = standard_error(exact, 100_000)
        # outcome 2 is the left end (vertex with first coordinate zero)
        assert abs(est.probabilities[1] - exact) <= 4 * se

    def test_single_cell_is_deterministic_at_the_end(self):
        est = estimate_universal(BarycentricState([0, 1]), 1, 5000, seed=2)
        assert est.probabilities.tolist() == [0.0, 1.0]

    def test_reproducible_and_parallel(self):
        x = BarycentricState([0.25, 0.75])
        a = estimate_universal(x, 8, 150_000, seed=21)
        b = estimate_universal(x, 8, 150_000, seed=21, threads=4)
        assert np.array_equal(a.counts, b.counts)

    @pytest.mark.parametrize("threads", [1, 3])
    @pytest.mark.parametrize(
        "seed, counts", [(13, [59996, 140004]), (2024, [60043, 139957])]
    )
    def test_stream_is_pinned(self, seed, counts, threads):
        # recorded before the mask sampler became a density run by `estimate`
        est = estimate_universal(
            BarycentricState([0.3, 0.7]), 12, 200_000, seed, threads=threads
        )
        assert est.counts.tolist() == counts
        assert est.boundary_hits == 0

    @pytest.mark.parametrize(
        "n_cells, weights, seed, counts",
        [
            (20, [0.35, 0.65], 13, [70177, 129823]),
            (20, [0.35, 0.65], 2024, [69878, 130122]),
            (30, [0.6, 0.4], 13, [119935, 80065]),
            (30, [0.6, 0.4], 2024, [119824, 80176]),
        ],
    )
    def test_stream_is_pinned_at_many_cells(self, n_cells, weights, seed, counts):
        # recorded with the cumulative-sum cell selection
        est = estimate_universal(BarycentricState(weights), n_cells, 200_000, seed)
        assert est.counts.tolist() == counts
        assert est.boundary_hits == 0

    def test_bounds(self):
        x = BarycentricState([0.5, 0.5])
        with pytest.raises(ValueError):
            estimate_universal(x, 31, 10, seed=0)
        with pytest.raises(ValueError):
            estimate_universal(BarycentricState([1 / 3, 1 / 3, 1 / 3]), 4, 10, seed=0)
        with pytest.raises(ValueError):
            estimate_universal(x, 0, 10, seed=0)
        with pytest.raises(ValueError):
            estimate_universal(x, 4, 0, seed=0)


class TestRandomMaskDensity:
    @pytest.mark.parametrize("n_cells", range(1, montecarlo.MAX_UNIVERSAL_CELLS + 1))
    def test_matches_the_plain_python_selection(self, n_cells):
        size, seed = 2000, 100 + n_cells
        twin = np.random.default_rng(seed)
        masks = twin.integers(1, 1 << n_cells, size=size, dtype=np.int64).tolist()
        ranks = twin.integers(0, [bin(m).count("1") for m in masks]).tolist()
        u = twin.random(size)
        cell = np.array(
            [
                [c for c in range(n_cells) if m >> c & 1][r]
                for m, r in zip(masks, ranks)
            ]
        )
        pos = (cell + u) / n_cells
        rho = montecarlo._RandomMaskDensity(n_cells)
        got = rho.sample_batch(np.random.default_rng(seed), size)
        assert np.array_equal(got, np.column_stack([pos, 1 - pos]))

    @pytest.mark.parametrize("n_cells", [0, -1, montecarlo.MAX_UNIVERSAL_CELLS + 1, 40])
    def test_rejects_cell_counts_outside_the_cap(self, n_cells):
        with pytest.raises(ValueError, match="n_cells"):
            montecarlo._RandomMaskDensity(n_cells)

    def test_memory_does_not_grow_with_the_cell_count(self):
        # one (size, n_cells) int64 temporary is 240 bytes a draw at 30 cells
        peaks = {}
        for n_cells in (2, montecarlo.MAX_UNIVERSAL_CELLS):
            rho = montecarlo._RandomMaskDensity(n_cells)
            tracemalloc.start()
            try:
                rho.sample_batch(np.random.default_rng(0), montecarlo.BLOCK_SIZE)
                peaks[n_cells] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peaks[montecarlo.MAX_UNIVERSAL_CELLS] <= 1.25 * peaks[2]
        assert peaks[montecarlo.MAX_UNIVERSAL_CELLS] <= 96 * montecarlo.BLOCK_SIZE


def test_standard_error():
    assert standard_error(0.5, 10_000) == pytest.approx(0.005)
    assert standard_error(0.0, 100) == 0.0

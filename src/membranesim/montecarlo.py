"""Monte Carlo estimation of collapse probabilities.

Streams are splittable and content-addressed: logical block b of a run
seeded with `seed` always draws from

    numpy.random.default_rng(numpy.random.SeedSequence(seed, spawn_key=(b,)))

with a fixed block size of 2**16 samples. Blocks are the unit of
parallelism, counts merge by integer addition, and the block-to-stream
rule never depends on the worker layout, so a run partitioned over k
workers reproduces the single-threaded counts bit for bit. The same
rule extends downward: callers that need several independent estimates
from one seed pass SeedSequence(seed, spawn_key=(tag,)) instead of an
integer.
"""

from __future__ import annotations

import json
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .density import Density
from .simplex import BarycentricState, region_counts

# still importable from here: perfbench/spans.py wraps montecarlo.classify_batch
from .simplex import classify_batch  # noqa: F401

#: samples per logical block; fixed, part of the reproducibility contract
BLOCK_SIZE = 1 << 16
#: two-sided 95% normal quantile used by the Wilson intervals
WILSON_Z = 1.959963984540054
#: cell cap for two-level mask sampling, which selects each draw's
#: breakable cell on its mask as a 32-bit unsigned integer
MAX_UNIVERSAL_CELLS = 30


def substream(seed, block: int) -> np.random.Generator:
    """Generator for logical block `block` of the run seeded by `seed`.

    `seed` may be an int or a SeedSequence; the block index is appended
    to the spawn key, which is the whole splitting rule.
    """
    if isinstance(seed, np.random.SeedSequence):
        base = np.random.SeedSequence(
            entropy=seed.entropy, spawn_key=tuple(seed.spawn_key) + (block,)
        )
    else:
        base = np.random.SeedSequence(seed, spawn_key=(block,))
    return np.random.default_rng(base)


def wilson_interval(count, n_samples: int):
    """Wilson score interval at WILSON_Z for a binomial proportion;
    vectorises over `count`."""
    z = WILSON_Z
    count = np.asarray(count, dtype=float)
    p_hat = count / n_samples
    denom = 1.0 + z * z / n_samples
    center = (p_hat + z * z / (2.0 * n_samples)) / denom
    half = (
        z
        * np.sqrt(p_hat * (1.0 - p_hat) / n_samples + z * z / (4.0 * n_samples**2))
        / denom
    )
    lo = np.clip(center - half, 0.0, 1.0)
    hi = np.clip(center + half, 0.0, 1.0)
    # the interval endpoints are analytically exact at the extremes
    lo = np.where(count == 0, 0.0, lo)
    hi = np.where(count == n_samples, 1.0, hi)
    return lo, hi


@dataclass(frozen=True)
class TransitionEstimate:
    """Per-outcome collapse counts with Wilson 95% intervals.

    Breaking points landing on a region boundary are resolved to the
    lowest tied outcome and included in `counts`, so the counts sum to
    `n_samples`; `boundary_hits` reports how many such resolutions
    happened.
    """

    counts: np.ndarray
    boundary_hits: int
    n_samples: int
    probabilities: np.ndarray
    ci_lo: np.ndarray
    ci_hi: np.ndarray

    @classmethod
    def from_counts(
        cls, counts: np.ndarray, boundary_hits: int, n_samples: int
    ) -> "TransitionEstimate":
        counts = np.array(counts, dtype=np.int64)
        if counts.sum() != n_samples:
            raise ValueError("counts must sum to the number of samples")
        lo, hi = wilson_interval(counts, n_samples)
        for arr in (counts, lo, hi):
            arr.flags.writeable = False
        probs = counts / n_samples
        probs.flags.writeable = False
        return cls(
            counts=counts,
            boundary_hits=int(boundary_hits),
            n_samples=int(n_samples),
            probabilities=probs,
            ci_lo=lo,
            ci_hi=hi,
        )

    @property
    def n_outcomes(self) -> int:
        return self.counts.size

    @property
    def ci_half_widths(self) -> np.ndarray:
        return (self.ci_hi - self.ci_lo) / 2.0

    def to_csv_rows(self) -> list[dict]:
        return [
            {
                "outcome_index": i + 1,
                "count": int(self.counts[i]),
                "p_hat": float(self.probabilities[i]),
                "ci_lo": float(self.ci_lo[i]),
                "ci_hi": float(self.ci_hi[i]),
            }
            for i in range(self.n_outcomes)
        ]

    def to_json_dict(self) -> dict:
        return {
            "n_samples": self.n_samples,
            "boundary_hits": self.boundary_hits,
            "outcomes": self.to_csv_rows(),
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=True)

    def summary_lines(self) -> list[str]:
        return [
            "outcome {0}: p_hat={1:.6f}  ci95=[{2:.6f}, {3:.6f}]  count={4}".format(
                r["outcome_index"], r["p_hat"], r["ci_lo"], r["ci_hi"], r["count"]
            )
            for r in self.to_csv_rows()
        ]


class _RandomMaskDensity(Density):
    """Breaking points of the two-outcome segment under a cellular
    structure drawn afresh for every point, uniformly among the
    2**n_cells - 1 nonzero masks, then uniform over its breakable cells.

    Rows are masks as integer bit patterns, so no object per mask. The
    r-th breakable cell of a mask is found by halving a window over its
    bits: count the set bits of the low half, and move into the high
    half past them when they are at most r. That takes
    ceil(log2(n_cells)) passes over 1-D uint8 and uint32 vectors, so
    memory is O(size) whatever `n_cells` is; the uint32 masks are why
    `n_cells` is capped at MAX_UNIVERSAL_CELLS.
    """

    n_outcomes = 2

    def __init__(self, n_cells: int):
        if not 1 <= n_cells <= MAX_UNIVERSAL_CELLS:
            raise ValueError(
                f"n_cells must be in 1..{MAX_UNIVERSAL_CELLS}, where uniform "
                f"nonzero-mask sampling is guaranteed"
            )
        self.n_cells = n_cells

    def sample_batch(self, rng, size):
        # drawn as int64, the dtype the pinned streams were drawn with
        bits = rng.integers(
            1, 1 << self.n_cells, size=size, dtype=np.int64
        ).astype(np.uint32)
        r = rng.integers(0, np.bitwise_count(bits)).astype(np.uint8)
        u = rng.random(size)
        cell = np.zeros(size, dtype=np.uint8)
        width = 1 << (self.n_cells - 1).bit_length()
        while width > 1:
            width >>= 1
            low = np.bitwise_count(bits & ((1 << width) - 1))
            high = low <= r
            r -= low * high
            step = high * np.uint8(width)
            cell += step
            bits >>= step
        pos = (cell + u) / self.n_cells
        return np.column_stack([pos, 1.0 - pos])


def estimate(
    x: BarycentricState,
    rho: Density,
    n_samples: int,
    seed,
    threads: int = 1,
) -> TransitionEstimate:
    """Estimate the collapse probabilities of state `x` under density `rho`.

    Each sample draws a breaking point from `rho` and classifies its
    region; boundary ties resolve to the lowest index and are tallied in
    `boundary_hits`. `region_counts` counts each block tile by tile.
    Blocks run on at most `threads` workers, and on no more than the CPU
    count. Deterministic given (x, rho, n_samples, seed), whatever the
    thread count; `seed` may not be None, which would draw fresh entropy
    for every block.
    """
    if n_samples < 1:
        raise ValueError("need at least one sample")
    if x.n_outcomes != rho.n_outcomes:
        raise ValueError("state dimension does not match the density")
    if seed is None:
        raise ValueError("estimation needs a seed")
    if threads < 1:
        raise ValueError("need at least one thread")
    full, rest = divmod(n_samples, BLOCK_SIZE)
    sizes = [BLOCK_SIZE] * full + ([rest] if rest else [])

    def block(b: int):
        return region_counts(rho.sample_batch(substream(seed, b), sizes[b]), x)

    # an executor starts one OS thread per block while none is idle
    workers = min(threads, len(sizes), os.cpu_count() or 1)
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(block, range(len(sizes))))
    else:
        results = [block(b) for b in range(len(sizes))]
    counts = np.sum([c for c, _ in results], axis=0, dtype=np.int64)
    boundary = sum(hits for _, hits in results)
    return TransitionEstimate.from_counts(counts, boundary, n_samples)


def estimate_universal(
    x: BarycentricState,
    n_cells: int,
    n_mask_draws: int,
    seed,
    threads: int = 1,
) -> TransitionEstimate:
    """Two-level estimate of the mask-averaged collapse probabilities.

    Every draw first picks a cellular structure uniformly among the
    2**n_cells - 1 nonzero masks of the two-outcome segment, then draws
    one breaking point uniformly over that structure's breakable cells;
    `estimate` runs the draws. The estimate converges to the
    uniform-density value as cells and draws grow.
    """
    if x.n_outcomes != 2:
        raise ValueError("two-level estimation runs on the two-outcome segment")
    return estimate(x, _RandomMaskDensity(n_cells), n_mask_draws, seed, threads)


def standard_error(p: float, n_samples: int) -> float:
    """Plain binomial standard error, the usual sigma for tolerance bands."""
    return math.sqrt(max(p * (1.0 - p), 0.0) / n_samples)

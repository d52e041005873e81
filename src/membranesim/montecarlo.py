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
integer. A caller comparing two states passes the second as `paired`:
each draw is then classified against both (common random numbers), so
the difference of their probabilities carries only the noise of the
draws whose outcome moves.
"""

from __future__ import annotations

import json
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .density import Density, _segment_points
from .simplex import BarycentricState, _count_tiles

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


@dataclass(frozen=True)
class PairedEstimate:
    """Collapse counts of two states from one set of draws.

    `joint[i, j]` counts the draws with outcome i + 1 under the first
    state and j + 1 under the second; `first` and `second` are its row
    and column sums as `TransitionEstimate`s, each with its own state's
    boundary hits.
    """

    first: TransitionEstimate
    second: TransitionEstimate
    joint: np.ndarray

    @classmethod
    def from_joint(
        cls, joint: np.ndarray, boundary_hits, n_samples: int
    ) -> "PairedEstimate":
        joint = np.array(joint, dtype=np.int64)
        joint.flags.writeable = False
        hits_first, hits_second = boundary_hits
        return cls(
            first=TransitionEstimate.from_counts(
                joint.sum(axis=1), hits_first, n_samples
            ),
            second=TransitionEstimate.from_counts(
                joint.sum(axis=0), hits_second, n_samples
            ),
            joint=joint,
        )

    def difference(self, outcome: int) -> tuple[float, float]:
        """P_second - P_first for 1-based `outcome`, and its paired
        standard error sqrt(((n10 + n01)/n - d**2)/n), where n10 draws
        leave the outcome's region when the state moves and n01 enter it.
        """
        if not 1 <= outcome <= self.first.n_outcomes:
            raise ValueError(f"outcome must be in 1..{self.first.n_outcomes}")
        n = self.first.n_samples
        i = outcome - 1
        stay = self.joint[i, i]
        n10 = int(self.joint[i].sum() - stay)
        n01 = int(self.joint[:, i].sum() - stay)
        d = (n01 - n10) / n
        return d, math.sqrt(max((n10 + n01) / n - d * d, 0.0) / n)


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
        return _segment_points((cell + u) / self.n_cells)


def _usable_cpus() -> int:
    """CPUs this process may run on: its affinity set where the platform
    reports one (under `taskset` it is smaller than the machine), else
    the machine's CPU count, else 1."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def estimate(
    x: BarycentricState,
    rho: Density,
    n_samples: int,
    seed,
    threads: int = 1,
    *,
    paired: BarycentricState | None = None,
) -> TransitionEstimate | PairedEstimate:
    """Estimate the collapse probabilities of state `x` under density `rho`.

    Each sample draws a breaking point from `rho` and classifies its
    region; boundary ties resolve to the lowest index and are tallied in
    `boundary_hits`. Blocks draw through `rho.sample_rays`, whose rows
    are positive multiples of the points, and are counted tile by tile
    as `region_counts` counts an array. A uniform block is drawn one
    tile at a time, each tile counted before the next is drawn, so a
    worker never holds the whole block; the stream is the same as one
    block-sized draw.
    With a second state `paired`, each block is still drawn once, each
    tile is classified against both states, and the result is a
    `PairedEstimate` built from the merged joint counts; its `first`
    counts equal those of the call without `paired`.
    Blocks run on at most `threads` workers, and on no more than the
    CPUs this process may use. Deterministic given (x, rho, n_samples, seed), whatever the
    thread count; `seed` may not be None, which would draw fresh entropy
    for every block.
    """
    if n_samples < 1:
        raise ValueError("need at least one sample")
    if x.n_outcomes != rho.n_outcomes:
        raise ValueError("state dimension does not match the density")
    if paired is not None and paired.n_outcomes != rho.n_outcomes:
        raise ValueError("paired state dimension does not match the density")
    if seed is None:
        raise ValueError("estimation needs a seed")
    if threads < 1:
        raise ValueError("need at least one thread")
    full, rest = divmod(n_samples, BLOCK_SIZE)
    sizes = [BLOCK_SIZE] * full + ([rest] if rest else [])

    def block(b: int):
        return _count_tiles(rho._ray_tiles(substream(seed, b), sizes[b]), x, paired)

    # an executor starts one OS thread per block while none is idle
    workers = min(threads, len(sizes), _usable_cpus())
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(block, range(len(sizes))))
    else:
        results = [block(b) for b in range(len(sizes))]
    counts = np.sum([c for c, _ in results], axis=0, dtype=np.int64)
    boundary = sum(hits for _, hits in results)
    if paired is not None:
        return PairedEstimate.from_joint(counts, boundary, n_samples)
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

"""Uniform grids, sampled functions and dyadic cube geometry.

The computational domain is a bounded interval split into N = 2**L equal
cells; functions are piecewise constant on cells (samples are cell
averages), so every cube average is an exact finite sum.  A function on
the domain stands for its zero extension: a cube that sticks out of the
domain averages over its full length.  Cubes come from the base dyadic
lattice plus three shifted lattices whose cubes have side 3 * 2**-k;
together they serve as the finite proxy for "all cubes" (the 1-D case of
the 3**n-lattice theorem).
"""

from __future__ import annotations

import csv
import functools
import hashlib
from collections import OrderedDict
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np

__all__ = [
    "Domain",
    "GridFunction",
    "DyadicCube",
    "CubeFamily",
    "GROUP_CELLS",
    "PRUNE_MARGIN",
    "MAX_RESOLUTION",
    "family_for",
    "MEMO",
    "digest",
    "children",
    "cube_cells",
    "ResolutionError",
    "write_csv",
]


class ResolutionError(ValueError):
    """Requested cubes finer than the grid floor."""


@dataclass(frozen=True)
class Domain:
    """Bounded interval carrying a uniform grid of N = 2**L cells."""

    left: float = 0.0
    length: float = 1.0
    resolution_log2: int = 10

    def __post_init__(self):
        if self.length <= 0:
            raise ValueError("domain length must be positive")
        if self.resolution_log2 < 1:
            raise ValueError("need at least 2 cells (L >= 1)")
        if self.resolution_log2 > MAX_RESOLUTION:
            raise ValueError(
                f"L = {self.resolution_log2} is above the largest resolution, "
                f"L = {MAX_RESOLUTION}, at which PRUNE_MARGIN covers the A_inf rounding"
            )

    @property
    def n_cells(self) -> int:
        return 1 << self.resolution_log2

    @property
    def h(self) -> float:
        return self.length / self.n_cells

    def cell_centers(self) -> np.ndarray:
        return self.left + (np.arange(self.n_cells) + 0.5) * self.h


class GridFunction:
    """Real or complex function represented by its cell averages."""

    __slots__ = ("domain", "samples")

    def __init__(self, domain: Domain, samples):
        samples = np.asarray(samples)
        if samples.shape != (domain.n_cells,):
            raise ValueError(
                f"expected {domain.n_cells} samples, got shape {samples.shape}"
            )
        if not np.all(np.isfinite(samples)):
            raise ValueError("samples must be finite")
        self.domain = domain
        self.samples = samples

    @classmethod
    def from_callable(cls, domain: Domain, fn: Callable) -> "GridFunction":
        return cls(domain, np.asarray(fn(domain.cell_centers()), dtype=float))

    @classmethod
    def indicator(cls, domain: Domain, left: float, right: float) -> "GridFunction":
        """1 on the cells whose centres lie in [left, right), 0 elsewhere."""
        x = domain.cell_centers()
        return cls(domain, ((x >= left) & (x < right)).astype(float))

    @classmethod
    def constant(cls, domain: Domain, c: float) -> "GridFunction":
        return cls(domain, np.full(domain.n_cells, float(c)))

    def __abs__(self) -> "GridFunction":
        return GridFunction(self.domain, np.abs(self.samples))

    def _lift(self, other):
        if isinstance(other, GridFunction):
            if other.domain != self.domain:
                raise ValueError("domain mismatch")
            return other.samples
        return other

    def __add__(self, other):
        return GridFunction(self.domain, self.samples + self._lift(other))

    def __sub__(self, other):
        return GridFunction(self.domain, self.samples - self._lift(other))

    def __mul__(self, other):
        return GridFunction(self.domain, self.samples * self._lift(other))

    __rmul__ = __mul__

    def __truediv__(self, other):
        return GridFunction(self.domain, self.samples / self._lift(other))


def write_csv(path, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    """Write a CSV table: floats as repr(float(x)), strings and integers as
    they are."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows(
            [x if isinstance(x, (str, int, np.integer)) else repr(float(x)) for x in row]
            for row in rows
        )


# ---------------------------------------------------------------------------
# dyadic cubes
# ---------------------------------------------------------------------------

def _lattice(lattice_id: int, level: int) -> tuple[int, int]:
    """(side, offset) of a lattice's cubes at a level, in units of
    2**-level: cube t has its left end at side * t + offset."""
    if lattice_id == 0:
        return 1, 0
    return 3, ((lattice_id - 1) << level) % 3


@dataclass(frozen=True)
class DyadicCube:
    """Cube of a (possibly shifted) dyadic lattice, in units of the base
    length.

    lattice_id 0 is the base lattice: side 2**-level, left end
    index * 2**-level.  lattice_id 1..3 are the shifted lattices: side
    3 * 2**-level, left end (3 * index + r) * 2**-level with r the residue
    of (lattice_id - 1) * 2**level mod 3.
    """

    lattice_id: int
    level: int
    index: int

    def __post_init__(self):
        if not (0 <= self.lattice_id <= 3):
            raise ValueError("lattice_id out of range")
        if self.level < 0:
            raise ValueError("negative level")

    def _units(self) -> tuple[int, int]:
        """(left end, side) in units of 2**-level."""
        side, offset = _lattice(self.lattice_id, self.level)
        return side * self.index + offset, side

    def cell_bounds(self, domain: Domain) -> tuple[int, int, int]:
        """(start, end, full) in cell units; start/end unclipped, full = width."""
        L = domain.resolution_log2
        if self.level > L:
            raise ResolutionError("cube finer than the grid")
        c = 1 << (L - self.level)
        start, k = self._units()
        return start * c, (start + k) * c, k * c


def children(q: DyadicCube) -> list[DyadicCube]:
    """The two cubes of the next level partitioning q; `DyadicCube.cell_bounds`
    refuses them below the grid floor."""
    start, k = q._units()
    # the first child starts at 2 * start in units of 2**-(level + 1); a
    # shifted cube's index is its start divided by 3, rounded down
    first = 2 * start // k
    return [DyadicCube(q.lattice_id, q.level + 1, i) for i in (first, first + 1)]


# ---------------------------------------------------------------------------
# cube family: every cube of every lattice, levels 0..L, indexed for
# vectorised per-level reductions
# ---------------------------------------------------------------------------

# cells per vector pass of a family sweep (a level group, or a chunk of the
# A_infty inner levels): past about 2**14 cells the temporaries run slower
# per element than the interpreter overhead that the stacking saves
GROUP_CELLS = 1 << 14

# The margin of the bound-and-prune sweeps of A_infty
# (`weights.ainfty_constants`) and M_{L log L} (`maximal.multilinear_maximal`):
# a cube is skipped only when its upper bound times 1 + PRUNE_MARGIN is below
# a value that another cube reaches (A_infty seeds its running sups with lower
# bounds times 1 - PRUNE_MARGIN).  The margin exceeds the relative rounding
# of each exact route and of its bounds, so a skipped cube's computed value
# lies strictly below the computed sup and skipping it changes no bit:
# - A_infty, up to L = 16 (`MAX_RESOLUTION`): the inner sums are differences
#   of a sequential cumulative sum of at most S positive terms (S, the
#   clipped cube width, is at most N = 2**L), each off by at most S eps w(Q);
#   over the S cells of Q, with |P| >= 1, the integral is off by at most
#   2 S**2 eps w(Q), and it is at least w(Q).  With eps = 2**-53 that is
#   2**(2L - 52): about 6e-8 at L = 14 and 9.5e-7 at L = 16, below the
#   margin, but 3.8e-6 at L = 17; the pairwise row sums, the per-cube sums of
#   the bounds and the divisions add about 20 eps.
# - M_{L log L}: a computed norm is a Newton iterate below the norm times
#   1 + 0.5e-12, checked against the Luxemburg condition (else the first
#   float of its bracket that meets it), and phi^-1(1) is 4 eps below its
#   true value, so it exceeds the exact norm by at most about 1e-12
#   relative; the upper bound is checked in floating point at the value it
#   returns (a few eps); the lower bound is the Jensen end, which a computed
#   norm is checked not to fall below, but for an ulp on a closed bracket
#   where a mean of equal values rounds above them.  A product of m factors
#   multiplies these gaps by m: about 3e-12 at m = 3.
PRUNE_MARGIN = 1e-6

# The largest L of a Domain, up to which the A_infty bound above stays below
# PRUNE_MARGIN; a config past it is refused before anything is allocated.
MAX_RESOLUTION = 16


@dataclass
class LevelEntry:
    lattice_id: int
    level: int
    t0: int                 # first enumerated cube index
    starts: np.ndarray      # unclipped cell starts, ascending
    width: int | np.ndarray  # cells per (unclipped) cube; per cube in a stack
    lo: np.ndarray          # clipped starts
    hi: np.ndarray          # clipped ends
    cell_to_cube: np.ndarray
    levels: int = 1         # entries stacked into this one

    @property
    def n_cubes(self) -> int:
        return len(self.starts)

    def tile(self, values: np.ndarray) -> np.ndarray:
        """Cell values repeated once per stacked level, as `means` and
        `segment_max` of a stack read them; one level gets them uncopied."""
        return values if self.levels == 1 else np.tile(values, self.levels)

    def clipped_sizes(self) -> np.ndarray:
        return self.hi - self.lo

    def restrict(self, idx: np.ndarray) -> tuple["LevelEntry", np.ndarray]:
        """The cubes idx (ascending) of this entry or stack as an entry over
        just their cells, laid end to end, and the positions of those cells
        among this entry's (tiled) cells.  A reduction of values[cells] over
        the restricted entry reduces each kept cube over the same cells in
        the same order as over this entry.  The lattice, level and first
        index stay this entry's, so `cubes` does not name the kept cubes."""
        lo, hi = self.lo[idx], self.hi[idx]
        sizes = hi - lo
        new_hi = np.cumsum(sizes)
        new_lo = new_hi - sizes
        shift = lo - new_lo
        cells = np.arange(int(new_hi[-1])) + np.repeat(shift, sizes)
        width = self.width[idx] if isinstance(self.width, np.ndarray) else self.width
        return LevelEntry(
            self.lattice_id, self.level, self.t0, self.starts[idx] - shift, width,
            new_lo, new_hi, np.repeat(np.arange(len(idx)), sizes),
        ), cells

    def cubes(self) -> list[DyadicCube]:
        return [
            DyadicCube(self.lattice_id, self.level, self.t0 + i)
            for i in range(self.n_cubes)
        ]


class CubeFamily:
    """All cubes of the base + shifted lattices, levels 0..L, on one domain."""

    def __init__(self, domain: Domain):
        self.domain = domain
        self.entries: list[LevelEntry] = []
        L = domain.resolution_log2
        N = domain.n_cells
        cells = np.arange(N)
        for lid in range(4):
            for level in range(L + 1):
                side, offset = _lattice(lid, level)
                c = 1 << (L - level)
                w = side * c
                # the cubes that meet [0, N): from the one that ends past 0
                # (t = -1 where the lattice is offset, as offset < side) to
                # the last that starts before N
                t0 = -1 if offset else 0
                ts = np.arange(t0, ((1 << level) - 1 - offset) // side + 1)
                starts = (side * ts + offset) * c
                self.entries.append(LevelEntry(
                    lid, level, t0, starts, w, np.maximum(starts, 0),
                    np.minimum(starts + w, N), (cells - offset * c) // w - t0,
                ))

    def stack(self, entries: Sequence[LevelEntry]) -> LevelEntry:
        """The cubes of several entries as one entry over their cells tiled
        end to end: entry k's cells are N k .. N (k + 1) - 1 and its cubes
        follow those of entry k - 1, so `means` and `segment_max` of values
        tiled by `LevelEntry.tile` reduce each cube over the same cells in
        the same order as per entry.  The width is per cube; the lattice,
        level and first index are the first entry's.  One entry is returned
        as it is."""
        if len(entries) == 1:
            return entries[0]
        N = self.domain.n_cells
        cells = np.arange(len(entries)) * N
        first_cube = np.cumsum([0] + [e.n_cubes for e in entries[:-1]])
        return LevelEntry(
            entries[0].lattice_id,
            entries[0].level,
            entries[0].t0,
            np.concatenate([e.starts + c for e, c in zip(entries, cells)]),
            np.concatenate([np.full(e.n_cubes, e.width) for e in entries]),
            np.concatenate([e.lo + c for e, c in zip(entries, cells)]),
            np.concatenate([e.hi + c for e, c in zip(entries, cells)]),
            np.concatenate([e.cell_to_cube + t for e, t in zip(entries, first_cube)]),
            len(entries),
        )

    @functools.cached_property
    def groups(self) -> list[LevelEntry]:
        """The entries, in order, stacked into groups of at most GROUP_CELLS
        cells (one entry each where N exceeds that): the sweep that every
        sup over the family runs, one vector pass per group."""
        per = max(1, GROUP_CELLS // self.domain.n_cells)
        return [self.stack(self.entries[k:k + per]) for k in range(0, len(self.entries), per)]

    @functools.cached_property
    def width_order(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(order, widths, starts): the entries' indices sorted by cube
        width (stably), their widths in that order, and row i of starts the
        unclipped cell start of the cube of entry order[i] that holds each
        cell, as int32."""
        order = np.argsort([e.width for e in self.entries], kind="stable")
        entries = [self.entries[i] for i in order]
        starts = np.empty((len(entries), self.domain.n_cells), dtype=np.int32)
        for row, e in zip(starts, entries):
            row[:] = e.starts[e.cell_to_cube]
        return order, np.array([e.width for e in entries]), starts

    # -- reductions ---------------------------------------------------------

    @staticmethod
    def prefix(samples: np.ndarray) -> np.ndarray:
        out = np.empty(len(samples) + 1, dtype=samples.dtype if samples.dtype.kind == "c" else float)
        out[0] = 0.0
        np.cumsum(samples, out=out[1:])
        return out

    def segment_sums(self, entry: LevelEntry, values: np.ndarray) -> np.ndarray:
        """Per-cube sums of cell values.  The clipped cubes of an entry tile
        [0, N) in order, so each sum is a direct reduction over its own
        cells: a cube with a tiny share of the mass keeps its digits."""
        return np.add.reduceat(values, entry.lo)

    def segment_min(self, entry: LevelEntry, values: np.ndarray) -> np.ndarray:
        return np.minimum.reduceat(values, entry.lo)

    def segment_max(self, entry: LevelEntry, values: np.ndarray) -> np.ndarray:
        return np.maximum.reduceat(values, entry.lo)

    def means(self, entry: LevelEntry, values: np.ndarray, clip: bool = False) -> np.ndarray:
        """Per-cube means of cell values: over Q's cells inside the domain
        when clip, else over the full width of Q."""
        sizes = entry.clipped_sizes() if clip else entry.width
        return self.segment_sums(entry, values) / sizes

    def scatter_max(
        self, entries: Iterable[LevelEntry], per_entry_values: Iterable[np.ndarray]
    ) -> np.ndarray:
        """Pointwise max over all cubes containing each cell; an entry may
        be a `stack` of entries, whose levels are folded first."""
        N = self.domain.n_cells
        out = np.full(N, -np.inf)
        for entry, vals in zip(entries, per_entry_values):
            spread = vals[entry.cell_to_cube]
            if entry.levels > 1:
                spread = spread.reshape(entry.levels, N).max(axis=0)
            np.maximum(out, spread, out=out)
        return out

    def sup(self, per_cube: Callable[[LevelEntry], np.ndarray]) -> float:
        """max over every cube of the family of per_cube(group), the values
        of one level group's cubes, taken group by group."""
        return max(float(per_cube(g).max()) for g in self.groups)


@functools.cache
def family_for(domain: Domain) -> CubeFamily:
    """The cube family of a domain, built once per process."""
    return CubeFamily(domain)


# ---------------------------------------------------------------------------
# memo of pure kernels
# ---------------------------------------------------------------------------

def digest(a: np.ndarray) -> tuple:
    """An array's content as part of a memo key: its dtype, its shape and a
    hash of its bytes, the first 16 bytes of its SHA-256 (about twice as
    fast as BLAKE2b where the CPU has SHA instructions).  Equal values of
    another dtype (a real f and the same values as complex) make another
    key."""
    return a.dtype.str, a.shape, hashlib.sha256(a.tobytes()).digest()[:16]


class Memo:
    """Outputs of pure kernels keyed by what they are computed from: a key
    names the kernel and holds its parameters and the `digest` of each input
    array.  At most `size` entries are kept, the least recently used dropped
    first.  An array output is handed out as a copy, on a hit and on a miss,
    so a caller that writes into it leaves the entry as it was."""

    def __init__(self, size: int):
        self.size = size
        self._entries: OrderedDict = OrderedDict()

    def __len__(self) -> int:
        return len(self._entries)

    def clear(self) -> None:
        self._entries.clear()

    def get(self, key: tuple, compute: Callable[[], object]):
        """The output stored under key, or compute() stored under it."""
        out = self._entries.get(key)
        if out is None:
            out = self._entries[key] = compute()
            if len(self._entries) > self.size:
                self._entries.popitem(last=False)
        else:
            self._entries.move_to_end(key)
        return out.copy() if isinstance(out, np.ndarray) else out


# one memo for every kernel: a few dozen N-cell arrays, and scalars
MEMO = Memo(64)


def cube_cells(domain: Domain, q: DyadicCube, dilation: int = 1) -> tuple[int, int, int]:
    """(lo, hi, full) for dQ, the cube with Q's centre and d = dilation times
    its side: the cells [lo, hi) whose centres lie in dQ, clipped to the
    domain, and the full width d |Q| in cells.  dQ reaches (d - 1) |Q| / 2
    cells past each end of Q, a whole number of half cells; where it ends on
    a cell centre (2Q of a cube of odd width), the cell at its left end is
    in and the one at its right end is out."""
    if not isinstance(dilation, int) or dilation < 1:
        raise ValueError("dilation must be a positive integer")
    start, end, full = q.cell_bounds(domain)
    pad = (dilation - 1) * full
    return (max(start - (pad + 1) // 2, 0), min(end + pad // 2, domain.n_cells),
            dilation * full)


def average(f: GridFunction, q: DyadicCube, dilation: int = 1) -> float:
    """<|f|>_{dQ}, exact cell-weighted mean over dQ, d the dilation.  The
    mean is taken over the full |dQ| even when dQ sticks out of the domain.
    """
    lo, hi, full = cube_cells(f.domain, q, dilation)
    if hi <= lo:
        raise ValueError("cube does not meet the domain")
    return float(np.sum(np.abs(f.samples[lo:hi])) / full)

"""Finite dyadic tree geometry, weights, and sparse families.

Everything lives on the unit interval [0, 1).  A tree of depth L has
2**L leaves; the cube (level, index) is [index * 2**-level,
(index + 1) * 2**-level).  Weights are strictly positive leaf densities;
all cube averages and masses derive from per-level mass pyramids built
by pairwise summation, so parent masses are exactly the sum of child
masses.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

DENSITY_FLOOR = 1e-12


class DomainError(ValueError):
    """Input outside an operation's stated domain."""


class NumericError(RuntimeError):
    """An iterative routine failed to converge or overflowed."""


@dataclass(frozen=True)
class TreeGeometry:
    depth: int

    def __post_init__(self):
        if self.depth < 0:
            raise DomainError(f"depth must be >= 0, got {self.depth}")

    @property
    def n_leaves(self) -> int:
        return 1 << self.depth

    def cubes(self):
        """All cubes, top-down, left-to-right."""
        for level in range(self.depth + 1):
            for index in range(1 << level):
                yield CubeId(level, index)

    def contains(self, cube: "CubeId") -> bool:
        return 0 <= cube.level <= self.depth and 0 <= cube.index < (1 << cube.level)


@dataclass(frozen=True, order=True)
class CubeId:
    level: int
    index: int

    @property
    def measure(self) -> float:
        return 2.0 ** (-self.level)

    @property
    def children(self):
        return (CubeId(self.level + 1, 2 * self.index),
                CubeId(self.level + 1, 2 * self.index + 1))

    @property
    def parent(self) -> "CubeId":
        if self.level == 0:
            raise DomainError("root has no parent")
        return CubeId(self.level - 1, self.index // 2)

    def contains_cube(self, other: "CubeId") -> bool:
        """True iff other is a (weak) dyadic subcube of self."""
        shift = other.level - self.level
        return shift >= 0 and (other.index >> shift) == self.index

    def leaf_slice(self, depth: int) -> slice:
        """Slice of the depth-`depth` leaf array covered by this cube."""
        width = 1 << (depth - self.level)
        return slice(self.index * width, (self.index + 1) * width)


def subtree_sums(levels):
    """Bottom-up sum over subcubes: out[l] = levels[l] + (out[l+1][0::2]
    + out[l+1][1::2]), so out[l][j] totals levels over the subtree of
    cube (l, j).  Each level holds twice the entries of the one above (a
    scalar entry broadcasts)."""
    out = list(levels)
    for level in range(len(out) - 2, -1, -1):
        below = out[level + 1]
        out[level] = levels[level] + (below[0::2] + below[1::2])
    return out


def ancestor_accumulate(levels, op=np.add):
    """Top-down accumulation along ancestors: out[l] = op(out[l-1]
    repeated onto the two children, levels[l]).  op is an elementwise
    binary function such as np.add or np.maximum; each level holds twice
    the entries of the one above."""
    out = list(levels)
    for level in range(1, len(out)):
        out[level] = op(np.repeat(out[level - 1], 2), levels[level])
    return out


def _mass_pyramid(leaves: np.ndarray, depth: int) -> list[np.ndarray]:
    """Per-level cube masses; pyramid[l][j] = integral over cube (l, j)."""
    return subtree_sums([0.0] * depth + [leaves * 2.0 ** (-depth)])


def _avg_pyramid(leaves, depth: int) -> list[np.ndarray]:
    """Per-level cube averages of the leaf values."""
    return [m * 2.0 ** level for level, m in enumerate(_mass_pyramid(leaves, depth))]


class WeightPair:
    """A couple of strictly positive leaf densities plus an exponent.

    Immutable by convention: no method mutates the arrays after
    construction, and the mass and average pyramids are precomputed
    eagerly.  Per-cube values are read off the pyramids: w_masses[l][j]
    is w of cube (l, j), sigma_avgs[l][j] its sigma average; a cube from
    outside must be checked against the geometry before it indexes them.
    """

    def __init__(self, geometry: TreeGeometry, w_leaves, sigma_leaves, p: float):
        w = np.asarray(w_leaves, dtype=float)
        s = np.asarray(sigma_leaves, dtype=float)
        n = geometry.n_leaves
        if w.shape != (n,) or s.shape != (n,):
            raise DomainError(f"leaf vectors must have length {n}")
        if not ((w > 0).all() and (s > 0).all()):
            raise DomainError("leaf densities must be strictly positive")
        if not (np.isfinite(w).all() and np.isfinite(s).all()):
            raise DomainError("leaf densities must be finite")
        if not (1.0 < p < np.inf):
            raise DomainError(f"p must lie in (1, inf), got {p}")
        self.geometry = geometry
        self.w_leaves = w
        self.sigma_leaves = s
        self.p = float(p)
        self.w_masses = _mass_pyramid(w, geometry.depth)
        self.sigma_masses = _mass_pyramid(s, geometry.depth)
        self.w_avgs = [m * 2.0 ** level for level, m in enumerate(self.w_masses)]
        self.sigma_avgs = [m * 2.0 ** level for level, m in enumerate(self.sigma_masses)]

    @property
    def p_dual(self) -> float:
        return self.p / (self.p - 1.0)

    def swapped(self) -> "WeightPair":
        """The dual pair (sigma, w) with the conjugate exponent."""
        return WeightPair(self.geometry, self.sigma_leaves, self.w_leaves, self.p_dual)


@dataclass(frozen=True, eq=False)
class SparseFamily:
    """A family of cubes, held as its level masks: masks[l][j] is True iff
    cube (l, j) belongs to it.  The cube views and the packing constant
    derive from the masks on first use.  Equality is identity."""

    masks: list = field(repr=False)

    @staticmethod
    def build(cubes, geometry: TreeGeometry) -> "SparseFamily":
        """The validated family of an explicit cube list."""
        cubes = frozenset(cubes)
        if not cubes:
            raise DomainError("sparse family must be nonempty")
        for c in cubes:
            if not geometry.contains(c):
                raise DomainError(f"cube {c} outside depth-{geometry.depth} tree")
        return SparseFamily(_cube_masks(cubes, geometry.depth))

    @cached_property
    def _cube_tuple(self) -> tuple:
        # (level, index) order: the order of _select's family vectors
        return tuple(CubeId(level, j) for level, m in enumerate(self.masks)
                     for j in np.flatnonzero(m).tolist())

    @cached_property
    def cubes(self) -> frozenset:
        return frozenset(self._cube_tuple)

    def sorted_cubes(self) -> list[CubeId]:
        return list(self._cube_tuple)

    @cached_property
    def flat_mask(self) -> np.ndarray:
        """The masks concatenated in (level, index) order; read-only."""
        flat = np.concatenate(self.masks)
        flat.flags.writeable = False
        return flat

    @cached_property
    def packing(self) -> float:
        """Carleson packing constant: max over family cubes Q of the total
        measure of the family cubes inside Q, divided by |Q|."""
        # acc[l][j] = total measure of family cubes inside cube (l, j)
        acc = subtree_sums([m * 2.0 ** (-level) for level, m in enumerate(self.masks)])
        return float(max(np.max(a[m], initial=0.0) * 2.0 ** level
                         for level, (a, m) in enumerate(zip(acc, self.masks))))


def _select(levels, cubes) -> np.ndarray:
    """The family vector: per-level arrays flattened in (level, index)
    order, the order of TreeGeometry.cubes() and sorted_cubes(), over
    every cube ("all") or a SparseFamily's cubes."""
    flat = np.concatenate(levels)
    return flat if cubes in ("all", None) else flat[cubes.flat_mask]


def _cube_masks(cubes, depth: int) -> list[np.ndarray]:
    masks = [np.zeros(1 << level, dtype=bool) for level in range(depth + 1)]
    for c in cubes:
        masks[c.level][c.index] = True
    return masks


def packing_constant(cubes, geometry: TreeGeometry) -> float:
    """Carleson packing constant of a nonempty cube list in the tree."""
    return SparseFamily.build(cubes, geometry).packing


STRATEGIES = ("tower", "random_greedy", "all_above_level", "stopping_time")


def generate_sparse(geometry: TreeGeometry, strategy: str, eta: float, seed: int,
                    sigma_avgs=None) -> SparseFamily:
    """Deterministic sparse-family generator.

    strategy is one of "tower", "random_greedy", "all_above_level",
    "all_above_level:<m>", "stopping_time".  stopping_time derives its
    threshold a from eta via eta = 1 - 1/a and needs the per-level sigma
    averages (a WeightPair's sigma_avgs).
    """
    if not (0.0 < eta <= 1.0):
        raise DomainError(f"eta must lie in (0, 1], got {eta}")
    cap = 1.0 / eta
    depth = geometry.depth

    name, _, arg = strategy.partition(":")
    if name == "tower":
        masks, total = _cube_masks((), depth), 0.0
        for level in range(depth + 1):
            total += 2.0 ** (-level)
            if total > cap + 1e-12:
                break
            masks[level][0] = True
        return SparseFamily(masks)

    if name == "all_above_level":
        m = int(arg) if arg else min(depth, int(np.floor(cap + 1e-12)) - 1)
        m = max(0, min(m, depth))
        if m + 1 > cap + 1e-12:
            raise DomainError(
                f"all_above_level {m} has packing {m + 1} > 1/eta = {cap}")
        return SparseFamily([np.full(1 << l, l <= m) for l in range(depth + 1)])

    if name == "random_greedy":
        rng = np.random.default_rng(np.uint64(seed))
        # subtree[l][j]: measure of admitted family cubes inside cube (l, j).
        # A candidate's own subtree is still empty when it is drawn, and the
        # root has no ancestors, so only admitted ancestors can reject.
        subtree = [[0.0] * (1 << level) for level in range(depth + 1)]
        admitted = [[False] * (1 << level) for level in range(depth + 1)]
        for level in range(depth + 1):
            m_c = 2.0 ** (-level)
            for j in rng.permutation(1 << level).tolist():
                if any(admitted[a][j >> (level - a)]
                       and subtree[a][j >> (level - a)] + m_c > cap * 2.0 ** (-a) + 1e-15
                       for a in range(level)):
                    continue
                admitted[level][j] = True
                for a in range(level + 1):
                    subtree[a][j >> (level - a)] += m_c
        return SparseFamily([np.array(m, dtype=bool) for m in admitted])

    if name == "stopping_time":
        if sigma_avgs is None:
            raise DomainError("stopping_time strategy needs sigma_avgs")
        if eta >= 1.0:
            raise DomainError("stopping_time needs eta < 1 (a = 1/(1-eta) > 1)")
        return stopping_time_family(sigma_avgs, 1.0 / (1.0 - eta))

    raise DomainError(f"unknown strategy {strategy!r}")


def stopping_time_family(sigma_avgs, a: float) -> SparseFamily:
    """Principal cubes of sigma, given its per-level averages (a
    WeightPair's sigma_avgs): starting from the root, select maximal
    descendants whose average exceeds a times the current stopping cube's
    average, recursively.  The result is (1 - 1/a)-sparse by construction."""
    if not a > 1.0:
        raise DomainError(f"stopping threshold a must exceed 1, got {a}")
    # stop[j]: the average of the stopping cube governing cube j of the level
    stop, masks = sigma_avgs[0], [np.ones(1, dtype=bool)]
    for avg in sigma_avgs[1:]:
        parent = stop.repeat(2)
        masks.append(avg > a * parent)
        stop = np.where(masks[-1], avg, parent)
    return SparseFamily(masks)


# -- instance (de)serialization --------------------------------------------


@dataclass
class Instance:
    pair: WeightPair
    family: SparseFamily
    sparse_config: dict
    clamped: int = 0

    def to_json_dict(self) -> dict:
        return {
            "depth": self.pair.geometry.depth,
            "p": self.pair.p,
            "w_leaves": self.pair.w_leaves.tolist(),
            "sigma_leaves": self.pair.sigma_leaves.tolist(),
            "sparse": self.sparse_config,
        }

    def dumps(self) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=True)


def _clamp(vec: np.ndarray) -> tuple[np.ndarray, int]:
    low = vec < DENSITY_FLOOR
    if np.any(vec < 0):
        raise DomainError("leaf densities must be nonnegative")
    n = int(low.sum())
    if n:
        vec = np.where(low, DENSITY_FLOOR, vec)
    return vec, n


def instance_from_dict(data: dict) -> Instance:
    geometry = TreeGeometry(int(data["depth"]))
    w, cw = _clamp(np.asarray(data["w_leaves"], dtype=float))
    s, cs = _clamp(np.asarray(data["sigma_leaves"], dtype=float))
    pair = WeightPair(geometry, w, s, float(data["p"]))
    sparse = data["sparse"]
    if "cubes" in sparse:
        cubes = [CubeId(int(l), int(j)) for l, j in sparse["cubes"]]
        family = SparseFamily.build(cubes, geometry)
    else:
        family = generate_sparse(geometry, sparse["strategy"], float(sparse["eta"]),
                                 int(sparse.get("seed", 0)), sigma_avgs=pair.sigma_avgs)
    return Instance(pair, family, sparse, clamped=cw + cs)


def load_instance(path: str) -> Instance:
    """The instance in a JSON file; lines starting with "#" (a config
    header) are skipped."""
    with open(path) as fh:
        return instance_from_dict(json.loads("".join(ln for ln in fh if not ln.startswith("#"))))

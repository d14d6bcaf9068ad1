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
from functools import cached_property, lru_cache

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


def subtree_sums(flat: np.ndarray, depth: int) -> np.ndarray:
    """Bottom-up sum over subcubes in place on a flat (level, index) buffer,
    trailing axes as columns: flat[k] += (flat[2k + 1] + flat[2k + 2]), leaves up."""
    for level in range(depth - 1, -1, -1):  # level + 1 spans [hi, 2 * hi + 1)
        lo, hi = (1 << level) - 1, (2 << level) - 1
        flat[lo:hi] += flat[hi:2 * hi + 1:2] + flat[hi + 1:2 * hi + 1:2]
    return flat


def ancestor_accumulate(levels, op=np.add):
    """Top-down accumulation along ancestors: out[l] = op(out[l-1]
    repeated onto the two children, levels[l]).  op is an elementwise
    binary function such as np.add or np.maximum; each level holds twice
    the entries of the one above."""
    out = list(levels)
    for level in range(1, len(out)):
        out[level] = op(np.repeat(out[level - 1], 2), levels[level])
    return out


@lru_cache(maxsize=32)
def _tree_index(depth: int):
    """(scale, up), read-only: scale[k] = 2**l at flat (level, index)
    position k on level l; up[l, x] = the position of leaf x's level-l ancestor."""
    levels = np.arange(depth + 1)
    up = ((1 << levels) - 1)[:, None] + (np.arange(1 << depth) >> (depth - levels)[:, None])
    scale = np.repeat(2.0 ** levels, 1 << levels)
    up.flags.writeable = scale.flags.writeable = False
    return scale, up


def _level_views(flat: np.ndarray) -> list[np.ndarray]:
    """The per-level views of a flat (level, index) buffer."""
    return [flat[(1 << level) - 1:(2 << level) - 1] for level in range(len(flat).bit_length())]


def _pyramid(leaves: np.ndarray, depth: int) -> np.ndarray:
    """Per-cube masses of the leaf values in one flat (level, index)
    buffer: subtree_sums of the leaf masses, one np.add a level."""
    flat = np.empty((2 << depth) - 1)
    np.multiply(leaves, 2.0 ** (-depth), out=flat[(1 << depth) - 1:])
    for level in range(depth - 1, -1, -1):
        lo, hi = (1 << level) - 1, (2 << level) - 1
        np.add(flat[hi:2 * hi + 1:2], flat[hi + 1:2 * hi + 1:2], out=flat[lo:hi])
    return flat


def _avg_pyramid(leaves, depth: int) -> list[np.ndarray]:
    """Per-level cube averages of the leaf values."""
    return _level_views(_pyramid(leaves, depth) * _tree_index(depth)[0])


class WeightPair:
    """A couple of strictly positive leaf densities plus an exponent.

    Immutable by convention.  The pyramids are flat (level, index) buffers
    (w_mass_flat, ..., sigma_avg_flat) with per-level views made on first
    read: w_masses[l][j] is w of cube (l, j), sigma_avgs[l][j] its sigma
    average; check a cube from outside against the geometry first.
    """

    w_masses = cached_property(lambda self: _level_views(self.w_mass_flat))
    sigma_masses = cached_property(lambda self: _level_views(self.sigma_mass_flat))
    w_avgs = cached_property(lambda self: _level_views(self.w_avg_flat))
    sigma_avgs = cached_property(lambda self: _level_views(self.sigma_avg_flat))

    def __init__(self, geometry: TreeGeometry, w_leaves, sigma_leaves, p: float):
        w = np.asarray(w_leaves, dtype=float)
        s = np.asarray(sigma_leaves, dtype=float)
        n = geometry.n_leaves
        if w.shape != (n,) or s.shape != (n,):
            raise DomainError(f"leaf vectors must have length {n}")
        if not (w.min() > 0 and s.min() > 0):
            raise DomainError("leaf densities must be strictly positive")
        if not (w.max() < np.inf and s.max() < np.inf):
            raise DomainError("leaf densities must be finite")
        if not (1.0 < p < np.inf):
            raise DomainError(f"p must lie in (1, inf), got {p}")
        self.geometry, self.w_leaves, self.sigma_leaves, self.p = geometry, w, s, float(p)
        self.w_mass_flat, self.sigma_mass_flat = (_pyramid(v, geometry.depth) for v in (w, s))
        self.w_avg_flat, self.sigma_avg_flat = (m * _tree_index(geometry.depth)[0]
                                                for m in (self.w_mass_flat, self.sigma_mass_flat))

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
    def coverage(self) -> tuple:
        """(inside, leaf, owner), read-only: inside[l, x] says whether leaf x's
        level-l ancestor up[l, x] is in S; leaf, owner: x, up[l, x] per True."""
        up = _tree_index(len(self.masks) - 1)[1]
        inside = self.flat_mask[up]
        leaf, owner = np.flatnonzero(inside) & (inside.shape[1] - 1), up[inside]
        inside.flags.writeable = leaf.flags.writeable = owner.flags.writeable = False
        return inside, leaf, owner

    @cached_property
    def packing(self) -> float:
        """Carleson packing constant: max over family cubes Q of the total
        measure of the family cubes inside Q, divided by |Q|."""
        # acc[k] = total measure of family cubes inside cube k
        scale = _tree_index(len(self.masks) - 1)[0]
        acc = subtree_sums(self.flat_mask / scale, len(self.masks) - 1)
        return float((acc * scale)[self.flat_mask].max(initial=0.0))


def _select(levels, cubes) -> np.ndarray:
    """The family vector: per-level arrays, or their flat buffer, in
    (level, index) order, the order of TreeGeometry.cubes() and
    sorted_cubes(), over every cube ("all") or a SparseFamily's cubes."""
    flat = levels if isinstance(levels, np.ndarray) else np.concatenate(levels)
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
        stop = stop.repeat(2)
        masks.append(avg > a * stop)
        np.copyto(stop, avg, where=masks[-1])
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

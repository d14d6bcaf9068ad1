"""Finite dyadic tree geometry, weights, and sparse families.

Everything lives on the unit interval [0, 1).  A tree of depth L has
2**L leaves; the cube (level, index) is [index * 2**-level,
(index + 1) * 2**-level).  Every per-cube quantity is one flat (level,
index) buffer: cube (l, j) at 2**l - 1 + j, position k with children
2k + 1 and 2k + 2.  Weights are strictly positive leaf densities; masses
are summed pairwise, so a parent's is exactly the sum of its children's.
"""

from __future__ import annotations

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
    def flat_index(self) -> int:
        """The cube's position in a flat (level, index) buffer."""
        return (1 << self.level) - 1 + self.index

    @staticmethod
    def from_flat(k: int) -> "CubeId":
        """The cube at position k of a flat (level, index) buffer."""
        level = (k + 1).bit_length() - 1
        return CubeId(level, k + 1 - (1 << level))

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


def ancestor_accumulate(flat: np.ndarray, depth: int, op=np.add) -> np.ndarray:
    """Top-down accumulation along ancestors in place on a flat (level,
    index) buffer, the twin of subtree_sums: op(flat[c], flat[k], out=flat[c])
    for the children c = 2k + 1, 2k + 2 of every k, root down.  op is an
    elementwise binary ufunc such as np.add or np.maximum."""
    for level in range(depth):  # level + 1 spans [hi, 2 * hi + 1)
        lo, hi = (1 << level) - 1, (2 << level) - 1
        for child in (flat[hi:2 * hi + 1:2], flat[hi + 1:2 * hi + 1:2]):
            op(child, flat[lo:hi], out=child)
    return flat


def ancestor_table(flat: np.ndarray, depth: int, op=np.add) -> np.ndarray:
    """The (L + 1, 2**L) table t[r, x] = op over leaf x's ancestors at level
    >= r of a flat (level, index) buffer: flat gathered onto the up table
    of _tree_index, folded leaves up by op(t[r], t[r + 1], out=t[r])."""
    t = flat[_tree_index(depth)[1]]
    for r in range(depth - 1, -1, -1):
        op(t[r], t[r + 1], out=t[r])
    return t


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


def _avg_pyramid(leaves, depth: int) -> np.ndarray:
    """The flat (level, index) cube averages of a leaf vector of length 2**depth."""
    leaves = np.asarray(leaves, dtype=float)
    if leaves.shape != (1 << depth,):
        raise DomainError(f"leaf vector must have length {1 << depth}")
    return _pyramid(leaves, depth) * _tree_index(depth)[0]


class WeightPair:
    """A couple of strictly positive leaf densities plus an exponent.

    Immutable: it holds read-only copies of the leaf vectors.  The
    pyramids are flat (level, index) buffers:
    w_mass_flat[R.flat_index] is w(R), sigma_avg_flat[R.flat_index] R's sigma
    average (check a cube from outside against the geometry first); their
    per-level views sigma_avgs, made on first read, suit cov_sides.
    """

    sigma_avgs = cached_property(lambda self: _level_views(self.sigma_avg_flat))

    def __init__(self, geometry: TreeGeometry, w_leaves, sigma_leaves, p: float):
        n = geometry.n_leaves
        if np.shape(w_leaves) != (n,) or np.shape(sigma_leaves) != (n,):
            raise DomainError(f"leaf vectors must have length {n}")
        leaves = np.array((w_leaves, sigma_leaves), dtype=float)  # one copy of both
        leaves.flags.writeable = False  # so its rows w and s are read-only views
        if not leaves.min() > 0:
            raise DomainError("leaf densities must be strictly positive")
        if not leaves.max() < np.inf:
            raise DomainError("leaf densities must be finite")
        w, s = leaves
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
        """The dual pair (sigma, w) at p'."""
        return WeightPair(self.geometry, self.sigma_leaves, self.w_leaves, self.p_dual)


@dataclass(frozen=True, eq=False)
class SparseFamily:
    """A family of cubes, held as one read-only flat (level, index) mask.
    The cube views, the per-level mask views (masks[l][j] for cube (l, j))
    and the packing constant derive from it on first use.  Equality is
    identity."""

    flat_mask: np.ndarray = field(repr=False)
    masks = cached_property(lambda self: _level_views(self.flat_mask))
    depth = property(lambda self: self.flat_mask.size.bit_length() - 1)

    def __post_init__(self):
        m = self.flat_mask
        if not (isinstance(m, np.ndarray) and m.dtype == bool and m.ndim == 1
                and m.size > 0 and m.size & (m.size + 1) == 0):
            raise DomainError("a family's flat mask is a 1-D bool array of size 2**(L+1) - 1")
        m.flags.writeable = False

    @staticmethod
    def build(cubes, geometry: TreeGeometry) -> "SparseFamily":
        """The validated family of an explicit cube list."""
        cubes = frozenset(cubes)
        if not cubes:
            raise DomainError("sparse family must be nonempty")
        for c in cubes:
            if not geometry.contains(c):
                raise DomainError(f"cube {c} outside depth-{geometry.depth} tree")
        flat = np.zeros((2 << geometry.depth) - 1, dtype=bool)
        flat[[c.flat_index for c in cubes]] = True
        return SparseFamily(flat)

    @cached_property
    def cubes(self) -> frozenset:
        return frozenset(map(CubeId.from_flat, np.flatnonzero(self.flat_mask).tolist()))

    def sorted_cubes(self) -> list[CubeId]:
        """(level, index) order: the order of _select's family vectors."""
        return sorted(self.cubes)

    @cached_property
    def packing(self) -> float:
        """Carleson packing constant: max over family cubes Q of the total
        measure of the family cubes inside Q, divided by |Q|."""
        # acc[k] = total measure of family cubes inside cube k
        scale = _tree_index(self.depth)[0]
        acc = subtree_sums(self.flat_mask / scale, self.depth)
        return float((acc * scale)[self.flat_mask].max(initial=0.0))


def _same_tree(S: SparseFamily, depth: int) -> None:
    """Raise DomainError unless the family S lives on the depth-`depth` tree."""
    if S.depth != depth:
        raise DomainError(f"a depth-{S.depth} family on a depth-{depth} tree")


def _select(flat: np.ndarray, cubes) -> np.ndarray:
    """The family vector of a flat (level, index) buffer, in (level, index)
    order, the order of the buffer itself and of sorted_cubes(), over every
    cube ("all") or a SparseFamily's cubes of the buffer's tree."""
    if cubes == "all":
        return flat
    _same_tree(cubes, len(flat).bit_length() - 1)
    return flat[cubes.flat_mask]


def packing_constant(cubes, geometry: TreeGeometry) -> float:
    """Carleson packing constant of a nonempty cube list in the tree."""
    return SparseFamily.build(cubes, geometry).packing


STRATEGIES = ("tower", "random_greedy", "all_above_level", "stopping_time")


def generate_sparse(geometry: TreeGeometry, strategy: str, eta: float, seed: int,
                    sigma_avg_flat=None) -> SparseFamily:
    """Deterministic eta-sparse family at one of the STRATEGIES: "tower" (a
    root chain), "random_greedy" (seeded), "all_above_level" (every cube of
    level <= min(L, floor(1/eta) - 1)) or "stopping_time" (sigma's principal
    cubes at a = 1/(1 - eta), from a WeightPair's sigma_avg_flat)."""
    if not (0.0 < eta <= 1.0):
        raise DomainError(f"eta must lie in (0, 1], got {eta}")
    cap = 1.0 / eta
    depth, size = geometry.depth, (2 << geometry.depth) - 1

    if strategy == "tower":
        flat, total = np.zeros(size, dtype=bool), 0.0
        for level in range(depth + 1):
            total += 2.0 ** (-level)
            if total > cap + 1e-12:
                break
            flat[(1 << level) - 1] = True
        return SparseFamily(flat)

    if strategy == "all_above_level":
        m = min(depth, int(np.floor(cap + 1e-12)) - 1)
        return SparseFamily(np.arange(size) < (2 << m) - 1)  # levels 0..m

    if strategy == "random_greedy":
        rng = np.random.default_rng(np.uint64(seed))
        # subtree[k]: measure of admitted family cubes inside the cube at flat
        # position k.  A candidate's own subtree is still empty when it is drawn,
        # and the root has no ancestors, so only admitted ancestors can reject.
        subtree, admitted = [0.0] * size, [False] * size
        for level in range(depth + 1):
            m_c = 2.0 ** (-level)
            for j in rng.permutation(1 << level).tolist():
                if any(admitted[k := (1 << a) - 1 + (j >> (level - a))]
                       and subtree[k] + m_c > cap * 2.0 ** (-a) + 1e-15
                       for a in range(level)):
                    continue
                admitted[(1 << level) - 1 + j] = True
                for a in range(level + 1):
                    subtree[(1 << a) - 1 + (j >> (level - a))] += m_c
        return SparseFamily(np.array(admitted))

    if strategy == "stopping_time":
        if sigma_avg_flat is None:
            raise DomainError("stopping_time strategy needs sigma_avg_flat")
        if eta >= 1.0:
            raise DomainError("stopping_time needs eta < 1 (a = 1/(1-eta) > 1)")
        return stopping_time_family(sigma_avg_flat, 1.0 / (1.0 - eta))

    raise DomainError(f"unknown strategy {strategy!r}")


def stopping_time_family(sigma_avg_flat, a: float) -> SparseFamily:
    """Principal cubes of sigma, given its flat averages (a WeightPair's
    sigma_avg_flat): starting from the root, select maximal descendants
    whose average exceeds a times the current stopping cube's average,
    recursively.  The result is (1 - 1/a)-sparse by construction."""
    if not a > 1.0:
        raise DomainError(f"stopping threshold a must exceed 1, got {a}")
    mask = np.zeros(len(sigma_avg_flat), dtype=bool)
    mask[0] = True
    # thr[j]: a times the average of the stopping cube governing cube j of the level
    scaled = a * sigma_avg_flat
    thr = scaled[:1]
    for level in range(1, len(sigma_avg_flat).bit_length()):
        lo, hi = (1 << level) - 1, (2 << level) - 1
        m, thr = mask[lo:hi], thr.repeat(2)
        np.greater(sigma_avg_flat[lo:hi], thr, out=m)
        np.copyto(thr, scaled[lo:hi], where=m)
    return SparseFamily(mask)


# -- instance (de)serialization --------------------------------------------


@dataclass
class Instance:
    pair: WeightPair
    family: SparseFamily
    sparse_config: dict

    def to_json_dict(self) -> dict:
        return {
            "depth": self.pair.geometry.depth,
            "p": self.pair.p,
            "w_leaves": self.pair.w_leaves.tolist(),
            "sigma_leaves": self.pair.sigma_leaves.tolist(),
            "sparse": dict(self.sparse_config),
        }


def _clamp(vec: np.ndarray) -> np.ndarray:
    if np.any(vec < 0):
        raise DomainError("leaf densities must be nonnegative")
    return np.maximum(vec, DENSITY_FLOOR)


def _known_keys(data: dict, keys) -> dict:
    """data, once each of its keys is one of keys: a misspelt key is an error, not a default."""
    unknown = sorted(set(data) - set(keys))
    if unknown:
        raise DomainError(f"unknown spec keys {unknown}, expected some of {list(keys)}")
    return data


def make_instance(geometry: TreeGeometry, w, sigma, p: float, sparse: dict) -> Instance:
    """The pair (w, sigma) at p with the family of a sparse config: its
    explicit "cubes", a list of (level, index), or generate_sparse at its
    "strategy", "eta" and "seed" (default 0), from this pair's sigma."""
    pair = WeightPair(geometry, w, sigma, p)
    if "cubes" in sparse:
        family = SparseFamily.build([CubeId(int(l), int(j)) for l, j in sparse["cubes"]], geometry)
    else:
        family = generate_sparse(geometry, sparse["strategy"], float(sparse["eta"]),
                                 int(sparse.get("seed", 0)), sigma_avg_flat=pair.sigma_avg_flat)
    return Instance(pair, family, dict(sparse))


def instance_from_dict(data: dict) -> Instance:
    _known_keys(data, ("depth", "p", "w_leaves", "sigma_leaves", "sparse", "meta"))
    sparse = _known_keys(data["sparse"], ("strategy", "eta", "seed", "cubes"))
    return make_instance(TreeGeometry(int(data["depth"])),
                         _clamp(np.asarray(data["w_leaves"], dtype=float)),
                         _clamp(np.asarray(data["sigma_leaves"], dtype=float)),
                         float(data["p"]), sparse)


def load_json(path, from_json_dict):
    """from_json_dict of the JSON in a file, skipping lines that start with
    "#" (a config header), parsed by orjson.  A file that is not JSON (NaN,
    Infinity and literals beyond the float range included) or that
    from_json_dict cannot read is a DomainError naming the file."""
    import orjson  # imported here: search reads no file, so it skips this ~6 ms import
    try:
        with open(path, "rb") as fh:
            text = b"".join(ln for ln in fh if not ln.startswith(b"#"))
        return from_json_dict(orjson.loads(text))
    except (ValueError, KeyError, TypeError, AttributeError, IndexError) as exc:
        raise DomainError(f"malformed input file {path}: {exc!r}") from exc


def load_instance(path) -> Instance:
    """The instance in a JSON file, read by load_json."""
    return load_json(path, instance_from_dict)

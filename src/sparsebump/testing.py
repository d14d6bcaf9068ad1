"""Sparse operators, exact testing constants, and checkers for the
displayed inequalities, with proof-tracked constants where the proofs
yield them.

A CheckReport with a bound is a hard assertion (the bound is tracked
through a proof: 2*Lambda, 2*Lambda*S_psi, the sqrt(2) bracket);
a report with bound None records a ratio whose implicit constant the
source material leaves unspecified.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dyadic import (CubeId, DomainError, NumericError, SparseFamily,
                     TreeGeometry, WeightPair, _avg_pyramid, _pyramid, _same_tree,
                     _select, _tree_index, ancestor_accumulate, ancestor_table,
                     subtree_sums)
from .bumps import (BumpSpec, _lambda_bump, ap_constant, dyadic_maximal,
                    ensure_admissible, nu_constant)


@dataclass
class CheckReport:
    name: str
    lhs: float
    rhs: float
    bound: float | None
    ratio: float
    passed: bool
    hard: bool = False  # not serialized; drives the CLI exit code

    @staticmethod
    def make(name, lhs, rhs, bound=None, hard=False, lower=None) -> "CheckReport":
        """The report of lhs / rhs, which passes at most bound (1e-9
        relative slack) and, given lower, at least lower."""
        ratio = lhs / rhs if rhs > 0 else math.inf
        passed = (bound is not None and ratio <= bound * (1.0 + 1e-9)
                  and (lower is None or ratio >= lower))
        return CheckReport(name, float(lhs), float(rhs), bound, float(ratio),
                           passed, hard)

    def csv_row(self) -> str:
        b = "" if self.bound is None else f"{self.bound:.17g}"
        return (f"{self.name},{self.lhs:.17g},{self.rhs:.17g},{b},"
                f"{self.ratio:.17g},{str(self.passed).lower()}")


CHECK_CSV_HEADER = "name,lhs,rhs,bound,ratio,pass"


# -- sums, norms, operators -------------------------------------------------


def local_sum(S: SparseFamily, pair: WeightPair, R: CubeId) -> np.ndarray:
    """The leaf array of the step function sum over Q in S with Q subset
    of R of sigma_Q * chi_Q."""
    geometry = pair.geometry
    _same_tree(S, geometry.depth)
    if not geometry.contains(R):
        raise DomainError(f"cube {R} outside the tree")
    # row R.level sums the cubes of S at or below that level; cut to R's leaves
    out, sl = np.zeros(geometry.n_leaves), R.leaf_slice(geometry.depth)
    out[sl] = ancestor_table(np.where(S.flat_mask, pair.sigma_avg_flat, 0.0),
                             geometry.depth)[R.level, sl]
    return out


def lp_norm(f, weight_leaves, p: float) -> float:
    """(sum over leaves of |f|^p * w * 2^-L)^(1/p) for leaf arrays f and w
    of length 2^L."""
    if not 1.0 < p < math.inf:
        raise DomainError(f"p must lie in (1, inf), got {p}")
    f, w = np.asarray(f, dtype=float), np.asarray(weight_leaves, dtype=float)
    if f.ndim != 1 or f.shape != w.shape:
        raise DomainError("leaf vector length must match the weight")
    return float(np.sum(np.abs(f) ** p * w) / f.size) ** (1.0 / p)


def testing_constant(pair: WeightPair, S: SparseFamily):
    """[w,sigma]_p: max over R in S of ||local_sum(R)||_{L^p(w)} /
    sigma(R)^{1/p}.  Returns (value, maximizing R); ties break toward the
    smallest (level, index)."""
    depth, p = pair.geometry.depth, pair.p
    _same_tree(S, depth)
    up = _tree_index(depth)[1]
    inside = S.flat_mask[up]  # whether leaf x's level-r ancestor up[r, x] is in S
    # g[r, x]: level-r local sum at leaf x, added leaves-up (no differences of large sums)
    g = ancestor_table(np.where(S.flat_mask, pair.sigma_avg_flat, 0.0), depth)
    leaf = np.flatnonzero(inside) & ((1 << depth) - 1)
    sums = np.bincount(up[inside], g[inside] ** p * pair.w_leaves[leaf],
                       minlength=S.flat_mask.size)
    vals = ((sums[S.flat_mask] * 2.0 ** (-depth)) ** (1.0 / p)
            / _select(pair.sigma_mass_flat, S) ** (1.0 / p))
    if not vals.size:
        return -math.inf, None
    k = int(vals.argmax())  # the first maximum in (level, index) order
    return float(vals[k]), CubeId.from_flat(int(S.flat_mask.nonzero()[0][k]))


def apply_sparse(S: SparseFamily, values) -> np.ndarray:
    """A_S f = sum over Q in S of f_Q * chi_Q for finite f, leaf array in,
    leaf array out."""
    flat = np.where(S.flat_mask, _avg_pyramid(values, S.depth), 0.0)
    return ancestor_accumulate(flat, S.depth)[(1 << S.depth) - 1:]


def operator_norm(S: SparseFamily, pair: WeightPair) -> tuple[float, float]:
    """(lower, upper) around ||A_S(. sigma)||_{L^p(sigma) -> L^p(w)}: _boyd
    steps from f = 1 until upper - lower <= 1e-10 lower; (0, 0) for a zero
    image.  Raises NumericError on overflow or after 100 000 steps."""
    f = np.ones(pair.geometry.n_leaves)
    for _ in range(100_000):
        lower, upper, f = _boyd(S, pair, f)
        if upper - lower <= 1e-10 * lower:
            return lower, upper
    raise NumericError("Boyd bracket did not close")


def operator_norm_p2(S: SparseFamily, pair: WeightPair) -> float:
    """The lower end of operator_norm at p = 2."""
    if abs(pair.p - 2.0) > 1e-12:
        raise DomainError("operator_norm_p2 requires p = 2")
    return operator_norm(S, pair)[0]


def _indicator_ratios(pair: WeightPair) -> np.ndarray:
    """||M(sigma chi_Q)||_{L^p(w)} / sigma(Q)^{1/p} for every cube Q as a
    flat (level, index) buffer.  With E(P) = 2^level(P), the largest of
    2^level over P and its ancestors, M(sigma chi_Q) is max(table[l(Q)], sigma(Q)
    E(parent Q)) on Q and sigma(Q) E(P) off Q, P the least common ancestor;
    D(child) = D(parent) + E(parent)^p w(sibling), D(root) = 0, sums those
    p-th powers against w."""
    depth, p, sigma = pair.geometry.depth, pair.p, pair.sigma_mass_flat
    scale, up = _tree_index(depth)
    table = ancestor_table(pair.sigma_avg_flat, depth, np.maximum)
    e_parent = np.concatenate([[0.0], scale[:(1 << depth) - 1].repeat(2)])
    sibling_w = pair.w_mass_flat[1:].reshape(-1, 2)[:, ::-1].ravel()
    off = ancestor_accumulate(np.concatenate([[0.0], e_parent[1:] ** p * sibling_w]), depth)
    inside = np.maximum(table, (sigma * e_parent)[up]) ** p * pair.w_leaves
    num = np.bincount(up.ravel(), inside.ravel(), minlength=sigma.size) * 2.0 ** (-depth)
    # sigma(Q)^p D(Q), 0 at D = 0 even where sigma(Q)^p overflows
    return ((num + (sigma * off ** (1.0 / p)) ** p) / sigma) ** (1.0 / p)


def _boyd(S: SparseFamily, pair: WeightPair, f: np.ndarray):
    """One step of Boyd's power map for the l^p norm of A_S(. sigma) (Boyd,
    Linear Algebra Appl. 9, 1974) at f >= 0 with max 1: the trial ratio at
    f, the Collatz-Wielandt upper end max over f_j > 0 of (A_S(u)_j /
    f_j^{p-1})^{1/p}, u = w A_S(f sigma)^{p-1}, and the next f, A_S(u)^{1/(p-1)}
    scaled to max 1.  Raises NumericError when a bound overflows."""
    p, pos = pair.p, f > 0.0
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        img = apply_sparse(S, f * pair.sigma_leaves)
        u = img ** (p - 1.0) * pair.w_leaves  # u . img = ||img||^p in L^p(w), up to 2^-L
        ratio = float(np.dot(u, img) / np.dot(f ** p, pair.sigma_leaves)) ** (1.0 / p)
        nxt = apply_sparse(S, u) ** (1.0 / (p - 1.0))
        upper = float((nxt[pos] / f[pos]).max()) ** (1.0 - 1.0 / p)
        f = nxt / nxt.max()
    if not math.isfinite(ratio + upper):
        raise NumericError("Boyd step overflowed")
    return ratio, upper, f


def operator_norm_lower(S: SparseFamily, pair: WeightPair, budget: int,
                        seed: int = 0) -> float:
    """The lower end of operator_norm; budget and seed are accepted and
    change nothing."""
    return operator_norm(S, pair)[0]


# -- displayed-inequality checkers ------------------------------------------
# Per-cube terms are family vectors (dyadic._select), psi and phi see whole
# vectors, and a per-R checker reads its sums off the pass over every R.


def _sums_inside(S: SparseFamily, terms, R: CubeId | None = None) -> np.ndarray:
    """The sum of terms (a family vector of S; trailing axes are separate
    columns) over the cubes of S inside R, or, with R None, inside every
    cube of S at once as a family vector: one subtree_sums pass.  Raises
    NumericError when a sum overflows."""
    if R is not None and not TreeGeometry(S.depth).contains(R):
        raise DomainError(f"cube {R} outside the tree")
    flat = np.zeros(S.flat_mask.shape + np.shape(terms)[1:])
    flat[S.flat_mask] = terms
    with np.errstate(over="ignore"):
        sums = subtree_sums(flat, S.depth)[S.flat_mask if R is None else R.flat_index]
    if not np.isfinite(sums).all():
        raise NumericError("family sums overflowed")
    return sums


def _sawyer_terms(S: SparseFamily, pair: WeightPair) -> np.ndarray:
    """sigma_Q^p w(Q) over S."""
    return _select(pair.sigma_avg_flat, S) ** pair.p * _select(pair.w_mass_flat, S)


def cov_sides(S: SparseFamily, a, w_leaves, p: float,
              geometry: TreeGeometry) -> tuple[float, float]:
    """Both sides (lhs, rhs), each exact, of the discrete Carleson expansion
    for ||sum over Q in S of a_Q chi_Q||_{L^p(w)}; a holds per-level arrays,
    such as a WeightPair's sigma_avgs."""
    _same_tree(S, geometry.depth)
    w = np.asarray(w_leaves, dtype=float)
    if [np.shape(al) for al in a] != [(1 << level,) for level in range(S.depth + 1)]:
        raise DomainError(f"a must hold one array per level 0..{S.depth} of the family's tree")
    flat = np.where(S.flat_mask, np.concatenate(a), 0.0)
    a = _select(flat, S)
    lhs = lp_norm(ancestor_accumulate(flat, geometry.depth)[(1 << geometry.depth) - 1:], w, p)
    wmass = _select(_pyramid(w, geometry.depth), S)
    if np.any(wmass <= 0.0):
        raise DomainError("w(Q) must be positive for every family cube")
    # inner_Q = sum of a_P w(P) over the family cubes P inside Q
    inner = _sums_inside(S, a * wmass)
    total = float((a * (inner / wmass) ** (p - 1.0) * wmass).sum())
    return lhs, total ** (1.0 / p)


def cov_bracket_report(S: SparseFamily, a, w_leaves, p, geometry) -> CheckReport:
    """p = 2 exact bracket rhs <= lhs <= sqrt(2) * rhs; hard assert."""
    lhs, rhs = cov_sides(S, a, w_leaves, p, geometry)
    return CheckReport.make("cov_bracket", lhs, rhs, bound=math.sqrt(2.0), hard=True,
                            lower=1.0 - 1e-9)


def carleson_embedding_ratio(S: SparseFamily, w_leaves, s: float, R: CubeId,
                             geometry: TreeGeometry) -> CheckReport:
    """sum over Q subset R of (w_Q)^s |Q| against (w_R)^s |R|; the implicit
    constant depends on (s, eta), so report only."""
    if not 0.0 < s < 1.0:
        raise DomainError(f"s must lie in (0, 1), got {s}")
    if not geometry.contains(R):
        raise DomainError(f"cube {R} outside the tree")
    avgs = _avg_pyramid(w_leaves, geometry.depth)
    terms = _select(avgs ** s / _tree_index(geometry.depth)[0], S)  # (w_Q)^s |Q|
    rhs = float(avgs[R.flat_index]) ** s * R.measure
    return CheckReport.make("carleson_embedding", float(_sums_inside(S, terms, R)), rhs)


def hytonen_ratio(S: SparseFamily, pair: WeightPair, R: CubeId) -> CheckReport:
    """int_R (local sum)^p w against (sup w_Q sigma_Q^{p-1}) * sum sigma(Q);
    report only."""
    lhs = lp_norm(local_sum(S, pair, R), pair.w_leaves, pair.p) ** pair.p
    total = float(_sums_inside(S, _select(pair.sigma_mass_flat, S), R))
    return CheckReport.make("hytonen", lhs, ap_constant(pair, S) * total)


def _level(s):
    """The k with 2^k < s <= 2^{k+1} (strict below, weak above), exactly:
    s = m 2^e with m in [1/2, 1), and m = 1/2 puts s on the upper edge."""
    m, e = np.frexp(s)
    return e - 1 - (m == 0.5)


def realized_levels(S: SparseFamily, pair: WeightPair) -> list[int]:
    """The k with nonempty level set, under the strict/weak convention."""
    return sorted(set(_level(_select(pair.sigma_avg_flat, S)).tolist()))


def lemma_reports(S: SparseFamily, pair: WeightPair, ks, spec: BumpSpec | None = None,
                  R: CubeId | None = None) -> list[CheckReport]:
    """prop32_check at each k of ks and, given a spec, prop33_check and
    sawyer_sum_bound, in that order, at R or (R None) at every R in S in
    (level, index) order: one subtree pass and one psi call in all."""
    s, masses = _select(pair.sigma_avg_flat, S), _select(pair.sigma_mass_flat, S)
    terms = [np.where(_level(s)[:, None] == np.array(ks, dtype=int), masses[:, None], 0.0)]
    if spec is not None:
        psi_bound = 2.0 * S.packing * ensure_admissible(spec).s_psi
        psi = spec.psi(s)
        sup = float((_select(pair.w_avg_flat, S) * s ** (pair.p - 1.0) * psi).max())
        terms.append(np.column_stack([masses / psi, _sawyer_terms(S, pair)]))
    rows = np.atleast_2d(_sums_inside(S, np.hstack(terms), R)).tolist()
    reports = []
    # _sums_inside has checked R against the tree
    for row, sigma in zip(rows, masses.tolist() if R is None
                          else [float(pair.sigma_mass_flat[R.flat_index])]):
        reports += [CheckReport.make(f"prop32_k{k}", lhs, sigma, bound=2.0 * S.packing,
                                     hard=True) for k, lhs in zip(ks, row)]
        if spec is not None:
            reports += [CheckReport.make("prop33", row[-2], sigma, bound=psi_bound, hard=True),
                        CheckReport.make("sawyer_sum", row[-1], sup * sigma, bound=psi_bound,
                                         hard=True)]
    return reports


def prop32_check(S: SparseFamily, pair: WeightPair, R: CubeId, k: int) -> CheckReport:
    """Level-set Carleson sum against sigma(R) with the proof-tracked
    hard bound 2 * Lambda."""
    return lemma_reports(S, pair, [k], R=R)[0]


def prop33_check(S: SparseFamily, pair: WeightPair, spec: BumpSpec,
                 R: CubeId) -> CheckReport:
    """sum over Q subset R of sigma(Q)/psi(sigma_Q) against sigma(R), hard
    bound 2 * Lambda * S_psi."""
    return lemma_reports(S, pair, [], spec, R)[0]


def sawyer_sum_bound(pair: WeightPair, S: SparseFamily, spec: BumpSpec,
                     R: CubeId) -> CheckReport:
    """sum over Q subset R of sigma_Q^p w(Q) against
    (sup w_Q sigma_Q^{p-1} psi(sigma_Q)) * 2 Lambda S_psi * sigma(R);
    hard via the exact term-by-term identity."""
    return lemma_reports(S, pair, [], spec, R)[1]


# the pass cap of prop31_bound: the proof's constant is implicit
PROP31_CAP = 64.0
# maximal_norm_lower's random trials: that many exponential leaf vectors,
# drawn from that seed
MAXIMAL_TRIALS, MAXIMAL_SEED = 8, 1


def prop31_bound(pair: WeightPair, S: SparseFamily, lam, spec: BumpSpec, tc: float) -> CheckReport:
    """The testing constant tc = testing_constant(pair, S)[0] against the
    lambda-bump sup at max(lam, 1), lam a family vector of S; the proof
    constant is implicit, so the pass flag compares against PROP31_CAP."""
    ensure_admissible(spec)
    bump = _lambda_bump(pair, spec, np.maximum(lam, 1.0), S)
    return CheckReport.make("prop31", tc, bump, bound=PROP31_CAP)


def eset_split_check(pair: WeightPair, S: SparseFamily, R: CubeId):
    """The closing-split observation: restrict the local sum to cubes with
    w_Q sigma_Q^{p-1} >= 1 and compare against A_p times the Sawyer sum.
    Returns (split report, hard membership report)."""
    p = pair.p
    _same_tree(S, pair.geometry.depth)
    E = SparseFamily(S.flat_mask & (pair.w_avg_flat * pair.sigma_avg_flat ** (p - 1.0) >= 1.0))
    lhs = lp_norm(local_sum(E, pair, R), pair.w_leaves, p) ** p
    sawyer = float(_sums_inside(S, _sawyer_terms(S, pair), R))
    split = CheckReport.make("eset_split", lhs,
                             ap_constant(pair, S) * sawyer if sawyer > 0 else 1.0)
    # hard intermediate: sigma(Q) <= sigma_Q^p w(Q) for every Q in E (0 for an empty E)
    worst = (_select(pair.sigma_mass_flat, E) / _sawyer_terms(E, pair)).max(initial=0.0)
    return split, CheckReport.make("eset_member", float(worst), 1.0, bound=1.0, hard=True)


def theorem_main_ratio(pair: WeightPair, S: SparseFamily, spec: BumpSpec, tc1: float):
    """The two testing-side ratios behind the main two-weight bound:
    r1 = [w,sigma]_p / [w,sigma]_{nu_p}^{1/p}, with tc1 =
    testing_constant(pair, S)[0], and the dual r2.  Report only; the
    theorem's constant is implicit."""
    ensure_admissible(spec)
    dual = pair.swapped()
    return tuple(CheckReport.make(f"theorem_main_r{i}", tc, nu_constant(q, spec, S) ** (1.0 / q.p))
                 for i, q, tc in ((1, pair, tc1), (2, dual, testing_constant(dual, S)[0])))


def maximal_norm_lower(pair: WeightPair) -> float:
    """Trial-based lower bound for ||M_d(. sigma)||_{L^p(sigma) -> L^p(w)}:
    the largest ratio over the indicators of every cube, which is Sawyer's
    testing constant for M, and MAXIMAL_TRIALS random leaf vectors f >= 0
    drawn from MAXIMAL_SEED."""
    p, w, sigma = pair.p, pair.w_leaves, pair.sigma_leaves
    rng = np.random.default_rng(np.uint64(MAXIMAL_SEED))
    best = float(_indicator_ratios(pair).max())
    for _ in range(MAXIMAL_TRIALS):
        f = rng.exponential(1.0, sigma.size)
        mf = dyadic_maximal(f * sigma, pair.geometry.depth)
        best = max(best, lp_norm(mf, w, p) / lp_norm(f, sigma, p))
    return best

"""Bump families, Young functions with Luxemburg norms, and the bump
constants built from them.

A bump spec carries a V-shaped function psi (decreasing on (0,1),
increasing on (1,inf)) and an increasing function phi on [1,inf).
Admissibility certifies monotonicity on a geometric grid and the decay
of the dyadic tail sums S_psi and S_phi; only S_psi's value is kept.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .dyadic import (CubeId, DomainError, NumericError, WeightPair, _avg_pyramid, _known_keys,
                     _number, _select, _tree_index, ancestor_accumulate, ancestor_table)

_E = math.e
_EE = math.exp(math.e)

# dyadic tail sums: direct summation range; the hard lemma bounds only
# need it to cover every realizable sigma_Q block
TAIL_DIRECT_K = 512

GAUGE_REL_TOL = 1e-12  # each Luxemburg gauge closes its bracket to hi - lo <= this * lo


class AdmissibilityError(ValueError):
    """A bump or Young spec failed a certification check."""


# -- psi / phi families -----------------------------------------------------


def _loglog(x):
    return np.log(np.log(x))


def _psi_lower(t, eps):
    # shared small-t branch: log(e + 1/t) * loglog^{1+eps}(e^e + 1/t)
    inv = 1.0 / t
    return np.log(_E + inv) * _loglog(_EE + inv) ** (1.0 + eps)


def _upper(t, eps, family):
    # psi above 1, and phi: log(e + t)^{1+eps} or log(e + t) * loglog^{1+eps}(e^e + t)
    if family == "log_power":
        return np.log(_E + t) ** (1.0 + eps)
    return np.log(_E + t) * _loglog(_EE + t) ** (1.0 + eps)


@dataclass(frozen=True)
class BumpSpec:
    """psi/phi families with eagerly certified admissibility.

    psi_family, phi_family: "log_power" or "log_loglog"; psi_family
    "custom" uses the callable psi_fn (vectorized, t > 0).
    """

    psi_family: str = "log_power"
    psi_eps: float = 1.0
    phi_family: str = "log_loglog"
    phi_eps: float = 1.0
    psi_fn: object = None

    def __post_init__(self):  # from_json_dict passes no callable, so JSON cannot say "custom"
        for family, custom in ((self.psi_family, callable(self.psi_fn)), (self.phi_family, False)):
            if not (family in ("log_power", "log_loglog") or family == "custom" and custom):
                raise DomainError(f"unknown bump family {family!r}, or custom without a callable")

    def psi(self, t):
        t = np.asarray(t, dtype=float)
        low = t < 1.0
        any_low = low.any()  # t <= 0 implies t < 1: input all >= 1 skips check and branch
        if any_low and (t <= 0.0).any():
            raise DomainError("psi requires t > 0")
        if self.psi_family == "custom":
            out = np.asarray(self.psi_fn(t), dtype=float)
        else:
            out = _upper(np.maximum(t, 1.0), self.psi_eps, self.psi_family)
            if any_low:
                out = np.where(low, _psi_lower(np.maximum(t, 1e-300), self.psi_eps), out)
        return float(out) if out.ndim == 0 else out

    def phi(self, t):
        t = np.asarray(t, dtype=float)
        if (t < 1.0).any():
            raise DomainError("phi requires t >= 1")
        out = _upper(t, self.phi_eps, self.phi_family)
        return float(out) if out.ndim == 0 else out

    def nu_p(self, p, t):
        """psi(t)*phi^{p-1}(psi(t)) below 1, psi(t) at and above 1."""
        if not 1.0 < p < math.inf:
            raise DomainError(f"p must lie in (1, inf), got {p}")
        t = np.asarray(t, dtype=float)
        ps = self.psi(t)
        low = t < 1.0
        if not low.any():  # the factor phi^{p-1} is 1 on every entry
            return ps
        out = ps * np.where(low, np.asarray(self.phi(np.where(low, ps, 1.0))) ** (p - 1.0), 1.0)
        return float(out) if np.ndim(out) == 0 else out

    def to_json_dict(self) -> dict:
        return {"psi": {"family": self.psi_family, "eps": self.psi_eps},
                "phi": {"family": self.phi_family, "eps": self.phi_eps}}

    @staticmethod
    def from_json_dict(data: dict) -> "BumpSpec":
        _known_keys(data, ("psi", "phi"))
        psi, phi = (_known_keys(data[side], ("family", "eps")) for side in ("psi", "phi"))
        return BumpSpec(psi_family=psi["family"], psi_eps=_number(psi["eps"], "psi eps"),
                        phi_family=phi["family"], phi_eps=_number(phi["eps"], "phi eps"))


@dataclass
class AdmissibilityReport:
    ok: bool
    reasons: list
    s_psi: float


def _tail_converges(u):
    """Decide summability of a positive decreasing tail sequence u[k],
    k = 1..K, sampled at dyadic arguments: k*u_k must fall by more than a
    factor 0.7 from K/4 to K (this separates the harmonic boundary)."""
    v = np.arange(1, len(u) + 1, dtype=float) * np.asarray(u)
    lo, hi = v[len(u) // 4 - 1], v[-1]
    return lo <= 0 or not hi / lo > 0.7


def _tail_extrapolate(u):
    """The tail beyond the directly summed range: geometric when the last
    two ratios agree, else a power law fit between K/2 and K."""
    K = len(u)
    if u[-1] <= 0:
        return 0.0
    r1, r2 = (u[-1] / u[-2], u[-2] / u[-3]) if u[-2] > 0 and u[-3] > 0 else (0.0, 0.0)
    if 0 < r1 < 0.97 and abs(r1 - r2) < 0.02:
        return float(u[-1] * r1 / (1.0 - r1))
    ratio = u[K - 1] / u[K // 2 - 1]
    if ratio <= 0 or ratio >= 1:
        return 0.0
    alpha = -math.log(ratio) / math.log(2.0)
    if alpha <= 1.0:
        return 0.0
    return float(u[-1] * K / (alpha - 1.0))


def check_bump(spec: BumpSpec) -> AdmissibilityReport:
    reasons = []
    K = TAIL_DIRECT_K
    # psi at 2^k for |k| <= K (t = 1 at index K) and phi at 2^k for 0 <= k <= K
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow reads inf: increasing
        pw = np.asarray(spec.psi(2.0 ** np.arange(-K, K + 1, dtype=float)))
        phw = np.asarray(spec.phi(2.0 ** np.arange(0, K + 1, dtype=float)))
        # monotonicity: decreasing on (0,1), increasing on (1,inf), on 40 points
        # each running toward t = 0 or t = inf (below 1: 1/2, 1/4, ...)
        for vals, what in ((pw[K - 1:K - 41:-1], "psi not decreasing on (0,1)"),
                           (pw[K + 1:K + 41], "psi not increasing on (1,inf)"),
                           (phw[1:41], "phi not increasing on (1,inf)")):
            if np.any(np.diff(vals) < -1e-12 * np.abs(vals[:-1])):
                reasons.append(what)

    # star[k] = inf of psi over the block (2^k, 2^{k+1}] (index k + K); for
    # the straddling block k = -1 the one-sided limit at t -> 1- is included
    star = np.minimum(pw[:-1], pw[1:])
    star[K - 1] = min(star[K - 1], float(spec.psi(1.0 - 1e-12)))

    inv = 1.0 / star
    # split into the two monotone tails (u increasing toward k = +-inf in psi
    # means 1/psi decreasing)
    tail_pos, tail_neg = inv[K:], inv[:K][::-1]
    if not _tail_converges(tail_neg):
        reasons.append("S_psi diverges on (0,1) (dyadic tail fails decay check)")
    if not _tail_converges(tail_pos):
        reasons.append("S_psi diverges on (1,inf) (dyadic tail fails decay check)")
    s_psi = float(np.sum(inv) + _tail_extrapolate(tail_neg) + _tail_extrapolate(tail_pos))

    if not _tail_converges(1.0 / phw):
        reasons.append("S_phi diverges (dyadic tail fails decay check)")
    return AdmissibilityReport(ok=not reasons, reasons=reasons, s_psi=s_psi)


# keyed on the spec itself: a cached spec keeps its custom functions alive,
# so a later function can never be mistaken for a freed one
_admissibility_report = lru_cache(maxsize=32)(check_bump)


def ensure_admissible(spec: BumpSpec) -> AdmissibilityReport:
    report = _admissibility_report(spec)
    if not report.ok:
        raise AdmissibilityError("inadmissible bump spec: " + "; ".join(report.reasons))
    return report


# -- Young functions --------------------------------------------------------


@dataclass(frozen=True)
class YoungSpec:
    """Young function A, normalized so A(1) = 1.

    family: "power" (A(t) = t^q) or "power_over_log"
    (A(t) = t^q * (log(e+1)/log(e+t))^{1+eps}).
    """

    family: str = "power"
    q: float = 2.0
    eps: float = 1.0
    inv_one = 1.0  # A^-1(1), by the normalization; a class constant, not a field

    def __post_init__(self):
        if self.family not in ("power", "power_over_log"):
            raise DomainError(f"unknown Young family {self.family!r}")

    def A_and_elasticity(self, t):
        """(A(t), e(t)) as arrays, e = d log A / d log t the elasticity."""
        t = np.asarray(t, dtype=float)
        if self.family == "power":
            return t ** self.q, np.full(t.shape, self.q)
        e_plus_t = _E + t
        log_t = np.log(e_plus_t)
        return (t ** self.q * (math.log(_E + 1.0) / log_t) ** (1.0 + self.eps),
                self.q - (1.0 + self.eps) * t / (e_plus_t * log_t))

    def A(self, t):
        out = self.A_and_elasticity(t)[0]
        return float(out) if out.ndim == 0 else out

    def in_bp(self, p: float) -> bool:
        """Whether int_1^inf A(t)/t^p dt/t is finite (Perez's class B_p):
        exactly when q < p, or q = p with eps > 0 for power_over_log."""
        return self.q < p or (self.q == p and self.family == "power_over_log" and self.eps > 0)

    def to_json_dict(self) -> dict:
        return {"family": self.family, "q": self.q, "eps": self.eps}

    @staticmethod
    def from_json_dict(data: dict) -> "YoungSpec":
        _known_keys(data, ("family", "q", "eps"))
        return YoungSpec(family=data.get("family"), q=_number(data.get("q", 2.0), "q"),
                         eps=_number(data.get("eps", 1.0), "eps"))


# the Young function of the CLI and of a search Objective when none is given
DEFAULT_YOUNG = YoungSpec("power_over_log", 2.0, 1.0)


@lru_cache(maxsize=32)
def ensure_young(young: YoungSpec) -> None:
    """Raise AdmissibilityError unless q > 1 (Abar grows like s^{q/(q-1)}),
    A(0) = 0 and A is increasing and convex on a geometric grid (cached once it passes)."""
    reasons = [] if young.q > 1.0 else [f"q = {young.q} is not above 1"]
    ts = np.concatenate(([0.0], np.geomspace(2.0 ** -40, 2.0 ** 40, 2001)))
    with np.errstate(all="ignore"):  # A(0) is inf for q < 0; the reasons say so
        vals = np.asarray(young.A(ts))
        if abs(vals[0]) > 1e-12:
            reasons.append("A(0) != 0")
        if np.any(np.diff(vals) < -1e-12 * np.abs(vals[:-1])):
            reasons.append("A not increasing")
        slopes = np.diff(vals) / np.diff(ts)
        rel = np.diff(slopes) / np.maximum(slopes[1:], 1e-300)
        if np.min(rel) < -1e-9:
            reasons.append("A not convex on the geometric grid")
    if reasons:
        raise AdmissibilityError("inadmissible Young function: " + "; ".join(reasons))


def _conjugate(young: YoungSpec, s: np.ndarray) -> np.ndarray:
    """Abar at every point of s > 0, for either Young family: Abar(s) =
    s*t - A(t) at the t where A'(t) = A(t) e(t) / t = s (Rockafellar,
    Convex Analysis, 1970, sec. 26), found by one bisection on log t over
    all points at once.  The bracket |log2 t| <= 200 shrinks by half 64
    times, to below one ulp of log t; s*t - A(t) is stationary there, so
    the error in t enters only squared.  An s whose t lies outside the
    bracket (only for q near 1, where Abar grows fastest) reads t = 2^+-200."""
    lo = np.full(s.shape, -200.0 * math.log(2.0))
    hi = -lo
    for _ in range(64):
        mid = 0.5 * (lo + hi)
        t = np.exp(mid)
        A, e = young.A_and_elasticity(t)
        above = A * e >= s * t
        lo, hi = np.where(above, lo, mid), np.where(above, mid, hi)
    t = np.exp(0.5 * (lo + hi))
    val = np.maximum(s * t - young.A_and_elasticity(t)[0], 0.0)  # t = 0 gives Abar >= 0
    if not np.isfinite(val).all():
        raise NumericError("conjugate supremum overflowed")
    return val


class ConjugateTable:
    """Abar tabulated on a 512-point log grid, |log2 s| <= 60, with
    monotone log-log interpolation; evaluating the bisection per leaf per
    cube is too slow inside search loops.  Every node is exact for q >= 1.4
    (eps <= 1); nearer q = 1 the outermost nodes read t = 2^+-200."""

    def __init__(self, young: YoungSpec):
        self.log_s, step = np.linspace(-60 * math.log(2.0), 60 * math.log(2.0), 512, retstep=True)
        self.log_v = np.log(np.maximum(_conjugate(young, np.exp(self.log_s)), 1e-300))
        # lookup segment k is a line through (_node[k], _value[k]) of slope _slope[k] up to
        # _node[k + 1]: k = 0 lies below the grid (slope 0), k = 512 and 513 (s = inf) above
        slopes = np.diff(self.log_v) / np.diff(self.log_s)
        self._node, self._value = (np.pad(a, 1, mode="edge") for a in (self.log_s, self.log_v))
        self._slope = np.concatenate([[0.0], slopes, slopes[-1:].repeat(2)])
        self._origin, self._inv_step = self.log_s[0] - (1.0 - 1e-7) * step, 1.0 / step
        self.q = young.q / (young.q - 1.0)  # Abar's growth exponent, exact for power A
        k = np.searchsorted(self.log_v, 0.0)  # Abar^-1(1) is where segment k crosses log_v = 0
        self.inv_one = math.exp(self._node[k] - self._value[k] / self._slope[k])

    def A_and_elasticity(self, s):
        """(Abar(s), e(s)): np.interp on the log-log grid, clamped below it and
        extended by the top slope above it; e is the segment's slope.  log s lies on
        segment (log s - _origin) / step, floored (_origin is 1e-7 of a step high), or
        the next; s <= 0 and nan read segment 0 (take clips), giving (0, 0) and nan."""
        s = np.asarray(s, dtype=float)
        with np.errstate(divide="ignore", invalid="ignore"):  # log of s <= 0, casts of -inf, nan
            u = np.log(s)
            k = np.minimum((u - self._origin) * self._inv_step, 512.0).astype(np.intp)
            k += u >= self._node[1:].take(k, mode="clip")
            slope = self._slope.take(k, mode="clip")
            val = u - self._node.take(k, mode="clip")  # -inf or nan where s <= 0
            val *= slope
            val += self._value.take(k, mode="clip")
        A = np.exp(val)
        return (np.where(s <= 0.0, 0.0, A) if (s <= 0.0).any() else A), slope


@lru_cache(maxsize=32)
def _conjugate_table(young: YoungSpec) -> ConjugateTable:
    ensure_young(young)
    return ConjugateTable(young)


# -- Luxemburg norms --------------------------------------------------------


def luxemburg_norms_level(f, level: int, young, below) -> np.ndarray:
    """Luxemburg norms of f on every cube of one level, all cubes at once,
    from below, the norms one level down; young is a YoungSpec or a
    ConjugateTable, whose A_and_elasticity gives A and e = d log A / d log x.

    A parent's mean A(f/lambda) is its children's average, each falling in
    lambda, so with tol = GAUGE_REL_TOL a row starts inside [min child /
    (1 + tol), max child * (1 + tol)] (zero children close it at 0), at their
    power mean of exponent young.q: exact for power A.  Phase 1 sets an end of
    the bracket mean A(f/lo) >= 1 >= mean A(f/hi) at each open row's lambda and
    steps by safeguarded Newton on g(t) = log mean A(f e^-t), t = log lambda, of
    slope -mean(A e)/mean(A), until no row moves by 1e-6.  Phase 2 evaluates
    lambda * (1 + tol)^-/+0.4: a row with hi - lo <= tol*lo is (lo + hi)/2, others go back."""
    mat = np.asarray(f, dtype=float).reshape(1 << level, -1)
    mean = np.full(mat.shape[1], 1.0 / mat.shape[1])  # a row's mean is one product with it
    grow = (1.0 + GAUGE_REL_TOL) ** 0.4
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        a, b = np.minimum(below[0::2], below[1::2]), np.maximum(below[0::2], below[1::2])
        lo, hi = a / (1.0 + GAUGE_REL_TOL), b * (1.0 + GAUGE_REL_TOL)
        lam = b * (0.5 + 0.5 * (a / b) ** young.q) ** (1.0 / young.q)  # scaled by b: no overflow
        out, at = np.zeros(len(mat)), np.flatnonzero(b > 0.0)  # out[at] are the open rows
        if not at.size:
            return out
        if at.size < len(out):
            mat, lo, hi, lam = (v.take(at, axis=0) for v in (mat, lo, hi, lam))
        pair = False  # phase 2: this call evaluates lam / grow and lam * grow
        for _ in range(200):
            x = np.stack([lam / grow, lam * grow]) if pair else lam
            # x laid out as mat's rows: numpy divides narrow rows by a broadcast x row by row
            A, e = young.A_and_elasticity(mat / x.repeat(mat.shape[1], -1).reshape(*x.shape, -1))
            m = A @ mean
            if pair:  # x[0] < x[1], both in the bracket
                lo = np.where(m[1] >= 1.0, x[1], np.where(m[0] >= 1.0, x[0], lo))
                hi = np.where(m[0] <= 1.0, x[0], np.where(m[1] <= 1.0, x[1], hi))
                out[at] = 0.5 * (lo + hi)  # rows still open are written again when they close
                done = hi - lo <= GAUGE_REL_TOL * lo
                if done.all():
                    return out
                rest = (at, mat, lo, hi, x[0], A[0], e[0], m[0])  # Newton from the lower point
                at, mat, lo, hi, x, A, e, m = (v.compress(~done, 0) for v in rest)
            else:
                lo, hi = np.where(m >= 1.0, x, lo), np.where(m <= 1.0, x, hi)
            t = np.log(m) * m / ((A * e) @ mean)
            nxt, move = x * np.exp(t), np.abs(t)
            inside = (move < 1e-6) | ((nxt > lo) & (nxt < hi))
            if not inside.all():  # bisect in t, or halve while lo = 0
                nxt = np.where(inside, nxt, np.where(lo == 0.0, 0.5 * hi, lo * np.sqrt(hi / lo)))
                move = np.abs(np.log(nxt / x))
            lam = np.minimum(np.maximum(nxt, lo * grow), hi / grow)  # a pair stays inside
            pair = not pair and move.max() < 1e-6
    raise NumericError("Luxemburg gauge did not converge in 200 steps")


def _luxemburg_norms(f, young) -> np.ndarray:
    """Luxemburg norms of the leaf vector f on every cube as one flat
    (level, index) buffer, from the leaves up: a leaf's is |f| / A^-1(1) =
    |f| / young.inv_one, and each level above starts from the one below."""
    f = np.asarray(f, dtype=float)
    if not np.isfinite(f).all():
        raise DomainError("non-finite leaf values")
    norms = np.empty(2 * f.size - 1)
    below = norms[f.size - 1:] = np.abs(f) / young.inv_one
    for level in range(f.size.bit_length() - 2, -1, -1):
        below = norms[(1 << level) - 1:(2 << level) - 1] = luxemburg_norms_level(
            f, level, young, below)
    return norms


# -- cube selection -------------------------------------------------------


def _cube_averages(pair: WeightPair, cubes):
    """(w averages, sigma averages) over "all" cubes or a SparseFamily."""
    return _select(pair.w_avg_flat, cubes), _select(pair.sigma_avg_flat, cubes)


# -- bump constants ---------------------------------------------------------


def ap_constant(pair: WeightPair, cubes="all") -> float:
    """sup_Q w_Q * sigma_Q^{p-1} over the requested cube set."""
    w, s = _cube_averages(pair, cubes)
    return float(np.max(w * s ** (pair.p - 1.0)))


def nu_constant(pair: WeightPair, spec: BumpSpec, cubes="all") -> float:
    """sup_Q w_Q * sigma_Q^{p-1} * nu_p(sigma_Q)."""
    ensure_admissible(spec)
    w, s = _cube_averages(pair, cubes)
    return float((w * s ** (pair.p - 1.0) * spec.nu_p(pair.p, s)).max())


def nu_lambdas(pair: WeightPair, spec: BumpSpec, cubes="all") -> np.ndarray:
    """lambda_Q = psi(sigma_Q), the Theorem-route lambda, as a family
    vector in _select order."""
    return np.asarray(spec.psi(_select(pair.sigma_avg_flat, cubes)))


def _lambda_bump(pair: WeightPair, spec: BumpSpec, lam, cubes) -> float:
    """The lambda-bump sup_Q w_Q^{1/p} * sigma_Q^{1/p'} * lambda_Q^{1/p}
    * phi^{1/p'}(lambda_Q), lam a family vector in _select order.  phi is
    extended below 1 by phi(1): the Lacey lambda falls below 1."""
    w, s = _cube_averages(pair, cubes)
    p, pd = pair.p, pair.p_dual
    terms = (w ** (1.0 / p) * s ** (1.0 / pd) * lam ** (1.0 / p)
             * spec.phi(np.maximum(lam, 1.0)) ** (1.0 / pd))
    return float(terms.max())


def orlicz_li_constant(pair: WeightPair, young: YoungSpec, spec: BumpSpec,
                       cubes="all"):
    """The lambda-bump with lambda_Q = sigma_Q / ||sigma^{1/p}||_{A,Q}^p,
    that is sup_Q w_Q^{1/p} * (sigma_Q / ||sigma^{1/p}||_{A,Q})
    * phi^{1/p'}(lambda_Q).

    Returns (value, lambda) with lambda as a family vector in _select order."""
    ensure_admissible(spec)
    # q > 1, not ensure_young: the gauge also runs on a nonconvex A such as
    # power_over_log at q = 1.5, eps = 1, which the homogeneity criterion uses
    if young.q <= 1.0:
        raise AdmissibilityError(f"inadmissible Young function: q = {young.q} is not above 1")
    if not young.in_bp(pair.p):
        raise AdmissibilityError("Young function is not in B_p")
    nvec = _select(_luxemburg_norms(pair.sigma_leaves ** (1.0 / pair.p), young), cubes)
    lam = _select(pair.sigma_avg_flat, cubes) / nvec ** pair.p
    return _lambda_bump(pair, spec, lam, cubes), lam


def _lacey_norms(pair: WeightPair, young: YoungSpec, cubes) -> np.ndarray:
    """||sigma^{1/p'}||_{Abar,Q} as a family vector in _select order."""
    return _select(_luxemburg_norms(pair.sigma_leaves ** (1.0 / pair.p_dual),
                                    _conjugate_table(young)), cubes)


def orlicz_lacey_constant(pair: WeightPair, young: YoungSpec, spec: BumpSpec,
                          cubes="all"):
    """The lambda-bump with lambda_Q = ||sigma^{1/p'}||_{Abar,Q}^p /
    sigma_Q^{p-1}, that is sup_Q w_Q^{1/p} * ||sigma^{1/p'}||_{Abar,Q}
    * phi^{1/p'}(lambda_Q).

    Returns (value, lambda) with lambda as a family vector in _select order."""
    ensure_admissible(spec)
    if not young.in_bp(pair.p):
        raise AdmissibilityError("Young function is not in B_p")
    lam = _lacey_norms(pair, young, cubes) ** pair.p \
        / _select(pair.sigma_avg_flat, cubes) ** (pair.p - 1.0)
    return _lambda_bump(pair, spec, lam, cubes), lam


def sepcon_constant(pair: WeightPair, young: YoungSpec, cubes="all") -> float:
    """Right side of the separated-bump conjecture:
    sup_Q w_Q^{1/p} * ||sigma^{1/p'}||_{Abar,Q}."""
    w, _ = _cube_averages(pair, cubes)
    return float(np.max(w ** (1.0 / pair.p) * _lacey_norms(pair, young, cubes)))


# -- dyadic maximal function and entropy bumps ------------------------------


def dyadic_maximal(f_leaves, depth: int) -> np.ndarray:
    """M_d f: at each leaf, the max of f_Q over the dyadic cubes Q that
    contain it."""
    return ancestor_accumulate(_avg_pyramid(f_leaves, depth), depth, np.maximum)[(1 << depth) - 1:]


def entropy_lambda(sigma_leaves, cube: CubeId, geometry) -> float:
    """int_Q M(sigma chi_Q) / sigma(Q), always >= 1: entropy_lambdas at the
    cube, for strictly positive finite sigma."""
    if not geometry.contains(cube):
        raise DomainError(f"cube {cube} outside the tree")
    pair = WeightPair(geometry, sigma_leaves, sigma_leaves, 2.0)  # the lambdas read sigma only
    return float(entropy_lambdas(pair)[cube.flat_index])


def entropy_lambdas(pair: WeightPair, cubes="all") -> np.ndarray:
    """int_Q M(sigma chi_Q) / sigma(Q) of every cube Q as a family vector
    in _select order: row l of the running-max ancestor_table is
    M(sigma chi_Q) on every level-l cube Q at once, summed onto Q by one
    np.bincount over the up table."""
    depth = pair.geometry.depth
    m = ancestor_table(pair.sigma_avg_flat, depth, np.maximum)
    integrals = np.bincount(_tree_index(depth)[1].ravel(), m.ravel(),
                            minlength=pair.sigma_mass_flat.size) * 2.0 ** (-depth)
    return _select(integrals / pair.sigma_mass_flat, cubes)


def entropy_constant(pair: WeightPair, spec: BumpSpec, cubes="all") -> float:
    """sup_Q w_Q^{1/p} * sigma_Q^{1/p'} * lambda_Q^{1/p} * phi(lambda_Q)
    with the entropy lambda."""
    ensure_admissible(spec)
    w, s = _cube_averages(pair, cubes)
    lam = entropy_lambdas(pair, cubes)
    p = pair.p
    terms = w ** (1.0 / p) * s ** (1.0 / pair.p_dual) * lam ** (1.0 / p) \
        * np.asarray(spec.phi(np.maximum(lam, 1.0)))
    return float(np.max(terms))


def maximal_bound_constant(pair: WeightPair, spec: BumpSpec, cubes="all") -> float:
    """sup_Q w_Q^{1/p} * sigma_Q^{1/p'} * psi(sigma_Q)^{1/p}."""
    ensure_admissible(spec)
    w, s = _cube_averages(pair, cubes)
    p = pair.p
    terms = w ** (1.0 / p) * s ** (1.0 / pair.p_dual) * np.asarray(spec.psi(s)) ** (1.0 / p)
    return float(np.max(terms))

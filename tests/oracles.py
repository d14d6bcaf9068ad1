"""Independent brute-force and multi-precision oracles.

Everything here is deliberately slow and structure-free: plain Python
loops, math.fsum, mpmath bisection.  The package under test must agree
with these to the stated tolerances; none of the package's fast paths
(mass pyramids, vectorized bisection, cumulative sums) are reused.
"""

import math

import mpmath as mp
import numpy as np

from sparsebump.dyadic import CubeId  # cube_ids yields the package's cube type

mp.mp.dps = 50

E = mp.e
EE = mp.exp(mp.e)


# -- tree helpers (no package code; cube_ids yields CubeId) -----------------

def leaf_range(level, index, depth):
    """Half-open leaf index range covered by cube (level, index)."""
    width = 1 << (depth - level)
    return index * width, (index + 1) * width


def contains(outer, inner):
    """outer = (level, index) contains inner as dyadic intervals."""
    lo, io = outer
    li, ii = inner
    return li >= lo and (ii >> (li - lo)) == io


def all_cubes(depth):
    return [(l, j) for l in range(depth + 1) for j in range(1 << l)]


def cube_ids(depth):
    """Every cube of the depth-`depth` tree as a CubeId, top-down, left to
    right: the (level, index) order of a flat buffer."""
    return (CubeId(level, index) for level, index in all_cubes(depth))


def reflect(flat):
    """The flat buffer of the mirrored tree: the entry of cube (l, j), at
    position 2**l - 1 + j, moves to cube (l, 2**l - 1 - j)."""
    flat = np.asarray(flat)
    return np.concatenate([flat[(1 << l) - 1:(2 << l) - 1][::-1]
                           for l in range(len(flat).bit_length())])


def brute_average(leaves, level, index, depth):
    a, b = leaf_range(level, index, depth)
    vals = [float(x) for x in leaves[a:b]]
    return math.fsum(vals) / len(vals)


def brute_mass(leaves, level, index, depth):
    return brute_average(leaves, level, index, depth) * 2.0 ** (-level)


def refine(leaves, levels):
    """The same leaf function on a tree `levels` deeper: every leaf split
    into 2**levels leaves of its own density."""
    return np.repeat(np.asarray(leaves, dtype=float), 1 << levels)


def brute_packing(cubes, depth):
    """O(n^2) Carleson packing constant over (level, index) pairs."""
    best = 0.0
    for q in cubes:
        total = math.fsum(2.0 ** (-l) for (l, j) in cubes if contains(q, (l, j)))
        best = max(best, total / 2.0 ** (-q[0]))
    return best


def brute_stopping_time(sigma, a, depth):
    """Principal cubes by plain recursion over (level, index) pairs: the
    root, then below each stopping cube its maximal subcubes whose average
    exceeds a times the stopping cube's average.  Sorted."""
    avg = {q: brute_average(sigma, q[0], q[1], depth) for q in all_cubes(depth)}
    selected = []

    def below(q, threshold):
        if q[0] == depth:
            return
        for child in ((q[0] + 1, 2 * q[1]), (q[0] + 1, 2 * q[1] + 1)):
            if avg[child] > threshold:
                stop(child)
            else:
                below(child, threshold)

    def stop(q):
        selected.append(q)
        below(q, a * avg[q])

    stop((0, 0))
    return sorted(selected)


def brute_random_greedy(eta, seed, depth):
    """The random_greedy family by its defining loop over (level, index)
    pairs: level by level, in the seeded random order, admit a cube unless
    it, or an admitted ancestor, would then hold family cubes of total
    measure above 1/eta times its own; the root if nothing.  Sorted."""
    cap = 1.0 / eta
    rng = np.random.default_rng(np.uint64(seed))
    subtree = {q: 0.0 for q in all_cubes(depth)}
    admitted = set()
    for level in range(depth + 1):
        m_c = 2.0 ** (-level)
        for j in rng.permutation(1 << level):
            cand = (level, int(j))
            if subtree[cand] + m_c > cap * m_c + 1e-15:
                continue
            ancestors = [(l, cand[1] >> (level - l)) for l in range(level)]
            if any(q in admitted and subtree[q] + m_c > cap * 2.0 ** (-q[0]) + 1e-15
                   for q in ancestors):
                continue
            admitted.add(cand)
            for q in ancestors + [cand]:
                subtree[q] += m_c
    if not admitted:
        admitted.add((0, 0))
    return sorted(admitted)


# -- multi-precision psi / phi / nu_p ---------------------------------------

def mp_psi(t, eps=1.0, family="log_power"):
    t = mp.mpf(t)
    if t < 1:
        inv = 1 / t
        return mp.log(E + inv) * mp.log(mp.log(EE + inv)) ** (1 + mp.mpf(eps))
    if family == "log_power":
        return mp.log(E + t) ** (1 + mp.mpf(eps))
    return mp.log(E + t) * mp.log(mp.log(EE + t)) ** (1 + mp.mpf(eps))


def mp_phi(t, eps=1.0, family="log_loglog"):
    t = mp.mpf(t)
    if family == "log_power":
        return mp.log(E + t) ** (1 + mp.mpf(eps))
    return mp.log(E + t) * mp.log(mp.log(EE + t)) ** (1 + mp.mpf(eps))


def mp_nu(p, t, psi_eps=1.0, psi_family="log_power",
          phi_eps=1.0, phi_family="log_loglog"):
    t = mp.mpf(t)
    ps = mp_psi(t, psi_eps, psi_family)
    if t < 1:
        return ps * mp_phi(ps, phi_eps, phi_family) ** (mp.mpf(p) - 1)
    return ps


# -- Luxemburg norm and conjugate oracles -----------------------------------

def brute_luxemburg(f, level, index, depth, A, tol=1e-14):
    """Normalized Luxemburg gauge by mpmath bisection on the mean of A."""
    a, b = leaf_range(level, index, depth)
    sub = [mp.mpf(float(x)) for x in f[a:b]]
    if all(x == 0 for x in sub):
        return 0.0

    def mean(lam):
        return mp.fsum(A(x / lam) for x in sub) / len(sub)

    hi = max(abs(x) for x in sub)
    lo = hi
    while mean(hi) > 1:
        hi *= 2
    while mean(lo) < 1:
        lo /= 2
    while float(hi - lo) > tol * float(lo):
        mid = mp.sqrt(lo * hi)
        if mean(mid) > 1:
            lo = mid
        else:
            hi = mid
    return float((lo + hi) / 2)


def brute_conjugate(A, s, lo=mp.mpf("1e-8"), hi=mp.mpf("1e8")):
    """sup_{t>0} (s t - A(t)) by golden-section search on log t."""
    s = mp.mpf(s)
    gr = (mp.sqrt(5) - 1) / 2

    def obj(u):
        t = mp.exp(u)
        return s * t - A(t)

    a, b = mp.log(lo), mp.log(hi)
    c, d = b - gr * (b - a), a + gr * (b - a)
    for _ in range(200):
        if obj(c) < obj(d):
            a = c
        else:
            b = d
        c, d = b - gr * (b - a), a + gr * (b - a)
    best = max(obj((a + b) / 2), mp.mpf(0))
    return float(best)


def mp_young(family, q, eps):
    """A(t) of a YoungSpec in multi-precision: t^q, or for power_over_log
    t^q (log(e+1)/log(e+t))^{1+eps}."""
    q, eps = mp.mpf(q), mp.mpf(eps)
    if family == "power":
        return lambda t: t ** q
    return lambda t: t ** q * (mp.log(E + 1) / mp.log(E + t)) ** (1 + eps)


# -- local sums / norms / testing constant ----------------------------------

def brute_local_sum(cubes, sigma, R, depth):
    """Leaf vector of sum over family cubes Q inside R of avg(sigma, Q)."""
    n = 1 << depth
    out = [0.0] * n
    for q in cubes:
        if not contains(R, q):
            continue
        avg = brute_average(sigma, q[0], q[1], depth)
        a, b = leaf_range(q[0], q[1], depth)
        for i in range(a, b):
            out[i] += avg
    return out


def brute_lp_norm(f, w, p, depth):
    terms = [abs(float(fi)) ** p * float(wi) for fi, wi in zip(f, w)]
    return (math.fsum(terms) * 2.0 ** (-depth)) ** (1.0 / p)


def brute_testing_ratios(cubes, w, sigma, p, depth):
    """{R: ||local sum||_{L^p(w)} / sigma(R)^{1/p}} over R in the family."""
    return {R: brute_lp_norm(brute_local_sum(cubes, sigma, R, depth), w, p, depth)
            / brute_mass(sigma, R[0], R[1], depth) ** (1.0 / p) for R in cubes}


def brute_testing(cubes, w, sigma, p, depth):
    """max over R in the family of the testing ratio, with the smallest
    (level, index) among the maximizers."""
    best, arg = -1.0, None
    for R, ratio in sorted(brute_testing_ratios(cubes, w, sigma, p, depth).items()):
        if ratio > best:
            best, arg = ratio, R
    return best, arg


def brute_family_sum_inside(cubes, R, term):
    """Sum of term(Q) over the family cubes Q inside R, all as (level,
    index) pairs; term computes each cube's value from the leaf lists."""
    return math.fsum(term(q) for q in cubes if contains(R, q))


def brute_cov_sides(cubes, a, w, p, depth):
    """Both sides of the Carleson expansion of sum a_Q chi_Q in L^p(w), a
    keyed by (level, index): the leaf vector for the left side, and the
    O(n^2) double loop over Q and the family cubes inside Q for the right."""
    f = [0.0] * (1 << depth)
    for q in cubes:
        lo, hi = leaf_range(q[0], q[1], depth)
        for i in range(lo, hi):
            f[i] += a[q]
    wmass = {q: brute_mass(w, q[0], q[1], depth) for q in cubes}
    terms = []
    for q in cubes:
        inner = math.fsum(a[q2] * wmass[q2] for q2 in cubes if contains(q, q2))
        terms.append(a[q] * (inner / wmass[q]) ** (p - 1.0) * wmass[q])
    return brute_lp_norm(f, w, p, depth), math.fsum(terms) ** (1.0 / p)


def brute_dyadic_maximal(sigma, level, index, depth):
    """Leaf values of max over dyadic Q' with leaf in Q' inside Q."""
    a, b = leaf_range(level, index, depth)
    out = []
    for i in range(a, b):
        best = 0.0
        for l in range(level, depth + 1):
            j = i >> (depth - l)
            if contains((level, index), (l, j)):
                best = max(best, brute_average(sigma, l, j, depth))
        out.append(best)
    return out


def brute_maximal_of_indicator(sigma, level, index, depth):
    """Leaf values of M(sigma chi_Q), Q = (level, index), over the whole
    tree: at each leaf x the max over every dyadic cube P holding x of
    sigma(Q and P) / |P|, which is sigma(P) / |P| for P inside Q,
    sigma(Q) / |P| for P holding Q and 0 for P apart from Q."""
    mass = {q: brute_mass(sigma, q[0], q[1], depth) for q in all_cubes(depth)}
    out = []
    for x in range(1 << depth):
        best = 0.0
        for l in range(depth + 1):
            P = (l, x >> (depth - l))
            if contains((level, index), P):
                best = max(best, mass[P] * 2.0 ** l)
            elif contains(P, (level, index)):
                best = max(best, mass[(level, index)] * 2.0 ** l)
        out.append(best)
    return out


def brute_indicator_ratios(w, sigma, p, depth):
    """The trial ratio ||M(sigma chi_Q)||_{L^p(w)} / ||chi_Q||_{L^p(sigma)} of
    every cube Q's indicator by brute_maximal_of_indicator, the cube (l, j)
    at position 2**l - 1 + j."""
    sigma = np.asarray(sigma, dtype=float)
    out = []
    for level, index in all_cubes(depth):
        num = brute_lp_norm(brute_maximal_of_indicator(sigma, level, index, depth), w, p, depth)
        out.append(num / brute_mass(sigma, level, index, depth) ** (1.0 / p))
    return np.array(out)


def brute_ancestor_fold(values, depth, leaf, fold):
    """fold (a two-argument function such as max) down leaf's root chain,
    root first: values holds one entry per cube, the cube (l, j) at
    position 2**l - 1 + j."""
    acc = float(values[0])
    for l in range(1, depth + 1):
        acc = fold(acc, float(values[(1 << l) - 1 + (leaf >> (depth - l))]))
    return acc


def brute_ancestor_table_entry(values, depth, level, leaf, fold):
    """fold up leaf's ancestor chain from the leaf to level, leaf first:
    values holds one entry per cube, the cube (l, j) at position
    2**l - 1 + j."""
    acc = float(values[(1 << depth) - 1 + leaf])
    for l in range(depth - 1, level - 1, -1):
        acc = fold(float(values[(1 << l) - 1 + (leaf >> (depth - l))]), acc)
    return acc


def random_pair(rng, depth):
    """Positive random leaf vectors for corpus tests."""
    n = 1 << depth
    w = np.exp(rng.standard_normal(n))
    sigma = np.exp(1.5 * rng.standard_normal(n))
    return w, sigma


def brute_level(s):
    """The k with 2^k < s <= 2^{k+1} for a float s > 0, in integers: s =
    n / 2^j exactly, and 2^{k+1} is the least power of two >= n / 2^j."""
    n, d = float(s).as_integer_ratio()
    return (n - 1).bit_length() - (d.bit_length() - 1) - 1


# -- dense operator and its l^p norm bracket --------------------------------

def dense_operator(depth, masks, w, sigma, p):
    """The matrix M_xy = w_x^{1/p} K(x, y) sigma_y^{1/p'} 2^-L, K(x, y) the
    sum of 1/|Q| over the family cubes Q holding leaves x and y: its l^p
    norm is that of A_S(. sigma) from L^p(sigma) to L^p(w)."""
    n = 1 << depth
    K = np.zeros((n, n))
    for level, mask in enumerate(masks):
        for j in range(1 << level):
            if mask[j]:
                a, b = leaf_range(level, j, depth)
                K[a:b, a:b] += 2.0 ** level
    w, sigma = np.asarray(w, dtype=float), np.asarray(sigma, dtype=float)
    return w[:, None] ** (1.0 / p) * K * sigma[None, :] ** (1.0 - 1.0 / p) / n


def bracket(M, p):
    """(lo, hi) around the l^p operator norm of a nonnegative matrix M:
    Boyd's map F(x) = (M^T (M x)^{p-1})^{1/(p-1)} from x = 1, lo the ratio
    ||M x||_p / ||x||_p and hi the Collatz-Wielandt end
    max over x_j > 0 of (F(x)_j / x_j)^{(p-1)/p}, until hi <= lo (1 + 1e-12),
    within 10^6 steps.  After one step x_j = 0 exactly at the zero columns
    of M, which do not change its norm."""
    x = np.ones(M.shape[1])
    for _ in range(1_000_000):
        y = M @ x
        lo = np.sum(y ** p) ** (1.0 / p) / np.sum(x ** p) ** (1.0 / p)
        fx = (M.T @ y ** (p - 1.0)) ** (1.0 / (p - 1.0))
        hi = np.max(fx[x > 0] / x[x > 0]) ** ((p - 1.0) / p)
        if hi <= lo * (1.0 + 1e-12):
            return lo, hi
        x = fx / np.max(fx)
    raise AssertionError("Boyd bracket did not close")

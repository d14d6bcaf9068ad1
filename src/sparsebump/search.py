"""Extremal-instance search: simulated annealing over leaf log-densities
maximizing testing-to-bump ratio objectives.

The search space is the pair of leaf log-density vectors; the sparse
family is re-derived from sigma by the stopping-time construction (or
kept fixed), so every candidate is a valid instance with no repair step.
Everything is deterministic given (objective, config).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .dyadic import (DomainError, Instance, NumericError, TreeGeometry,
                     instance_from_dict, make_instance, DENSITY_FLOOR)
from .bumps import (DEFAULT_YOUNG, BumpSpec, YoungSpec, _cube_averages,
                    ensure_admissible, entropy_constant, maximal_bound_constant,
                    nu_constant, orlicz_li_constant, sepcon_constant)
from .testing import maximal_norm_lower, testing_constant

# objective kind -> its denominator at (pair, S, objective); each entry looks
# its bump constant up in this module's globals when it is called
OBJECTIVE_KINDS = {
    "main_theorem": lambda pair, S, obj: nu_constant(pair, obj.spec, S) ** (1.0 / pair.p),
    "conjecture_nc": lambda pair, S, obj: maximal_bound_constant(pair, obj.spec, "all"),
    "conjecture_sepcon": lambda pair, S, obj: sepcon_constant(pair, obj.young, "all"),
    "maximal_bound": lambda pair, S, obj: maximal_bound_constant(pair, obj.spec, "all"),
    "prop31_orlicz": lambda pair, S, obj: orlicz_li_constant(pair, obj.young, obj.spec,
                                                              "all")[0],
    "prop31_entropy": lambda pair, S, obj: entropy_constant(pair, obj.spec, "all"),
}

# default dist params: lognormal (mu, s), spike (mass, support fraction); mixed draws its own
DIST_PARAMS = {"lognormal": (0.0, 1.0), "spike": (1.0, 0.25), "mixed": ()}

# annealing schedule: start temperature, cooled by this factor every step
T0, GAMMA = 0.5, 0.999


@dataclass(frozen=True)
class Objective:
    kind: str
    p: float = 2.0
    spec: BumpSpec = field(default_factory=BumpSpec)
    young: YoungSpec = DEFAULT_YOUNG

    def __post_init__(self):
        if self.kind not in OBJECTIVE_KINDS:
            raise DomainError(f"unknown objective kind {self.kind!r}")


@dataclass(frozen=True)
class SearchConfig:
    depth: int = 4
    eta: float = 0.5
    strategy: str = "stopping_time"
    dist: str = "lognormal"
    dist_params: tuple | None = None  # None: DIST_PARAMS[dist]
    steps: int = 1000
    seed: int = 0

    def __post_init__(self):
        # depth before seed: a sweep derives each depth's seed from it
        for name, low in (("steps", 1), ("depth", 0), ("seed", 0)):
            if getattr(self, name) < low:
                raise DomainError(f"{name} must be >= {low}, got {getattr(self, name)}")
        default = DIST_PARAMS.get(self.dist)
        params = default if self.dist_params is None else tuple(self.dist_params)
        if default is None or len(params) != len(default):
            raise DomainError(f"leaf law {self.dist!r} with dist params {params}: the laws "
                              f"and their default params are {DIST_PARAMS}")
        object.__setattr__(self, "dist_params", params)


@dataclass
class SearchResult:
    best_ratio: float
    best_instance: dict
    trace: list
    evaluations: int
    sub_ap_fraction: float  # fraction of family cubes with w_Q sigma_Q^{p-1} < 1

    def to_json_dict(self) -> dict:
        return dict(vars(self))  # shallow: the caller only serializes it


def _draw_leaves(rng, n: int, dist: str, params) -> np.ndarray:
    if dist == "lognormal":
        mu, s = params
        return np.exp(mu + s * rng.standard_normal(n))
    if dist == "spike":
        mass_frac, support_frac = params
        support = max(1, int(round(support_frac * n)))
        out = np.full(n, DENSITY_FLOOR)
        out[:support] = mass_frac * n / support
        return out
    # mixed (SearchConfig has checked dist)
    if rng.random() < 0.5:
        return _draw_leaves(rng, n, "lognormal", (0.0, 1.5))
    support_frac = max(1.0 / n, float(rng.random()))
    return _draw_leaves(rng, n, "spike", (1.0, support_frac))


def _draw_pair(config: SearchConfig, seed: int):
    """The seeded leaf densities (w, sigma): sigma is drawn first, then w."""
    rng = np.random.default_rng(np.uint64(seed))
    n = TreeGeometry(config.depth).n_leaves
    sigma = _draw_leaves(rng, n, config.dist, config.dist_params)
    return _draw_leaves(rng, n, "lognormal", (0.0, 1.0)), sigma


def _instance(config: SearchConfig, w, sigma, p: float) -> Instance:
    """The pair (w, sigma) at p with the family config derives from it."""
    return make_instance(TreeGeometry(config.depth), w, sigma, p,
                         {"strategy": config.strategy, "eta": config.eta, "seed": config.seed})


def random_instance(config: SearchConfig, p: float = 2.0) -> Instance:
    """Deterministic random weight pair at p plus its family, both from config.seed."""
    return _instance(config, *_draw_pair(config, config.seed), p)


def evaluate(objective: Objective, instance: Instance) -> float:
    """Objective ratio (numerator over bump constant) for one instance at the objective's p."""
    pair, S = instance.pair, instance.family
    if pair.p != objective.p:
        raise DomainError(f"instance at p = {pair.p} for an objective at p = {objective.p}")
    num = (maximal_norm_lower(pair) if objective.kind == "maximal_bound"
           else testing_constant(pair, S)[0])
    den = OBJECTIVE_KINDS[objective.kind](pair, S, objective)
    if den < 1e-300:
        raise NumericError("objective denominator underflowed")
    return num / den


def _sub_ap_fraction(instance: Instance, p: float) -> float:
    w, s = _cube_averages(instance.pair, instance.family)  # averages do not depend on p
    return float(np.mean(w * s ** (p - 1.0) < 1.0))


def anneal(objective: Objective, config: SearchConfig) -> SearchResult:
    """Simulated annealing over leaf log-densities with periodic restarts
    and stopping-time family refreshes; best instance re-verified.

    The start, each restart and each proposal is a candidate: its (2, n)
    log-densities (log w, log sigma) are built into an instance and
    evaluated on one path, with the densities floored at DENSITY_FLOOR
    as instance_from_dict floors a reload, so the stored best replays
    exactly.  A restart is accepted without a draw."""
    ensure_admissible(objective.spec)
    rng = np.random.default_rng(np.uint64(config.seed))
    n = 1 << config.depth
    restart_every = max(1, config.steps // 10)
    refresh_every = max(1, config.steps // 20)
    evals = 0

    def candidate(log_ws):
        nonlocal evals
        evals += 1
        inst = _instance(config, *np.maximum(np.exp(log_ws), DENSITY_FLOOR), objective.p)
        return inst, evaluate(objective, inst)

    log_ws = np.log(_draw_pair(config, config.seed))
    current, cur_val = candidate(log_ws)
    best_val, best_inst = cur_val, current
    trace = [best_val]
    temperature = T0
    for step in range(1, config.steps):
        restart = step % restart_every == 0
        cand_ws = (np.log(_draw_pair(config, config.seed + step)) if restart
                   else log_ws + 0.5 * rng.standard_normal((2, n)))
        cand, val = candidate(cand_ws)
        delta = val - cur_val
        if restart or delta >= 0 or rng.random() < math.exp(delta / max(temperature, 1e-12)):
            log_ws, current, cur_val = cand_ws, cand, val
        if step % refresh_every == 0 and config.strategy == "stopping_time":
            cur_val = evaluate(objective, current)  # current holds sigma's family already
            evals += 1
        if cur_val > best_val:
            best_val, best_inst = cur_val, current
        trace.append(best_val)
        temperature *= GAMMA

    # re-verify the best instance by recomputation from its serialized form
    stored = best_inst.to_json_dict()
    replay = evaluate(objective, instance_from_dict(stored))
    if not math.isclose(replay, best_val, rel_tol=1e-9):
        raise NumericError(
            f"best ratio failed re-verification: {best_val} vs {replay}")
    return SearchResult(best_ratio=best_val, best_instance=stored, trace=trace,
                        evaluations=evals,
                        sub_ap_fraction=_sub_ap_fraction(best_inst, objective.p))


def sweep_results(objective: Objective, config: SearchConfig, depths):
    """anneal per depth with derived seeds; (rows, results) with one row
    (depth, best_ratio, evaluations, seconds) and one SearchResult per
    depth.  seconds is always 0.0, so the CSV is byte-reproducible."""
    rows, results = [], []
    for depth in depths:
        result = anneal(objective, replace(config, depth=depth,
                                           seed=config.seed + 7919 * depth))
        rows.append((depth, result.best_ratio, result.evaluations, 0.0))
        results.append(result)
    return rows, results

"""Command-line front end: instance generation, constant computation,
invariant checking, extremal search, and report merging.

Exit codes: 0 success, 1 hard-assert failure, 2 usage/config error.
All artifacts are byte-reproducible from the flags: floats are printed
with 17 significant digits, rows sort lexicographically, and every file
starts with a header echoing the resolved configuration.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import sys

import numpy as np

from . import bumps, dyadic, search as search_mod, testing as testing_mod
from .bumps import AdmissibilityError, BumpSpec, YoungSpec
from .dyadic import DomainError, Instance, WeightPair, load_json

EXIT_OK, EXIT_ASSERT, EXIT_USAGE = 0, 1, 2


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def _config_hash(config: dict) -> str:
    return hashlib.sha256(json.dumps(config, sort_keys=True).encode()).hexdigest()[:16]


def _write(path, text: str):
    if path in (None, "-"):
        sys.stdout.write(text)
    else:
        with open(path, "w") as fh:
            fh.write(text)


def _write_csv(path, config: dict, header: str, rows):
    """A CSV artifact: the config echo and its hash, the column names, the rows."""
    _write(path, f"# config {json.dumps(config, sort_keys=True)}\n"
                 f"# config_hash {_config_hash(config)}\n" + "\n".join([header, *rows]) + "\n")


# the loaders certify what they load: main reports a rejected file and exits EXIT_USAGE
def _load_bump_spec(path) -> BumpSpec:
    spec = BumpSpec() if path is None else load_json(path, BumpSpec.from_json_dict)
    bumps.ensure_admissible(spec)
    return spec


def _load_young(path) -> YoungSpec:
    young = bumps.DEFAULT_YOUNG if path is None else load_json(path, YoungSpec.from_json_dict)
    bumps.ensure_young(young)
    return young


# -- gen --------------------------------------------------------------------


def cmd_gen(args) -> int:
    config = {"cmd": "gen", "depth": args.depth, "strategy": args.strategy,
              "eta": args.eta, "seed": args.seed, "dist": args.dist, "p": args.p}
    cfg = search_mod.SearchConfig(depth=args.depth, eta=args.eta,
                                  strategy=args.strategy, dist=args.dist,
                                  dist_params=args.dist_params, seed=args.seed)
    data = search_mod.random_instance(cfg, args.p).to_json_dict()
    # keep the file valid instance JSON: the config echo rides in a meta key
    data["meta"] = {"config": config, "config_hash": _config_hash(config)}
    _write(args.out, json.dumps(data, sort_keys=True) + "\n")
    return EXIT_OK


# -- constants --------------------------------------------------------------


def cmd_constants(args) -> int:
    inst = dyadic.load_instance(args.infile)
    spec = _load_bump_spec(args.bumps)
    young = _load_young(args.young)
    pair, S = inst.pair, inst.family
    cubes = "all" if args.cubes == "all" else S
    rows, outside_bp = {}, ()
    with np.errstate(all="ignore"):  # a non-finite row raises below instead
        rows["a_p"] = bumps.ap_constant(pair, cubes)
        rows["nu_bump"] = bumps.nu_constant(pair, spec, cubes)
        try:
            rows["orlicz_li"], _ = bumps.orlicz_li_constant(pair, young, spec, cubes)
            rows["orlicz_lacey"], _ = bumps.orlicz_lacey_constant(pair, young, spec, cubes)
        except AdmissibilityError:  # the Young function is not in B_p: both rows read nan
            outside_bp = ("orlicz_li", "orlicz_lacey")
            rows.update(dict.fromkeys(outside_bp, float("nan")))
        rows["entropy"] = bumps.entropy_constant(pair, spec, cubes)
        rows["maximal_bound"] = bumps.maximal_bound_constant(pair, spec, cubes)
        rows["testing_p"], _ = testing_mod.testing_constant(pair, S)
        rows["testing_p_dual"], _ = testing_mod.testing_constant(pair.swapped(), S)
        if abs(pair.p - 2.0) <= 1e-12:
            rows["op_norm_p2"] = testing_mod.operator_norm_p2(S, pair)
    bad = [name for name in sorted(rows) if not np.isfinite(rows[name]) and name not in outside_bp]
    if bad:
        raise dyadic.NumericError(f"non-finite constants: {', '.join(bad)}")
    config = {"cmd": "constants", "in": args.infile, "cubes": args.cubes,
              "bumps": spec.to_json_dict(), "young": young.to_json_dict()}
    _write_csv(args.out, config, "name,value",
               [f"{name},{_fmt(rows[name])}" for name in sorted(rows)])
    return EXIT_OK


# -- check ------------------------------------------------------------------


def _scaling_reports(pair, S, base_tc) -> list:
    """Exact homogeneity laws as CheckReports with bound 1."""
    reports = []
    base_ap = bumps.ap_constant(pair, "all")
    geometry = pair.geometry
    for c in (1e-6, 1e6):
        scaled_sigma = WeightPair(geometry, pair.w_leaves, c * pair.sigma_leaves, pair.p)
        scaled_w = WeightPair(geometry, c * pair.w_leaves, pair.sigma_leaves, pair.p)
        tc_s, _ = testing_mod.testing_constant(scaled_sigma, S)
        tc_w, _ = testing_mod.testing_constant(scaled_w, S)
        checks = [
            (f"scale_testing_sigma_c{c:g}", tc_s, c ** (1.0 / pair.p_dual) * base_tc),
            (f"scale_testing_w_c{c:g}", tc_w, c ** (1.0 / pair.p) * base_tc),
            (f"scale_ap_sigma_c{c:g}", bumps.ap_constant(scaled_sigma, "all"),
             c ** (pair.p - 1.0) * base_ap),
            (f"scale_ap_w_c{c:g}", bumps.ap_constant(scaled_w, "all"), c * base_ap),
        ]
        reports += [testing_mod.CheckReport.make(name, lhs, rhs, bound=1.0 + 1e-10,
                                                 hard=True, lower=1.0 - 1e-10)
                    for name, lhs, rhs in checks]
    return reports


def _lemma_reports(pair, S, spec, tc) -> list:
    reports = testing_mod.lemma_reports(S, pair, testing_mod.realized_levels(S, pair), spec)
    # S is never empty (generators admit the root), so its first cube is the first True
    first = dyadic.CubeId.from_flat(int(S.flat_mask.argmax()))
    reports += testing_mod.eset_split_check(pair, S, first)
    reports.append(testing_mod.prop31_bound(pair, S, bumps.nu_lambdas(pair, spec, S), spec, tc))
    return reports + list(testing_mod.theorem_main_ratio(pair, S, spec, tc))


def _cov_reports(pair, S) -> list:
    sides = (S, pair.sigma_avgs, pair.w_leaves, pair.p, pair.geometry)
    if abs(pair.p - 2.0) <= 1e-12:
        return [testing_mod.cov_bracket_report(*sides)]
    return [testing_mod.CheckReport.make(f"cov_p{pair.p:g}", *testing_mod.cov_sides(*sides))]


def _check_one(inst: Instance, spec, suite: str) -> list:
    pair, S = inst.pair, inst.family
    reports = []
    with np.errstate(all="ignore"):  # an overflowed family sum raises NumericError instead
        # the lemma and scaling rows share one testing constant
        tc = None if suite == "cov" else testing_mod.testing_constant(pair, S)[0]
        if suite in ("lemmas", "all"):
            reports += _lemma_reports(pair, S, spec, tc)
        if suite in ("cov", "all"):
            reports += _cov_reports(pair, S)
        if suite in ("scaling", "all"):
            reports += _scaling_reports(pair, S, tc)
    return reports


def _random_corpus(trials: int, seed: int):
    """Seeded mixture over depths, strategies, eta, p, distributions."""
    rng = np.random.default_rng(np.uint64(seed))
    for i in range(trials):
        depth = int(rng.integers(2, 9))
        eta = float(rng.choice([0.25, 0.5]))
        p = float(rng.choice([1.5, 2.0, 3.0]))
        strategy = dyadic.STRATEGIES[i % len(dyadic.STRATEGIES)]
        dist = ["lognormal", "spike", "mixed"][i % 3]
        cfg = search_mod.SearchConfig(depth=depth, eta=eta, strategy=strategy, dist=dist,
                                      dist_params=(0.0, 1.5) if dist == "lognormal" else None,
                                      seed=seed + i)
        yield seed + i, search_mod.random_instance(cfg, p)


def cmd_check(args) -> int:
    if min(args.trials, args.seed) < 0:
        raise DomainError(f"trials and seed must be >= 0, got {args.trials} and {args.seed}")
    spec = _load_bump_spec(args.bumps)
    config = {"cmd": "check", "suite": args.suite, "trials": args.trials,
              "seed": args.seed, "in": args.infile, "bumps": spec.to_json_dict()}
    rows = []
    failed_seeds = []
    if args.infile:
        instances = [(None, dyadic.load_instance(args.infile))]
    else:
        instances = _random_corpus(args.trials, args.seed)
    for inst_seed, inst in instances:
        tag = "file" if inst_seed is None else f"seed{inst_seed}"
        for rep in _check_one(inst, spec, args.suite):
            rows.append(f"{tag}_{rep.csv_row()}")
            if rep.hard and not rep.passed:
                failed_seeds.append((inst_seed, rep.name))
    _write_csv(args.out, config, testing_mod.CHECK_CSV_HEADER, sorted(rows))
    if failed_seeds:
        for seed, name in failed_seeds:
            print(f"hard-assert failure: {name} (instance seed {seed})",
                  file=sys.stderr)
        return EXIT_ASSERT
    return EXIT_OK


# -- search -----------------------------------------------------------------


def cmd_search(args) -> int:
    spec = _load_bump_spec(args.bumps)
    young = _load_young(args.young)
    objective = search_mod.Objective(kind=args.objective, p=args.p, spec=spec, young=young)
    cfg = search_mod.SearchConfig(depth=args.depths[0], eta=args.eta,
                                  strategy=args.strategy, dist=args.dist,
                                  dist_params=args.dist_params, steps=args.steps, seed=args.seed)
    config = {"cmd": "search", "objective": args.objective, "p": args.p,
              "depths": args.depths, "steps": args.steps, "seed": args.seed,
              "eta": args.eta, "strategy": args.strategy, "dist": args.dist}
    rows, results = search_mod.sweep_results(objective, cfg, args.depths)
    _write_csv(args.out, config, "depth,best_ratio,evaluations,seconds",
               [f"{depth},{_fmt(ratio)},{evals},{_fmt(seconds)}"
                for depth, ratio, evals, seconds in rows])
    if args.result_out:
        best = max(results, key=lambda r: r.best_ratio)
        payload = {"config": config, "result": best.to_json_dict()}
        _write(args.result_out, json.dumps(payload, sort_keys=True) + "\n")
    return EXIT_OK


# -- report -----------------------------------------------------------------


def cmd_report(args) -> int:
    if not args.inputs:
        print("report needs at least one input file", file=sys.stderr)
        return EXIT_USAGE
    merged = []
    seen = set()
    for path in args.inputs:
        try:
            with open(path) as fh:
                lines = fh.read().splitlines()
        except OSError as exc:
            print(f"cannot read {path}: {exc}", file=sys.stderr)
            return EXIT_USAGE
        config_hash = ""
        header = None
        for ln in lines:
            if ln.startswith("# config_hash"):
                config_hash = ln.removeprefix("# config_hash").strip()
                continue
            if ln.startswith("#") or not ln.strip():
                continue
            if header is None:
                header = ln
                if "," not in header:
                    print(f"schema mismatch in {path}: no CSV header",
                          file=sys.stderr)
                    return EXIT_USAGE
                continue
            key = (header, ln)
            dup = key in seen
            seen.add(key)
            merged.append(f"{path},{config_hash},{header.split(',')[0]},"
                          f"{ln}{',DUPLICATE' if dup else ''}")
    merged.sort()
    out = ["file,config_hash,schema,row"] + merged
    _write(args.out, "\n".join(out) + "\n")
    return EXIT_OK


# -- parser -----------------------------------------------------------------


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process (parsing leaves it as is)."""
    parser = argparse.ArgumentParser(prog="sparsebump")
    sub = parser.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen", help="generate an instance JSON file")
    g.add_argument("--depth", type=int, required=True)
    g.add_argument("--strategy", default="tower", choices=dyadic.STRATEGIES)
    g.add_argument("--eta", type=float, default=0.5)
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--dist", default="lognormal",
                   choices=list(search_mod.DIST_PARAMS))
    g.add_argument("--dist-params", type=float, nargs="*", default=None)
    g.add_argument("--p", type=float, default=2.0)
    g.add_argument("--out", default="-")
    g.set_defaults(func=cmd_gen)

    c = sub.add_parser("constants", help="compute all constants for an instance")
    c.add_argument("--in", dest="infile", required=True)
    c.add_argument("--bumps", default=None)
    c.add_argument("--young", default=None)
    c.add_argument("--cubes", default="all", choices=["all", "sparse"])
    c.add_argument("--out", default="-")
    c.set_defaults(func=cmd_constants)

    k = sub.add_parser("check", help="run invariant/lemma checkers")
    k.add_argument("--in", dest="infile", default=None)
    k.add_argument("--suite", default="all",
                   choices=["lemmas", "cov", "scaling", "all"])
    k.add_argument("--trials", type=int, default=100)
    k.add_argument("--seed", type=int, default=0)
    k.add_argument("--bumps", default=None)
    k.add_argument("--out", default="-")
    k.set_defaults(func=cmd_check)

    s = sub.add_parser("search", help="extremal-instance search")
    s.add_argument("--objective", required=True, choices=list(search_mod.OBJECTIVE_KINDS))
    s.add_argument("--depths", type=int, nargs="+", default=[4])
    s.add_argument("--steps", type=int, default=1000)
    s.add_argument("--seed", type=int, default=0)
    s.add_argument("--p", type=float, default=2.0)
    s.add_argument("--eta", type=float, default=0.5)
    s.add_argument("--strategy", default="stopping_time", choices=dyadic.STRATEGIES)
    s.add_argument("--dist", default="mixed",
                   choices=list(search_mod.DIST_PARAMS))
    s.add_argument("--dist-params", type=float, nargs="*", default=None)
    s.add_argument("--bumps", default=None)
    s.add_argument("--young", default=None)
    s.add_argument("--out", default="-")
    s.add_argument("--result-out", default=None)
    s.set_defaults(func=cmd_search)

    r = sub.add_parser("report", help="merge result CSVs")
    r.add_argument("--in", dest="inputs", nargs="*", default=[])
    r.add_argument("--out", default="-")
    r.set_defaults(func=cmd_report)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except (DomainError, AdmissibilityError, OSError) as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_USAGE
    except dyadic.NumericError as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_ASSERT


if __name__ == "__main__":
    sys.exit(main())

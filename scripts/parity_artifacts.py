"""Write the parity set of CLI artifacts for the source tree this script
sits in, so that two commits can be compared file by file:

    python scripts/parity_artifacts.py OUT_DIR

Every artifact is made by `sparsebump.cli.main` in this process, from
this tree's `src/`:
- `gen` for the four strategies x depths 3/6/9/12 x p 1.5/2/3 x the
  lognormal/spike/mixed laws, at eta 0.25 and seed 0;
- `constants --cubes all` and `--cubes sparse` on each instance;
- `check --suite all --in` on each instance of depth <= 9;
- `constants --young` at the B_p boundary of p 1.5/2/3, on the depth-6
  and depth-12 stopping_time lognormal instances: `power` q = p - 0.01,
  and `power_over_log` at q = p with eps 0.1 (both in B_p) and at
  q = p + 0.05 with eps 1 (not in B_p); these converge slowest, and
  depth 12 puts them on the largest tree;
- `check --trials 150` at seeds 0 and 5;
- `search --result-out` for every objective, at p 1.5/2/3, `--depths 3 5
  --steps 150 --seed 3`: main_theorem, conjecture_nc, prop31_entropy,
  the two that run the Luxemburg gauges (conjecture_sepcon and
  prop31_orlicz) and maximal_bound, the one that runs `dyadic_maximal`;
- one more maximal_bound search at p 2, `--depths 8 --steps 150 --seed
  3`, where 511 indicator ratios make last-bit ties likeliest;
- main_theorem searches at p 2, `--depths 3 5 --steps 150 --seed 3`,
  over the fixed `--strategy tower` and `--strategy all_above_level`
  families, whose candidates keep one family while the weights move;
- `constants --in` at p 2 on a depth-6 instance whose explicit `cubes`
  omit the root and the last quarter, so the operator-norm bracket meets
  uncovered leaves;
- `constants --in` and `check --in` on two malformed instance files that
  the CLI must refuse with exit code 2: one lacks `w_leaves`, and one
  misspells `seed` as `sed`;
- with the non-default bump file `bumps_nondefault.json` (psi
  `log_loglog` eps 0.5, phi `log_power` eps 0.5): `constants --in` and
  `check --in` on the depth-6 stopping_time lognormal p 2 instance, and
  a maximal_bound search at p 2, `--depths 3 5 --steps 150 --seed 3`;
- `--dist-params` and `search --young`, which no run above sets: `gen
  --depth 6 --dist spike --dist-params 2 0.5`, with `constants --in` and
  `check --in` on that instance; a conjecture_sepcon search with the
  `--young` file `young_power_q1.5.json` (`power` q = 1.5); and a
  main_theorem search with `--dist lognormal --dist-params 0 1.5`, both
  at p 2, `--depths 3 5 --steps 150 --seed 3`;
- `report` over five of the set's CSVs: two `constants`, two `check` and
  one `search` table;
- after it, two runs that no run above makes: `gen --strategy tower
  --depth 6 --p 2` at eta 0.75 and 1.0, where the tower stops at the root
  (at eta 0.25 it runs the whole chain), with `constants --cubes sparse`
  and `check --in` on each; and `constants --in` and `check --in` on the
  depth-6 stopping_time lognormal p 2 instance with the bump file
  `bumps_psi_eps150.json` (psi `log_power` eps 150, whose values pass the
  float range on check_bump's grid);
- then main_theorem searches at p 2, `--depths 3 5 --steps 150 --seed
  3`, with `--dist spike` and `--dist mixed`: every search above draws
  sigma from the lognormal law;
- last, a main_theorem search at p 2, `--depths 3 5 --steps 150 --seed
  3`, over the seeded `--strategy random_greedy` family, which the anneal
  builds once and no search above draws.

`exit_codes.txt` lists each run's exit code, or `raised <ExceptionType>`
for a run that raised out of `cli.main`.  Compare two sets with `diff -r`
and `python scripts/artifact_diff.py OLD_DIR NEW_DIR`.
"""

import json
import os
import sys
import traceback
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from sparsebump import cli  # noqa: E402
from sparsebump.dyadic import STRATEGIES  # noqa: E402


# the malformed instance files: file name -> JSON data
MALFORMED = {
    "malformed_no_w.json": {"depth": 1, "p": 2.0, "sigma_leaves": [1.0, 2.0],
                            "sparse": {"strategy": "tower", "eta": 0.5}},
    "malformed_sed.json": {"depth": 1, "p": 2.0, "w_leaves": [1.0, 1.0],
                           "sigma_leaves": [1.0, 2.0],
                           "sparse": {"strategy": "random_greedy", "eta": 0.3, "sed": 5}},
}


# a bump file away from BumpSpec's defaults on both sides
NONDEFAULT_BUMPS = {"psi": {"family": "log_loglog", "eps": 0.5},
                    "phi": {"family": "log_power", "eps": 0.5}}

# a Young file inside B_2 away from the default
YOUNG_Q15 = {"family": "power", "q": 1.5}

# an admissible bump file whose psi overflows to inf on check_bump's grid
PSI_EPS150_BUMPS = {"psi": {"family": "log_power", "eps": 150.0},
                    "phi": {"family": "log_loglog", "eps": 1.0}}


def rootless_instance() -> dict:
    """A depth-6 p = 2 instance with explicit cubes: (1, 0) and the cubes
    of levels 2-4 left of 3/4, so the leaves of [3/4, 1) are uncovered."""
    n = 1 << 6
    return {"depth": 6, "p": 2.0,
            "w_leaves": [1.0 + (7 * i % 11) / 4.0 for i in range(n)],
            "sigma_leaves": [2.0 ** ((5 * i % 13) - 6) for i in range(n)],
            "sparse": {"cubes": [[1, 0]] + [[level, j] for level in (2, 3, 4)
                                            for j in range(3 << (level - 2))]}}


def bp_boundary():
    """(instance, run name, Young JSON) of every B_p-boundary run."""
    for depth in (6, 12):
        for p in (1.5, 2.0, 3.0):
            for tag, family, q, eps in (("power_below", "power", p - 0.01, 1.0),
                                        ("log_at", "power_over_log", p, 0.1),
                                        ("log_above", "power_over_log", p + 0.05, 1.0)):
                yield (f"gen_stopping_time_d{depth}_p{p:g}_lognormal.json",
                       f"{tag}_d{depth}_p{p:g}", {"family": family, "q": q, "eps": eps})


def runs():
    """The argv of every run, instances before their users; every path is
    relative to OUT_DIR, so no artifact names the directory."""
    for strategy in STRATEGIES:
        for depth in (3, 6, 9, 12):
            for p in (1.5, 2.0, 3.0):
                for dist in ("lognormal", "spike", "mixed"):
                    name = f"{strategy}_d{depth}_p{p:g}_{dist}"
                    inst = f"gen_{name}.json"
                    yield ["gen", "--depth", str(depth), "--strategy", strategy, "--eta", "0.25",
                           "--p", str(p), "--dist", dist, "--out", inst]
                    for cubes in ("all", "sparse"):
                        yield ["constants", "--in", inst, "--cubes", cubes,
                               "--out", f"constants_{cubes}_{name}.csv"]
                    if depth <= 9:
                        yield ["check", "--suite", "all", "--in", inst,
                               "--out", f"check_{name}.csv"]
    for inst, name, _ in bp_boundary():
        yield ["constants", "--in", inst, "--young", f"young_{name}.json",
               "--out", f"constants_bp_{name}.csv"]
    for seed in (0, 5):
        yield ["check", "--trials", "150", "--seed", str(seed),
               "--out", f"check_trials_seed{seed}.csv"]
    for objective in ("main_theorem", "conjecture_nc", "prop31_entropy", "conjecture_sepcon",
                      "prop31_orlicz", "maximal_bound"):
        for p in ("1.5", "2", "3"):
            name = f"{objective}_p{p}"
            yield ["search", "--objective", objective, "--p", p, "--depths", "3", "5",
                   "--steps", "150", "--seed", "3", "--out", f"search_{name}.csv",
                   "--result-out", f"search_{name}.json"]
    yield ["search", "--objective", "maximal_bound", "--p", "2", "--depths", "8",
           "--steps", "150", "--seed", "3", "--out", "search_maximal_bound_p2_d8.csv",
           "--result-out", "search_maximal_bound_p2_d8.json"]
    for strategy in ("tower", "all_above_level"):
        name = f"main_theorem_p2_{strategy}"
        yield ["search", "--objective", "main_theorem", "--p", "2", "--depths", "3", "5",
               "--steps", "150", "--seed", "3", "--strategy", strategy,
               "--out", f"search_{name}.csv", "--result-out", f"search_{name}.json"]
    yield ["constants", "--in", "rootless_d6_p2.json", "--out", "constants_rootless_d6_p2.csv"]
    for inst in MALFORMED:
        for cmd in ("constants", "check"):
            yield [cmd, "--in", inst, "--out", f"{cmd}_{inst.removesuffix('.json')}.csv"]
    bumps = ["--bumps", "bumps_nondefault.json"]
    for cmd in ("constants", "check"):
        yield [cmd, "--in", "gen_stopping_time_d6_p2_lognormal.json", *bumps,
               "--out", f"{cmd}_bumps_stopping_time_d6_p2_lognormal.csv"]
    yield ["search", "--objective", "maximal_bound", "--p", "2", "--depths", "3", "5",
           "--steps", "150", "--seed", "3", *bumps, "--out", "search_bumps_maximal_bound_p2.csv",
           "--result-out", "search_bumps_maximal_bound_p2.json"]
    inst = "gen_spike_params_d6.json"
    yield ["gen", "--depth", "6", "--dist", "spike", "--dist-params", "2", "0.5", "--out", inst]
    for cmd in ("constants", "check"):
        yield [cmd, "--in", inst, "--out", f"{cmd}_spike_params_d6.csv"]
    search = ["search", "--p", "2", "--depths", "3", "5", "--steps", "150", "--seed", "3"]
    yield [*search, "--objective", "conjecture_sepcon", "--young", "young_power_q1.5.json",
           "--out", "search_young_conjecture_sepcon_p2.csv",
           "--result-out", "search_young_conjecture_sepcon_p2.json"]
    yield [*search, "--objective", "main_theorem", "--dist", "lognormal",
           "--dist-params", "0", "1.5", "--out", "search_dist_params_main_theorem_p2.csv",
           "--result-out", "search_dist_params_main_theorem_p2.json"]
    yield ["report", "--in", "constants_all_tower_d3_p2_lognormal.csv",
           "constants_bumps_stopping_time_d6_p2_lognormal.csv", "check_tower_d3_p2_lognormal.csv",
           "check_trials_seed0.csv", "search_maximal_bound_p2.csv", "--out", "report.csv"]
    for eta in ("0.75", "1.0"):
        name = f"tower_eta{eta}_d6_p2"
        yield ["gen", "--depth", "6", "--strategy", "tower", "--eta", eta, "--p", "2",
               "--out", f"gen_{name}.json"]
        yield ["constants", "--in", f"gen_{name}.json", "--cubes", "sparse",
               "--out", f"constants_{name}.csv"]
        yield ["check", "--in", f"gen_{name}.json", "--out", f"check_{name}.csv"]
    for cmd in ("constants", "check"):
        yield [cmd, "--in", "gen_stopping_time_d6_p2_lognormal.json",
               "--bumps", "bumps_psi_eps150.json",
               "--out", f"{cmd}_bumps_eps150_stopping_time_d6_p2_lognormal.csv"]
    for dist in ("spike", "mixed"):
        yield [*search, "--objective", "main_theorem", "--dist", dist,
               "--out", f"search_dist_{dist}_main_theorem_p2.csv",
               "--result-out", f"search_dist_{dist}_main_theorem_p2.json"]
    name = "main_theorem_p2_random_greedy"
    yield [*search, "--objective", "main_theorem", "--strategy", "random_greedy",
           "--out", f"search_{name}.csv", "--result-out", f"search_{name}.json"]


def run(args) -> str:
    """The exit code of one run, or what it raised; a raise prints its
    traceback on stderr, and the set goes on."""
    try:
        return str(cli.main(args))
    except Exception as exc:
        traceback.print_exc()
        return f"raised {type(exc).__name__}"


def main(argv) -> int:
    if len(argv) != 1:
        print("usage: python scripts/parity_artifacts.py OUT_DIR", file=sys.stderr)
        return 2
    out = Path(argv[0])
    out.mkdir(parents=True, exist_ok=True)
    os.chdir(out)
    inputs = ({f"young_{name}.json": data for _, name, data in bp_boundary()} | MALFORMED
              | {"rootless_d6_p2.json": rootless_instance(),
                 "bumps_nondefault.json": NONDEFAULT_BUMPS,
                 "young_power_q1.5.json": YOUNG_Q15,
                 "bumps_psi_eps150.json": PSI_EPS150_BUMPS})
    for path, data in inputs.items():
        Path(path).write_text(json.dumps(data, sort_keys=True) + "\n")
    codes = [f"{run(args)} {' '.join(args)}" for args in runs()]
    Path("exit_codes.txt").write_text("\n".join(codes) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

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
- `constants --in` and `check --in` on two malformed instance files that
  the CLI must refuse with exit code 2: one lacks `w_leaves`, and one
  misspells `seed` as `sed`.

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
    for inst in MALFORMED:
        for cmd in ("constants", "check"):
            yield [cmd, "--in", inst, "--out", f"{cmd}_{inst.removesuffix('.json')}.csv"]


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
    inputs = {f"young_{name}.json": data for _, name, data in bp_boundary()} | MALFORMED
    for path, data in inputs.items():
        Path(path).write_text(json.dumps(data, sort_keys=True) + "\n")
    codes = [f"{run(args)} {' '.join(args)}" for args in runs()]
    Path("exit_codes.txt").write_text("\n".join(codes) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

"""Run the benchmark of two checkouts in alternating pairs and compare them:

    python3 scripts/bench_pairs.py OLD_TREE NEW_TREE --workload W [--seed N]

Each of the PAIRS (10) pairs runs `perfbench/run.py --workload W --seed
N --seconds S --trace 0`, with N 0 unless given and S the `run_seconds`
of NEW_TREE/BENCHMARK.json, with this interpreter, from the root of each
checkout, one after the other; a claimed gain should also hold at a seed
not used while writing the change.  The old checkout goes first in even
pairs and the new one in odd pairs, so a drift of the machine's speed
falls on both sides.  Each run's line gives its end-to-end metrics, its
correct flag and its attempted and failed counts.  The summary gives,
per end-to-end metric of NEW_TREE/BENCHMARK.json, both medians and their
relative change (new - old) / old, the old runs' quartiles and their
spread (q3 - q1, inclusive method) and the pairs each side won; a tie
counts for neither.  A ratio line per metric gives the median and
quartiles of the per-pair ratio new / old: the two runs of a pair are
back to back, so the ratio cancels most of a drift of the machine's
speed that widens the quartiles of either side.  A verdict line per
metric then says whether a gain may be claimed (the new tree won at
least 9 in 10 of the pairs and its median beats the old median by more
than the old quartile spread, in the metric's better direction) and
whether the new median is within the metric's bound, a relative
worsening of at most `bound`.
Exits 1 if any run was not correct or had a failed operation, else 0.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

PAIRS = 10
CLAIM_WINS = 0.9  # the share of pairs the new tree must win to claim a gain


def run_once(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """The JSON object on the last stdout line of one benchmark run."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, capture_output=True, text=True, check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"benchmark run in {tree} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_line(side: str, pair: int, result: dict, names) -> str:
    values = " ".join(f"{name}={result['metrics'][name]['value']:.6g}" for name in names)
    return (f"pair {pair} {side}: {values} correct={result['correct']} "
            f"attempted={result['attempted']} failed={result['failed']}")


def summarize(pairs, better: dict) -> list:
    """One row per metric of better ({name: "lower" or "higher"}) from pairs,
    a list of (old run, new run) JSON results: (name, old median, new
    median, old q1, old q3, pairs new won, pairs old won)."""
    rows = []
    for name, direction in better.items():
        old = [o["metrics"][name]["value"] for o, _ in pairs]
        new = [n["metrics"][name]["value"] for _, n in pairs]
        sign = 1.0 if direction == "higher" else -1.0
        new_won = sum(sign * (n - o) > 0 for o, n in zip(old, new))
        old_won = sum(sign * (o - n) > 0 for o, n in zip(old, new))
        q1, _, q3 = statistics.quantiles(old, n=4, method="inclusive")
        rows.append((name, statistics.median(old), statistics.median(new), q1, q3,
                     new_won, old_won))
    return rows


def summary_lines(rows, n_pairs: int) -> list:
    """One line per row; change is (new - old) / old of the medians."""
    return [f"{name}: median old {old:.6g} new {new:.6g} "
            f"(change {(new - old) / old:+.2%}); "
            f"old quartiles {q1:.6g}-{q3:.6g} (spread {q3 - q1:.6g}); "
            f"new won {new_won}/{n_pairs}, old won {old_won}/{n_pairs}"
            for name, old, new, q1, q3, new_won, old_won in rows]


def ratio_lines(pairs, names) -> list:
    """One line per metric of names: the median and quartiles (inclusive
    method) of new / old over pairs, a list of (old run, new run) results."""
    lines = []
    for name in names:
        ratios = [n["metrics"][name]["value"] / o["metrics"][name]["value"] for o, n in pairs]
        q1, median, q3 = statistics.quantiles(ratios, n=4, method="inclusive")
        lines.append(f"{name}: pair ratio new/old median {median:.4f}, "
                     f"quartiles {q1:.4f}-{q3:.4f}")
    return lines


def verdict(row, n_pairs: int, better: str, bound: float) -> str:
    """The claim and bound verdicts of a summarize row whose metric is
    better "lower" or "higher" and may worsen by the relative bound."""
    name, old, new, q1, q3, new_won, _ = row
    gain = (new - old) if better == "higher" else (old - new)
    claim = new_won >= CLAIM_WINS * n_pairs and gain > q3 - q1
    within = gain / old >= -bound
    return (f"{name}: gain claim {'holds' if claim else 'does not hold'} "
            f"(new won {new_won}/{n_pairs}, gain {gain:.6g} vs old spread {q3 - q1:.6g}); "
            f"{'within' if within else 'outside'} bound {bound:g} "
            f"(worsening {-gain / old:+.2%})")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("old_tree", type=Path)
    parser.add_argument("new_tree", type=Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    spec = json.loads((args.new_tree / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    bound = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    pairs, clean = [], True
    for i in range(PAIRS):
        order = [("old", args.old_tree), ("new", args.new_tree)]
        result = {}
        for side, tree in order if i % 2 == 0 else order[::-1]:
            result[side] = run_once(tree, args.workload, args.seed, spec["run_seconds"])
            clean &= result[side]["correct"] and result[side]["failed"] == 0
            print(run_line(side, i, result[side], better), flush=True)
        pairs.append((result["old"], result["new"]))
    rows = summarize(pairs, better)
    print("\n".join(summary_lines(rows, PAIRS)))
    print("\n".join(ratio_lines(pairs, better)))
    print("\n".join(verdict(row, PAIRS, better[row[0]], bound[row[0]])
                     for row in rows))
    return 0 if clean else 1


if __name__ == "__main__":
    sys.exit(main())

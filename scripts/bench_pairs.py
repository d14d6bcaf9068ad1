"""Run the benchmark of two checkouts in alternating pairs and compare them:

    python3 scripts/bench_pairs.py OLD_TREE NEW_TREE --workload W

Each of the PAIRS (10) pairs runs `perfbench/run.py --workload W --seed 0
--seconds S --trace 0`, with S the `run_seconds` of NEW_TREE/BENCHMARK.json,
with this interpreter, from the root of each checkout, one after the
other; the old checkout goes first in even pairs and the new one in odd
pairs, so a drift of the machine's speed falls on both sides.  Each
run's line gives its end-to-end metrics, its correct flag and its
attempted and failed counts.  The summary gives, per end-to-end metric
of NEW_TREE/BENCHMARK.json, both medians and their relative change
(new - old) / old, the old runs' quartiles and their spread (q3 - q1,
inclusive method) and the pairs each side won; a tie counts for neither.
Exits 1 if any run was not correct or had a failed operation, else 0.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

PAIRS = 10


def run_once(tree: Path, workload: str, seconds: float) -> dict:
    """The JSON object on the last stdout line of one benchmark run."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "0",
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


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("old_tree", type=Path)
    parser.add_argument("new_tree", type=Path)
    parser.add_argument("--workload", required=True)
    args = parser.parse_args(argv)
    spec = json.loads((args.new_tree / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}

    pairs, clean = [], True
    for i in range(PAIRS):
        order = [("old", args.old_tree), ("new", args.new_tree)]
        result = {}
        for side, tree in order if i % 2 == 0 else order[::-1]:
            result[side] = run_once(tree, args.workload, spec["run_seconds"])
            clean &= result[side]["correct"] and result[side]["failed"] == 0
            print(run_line(side, i, result[side], better), flush=True)
        pairs.append((result["old"], result["new"]))
    print("\n".join(summary_lines(summarize(pairs, better), PAIRS)))
    return 0 if clean else 1


if __name__ == "__main__":
    sys.exit(main())

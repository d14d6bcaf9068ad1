"""Regenerate results/theorem_sweep.csv, the depth-sweep table of
acceptance criterion 6: the main_theorem objective annealed at
p in {1.5, 2, 3} and depths 4-8, 10 000 steps each, seed 606.  The
seconds column is 0, so the file is byte-reproducible.

Run from the repository root:

    PYTHONPATH=src python scripts/theorem_sweep.py
"""

from pathlib import Path

from sparsebump.search import Objective, SearchConfig, sweep_results

OUT = Path(__file__).resolve().parent.parent / "results" / "theorem_sweep.csv"


def main():
    lines = ["p,depth,best_ratio,evaluations,seconds"]
    for p in (1.5, 2.0, 3.0):
        rows = sweep_results(Objective("main_theorem", p=p),
                             SearchConfig(depth=4, steps=10_000, seed=606),
                             depths=(4, 5, 6, 7, 8))[0]
        for depth, ratio, evals, seconds in rows:
            lines.append(f"{p:g},{depth},{ratio:.17g},{evals},{seconds:.17g}")
    OUT.write_text("\n".join(lines) + "\n")
    print(f"wrote {OUT}")


if __name__ == "__main__":
    main()

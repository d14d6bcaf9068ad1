"""Compare two directories of sparsebump CLI CSV artifacts row by row:

    python scripts/artifact_diff.py <old_dir> <new_dir>

Files pair by name; `#` lines are skipped, the next line names the
columns, and rows are keyed by their first field (equal keys pair up in
file order).  Prints the largest relative difference over the numeric
fields, then the largest per row name (first field, over all files; the
names that did not move share one line), then every flipped pass flag
(or other changed text field) and every missing file or row; exits 1 if
there is any, else 0.
"""

import math
import sys
from pathlib import Path


def read_rows(path):
    lines = [ln for ln in path.read_text().splitlines() if ln and not ln.startswith("#")]
    rows, seen = {}, {}
    for fields in (ln.split(",") for ln in lines[1:]):
        seen[fields[0]] = seen.get(fields[0], 0) + 1
        rows[f"{fields[0]}#{seen[fields[0]]}"] = fields
    return lines[0].split(","), rows


def rel_diff(x: float, y: float) -> float:
    if x == y or (math.isnan(x) and math.isnan(y)):
        return 0.0
    if not (math.isfinite(x) and math.isfinite(y)):
        return math.inf
    return abs(x - y) / max(abs(x), abs(y))


def main(old_dir, new_dir) -> int:
    old_dir, new_dir = Path(old_dir), Path(new_dir)
    names = sorted({p.name for d in (old_dir, new_dir) for p in d.glob("*.csv")})
    worst, where, problems, count, by_name = 0.0, "-", [], 0, {}
    for name in names:
        if not ((old_dir / name).exists() and (new_dir / name).exists()):
            problems.append(f"missing file {name}")
            continue
        (h_old, old), (header, new) = read_rows(old_dir / name), read_rows(new_dir / name)
        if h_old != header:
            problems.append(f"header differs in {name}")
        for key in sorted(old.keys() | new.keys()):
            if key not in old or key not in new or len(old[key]) != len(new[key]):
                problems.append(f"missing row {name}: {key}")
                continue
            count += 1
            row = old[key][0]
            by_name.setdefault(row, 0.0)
            for col, x, y in zip(header, old[key], new[key]):
                try:
                    d = rel_diff(float(x), float(y))
                except ValueError:  # text: the pass flag, an empty bound
                    problems += [f"flip {name}: {key} {col} {x} -> {y}"] if x != y else []
                    continue
                by_name[row] = max(by_name[row], d)
                if d > worst:
                    worst, where = d, f"{name}: {key} {col}"
    print(f"{len(names)} files, {count} rows; largest relative difference {worst:.3g} at {where}")
    moved = {row: d for row, d in sorted(by_name.items()) if d}
    print("".join(f"  {row}: {d:.3g}\n" for row, d in moved.items())
          + f"  every other row name ({len(by_name) - len(moved)}): 0")
    print("\n".join(problems) or "no flips, no missing rows")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:3]))

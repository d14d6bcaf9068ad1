"""Record the reference outputs that run.py compares against at seed 0.

    python3 perfbench/record_reference.py

Run from the root of a checkout.  Writes perfbench/reference/<name>.json
with the outputs of the first REFERENCE_OPS[name] operations of each
workload at the reference seed.  Record them only from a commit whose
outputs are known good.
"""

from __future__ import annotations

import json
import os
import shutil
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from run import REFERENCE_SEED, _import_library  # noqa: E402

# check_corpus: the first 72 operations pair every (strategy, eta) with
# every (sigma law, p) of its grid once (see CheckCorpus.prepare)
REFERENCE_OPS = {"search_d8": 8, "constants_d12": 6, "check_corpus": 72}


def main() -> int:
    cli = _import_library(os.getcwd())
    from workloads import WORKLOADS
    for name, count in REFERENCE_OPS.items():
        workdir = os.path.join(HERE, "out", f"record-{os.getpid()}")
        os.makedirs(workdir)
        try:
            workload = WORKLOADS[name](REFERENCE_SEED, workdir)
            outputs = []
            for index in range(count):
                rc = cli.main(workload.prepare(index))
                outputs.append(workload.check(rc)[1])
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        path = os.path.join(HERE, "reference", f"{name}.json")
        with open(path, "w") as fh:  # one operation per line
            fh.write(f'{{"seed": {REFERENCE_SEED}, "outputs": [\n')
            fh.write(",\n".join(json.dumps(o, sort_keys=True) for o in outputs))
            fh.write("\n]}\n")
        print(f"{path}: {len(outputs)} operations")
    return 0


if __name__ == "__main__":
    sys.exit(main())

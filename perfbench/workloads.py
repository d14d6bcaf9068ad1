"""The three workloads: seeded inputs, the CLI call of one operation, and
the checks on its artifacts.

Inputs come from the benchmark's own numpy generator, seeded from
(workload seed, workload, operation index); the library only ever sees
the instance files (and, for `search`, which takes no instance, a seed
drawn from the same generator).
"""

from __future__ import annotations

import hashlib
import json
import math
import os

import numpy as np

DENSITY_FLOOR = 1e-12
STRATEGIES = ("tower", "random_greedy", "all_above_level", "stopping_time")
SEARCH_STEPS = 100
SEARCH_DEPTH = 8
CONSTANTS_DEPTH = 12
# not 2: at p = 2 `constants` runs the power iteration, whose count has a
# heavy tail at depth 12 (see README)
CONSTANTS_P = 3.0
REL_TOL = 1e-9
# check rows whose bound is proof-tracked: the CLI exits 1 when one fails
HARD_ROW_PREFIXES = ("prop32_k", "prop33", "sawyer_sum", "eset_member",
                     "cov_bracket", "scale_")


class OpFailure(Exception):
    """An operation's artifacts failed a correctness check."""


def _close(a: float, b: float) -> bool:
    if math.isinf(a) or math.isinf(b) or math.isnan(a) or math.isnan(b):
        return a == b or (math.isnan(a) and math.isnan(b))
    return math.isclose(a, b, rel_tol=REL_TOL, abs_tol=0.0)


def _same(got, expected) -> bool:
    """Outputs equal up to REL_TOL on floats and exactly elsewhere."""
    if isinstance(expected, dict):
        return isinstance(got, dict) and got.keys() == expected.keys() and \
            all(_same(got[k], expected[k]) for k in expected)
    if isinstance(expected, list):
        return isinstance(got, list) and len(got) == len(expected) and \
            all(map(_same, got, expected))
    if isinstance(expected, float) and isinstance(got, float):
        return _close(got, expected)
    return got == expected


def _rng(seed: int, workload: str, index: int) -> np.random.Generator:
    tag = sum(ord(c) << (8 * (i % 7)) for i, c in enumerate(workload))
    return np.random.default_rng([seed, tag, index])


def _leaves(rng, n: int, dist: str) -> np.ndarray:
    # the leaf laws of the CLI's random corpus: lognormal(0, 1.5),
    # spike (mass 1 on a quarter of the leaves) and their 50/50 mixture
    if dist == "lognormal":
        return np.exp(1.5 * rng.standard_normal(n))
    if dist == "mixed":
        if rng.random() < 0.5:
            return _leaves(rng, n, "lognormal")
        support = max(1, int(round(max(1.0 / n, float(rng.random())) * n)))
    else:
        support = max(1, int(round(0.25 * n)))
    out = np.full(n, DENSITY_FLOOR)
    out[:support] = n / support
    return out


def _instance(rng, depth, p, strategy, eta, dist) -> dict:
    n = 1 << depth
    sigma = _leaves(rng, n, dist)
    w = np.exp(rng.standard_normal(n))
    return {"depth": depth, "p": p, "w_leaves": w.tolist(), "sigma_leaves": sigma.tolist(),
            "sparse": {"strategy": strategy, "eta": eta,
                       "seed": int(rng.integers(0, 2 ** 31))}}


def _write_json(path, data):
    with open(path, "w") as fh:
        json.dump(data, fh, sort_keys=True)


def _read(path) -> str:
    with open(path) as fh:
        return fh.read()


def _csv_rows(text: str) -> list[list[str]]:
    lines = [ln for ln in text.splitlines() if ln and not ln.startswith("#")]
    return [ln.split(",") for ln in lines[1:]]


class Workload:
    """One workload. `prepare(i)` writes operation i's input and returns
    its argv; `check(rc)` reads the artifacts, raises OpFailure on a wrong
    output, and returns (work units done, outputs to compare with the
    reference)."""

    name = ""
    artifacts = ("op.csv",)
    # operations that hold the workload's input mix; the end-to-end
    # metrics are taken over whole windows of this many operations
    mix_window = 1

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.workdir = workdir

    def path(self, name: str) -> str:
        return os.path.join(self.workdir, name)

    def warmup_argv(self) -> list[str]:
        raise NotImplementedError

    def prepare(self, index: int) -> list[str]:
        raise NotImplementedError

    def check(self, rc: int):
        raise NotImplementedError

    def artifact_digest(self) -> str:
        """sha256 over the bytes of every artifact of the last operation."""
        digest = hashlib.sha256()
        for name in self.artifacts:
            with open(self.path(name), "rb") as fh:
                digest.update(fh.read())
        return digest.hexdigest()

    def compare(self, got, expected):
        """Raise OpFailure unless `got` matches a recorded reference."""
        if not _same(got, expected):
            raise OpFailure(f"outputs differ from the reference: {got} != {expected}")

    def _tiny_instance(self, p: float = 2.0) -> str:
        path = self.path("warmup.json")
        _write_json(path, _instance(_rng(self.seed, "warmup", 0), 2, p,
                                    "stopping_time", 0.5, "lognormal"))
        return path


class SearchD8(Workload):
    """`search --objective main_theorem` at depth 8, p = 2, with the
    stopping-time family re-derived for every proposal and --result-out
    set: the hot loop of the depth sweep."""

    name = "search_d8"
    artifacts = ("op.csv", "op.json")

    def _argv(self, depth, steps, seed, tag):
        return ["search", "--objective", "main_theorem", "--depths", str(depth),
                "--p", "2", "--steps", str(steps), "--seed", str(seed),
                "--out", self.path(f"{tag}.csv"), "--result-out", self.path(f"{tag}.json")]

    def warmup_argv(self):
        return self._argv(2, 5, 0, "warmup")

    def prepare(self, index):
        seed = int(_rng(self.seed, self.name, index).integers(0, 2 ** 31))
        return self._argv(SEARCH_DEPTH, SEARCH_STEPS, seed, "op")

    def check(self, rc):
        if rc != 0:
            raise OpFailure(f"search exited {rc}")
        csv_text, json_text = _read(self.path("op.csv")), _read(self.path("op.json"))
        (depth, ratio, evals, _), = _csv_rows(csv_text)
        ratio, evals = float(ratio), int(evals)
        if int(depth) != SEARCH_DEPTH or evals < 1:
            raise OpFailure(f"unexpected sweep row depth={depth} evaluations={evals}")
        best = json.loads(json_text)["result"]["best_instance"]
        from sparsebump import dyadic, search
        replay = search.evaluate(search.Objective(kind="main_theorem", p=2.0),
                                 dyadic.instance_from_dict(best))
        if not _close(replay, ratio):
            raise OpFailure(f"best instance re-evaluates to {replay!r}, CSV says {ratio!r}")
        return evals, {"best_ratio": ratio, "evaluations": evals}


class ConstantsD12(Workload):
    """`constants --cubes all` on one depth-12 instance per operation:
    the entropy lambda table, Luxemburg and conjugate-table Orlicz bumps,
    and testing constants over ~1000-cube families."""

    name = "constants_d12"

    def warmup_argv(self):
        return ["constants", "--cubes", "all", "--in", self._tiny_instance(CONSTANTS_P),
                "--out", self.path("warmup.csv")]

    def prepare(self, index):
        # eta 0.25 gives stopping-time families of ~1000 cubes
        _write_json(self.path("op_in.json"),
                    _instance(_rng(self.seed, self.name, index), CONSTANTS_DEPTH, CONSTANTS_P,
                              "stopping_time", 0.25, "lognormal"))
        return ["constants", "--cubes", "all", "--in", self.path("op_in.json"),
                "--out", self.path("op.csv")]

    def check(self, rc):
        if rc != 0:
            raise OpFailure(f"constants exited {rc}")
        values = {name: float(value) for name, value in _csv_rows(_read(self.path("op.csv")))}
        bad = [name for name, v in values.items() if not math.isfinite(v)]
        if bad:
            raise OpFailure(f"non-finite constants {bad}")
        # the default psi and phi are >= 1, so nu_p >= 1 and, over the same
        # cubes, nu_bump >= a_p and maximal_bound^p >= a_p
        floor = values["a_p"] * (1.0 - REL_TOL)
        if values["nu_bump"] < floor or values["maximal_bound"] ** CONSTANTS_P < floor:
            raise OpFailure(f"bump constants below a_p: {values}")
        return 1, values


class CheckCorpus(Workload):
    """`check --suite all --in` on one small depth-2..8 instance per
    operation: per-call overhead and scalar psi calls dominate."""

    name = "check_corpus"
    mix_window = 252

    def warmup_argv(self):
        return ["check", "--suite", "all", "--in", self._tiny_instance(),
                "--out", self.path("warmup.csv")]

    def prepare(self, index):
        # the grid of cli._random_corpus: 7 depths x 8 (strategy, eta) x
        # 9 (sigma law, p), indexed by index mod 7, 8 and 9.  These are
        # pairwise coprime, so each 504 consecutive operations cover the
        # grid once, each 72 pair every (strategy, eta) with every
        # (sigma law, p) once, and each mix_window of 252 holds every
        # depth and every (sigma law, p) equally often and every
        # (strategy, eta) to within one operation.  The seed draws the
        # leaves.
        depth = 2 + index % 7
        strategy, eta = STRATEGIES[index % 8 // 2], (0.25, 0.5)[index % 2]
        dist, p = ("lognormal", "spike", "mixed")[index % 9 // 3], (1.5, 2.0, 3.0)[index % 3]
        data = _instance(_rng(self.seed, self.name, index), depth, p, strategy, eta, dist)
        _write_json(self.path("op_in.json"), data)
        return ["check", "--suite", "all", "--in", self.path("op_in.json"),
                "--out", self.path("op.csv")]

    def check(self, rc):
        if rc != 0:
            raise OpFailure(f"check exited {rc}")
        text = _read(self.path("op.csv"))
        rows = _csv_rows(text)
        if not rows:
            raise OpFailure("check wrote no rows")
        failed = [r[0] for r in rows
                  if r[0].removeprefix("file_").startswith(HARD_ROW_PREFIXES) and r[5] != "true"]
        if failed:
            raise OpFailure(f"hard rows failed: {failed}")
        outputs = [[r[0], float(r[1]), float(r[2]), float(r[3]) if r[3] else None,
                    float(r[4]), r[5]] for r in rows]
        return 1, outputs


WORKLOADS = {w.name: w for w in (SearchD8, ConstantsD12, CheckCorpus)}

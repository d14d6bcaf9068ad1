import os
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))

import sparsebump
from sparsebump import (Instance, TreeGeometry, WeightPair, generate_sparse)
from sparsebump.dyadic import STRATEGIES


def cli_env():
    """Environment for a `python -m sparsebump.cli` child process.

    PYTHONPATH starts with the absolute directory that holds the imported
    `sparsebump` package, then any existing PYTHONPATH, so the child runs
    the same code as this process whatever its working directory.
    """
    src = str(Path(sparsebump.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        part for part in (src, env.get("PYTHONPATH")) if part)
    return env


def level_arrays(values, depth):
    """Per-level arrays holding a CubeId-keyed dict's values, zero elsewhere."""
    levels = [np.zeros(1 << level) for level in range(depth + 1)]
    for cube, value in values.items():
        levels[cube.level][cube.index] = value
    return levels


def make_instance(depth, w, sigma, p, strategy="stopping_time", eta=0.5, seed=0):
    geometry = TreeGeometry(depth)
    pair = WeightPair(geometry, np.asarray(w, float), np.asarray(sigma, float), p)
    family = generate_sparse(geometry, strategy, eta, seed,
                             sigma_avg_flat=pair.sigma_avg_flat)
    return Instance(pair, family, {"strategy": strategy, "eta": eta, "seed": seed})


def random_corpus(count, seed=0, depths=(2, 3, 4, 5, 6, 7, 8),
                  etas=(0.25, 0.5), ps=(1.5, 2.0, 3.0), strategies=STRATEGIES):
    """Deterministic stream of random instances cycling over the grid."""
    rng = np.random.default_rng(seed)
    out = []
    for i in range(count):
        depth = depths[i % len(depths)]
        eta = etas[i % len(etas)]
        p = ps[i % len(ps)]
        strategy = strategies[i % len(strategies)]
        n = 1 << depth
        w = np.exp(rng.standard_normal(n))
        sigma = np.exp(1.5 * rng.standard_normal(n))
        out.append(make_instance(depth, w, sigma, p, strategy, eta, seed=i))
    return out


@pytest.fixture(scope="session")
def instance_a():
    """Depth 2, w = 1, sigma = (4, 1, 1, 1), p = 2, tower family."""
    return make_instance(2, np.ones(4), [4.0, 1.0, 1.0, 1.0], 2.0,
                         strategy="tower")

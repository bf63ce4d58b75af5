"""Deterministic inputs for the benchmark workloads.

Everything here is a pure function of the workload seed: the same seed gives
byte-identical label files and identical priors.  Only numpy is used, so the
program under test sees nothing but the files and weight arrays built here.
"""
from __future__ import annotations

import numpy as np

ZIPF_A = 1.2
OFF_GRID_SHARE = 0.05
PRIOR_FAMILY = 32        # optimize priors repeat with period 32 in the seed
PRIOR_DRAWS = 10**6      # samples behind each empirical optimize prior


def _gen(seed: int, tag: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed, tag])))


def zipf_weights(k: int, a: float = ZIPF_A) -> np.ndarray:
    """Truncated zipf over ranks 1..k, rank r carrying weight r^-a."""
    return np.arange(1, k + 1, dtype=float) ** (-a)


def label_file(path: str, n: int, seed: int) -> np.ndarray:
    """Write n labels: a header, then zipf-1.2 integers over 0..400 with a
    seeded 5% replaced by off-grid two-place decimals in [0, 420).

    Returns the labels as written, so callers can compute from the input
    what the program should do with it.
    """
    g = _gen(seed, 1)
    w = zipf_weights(401)
    ints = g.choice(401, size=n, p=w / w.sum())
    off = g.choice(n, size=int(round(OFF_GRID_SHARE * n)), replace=False)
    cents = g.integers(0, 420, size=off.size) * 100 + g.integers(1, 100, size=off.size)
    text = ints.astype(str).astype(object)
    text[off] = [f"{c // 100}.{c % 100:02d}" for c in cents.tolist()]
    with open(path, "w") as fh:
        fh.write("label\n")
        fh.write("\n".join(text.tolist()))
        fh.write("\n")
    labels = ints.astype(float)
    labels[off] = cents / 100.0
    return labels


def prior_member(seed: int) -> int:
    """Index of the optimize prior family member a workload seed selects."""
    return seed % PRIOR_FAMILY


def prior_weights(seed: int, k: int) -> np.ndarray:
    """Empirical zipf-1.2 histogram over k labels from PRIOR_DRAWS draws.

    The family is finite so that every member's optimal objectives can be
    recorded once (reference_objectives.json) and checked on every run.
    """
    member = prior_member(seed)
    w = zipf_weights(k)
    draws = _gen(member, 2 + k).choice(k, size=PRIOR_DRAWS, p=w / w.sum())
    return np.bincount(draws, minlength=k).astype(float)


HUBER_DELTA = 5.0
# (loss, k) of each optimize-public-prior call; each runs at every OPT_EPS
OPT_CASES = (("squared", 2001), ("poisson", 2001), ("absolute", 2001), ("custom", 61))
OPT_EPS = (1.0, 8.0)


def huber(yhat, y):
    """Huber loss with delta 5: quadratic within delta, linear beyond."""
    r = np.abs(np.asarray(yhat, dtype=float) - np.asarray(y, dtype=float))
    return np.where(r <= HUBER_DELTA, 0.5 * r * r, HUBER_DELTA * (r - 0.5 * HUBER_DELTA))

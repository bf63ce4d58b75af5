"""Label randomization mechanisms: randomized response over bin outputs and
the additive-noise baselines (continuous/discrete Laplace, continuous/discrete
staircase, the exponential mechanism by inverse CDF, plain randomized
response), plus the clipping post-process.

Every sampler takes an explicit Rng, is deterministic given its seed, and
draws for a whole array of labels at once.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .binopt import BinLayout
from .core import MechanismMatrix, as_indices

# the double just above -1: keeps log1p finite where a side's mass rounds to 1,
# which needs eps * distance / Delta above about 70
_LOG1P_FLOOR = np.nextafter(-1.0, 0.0)


@dataclass
class Rng:
    """Seeded random source; identical seeds reproduce identical streams.

    Children derived with spawn(index) are independent and deterministic in
    (seed, index), so concurrent tasks can each own their own stream.
    """

    seed: int
    gen: np.random.Generator = field(default=None, repr=False)

    def __post_init__(self):
        if self.gen is None:
            self.gen = np.random.Generator(np.random.PCG64(np.random.SeedSequence(self.seed)))

    def spawn(self, index: int) -> "Rng":
        seq = np.random.SeedSequence(self.seed, spawn_key=(index,))
        return Rng(self.seed, np.random.Generator(np.random.PCG64(seq)))


@dataclass(frozen=True)
class NoiseParams:
    """Additive-noise parameters: privacy eps, sensitivity (label units; the
    label range for a single bounded label), and the optional staircase shape
    parameters (continuous gamma in (0,1), discrete step width r in [1, Delta])."""

    eps: float
    sensitivity: float
    staircase_gamma: float | None = None
    staircase_r: int | None = None

    def __post_init__(self):
        if not self.eps > 0:
            raise ValueError(f"eps must be positive, got {self.eps}")
        if not self.sensitivity > 0:
            raise ValueError(f"sensitivity must be positive, got {self.sensitivity}")
        if self.staircase_gamma is not None and not (0 < self.staircase_gamma < 1):
            raise ValueError(f"staircase gamma must be in (0,1), got {self.staircase_gamma}")

    @property
    def scale(self) -> float:
        """Laplace scale sensitivity/eps."""
        return self.sensitivity / self.eps

    def gamma(self) -> float:
        """Staircase step split; defaults to the variance-optimal 1/(1+e^(eps/2)),
        computed via e^(-eps/2) so it never overflows."""
        if self.staircase_gamma is not None:
            return self.staircase_gamma
        t = math.exp(-self.eps / 2.0)
        return t / (1.0 + t)

    def discrete_r(self, delta: int) -> int:
        if self.staircase_r is not None:
            r = int(self.staircase_r)
        else:
            r = int(round(self.gamma() * delta))
        if not 1 <= r <= delta:
            if self.staircase_r is not None:
                raise ValueError(f"staircase r must be in [1, {delta}], got {r}")
            r = min(max(r, 1), delta)
        return r


def _stay_prob(eps: float, m: int) -> float:
    # e^eps / (e^eps + m - 1), computed via e^-eps to stay finite for any eps
    return 1.0 / (1.0 + (m - 1) * math.exp(-eps))


def rr_on_bins_matrix(layout: BinLayout, eps: float) -> MechanismMatrix:
    """Row-stochastic matrix of randomized response over the layout's outputs:
    stay probability e^eps/(e^eps + d - 1) at the own bin, uniform elsewhere."""
    if eps < 0:
        raise ValueError(f"eps must be non-negative, got {eps}")
    d = layout.d
    stay = _stay_prob(eps, d)
    off = math.exp(-eps) * stay if d > 1 else 0.0
    rows = np.full((layout.labels.k, d), off)
    rows[np.arange(layout.labels.k), layout.assignments()] = stay
    return MechanismMatrix(layout.labels, layout.outputs, rows)


def rr_on_bins_randomize(own_bins, outputs, eps: float, rng: Rng) -> np.ndarray:
    """Randomized response over bin outputs for an array of labels given by
    their own bin indices: each keeps its bin's output with probability
    e^eps/(e^eps + d - 1) and otherwise moves to one of the other d - 1
    outputs uniformly.  Plain randomized response is the case of one label
    per bin (the universe indices with the universe as outputs)."""
    if eps < 0:
        raise ValueError(f"eps must be non-negative, got {eps}")
    outs = np.asarray(outputs, dtype=float)
    d = outs.size
    own = as_indices(own_bins, d)
    if d == 1:
        return np.full(own.shape, outs[0])
    keep = rng.gen.random(own.shape) < _stay_prob(eps, d)
    hop = rng.gen.integers(1, d, size=own.shape)
    return outs[np.where(keep, own, (own + hop) % d)]


def laplace_sample(y, params: NoiseParams, rng: Rng):
    """y plus continuous Laplace noise with scale sensitivity/eps."""
    y = np.asarray(y, dtype=float)
    noise = rng.gen.laplace(0.0, params.scale, size=y.shape)
    out = y + noise
    return float(out) if out.ndim == 0 else out


def discrete_laplace_sample(y, params: NoiseParams, rng: Rng):
    """y plus discrete Laplace noise (pmf proportional to e^(-|j|/b), b =
    sensitivity/eps), sampled exactly as a difference of two geometrics."""
    y = np.asarray(y)
    if not np.all(np.equal(np.mod(y, 1), 0)):
        raise ValueError("discrete laplace requires integer-valued input")
    b = params.scale
    p = 1.0 - math.exp(-1.0 / b)
    shape = y.shape if y.ndim else (1,)
    noise = rng.gen.geometric(p, size=shape) - rng.gen.geometric(p, size=shape)
    out = y.astype(np.int64) + noise
    return int(out[0]) if y.ndim == 0 else out


def staircase_sample(y, params: NoiseParams, rng: Rng):
    """y plus continuous staircase noise: geometric rung with ratio e^(-eps),
    a high/low step within the rung (widths gamma*D and (1-gamma)*D, heights
    1 : e^(-eps)), a sign, and a uniform position inside the step."""
    eps, delta = params.eps, params.sensitivity
    gamma = params.gamma()
    y = np.asarray(y, dtype=float)
    shape = y.shape if y.ndim else (1,)
    g = rng.gen
    rung = g.geometric(1.0 - math.exp(-eps), size=shape) - 1
    denom = gamma + math.exp(-eps) * (1.0 - gamma)
    # denom underflows only when gamma ~ e^(-eps/2) ~ 0; the high step (width
    # gamma * delta ~ 0) is then the correct zero-noise limit
    p_high = gamma / denom if denom > 0 else 1.0
    high = g.random(shape) < p_high
    u = g.random(shape)
    offset = np.where(high, u * gamma * delta, gamma * delta + u * (1.0 - gamma) * delta)
    sign = np.where(g.random(shape) < 0.5, -1.0, 1.0)
    out = y + sign * (rung * delta + offset)
    return float(out[0]) if y.ndim == 0 else out


def discrete_staircase_sample(y, params: NoiseParams, rng: Rng):
    """y plus discrete staircase noise over the integers.

    The pmf is a(r) on |i| in [0, r), e^(-eps) a(r) on |i| in [r, Delta), and
    decays by e^(-eps) per rung of width Delta, with
    a(r) = (1-b) / (2r + 2b(Delta-r) - (1-b)) for b = e^(-eps).
    """
    eps = params.eps
    delta = int(params.sensitivity)
    if delta != params.sensitivity or delta < 2:
        raise ValueError("discrete staircase requires integer sensitivity >= 2")
    r = params.discrete_r(delta)
    y = np.asarray(y)
    if not np.all(np.equal(np.mod(y, 1), 0)):
        raise ValueError("discrete staircase requires integer-valued input")
    b = math.exp(-eps)
    a = (1.0 - b) / (2 * r + 2 * b * (delta - r) - (1.0 - b))
    shape = y.shape if y.ndim else (1,)
    n = int(np.prod(shape)) if shape else 1
    g = rng.gen

    # one-sided masses: rung 0 excludes the atom at zero
    m_first = a * (r - 1) + a * b * (delta - r)
    m_rest = a * (r + b * (delta - r)) * b / (1.0 - b)
    side = m_first + m_rest
    u = g.random(n)
    noise = np.zeros(n, dtype=np.int64)
    nonzero = u >= a
    n_nz = int(nonzero.sum())
    if n_nz:
        first = g.random(n_nz) < m_first / side
        rung = np.where(first, 0, g.geometric(1.0 - b, size=n_nz))
        hi_count = np.where(first, r - 1, r)
        hi_weight = hi_count * 1.0
        lo_weight = b * (delta - r)
        p_hi = np.where(
            hi_weight + lo_weight > 0, hi_weight / (hi_weight + lo_weight), 0.0
        )
        take_hi = g.random(n_nz) < p_hi
        off_hi_start = np.where(first, 1, 0)
        off_hi = off_hi_start + (g.random(n_nz) * np.maximum(hi_count, 1)).astype(np.int64)
        off_lo = r + (g.random(n_nz) * (delta - r)).astype(np.int64) if delta > r else np.full(n_nz, r)
        offset = np.where(take_hi, off_hi, off_lo)
        mag = rung * delta + offset
        sign = np.where(g.random(n_nz) < 0.5, -1, 1)
        noise[nonzero] = sign * mag
    out = np.asarray(y, dtype=np.int64).reshape(-1) + noise
    out = out.reshape(shape)
    return int(out[0]) if y.ndim == 0 else out


def exponential_mechanism_sample(y, lo: float, hi: float, eps: float, rng: Rng) -> np.ndarray:
    """Exponential mechanism on [lo, hi] for an array of inputs: density
    proportional to e^(-eps |out - y| / (2 Delta)) there, Delta = hi - lo,
    which is Laplace noise at scale b = 2 Delta / eps truncated to the range.

    One uniform per label goes through the inverse of the truncated CDF.
    With A = 1 - e^(-(y-lo)/b) and C = 1 - e^(-(hi-y)/b), the masses below
    and above y, u = U (A + C) lands below y when u < A, at y + b log(1 - u),
    and above it otherwise, at y - b log(1 - (u - A))."""
    if lo > hi:
        raise ValueError(f"empty range [{lo}, {hi}]")
    y = np.asarray(y, dtype=float)
    inside = (y >= lo) & (y <= hi)
    if not inside.all():
        raise ValueError(f"input {y.flat[np.argmin(inside)]} outside the output range [{lo}, {hi}]")
    if not eps > 0:
        raise ValueError(f"eps must be positive, got {eps}")
    if hi == lo:
        return np.full(y.shape, float(lo))
    b = 2.0 * (float(hi) - float(lo)) / float(eps)
    if b == 0:  # eps = inf leaves no noise
        return y.copy()
    if b == math.inf:
        raise ValueError(f"eps {eps} too small for the range [{lo}, {hi}]: the noise scale overflows")
    below = -np.expm1((lo - y) / b)
    above = -np.expm1((y - hi) / b)
    u = rng.gen.random(y.shape) * (below + above)
    left = u < below
    # the log1p argument is formed first, so np.where never evaluates a branch
    # outside its domain; the clip only absorbs rounding at the ends
    arg = np.where(left, -u, below - u)
    step = b * np.log1p(np.maximum(arg, _LOG1P_FLOOR))
    return np.clip(np.where(left, y + step, y - step), lo, hi)


def clip(value, lo: float, hi: float):
    """Clamp into [lo, hi]; never increases the distance to any in-range point."""
    if lo > hi:
        raise ValueError(f"clip bounds out of order: {lo} > {hi}")
    out = np.clip(np.asarray(value, dtype=float), lo, hi)
    return float(out) if out.ndim == 0 else out

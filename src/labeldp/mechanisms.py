"""Label randomization mechanisms: randomized response over bin outputs and
the additive-noise baselines (continuous/discrete Laplace, continuous/discrete
staircase, the exponential mechanism by inverse CDF, plain randomized
response).  Clipping the outputs into the label range is the pipeline's.

Every sampler draws from the numpy Generator it is given, so a seeded
Generator reproduces its output, and takes and returns arrays, drawing for a
whole batch of labels at once.  The staircase, discrete staircase and
exponential samplers draw into and combine their noise in a few buffers of
their own, never in the caller's array: one call peaks at under four times
the label array.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .binopt import BinLayout
from .core import MechanismMatrix, as_indices, check_eps

# the double just above -1: keeps log1p finite where a side's mass rounds to 1,
# which needs eps * distance / Delta above about 70
_LOG1P_FLOOR = np.nextafter(-1.0, 0.0)


@dataclass(frozen=True)
class NoiseParams:
    """Additive-noise parameters: privacy eps and sensitivity (label units; the
    label range for a single bounded label)."""

    eps: float
    sensitivity: float

    def __post_init__(self):
        check_eps(self.eps, positive=True)
        if not self.sensitivity > 0:
            raise ValueError(f"sensitivity must be positive, got {self.sensitivity}")

    @property
    def scale(self) -> float:
        """Laplace scale sensitivity/eps."""
        return self.sensitivity / self.eps

    def geometric_p(self, rate: float) -> float:
        """1 - e^(-rate), the success probability of a geometric with ratio
        e^(-rate), rate being eps or eps/sensitivity; refuses an eps so small
        that it rounds to 0."""
        p = 1.0 - math.exp(-rate)
        if p == 0:
            raise ValueError(f"eps {self.eps} too small: the noise's geometric ratio "
                             f"e^(-{rate}) rounds to 1")
        return p

    def gamma(self) -> float:
        """Staircase step split, the variance-optimal 1/(1+e^(eps/2)), computed
        via e^(-eps/2) so it never overflows."""
        t = math.exp(-self.eps / 2.0)
        return t / (1.0 + t)

    def discrete_r(self, delta: int) -> int:
        """Discrete staircase step width: gamma * delta rounded, at least 1.
        gamma <= 1/2 keeps it below delta for every delta >= 2."""
        return max(round(self.gamma() * delta), 1)


def _stay_prob(eps: float, m: int) -> float:
    # e^eps / (e^eps + m - 1), computed via e^-eps to stay finite for any eps
    return 1.0 / (1.0 + (m - 1) * math.exp(-eps))


def rr_on_bins_matrix(layout: BinLayout, eps: float) -> MechanismMatrix:
    """Row-stochastic matrix of randomized response over the layout's outputs:
    stay probability e^eps/(e^eps + d - 1) at the own bin, uniform elsewhere."""
    d = layout.d
    stay = _stay_prob(check_eps(eps), d)
    off = math.exp(-eps) * stay if d > 1 else 0.0
    rows = np.full((layout.labels.k, d), off)
    rows[np.arange(layout.labels.k), layout.assignments()] = stay
    return MechanismMatrix(layout.labels, layout.outputs, rows)


def rr_on_bins_randomize(own_bins, d: int, eps: float, rng: np.random.Generator) -> np.ndarray:
    """Randomized response over d bin outputs for an array of labels given by
    their own bin indices, returning each label's output index: each keeps
    its own bin with probability e^eps/(e^eps + d - 1) and otherwise moves to
    one of the other d - 1 bins uniformly.  Plain randomized response is the
    case of one label per bin (the universe indices, with d = k)."""
    check_eps(eps)
    own = as_indices(own_bins, d)
    if d == 1:
        return np.zeros(own.shape, dtype=np.intp)
    moves = rng.random(own.shape) >= _stay_prob(eps, d)
    out = rng.integers(1, d, size=own.shape)  # the hop, then the output
    out *= moves
    out += own
    return np.subtract(out, d, out=out, where=out >= d)


def laplace_sample(y, params: NoiseParams, rng: np.random.Generator):
    """y plus continuous Laplace noise with scale sensitivity/eps."""
    y = np.asarray(y, dtype=float)
    noise = rng.laplace(0.0, params.scale, size=y.shape)
    noise += y
    return noise


def discrete_laplace_sample(y, params: NoiseParams, rng: np.random.Generator):
    """y plus discrete Laplace noise (pmf proportional to e^(-|j|/b), b =
    sensitivity/eps), sampled exactly as a difference of two geometrics."""
    y = np.asarray(y)
    if y.dtype.kind not in "iu" and not np.all(np.equal(np.mod(y, 1), 0)):
        raise ValueError("discrete laplace requires integer-valued input")
    b = params.scale
    p = params.geometric_p(1.0 / b if b > 0 else math.inf)  # eps = inf leaves no noise
    noise = rng.geometric(p, size=y.shape) - rng.geometric(p, size=y.shape)
    return y.astype(np.int64) + noise


def staircase_sample(y, params: NoiseParams, rng: np.random.Generator):
    """y plus continuous staircase noise: geometric rung with ratio e^(-eps),
    a high/low step within the rung (widths gamma*D and (1-gamma)*D, heights
    1 : e^(-eps)), a sign, and a uniform position inside the step."""
    eps, delta = params.eps, params.sensitivity
    gamma = params.gamma()
    y = np.asarray(y, dtype=float)
    rung = rng.geometric(params.geometric_p(eps), size=y.shape)
    rung -= 1
    denom = gamma + math.exp(-eps) * (1.0 - gamma)
    # denom underflows only when gamma ~ e^(-eps/2) ~ 0; the high step (width
    # gamma * delta ~ 0) is then the correct zero-noise limit
    p_high = gamma / denom if denom > 0 else 1.0
    u = rng.random(y.shape)
    high = u < p_high
    rng.random(out=u)
    # the low step's offsets, the high step's copied in; out= keeps a 0-d batch an array
    offset = np.multiply(u, 1.0 - gamma, out=np.empty_like(u))
    offset *= delta
    offset += gamma * delta
    u *= gamma
    u *= delta
    np.copyto(offset, u, where=high)
    negative = rng.random(out=u) < 0.5
    out = np.multiply(rung, delta, out=u)
    out += offset
    np.negative(out, out=out, where=negative)
    out += y
    return out


def discrete_staircase_sample(y, params: NoiseParams, rng: np.random.Generator):
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
    if y.dtype.kind not in "iu" and not np.all(np.equal(np.mod(y, 1), 0)):
        raise ValueError("discrete staircase requires integer-valued input")
    b, q = math.exp(-eps), params.geometric_p(eps)  # q = 1 - b
    a = q / (2 * r + 2 * b * (delta - r) - q)

    # one-sided masses: rung 0 excludes the atom at zero
    m_first = a * (r - 1) + a * b * (delta - r)
    m_rest = a * (r + b * (delta - r)) * b / q
    side = m_first + m_rest
    u = rng.random(y.size)
    nonzero = u >= a
    n_nz = int(nonzero.sum())
    if n_nz:
        u = u[:n_nz]  # the buffer of every later draw
        first = rng.random(out=u) < m_first / side
        mag = rng.geometric(q, size=n_nz)  # the rung, then the magnitude
        mag[first] = 0
        # the first rung holds r - 1 high cells past the atom, the others r
        lo_weight = b * (delta - r)
        p_first, p_rest = (w / (w + lo_weight) if w + lo_weight > 0 else 0.0
                           for w in (r - 1.0, float(r)))
        take_hi = rng.random(out=u) < np.where(first, p_first, p_rest)
        rng.random(out=u)
        u *= np.where(first, float(max(r - 1, 1)), float(r))
        offset = u.astype(np.int64)
        offset += first  # the high cells of the first rung start at 1
        take_lo = ~take_hi
        rng.random(out=u)
        u *= delta - r
        np.copyto(offset, u, casting="unsafe", where=take_lo)
        np.add(offset, r, out=offset, where=take_lo)
        mag *= delta
        mag += offset
        np.negative(mag, out=mag, where=rng.random(out=u) < 0.5)
        del u, offset  # freed before y is copied
    out = np.array(y, dtype=np.int64, order="C").reshape(-1)  # never the caller's array
    if n_nz:
        out[nonzero] += mag
    return out.reshape(y.shape)


def exponential_mechanism_sample(y, lo: float, hi: float, eps: float,
                                 rng: np.random.Generator) -> np.ndarray:
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
    check_eps(eps, positive=True)
    if hi == lo:
        return np.full(y.shape, float(lo))
    b = 2.0 * (float(hi) - float(lo)) / float(eps)
    if b == 0:  # eps = inf leaves no noise
        return y.copy()
    if b == math.inf:
        raise ValueError(f"eps {eps} too small for the range [{lo}, {hi}]: the noise scale overflows")
    below = np.subtract(lo, y, out=np.empty_like(y))
    below /= b
    np.negative(np.expm1(below, out=below), out=below)
    step = np.subtract(y, hi, out=np.empty_like(y))  # the mass above y, then the step
    step /= b
    np.negative(np.expm1(step, out=step), out=step)
    step += below
    u = rng.random(y.shape)
    u *= step
    left = u < below
    # the log1p argument is formed first, so no branch leaves its domain; the
    # clip only absorbs rounding at the ends
    np.subtract(below, u, out=step)
    np.negative(u, out=step, where=left)
    del below, u
    np.maximum(step, _LOG1P_FLOOR, out=step)
    np.log1p(step, out=step)
    step *= b
    # y - (-step) is y + step exactly, so one subtraction serves both sides
    np.negative(step, out=step, where=left)
    return np.clip(np.subtract(y, step, out=step), lo, hi, out=step)

"""Label randomization mechanisms: randomized response over bin outputs and
the additive-noise baselines (continuous/discrete Laplace, continuous/discrete
staircase, the exponential mechanism by inverse CDF, plain randomized
response).  Clipping the outputs into the label range is the pipeline's.

Every sampler draws from the numpy Generator it is given, so a seeded
Generator reproduces its output, and takes and returns arrays, drawing for a
whole batch of labels at once.  The staircase, discrete staircase and
exponential samplers draw into and combine their noise in a few buffers of
their own, never in the caller's array: one call peaks at under 3.05 times
the label array.

No sampler masks a ufunc by a per-label array (numpy's where), which on a
random mask costs about 30 times the unmasked call.  A sign flip is an XOR of
the sign bit (x ^ m - m for int64), built in the buffer the sign draw frees; a
choice of constant per label is a take from a two-entry table, over chunks of
4096 elements so that each temporary stays at 32 KiB, or its bits chosen by
integer arithmetic on the 0/1 mask where a freed buffer can hold them; a
choice of int or bool is arithmetic on 0/1 masks; and rr's wrap is a minimum
on the uint64 bits.  Each element comes out with the bits it had under the
masks, from the same draws in the same order.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .core import MechanismMatrix, as_indices, check_eps, integer_valued
if TYPE_CHECKING:
    from .binopt import BinLayout

# the double just above -1: keeps log1p finite where a side's mass rounds to 1,
# which needs eps * distance / Delta above about 70
_LOG1P_FLOOR = np.nextafter(-1.0, 0.0)

_CHUNK = 4096  # elements: an 8-byte temporary of 32 KiB
INT64_MAX = 2**63 - 1
FLOAT_MAX = float(np.finfo(float).max)
_SPAN_PAST = "eps {}: the {} span {} is past the float range"  # refused before any draw
# the bits of 1.0 and of -0.0 (the sign bit alone), as uint64
_ONE_BITS = np.array(1.0).view(np.uint64)[()]
_MINUS_ZERO_BITS = np.array(-0.0).view(np.uint64)[()]


def _chunked(fn, *arrays):
    """Call fn on each run of _CHUNK aligned elements of equal-size contiguous
    arrays, given as flat views, so that its temporaries stay small."""
    flat = [a.reshape(-1) for a in arrays]
    for i in range(0, flat[0].size, _CHUNK):
        fn(*(a[i:i + _CHUNK] for a in flat))


def _magnitude(x):
    """|x| of a number; of an array, its largest |entry| from its min and max,
    which make no temporary (0 if it is empty, NaN if it holds one)."""
    if isinstance(x, np.ndarray):
        return max(-x.min().item(), x.max().item()) if x.size else 0
    return abs(x)


def check_range(noise, label_bound, limit, message: str) -> None:
    """Refuse noise whose magnitude plus label_bound's passes limit (INT64_MAX
    or FLOAT_MAX), or is NaN, with ValueError(message.format(the noise's
    magnitude)).  The additive samplers check their scale or span before the
    draw and the drawn noise before the add.  Their label_bound defaults to
    the labels; the pipeline passes its universe, so that a refusal tells
    nothing of the labels."""
    m = _magnitude(noise)
    if not m + _magnitude(label_bound) <= limit:
        raise ValueError(message.format(m))


def _draw_signs(u, rng):
    """Draw u afresh and turn it in place into int64 -1 where it is below 1/2
    and 0 elsewhere: m gives x ^ m - m = -x, and m << 63 a float's sign bit."""
    rng.random(out=u)
    m = np.less(u, 0.5, out=u.view(np.int64))
    return np.negative(m, out=m)


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
    move = rng.random(own.shape)  # the stay draw's buffer: the 0/1 move, then out - d
    move = np.greater_equal(move, _stay_prob(eps, d), out=move.view(np.int64))
    out = rng.integers(1, d, size=own.shape)  # the hop, then the output
    out *= move
    out += own
    # out - d where out >= d: out < 2d, so as uint64 c - d wraps above c
    # exactly where c < d
    c, c_minus_d = out.view(np.uint64), move.view(np.uint64)
    np.subtract(c, d, out=c_minus_d)
    np.minimum(c, c_minus_d, out=c)
    return out


def laplace_sample(y, params: NoiseParams, rng: np.random.Generator, label_bound=None):
    """y plus continuous Laplace noise with scale sensitivity/eps."""
    eps, span, b = params.eps, params.sensitivity, params.scale
    check_range(span, 0, FLOAT_MAX, _SPAN_PAST.format(eps, "laplace", span))
    check_range(b, 0, FLOAT_MAX, f"eps {eps} too small for sensitivity {span}: "
                                 "the noise scale overflows")
    y = np.asarray(y, dtype=float)
    noise = rng.laplace(0.0, b, size=y.shape)
    check_range(noise, y if label_bound is None else label_bound, FLOAT_MAX,
                f"eps {eps} drew laplace noise of {{}} at scale {b}: the noisy labels would "
                "pass the float range")
    noise += y
    return noise


def discrete_laplace_sample(y, params: NoiseParams, rng: np.random.Generator, label_bound=None):
    """y plus discrete Laplace noise (pmf proportional to e^(-|j|/b), b =
    sensitivity/eps), sampled exactly as a difference of two geometrics, as
    int64."""
    y = integer_valued(y, "discrete laplace requires integer-valued input").astype(
        np.int64, copy=False)
    b = params.scale
    p = params.geometric_p(1.0 / b if b > 0 else math.inf)  # eps = inf leaves no noise
    noise = rng.geometric(p, size=y.shape) - rng.geometric(p, size=y.shape)
    check_range(noise, y if label_bound is None else label_bound, INT64_MAX,
                f"eps {params.eps} drew discrete laplace noise of {{}} at scale {b}: the noisy "
                "labels would pass the int64 range")
    noise += y
    return noise


def staircase_sample(y, params: NoiseParams, rng: np.random.Generator, label_bound=None):
    """y plus continuous staircase noise: geometric rung with ratio e^(-eps),
    a high/low step within the rung (widths gamma*D and (1-gamma)*D, heights
    1 : e^(-eps)), a sign, and a uniform position inside the step."""
    eps, delta = params.eps, params.sensitivity
    check_range(delta, 0, FLOAT_MAX, _SPAN_PAST.format(eps, "staircase", delta))
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
    # the in-step offset: (1-gamma)*delta wide from gamma*delta on the low
    # step, gamma*delta wide from 0 (+0.0 leaves the offset's bits) on the
    # high one
    width, start = np.array([1.0 - gamma, gamma]), np.array([gamma * delta, 0.0])

    def offset(h, x):
        x *= width.take(h)
        x *= delta
        x += start.take(h)

    _chunked(offset, high, u)
    del high
    # rung * delta + offset in the rung's own buffer: a 1-d assignment casts
    # it to float64 element by element, with no temporary
    flat = rung.reshape(-1)
    out = flat.view(np.float64)
    out[...] = flat
    out = out.reshape(y.shape)
    with np.errstate(over="ignore"):  # noise past the float range is refused below
        out *= delta
        out += u
    sign = _draw_signs(u, rng)
    sign <<= 63
    np.bitwise_xor(out.view(np.int64), sign, out=out.view(np.int64))
    check_range(out, y if label_bound is None else label_bound, FLOAT_MAX,
                f"eps {eps} drew staircase noise of {{}} at span {delta}: the noisy labels "
                "would pass the float range")
    out += y
    return out


def discrete_staircase_noise(shape, params: NoiseParams, rng: np.random.Generator,
                             label_bound=0):
    """Discrete staircase noise over the integers, an int64 array of the
    given shape, for labels bounded by label_bound as check_range reads it.

    The pmf is a(r) on |i| in [0, r), e^(-eps) a(r) on |i| in [r, Delta), and
    decays by e^(-eps) per rung of width Delta, with
    a(r) = (1-b) / (2r + 2b(Delta-r) - (1-b)) for b = e^(-eps).  A Delta
    past int64 is refused before any draw, and drawn rungs whose noise plus
    label_bound could pass int64 before any product.
    """
    eps = params.eps
    delta = int(params.sensitivity)
    if delta != params.sensitivity or delta < 2:
        raise ValueError("discrete staircase requires integer sensitivity >= 2")
    check_range(delta, 0, INT64_MAX, f"discrete staircase span {delta} is past the int64 range")
    r = params.discrete_r(delta)
    b, q = math.exp(-eps), params.geometric_p(eps)  # q = 1 - b
    a = q / (2 * r + 2 * b * (delta - r) - q)

    # one-sided masses: rung 0 excludes the atom at zero
    m_first = a * (r - 1) + a * b * (delta - r)
    m_rest = a * (r + b * (delta - r)) * b / q
    side = m_first + m_rest
    u = rng.random(math.prod(shape))
    nonzero = u >= a
    n_nz = np.count_nonzero(nonzero)
    out = u.view(np.int64)  # the output, once the draws are done with u
    if n_nz:
        u = u[:n_nz]  # the buffer of every later draw
        first = rng.random(out=u) < m_first / side
        mag = rng.geometric(q, size=n_nz)  # the rung, then the magnitude
        mag *= ~first  # the first rung is rung 0
        rung = int(mag.max())
        check_range((rung + 1) * delta - 1, label_bound, INT64_MAX,
                    f"eps {eps} drew a discrete staircase rung of {rung} at span {delta}: the "
                    "noisy labels would pass the int64 range")
        # the first rung holds r - 1 high cells past the atom, the others r
        lo_weight = b * (delta - r)
        p_first, p_rest = (w / (w + lo_weight) if w + lo_weight > 0 else 0.0
                           for w in (r - 1.0, float(r)))
        hi_width = np.array([float(r), float(max(r - 1, 1))])  # indexed by first
        rng.random(out=u)
        # u < p_first where first, u < p_rest elsewhere
        take_hi = u < p_rest
        hi_first = u < p_first
        hi_first ^= take_hi
        hi_first &= first
        take_hi ^= hi_first
        del hi_first
        # the high offset, from 1 on the first rung, in u's buffer: a 1-d
        # assignment casts each element in place
        offset = u.view(np.int64)
        rng.random(out=u)
        _chunked(lambda f, x: np.multiply(x, hi_width.take(f), out=x), first, u)
        offset[...] = u
        offset += first
        offset *= take_hi
        mag *= delta
        mag += offset
        del first
        # the low offset, from r
        rng.random(out=u)
        u *= delta - r
        offset[...] = u
        offset += r
        offset *= np.logical_not(take_hi, out=take_hi)
        mag += offset
        del take_hi
        sign = _draw_signs(u, rng)
        mag ^= sign
        mag -= sign
    out[...] = 0
    if n_nz:
        out[nonzero] = mag
    return out.reshape(shape)


def discrete_staircase_sample(y, params: NoiseParams, rng: np.random.Generator):
    """y plus discrete_staircase_noise, as int64."""
    y = integer_valued(y, "discrete staircase requires integer-valued input").astype(
        np.int64, copy=False)
    out = discrete_staircase_noise(y.shape, params, rng, y)
    out += y
    return out


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
    if y.size and not (y.min() >= lo and y.max() <= hi):  # a NaN fails both
        inside = (y >= lo) & (y <= hi)
        raise ValueError(f"input {y.flat[np.argmin(inside)]} outside the output range [{lo}, {hi}]")
    check_eps(eps, positive=True)
    if hi == lo:
        return np.full(y.shape, float(lo))
    span = float(hi) - float(lo)
    check_range(span, 0, FLOAT_MAX, _SPAN_PAST.format(eps, "exponential", span))
    b = 2.0 * span / float(eps)
    if b == 0:  # eps = inf leaves no noise
        return y.copy()
    # the outputs stay in [lo, hi], so only the scale itself must be finite
    check_range(b, 0, FLOAT_MAX, f"eps {eps} too small for the range [{lo}, {hi}]: the noise "
                                 "scale overflows")
    below = np.subtract(lo, y, out=np.empty_like(y))
    below /= b
    np.negative(np.expm1(below, out=below), out=below)
    step = np.subtract(y, hi, out=np.empty_like(y))  # the mass above y, the step, the side
    step /= b
    np.negative(np.expm1(step, out=step), out=step)
    step += below
    u = rng.random(y.shape)
    u *= step
    # step's buffer holds the side's factor, by its bits: -0.0 where u lands
    # below y, 1.0 above
    side = np.less(u, below, out=step.view(np.uint64))
    side *= _MINUS_ZERO_BITS - _ONE_BITS
    side += _ONE_BITS
    # the log1p argument is formed first, so no branch leaves its domain; the
    # clip only absorbs rounding at the ends.  It is -u below y and below - u
    # above: every cell below y has below > 0, which times -0.0 is -0.0, and
    # -0.0 - u is -u bit for bit
    below *= step
    np.subtract(below, u, out=u)
    del below
    np.maximum(u, _LOG1P_FLOOR, out=u)
    np.log1p(u, out=u)
    u *= b
    # the factor's sign bit flips the cells below y: y - (-x) is y + x
    # exactly, so one subtraction serves both sides
    side &= _MINUS_ZERO_BITS
    np.bitwise_xor(u.view(np.uint64), side, out=u.view(np.uint64))
    return np.clip(np.subtract(y, u, out=u), lo, hi, out=u)

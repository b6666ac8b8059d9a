"""Seeded uniform streams, inverse-CDF sampling for the three noise families,
and their densities and CDFs.

Everything is derived from a single uniform stream per RngStream so that sample
sequences are bit-reproducible from the seed alone.
"""
from __future__ import annotations

import numpy as np

from .core import NoiseKind

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15

# Clamp uniforms away from {0, 1} before logs; keeps inverse CDFs finite.
_U_EPS = 1e-300
_U_TOP = 1.0 - 1e-16


def _clipped_copy(u, lo: float) -> np.ndarray:
    """u clipped to [lo, _U_TOP] as a new float array (0-d for a scalar).

    The inverse CDFs below work in place on this one copy, so the caller's
    array is never written and no other trials x K temporary is made; they
    return x[()], a scalar for 0-d input and x itself otherwise.
    """
    x = np.array(u, dtype=float)
    return np.clip(x, lo, _U_TOP, out=x)


def splitmix64(z: int) -> int:
    """One SplitMix64 step: add the golden-ratio increment, then finalize-mix."""
    z = (z + _GOLDEN) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (z ^ (z >> 31)) & _MASK64


def derive_seed(base: int, *indices: int) -> int:
    """Mix a base seed with stream indices.

    Documented derivation: start from splitmix64(base) and fold in each index i
    as h = splitmix64(h XOR splitmix64(i)). Trial/cell streams derived this way
    are order-independent and statistically independent.
    """
    h = splitmix64(base & _MASK64)
    for i in indices:
        h = splitmix64(h ^ splitmix64(i & _MASK64))
    return h


class RngStream:
    """Deterministic 64-bit-seeded uniform stream (PCG64). Single-owner.

    Each uniform takes one 64-bit PCG64 output, so `skip(n)` moves the
    stream to where `uniform(n)` would leave it without drawing."""

    def __init__(self, seed: int):
        self.seed = seed & _MASK64
        self._gen = np.random.Generator(np.random.PCG64(self.seed))

    def uniform(self, size=None):
        """Uniforms in [0, 1); the only primitive every sampler consumes."""
        return self._gen.random(size)

    def skip(self, n: int) -> None:
        """Advance the stream past n uniforms, in O(log n) steps (PCG's
        jump-ahead): every later draw is as if `uniform(n)` had been drawn.
        numpy's `advance` drops the 32-bit half-output a 32-bit integer draw
        may have buffered, which uniforms leave in place; it is put back."""
        bitgen = self._gen.bit_generator
        state = bitgen.state
        bitgen.advance(n)
        if state["has_uint32"]:
            state["state"] = bitgen.state["state"]
            bitgen.state = state

    @property
    def generator(self) -> np.random.Generator:
        """Underlying generator, for bulk discrete sampling (binomial counts)."""
        return self._gen

    def index(self, k: int) -> int:
        """Uniform index in {0, ..., k-1} from one uniform draw."""
        return min(int(self.uniform() * k), k - 1)


# --- Laplace and Exponential(beta), one table ---
# At unit scale, F(x) = c + d e^-|x| and f(x) = |d| e^-|x| on each side of 0,
# PIECES[kind] = ((c, d) for x < 0, (c, d) for x >= 0). A law has mass below
# 0 exactly where its d there is not 0. This table is the one definition of
# the two laws: every pmf kernel reads it, and the inverse CDFs below are
# written independently of it, so that the samplers check it.
PIECES = {
    NoiseKind.LAPLACE: ((0.0, 0.5), (1.0, -0.5)),
    NoiseKind.EXPONENTIAL: ((0.0, 0.0), (1.0, -1.0)),
}


def laplace_ppf(u, scale: float):
    """scale * log(2u) below 1/2 and -scale * log(2(1 - u)) from 1/2 on, with
    one log of 2 min(u, 1 - u).

    With s = +1 below 1/2 and -1 from 1/2 on, s u + [u >= 1/2] is u or 1 - u,
    exact by Sterbenz's lemma, and the final product with s is an exact
    negation (also -0.0 at u = 1/2), so the result is bitwise that of the two
    formulas. Masked ufuncs (`where=`) would do the same several times slower.
    """
    x = _clipped_copy(u, _U_EPS)
    upper = (x >= 0.5).astype(np.int8)
    sign = 1 - 2 * upper
    x *= sign
    x += upper
    x *= 2.0
    np.log(x, out=x)
    x *= scale
    x *= sign
    return x[()]


def exponential_ppf(u, scale: float):
    x = _clipped_copy(u, 0.0)
    np.negative(x, out=x)
    np.log1p(x, out=x)
    x *= -scale
    return x[()]


# --- Gumbel(beta): density (1/beta) t e^-t with t = exp(-x/beta) ---
# x/beta is clamped at -700, where e^-t is already 0, so exp(-x/beta) never
# overflows.

def gumbel_pdf(x, scale: float):
    t = np.exp(-np.maximum(np.asarray(x, float) / scale, -700.0))
    return t * np.exp(-t) / scale


def gumbel_cdf(x, scale: float):
    return np.exp(-np.exp(-np.maximum(np.asarray(x, float) / scale, -700.0)))


def gumbel_ppf(u, scale: float):
    x = _clipped_copy(u, _U_EPS)
    np.log(x, out=x)
    np.negative(x, out=x)
    np.log(x, out=x)
    x *= -scale
    return x[()]


_PPF = {
    NoiseKind.LAPLACE: laplace_ppf,
    NoiseKind.EXPONENTIAL: exponential_ppf,
    NoiseKind.GUMBEL: gumbel_ppf,
}


def noise_ppf(kind: NoiseKind, u, scale: float):
    return _PPF[kind](u, scale)


def noise_pdf(kind: NoiseKind, x, scale: float):
    if kind is NoiseKind.GUMBEL:
        return gumbel_pdf(x, scale)
    (_, d_lo), (_, d_hi) = PIECES[kind]
    z = np.asarray(x, float) / scale
    return np.where(z < 0.0, abs(d_lo), abs(d_hi)) * np.exp(-np.abs(z)) / scale


def noise_cdf(kind: NoiseKind, x, scale: float):
    """A `PIECES` law's F is c + d e^z below 0, and F(0) + d expm1(-z) from 0
    on, which keeps full relative accuracy where Exponential's F is near 0.
    Both sides take e^-|z|, which never overflows, so both are evaluated on
    the whole input and `np.where` picks each value's side; a scalar gives a
    scalar."""
    if kind is NoiseKind.GUMBEL:
        return gumbel_cdf(x, scale)
    (c_lo, d_lo), (c_hi, d_hi) = PIECES[kind]
    z = np.asarray(x, float) / scale
    tail = -np.abs(z)
    return np.where(z < 0.0, c_lo + d_lo * np.exp(tail), (c_hi + d_hi) + d_hi * np.expm1(tail))[()]

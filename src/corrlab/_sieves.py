"""Sieve kernels producing dense arithmetic-function value arrays.

All kernels share the same indexing convention: position ``i`` of the output
array holds the value at the integer ``n = i + 1``.  Every kind except Λ is a
rule on the exponents in n = ∏ p^e and comes from one factor pass, the
multiplicative-function sieve of Crandall & Pomerance, *Prime Numbers: A
Computational Perspective*, ch. 3.
"""

from __future__ import annotations

import math

import numpy as np


def primes_upto(span: int) -> np.ndarray:
    """All primes <= span, via the sieve of Eratosthenes."""
    flags = np.ones(span + 1, dtype=bool)  # flags[n] <=> n prime
    flags[:2] = False
    for p in range(2, math.isqrt(span) + 1):
        if flags[p]:
            flags[p * p :: p] = False
    return np.nonzero(flags)[0]


def _factor_pass(span: int, rule, combine=np.multiply) -> np.ndarray:
    """Fold ``rule(p, e)`` over n = ∏ p^e for every n <= span.

    ``combine`` is ``np.multiply`` for multiplicative functions and ``np.add``
    for additive ones.  For each prime p <= √span the pass builds the exponent
    of p in each multiple of p, folds rule(p, e) into those entries through a
    lookup over e, and divides p^e out of ``rest``.  What is left of ``rest``
    is 1 or a single prime P > √span, which contributes rule(P, 1); ``rule``
    must therefore also accept an array of primes at e = 1.
    """
    out = np.full(span, combine.identity, dtype=np.int64)
    # int32 halves the memory and the division time of rest where it fits.
    rest = np.arange(1, span + 1, dtype=np.int32 if span < 2**31 else np.int64)
    for p in primes_upto(math.isqrt(span)).tolist():
        e = np.ones(span // p, dtype=np.intp)  # e[j] = exponent of p in (j+1)p
        rest[p - 1 :: p] //= p
        top, q = 1, p * p
        while q <= span:
            e[q // p - 1 :: q // p] += 1
            rest[q - 1 :: q] //= p
            top, q = top + 1, q * p
        lookup = np.array([rule(p, k) for k in range(top + 1)], dtype=np.int64)
        seg = out[p - 1 :: p]
        combine(seg, lookup[e], out=seg)
    combine(out, rule(rest, 1), out=out, where=rest > 1)
    return out


def constant_one(span: int) -> np.ndarray:
    return np.ones(span, dtype=np.int64)


def divisor_tower(span: int, order: int) -> np.ndarray:
    """d_l values: the number of ordered l-tuples multiplying to n."""
    return _factor_pass(span, lambda p, e: math.comb(e + order - 1, order - 1))


def euler_phi(span: int) -> np.ndarray:
    """Euler totient, p^(e-1)(p-1) per prime power."""
    # At e = 1, p is the array of leftover primes: skip the p ** 0 temporary.
    return _factor_pass(
        span, lambda p, e: (p - 1) * p ** (e - 1) if e > 1 else p - 1
    )


def mu_squared(span: int) -> np.ndarray:
    """Squarefree indicator: one exactly when every exponent is below 2."""
    return _factor_pass(span, lambda p, e: int(e < 2))


def big_omega(span: int) -> np.ndarray:
    """Number of prime factors with multiplicity."""
    return _factor_pass(span, lambda p, e: e, np.add)


def liouville(span: int) -> np.ndarray:
    """(-1)^[number of prime factors with multiplicity]."""
    return _factor_pass(span, lambda p, e: (-1) ** e)


def von_mangoldt(span: int) -> np.ndarray:
    """log p at prime powers p^k, zero elsewhere."""
    lam = np.zeros(span, dtype=np.float64)
    for p in primes_upto(span).tolist():
        logp = math.log(p)
        q = p
        while q <= span:
            lam[q - 1] = logp
            q *= p
    return lam


def master_upsilon(span: int) -> np.ndarray:
    """log n on integers with exactly two prime factors (with multiplicity)."""
    om = big_omega(span)
    logs = np.log(np.arange(1, span + 1, dtype=np.float64))
    return np.where(om == 2, logs, 0.0)

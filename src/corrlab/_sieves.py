"""Sieve kernels producing dense arithmetic-function value arrays.

All kernels share the same indexing convention: position ``i`` of the output
array holds the value at the integer ``n = i + 1``.  Every kind except Λ and
μ² is a rule on the exponents in n = ∏ p^e and comes from one factor pass, the
multiplicative-function sieve of Crandall & Pomerance, *Prime Numbers: A
Computational Perspective*, ch. 3.  The pass is segmented (Bays & Hudson,
*BIT* 17, 1977): it sieves n in windows of ``_WINDOW`` entries, and instead
of dividing each prime power out of n it multiplies the small prime powers
of n into a ``smooth`` product, then divides once per n to find the one
prime above √span that may be left.
"""

from __future__ import annotations

import math

import numpy as np

# Entries per window of the factor pass.  On a 4 MiB L2, 2¹⁶-entry windows
# spend their time in per-prime Python calls.  2²⁰ builds φ at 10⁷ about
# 20 % faster than 2¹⁸ but is slower at 10⁶, and its larger freed
# temporaries lift glibc's mmap threshold, which raised the peak RSS of a
# later 10⁷ workload by 10 MiB.
_WINDOW = 1 << 18


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
    for additive ones.  ``rule`` must also accept an array of primes at
    e = 1.  The lookup rule(p, 0..top) of each prime p <= √span is built
    once; :func:`_fold_window` then folds the lookups into one window of
    ``_WINDOW`` entries at a time and multiplies the small prime powers of
    each n into a ``smooth`` product instead of dividing them out, so no
    temporary spans the whole range (the segmented sieve of Bays & Hudson,
    *BIT* 17, 1977).
    """
    out = np.empty(span, dtype=np.int64)
    lookups = []
    for p in primes_upto(math.isqrt(span)).tolist():
        top, q = 1, p * p
        while q <= span:
            top, q = top + 1, q * p
        lookups.append((p, np.array([rule(p, k) for k in range(top + 1)], np.int64)))
    for lo in range(0, span, _WINDOW):
        _fold_window(out[lo : lo + _WINDOW], lo, lookups, rule, combine)
    return out


def _fold_window(win: np.ndarray, lo: int, lookups, rule, combine) -> None:
    """Write the factor pass's values for n = lo + 1 .. lo + win.size to win.

    For each prime p, ``vals`` starts at rule(p, 1) on the window's
    multiples of p, and the strides of p², p³, ... overwrite it with
    rule(p, k) on the multiples of p^k, so it holds rule(p, e) for the
    exponent e of p in each multiple; it is folded into win, and p^e is
    multiplied into ``smooth``.  Then n // smooth, one division per n, is 1
    or the single prime P > √span that divides n, which contributes
    rule(P, 1).
    """
    size = win.size
    # smooth divides n, so it fits int32 wherever n does.
    small = np.int32 if lo + size < 2**31 else np.int64
    win.fill(combine.identity)
    smooth = np.ones(size, dtype=small)
    for p, lookup in lookups:
        first = -(lo + 1) % p  # index of the window's first multiple of p
        vals = np.full(len(range(first, size, p)), lookup[1])
        smooth[first::p] *= p
        q, k = p * p, 2
        while (at := -(lo + 1) % q) < size:  # the window holds a multiple of q
            vals[(at - first) // p :: q // p] = lookup[k]
            smooth[at::q] *= p
            q, k = q * p, k + 1
        seg = win[first::p]
        combine(seg, vals, out=seg)
    rest = np.floor_divide(
        np.arange(lo + 1, lo + size + 1, dtype=small), smooth, out=smooth
    )
    # rule(rest, 1) where rest > 1 and the identity elsewhere, in arithmetic:
    # a ufunc masked by rest > 1 branches unpredictably and is 5x slower.
    ident = combine.identity
    combine(win, (rest > 1) * (rule(rest, 1) - ident) + ident, out=win)


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
    """Squarefree indicator: zero on the multiples of every square p²."""
    out = np.ones(span, dtype=np.int64)
    for p in primes_upto(math.isqrt(span)).tolist():
        out[p * p - 1 :: p * p] = 0
    return out


def big_omega(span: int) -> np.ndarray:
    """Number of prime factors with multiplicity."""
    return _factor_pass(span, lambda p, e: e, np.add)


def liouville(span: int) -> np.ndarray:
    """(-1)^[number of prime factors with multiplicity]."""
    return _factor_pass(span, lambda p, e: (-1) ** e)


def von_mangoldt(span: int) -> np.ndarray:
    """log p at prime powers p^k, zero elsewhere."""
    lam = np.zeros(span, dtype=np.float64)
    primes = primes_upto(span)
    # math.log, not np.log: the two differ in the last ulp on some primes.
    logs = np.fromiter(map(math.log, primes.tolist()), np.float64, primes.size)
    lam[primes - 1] = logs
    small = primes <= math.isqrt(span)
    for p, logp in zip(primes[small].tolist(), logs[small].tolist()):
        q = p * p
        while q <= span:
            lam[q - 1] = logp
            q *= p
    return lam


def master_upsilon(span: int) -> np.ndarray:
    """log n on integers with exactly two prime factors (with multiplicity)."""
    support = np.flatnonzero(big_omega(span) == 2)  # n - 1 for each such n
    out = np.zeros(span, dtype=np.float64)
    out[support] = np.log(support + 1.0)
    return out

"""Sieves producing dense arithmetic-function value arrays.

Position ``i`` of an output array holds the value at the integer ``n = i + 1``.
:func:`sieve` is the one loop: it walks the span in windows of ``_WINDOW``
entries (the segmented sieve of Bays & Hudson, *BIT* 17, 1977) and hands
each window, a view of the output, to its kind's filler.  A filler writes
n = lo + 1 .. lo + size from state built once from the primes <= √span, so
no temporary spans the whole range.  Λ and Υ are float64; every integer kind
is written in the narrowest signed dtype that holds the square of a bound on
max|f| proved before sieving, so no product of two entries wraps.

- d_l, φ, λ and Ω are rules on the exponents in n = ∏ p^e and share one
  factor pass, the multiplicative-function sieve of Crandall & Pomerance,
  *Prime Numbers: A Computational Perspective*, ch. 3 (:func:`_fold_window`).
- Λ is a segmented prime sieve: the multiples of each prime p <= √span are
  crossed off from p², what is left is prime, and the prime powers p^k >= p²
  are written from a list.
- μ² zeroes the window's multiples of every p².
- Υ folds a window of Ω into the window's own bytes and writes log n where
  Ω(n) = 2.
"""

from __future__ import annotations

import math
from functools import partial

import numpy as np

from ._accum import narrowest_int

# Entries per window.  On a 4 MiB L2, 2¹⁶-entry windows spend their time in
# per-prime Python calls.  2²⁰ builds φ at 10⁷ about 20 % faster than 2¹⁸
# but is slower at 10⁶, and its larger freed temporaries lift glibc's mmap
# threshold, which raised the peak RSS of a later 10⁷ workload by 10 MiB.
_WINDOW = 1 << 18

# rule(p, e) and how rules combine, for the kinds the factor pass builds.
# Every rule(p, 1) must be affine in p, as the pass forms the leftover
# prime's rule(P, 1) in place from rule(2, 1) and rule(3, 1);
# :func:`_factor_filler` refuses a rule that is not.
_RULES = {
    "eulerphi": (lambda p, e: (p - 1) * p ** (e - 1), np.multiply),
    "liouville": (lambda p, e: (-1) ** e, np.multiply),
    "bigomega": (lambda p, e: e, np.add),
}


def primes_upto(span: int) -> np.ndarray:
    """All primes <= span, via the sieve of Eratosthenes."""
    flags = np.ones(span + 1, dtype=bool)  # flags[n] <=> n prime
    flags[:2] = False
    for p in range(2, math.isqrt(span) + 1):
        if flags[p]:
            flags[p * p :: p] = False
    return np.nonzero(flags)[0]


def sieve(name: str, order: int, span: int) -> np.ndarray:
    """f(1..span) for the kind labelled ``name`` (a ``Variant`` value;
    ``order`` is the divisor tower's height): float64 for Λ and Υ, and for
    every integer kind the narrowest signed dtype that holds max|f|², so
    no product of two entries wraps (:func:`_exact_dtype`).
    """
    primes = primes_upto(math.isqrt(span)).tolist()
    # Made before any filler's window buffers.  Made after them, the output
    # kept them resident once freed (glibc's heap layout): `corrlab claims`
    # peaked about 6.5 MiB higher per thread.
    if name in ("vonmangoldt", "masterupsilon"):
        out = np.empty(span, dtype=np.float64)
    else:
        out = np.empty(span, dtype=_exact_dtype(name, order, span))
    if name == "divisor":
        rule = lambda p, e: math.comb(e + order - 1, order - 1)
        fill, _ = _factor_filler(span, primes, rule, np.multiply)
    elif name in _RULES:
        fill, _ = _factor_filler(span, primes, *_RULES[name])
    elif name == "one":
        fill = lambda win, lo: win.fill(1)
    elif name == "musquared":
        fill = partial(_squarefree_window, [p * p for p in primes])
    elif name == "vonmangoldt":
        fill = _prime_power_filler(span, primes)
    elif name == "masterupsilon":
        omega, buffers = _factor_filler(span, primes, *_RULES["bigomega"])
        fill = partial(_semiprime_window, omega, buffers)
    for lo in range(0, span, _WINDOW):
        fill(out[lo : lo + _WINDOW], lo)
    return out


def _exact_dtype(name: str, order: int, span: int) -> type:
    """The :func:`narrowest_int` that holds peak², for a bound ``peak`` on
    max|f| over 1..span known before sieving, so the product of two entries
    never wraps: |μ²|, |λ| and 1 are at most 1, Ω(n) <= log₂ n, φ(n) <= n,
    and d_l peaks at :func:`_divisor_peak`."""
    if name == "divisor":
        peak = _divisor_peak(order, span)
    elif name == "eulerphi":
        peak = span
    elif name == "bigomega":
        peak = span.bit_length() - 1
    else:
        peak = 1
    return narrowest_int((peak * peak).bit_length())


def _divisor_peak(order: int, span: int) -> int:
    """The largest d_order(n) over n <= span, exactly.

    rule(p, e) = C(e + order − 1, order − 1) depends on e alone, so moving
    n's exponents, largest first, onto 2, 3, 5, … keeps d and does not raise
    n: the peak lies at some n = 2^e₁·3^e₂·5^e₃⋯ with e₁ >= e₂ >= ⋯, and
    the walk tries every such n <= span.  Such an n has at most
    b = span.bit_length() primes, and the first b primes lie below b² + 2.
    """
    b = span.bit_length()
    primes = primes_upto(b * b + 2).tolist()
    # n, d_order(n), the index of n's next prime and that prime's largest e.
    peak, stack = 1, [(1, 1, 0, b)]
    while stack:
        n, d, i, top = stack.pop()
        peak = max(peak, d)
        for e in range(1, top + 1):
            n *= primes[i]
            if n > span:
                break
            stack.append((n, d * math.comb(e + order - 1, order - 1), i + 1, e))
    return peak


def _factor_filler(span: int, primes: list[int], rule, combine):
    """The factor pass's filler and the buffers it reuses in every window:
    ``combine`` is ``np.multiply`` for multiplicative functions and
    ``np.add`` for additive ones.  The lookup rule(p, 0..top) of each prime
    p <= √span, where p^top <= span < p^(top+1), is built once, and so are
    the buffers, so no window hands its temporaries back to the OS and
    faults them in again.  They belong to this sieve call, so sieves on
    other threads never share them.
    """
    lookups = []
    for p in primes:
        top, q = 1, p * p
        while q <= span:
            top, q = top + 1, q * p
        lookups.append((p, np.array([rule(p, k) for k in range(top + 1)], np.int64)))
    slope = rule(3, 1) - rule(2, 1)
    offset = rule(2, 1) - 2 * slope
    if rule(5, 1) != 5 * slope + offset:
        raise ValueError("the factor pass needs rule(p, 1) affine in p")
    size = min(span, _WINDOW)
    # smooth divides n, so it fits int32 wherever n does; vals also holds
    # every rule(p, e) and rule(P, 1), which for d_l pass 2³¹ at spans
    # near 2¹⁹ (d_17(2¹⁹) = C(35, 16)).
    reach = max(
        [span + 1, abs(slope) * span + abs(offset) + 1]
        + [int(np.abs(lookup).max()) for _, lookup in lookups]
    )
    small = np.int32 if span < 2**31 else np.int64
    wide = np.int32 if reach < 2**31 else np.int64
    buffers = (
        np.arange(1, size + 1, dtype=small),  # ramp: n − lo
        np.empty(size, dtype=small),  # smooth, then n // smooth
        np.empty(size, dtype=wide),  # vals, then n, then the tail's values
        np.empty(size, dtype=bool),  # n // smooth > 1
    )
    fill = partial(
        _fold_window,
        lookups=lookups,
        tail=(slope, offset),
        combine=combine,
        buffers=buffers,
    )
    return fill, buffers


def _fold_window(win: np.ndarray, lo: int, lookups, tail, combine, buffers) -> None:
    """Write the factor pass's values for n = lo + 1 .. lo + win.size to win.

    For each prime p, ``vals`` starts at rule(p, 1) on the window's
    multiples of p, and the strides of p², p³, ... overwrite it with
    rule(p, k) on the multiples of p^k, so it holds rule(p, e) for the
    exponent e of p in each multiple; it is folded into win, and p^e is
    multiplied into ``smooth`` instead of divided out of n.  Then
    n // smooth, one division per n, is 1 or the single prime P > √span
    that divides n, which contributes rule(P, 1) = slope·P + offset, with
    ``tail`` = (slope, offset).  Every array but win is a view of
    :func:`_factor_filler`'s ``buffers``.
    """
    size = win.size
    ramp, smooth, scratch, big = (b[:size] for b in buffers)
    win.fill(combine.identity)
    smooth.fill(1)
    for p, lookup in lookups:
        first = -(lo + 1) % p  # index of the window's first multiple of p
        vals = scratch[: len(range(first, size, p))]
        vals.fill(lookup[1])
        smooth[first::p] *= p
        q, k = p * p, 2
        while (at := -(lo + 1) % q) < size:  # the window holds a multiple of q
            vals[(at - first) // p :: q // p] = lookup[k]
            smooth[at::q] *= p
            q, k = q * p, k + 1
        seg = win[first::p]
        combine(seg, vals, out=seg)
    rest = np.floor_divide(np.add(ramp, lo, out=scratch), smooth, out=smooth)
    # rule(rest, 1) where rest > 1 and the identity elsewhere, in arithmetic:
    # a ufunc masked by rest > 1 branches unpredictably and is 5x slower.
    slope, offset = tail
    vals = np.multiply(rest, slope, out=scratch)
    vals += offset - combine.identity
    vals *= np.greater(rest, 1, out=big)
    vals += combine.identity
    combine(win, vals, out=win)


def _squarefree_window(squares: list[int], win: np.ndarray, lo: int) -> None:
    """μ²: one, then zero on the window's multiples of each p² <= span."""
    win.fill(1)
    for q in squares:
        win[-(lo + 1) % q :: q] = 0


def _prime_power_filler(span: int, primes: list[int]):
    """Λ's filler: log p at the prime powers p^k, zero elsewhere.  The prime
    powers p^k >= p² <= span and their logs are listed once, and the flags
    of each window's primes reuse one buffer, made after the output."""
    powers, logs = [], []
    for p in primes:
        q = p * p
        while q <= span:
            powers.append(q)
            logs.append(math.log(p))
            q *= p
    powers, logs = np.array(powers, dtype=np.int64), np.array(logs)
    is_prime = np.empty(min(span, _WINDOW), dtype=bool)

    def fill(win: np.ndarray, lo: int) -> None:
        flags = is_prime[: win.size]  # flags[i] <=> lo + 1 + i is prime
        flags.fill(True)
        if lo == 0:
            flags[0] = False  # n = 1
        for p in primes:
            flags[max(p * p, lo + 1 + -(lo + 1) % p) - lo - 1 :: p] = False
        at = np.flatnonzero(flags)
        win.fill(0.0)
        # math.log, not np.log: the two differ in the last ulp on some primes.
        win[at] = np.fromiter(map(math.log, (at + lo + 1).tolist()), np.float64, at.size)
        hit = (powers > lo) & (powers <= lo + win.size)
        win[powers[hit] - lo - 1] = logs[hit]

    return fill


def _semiprime_window(omega, buffers, win: np.ndarray, lo: int) -> None:
    """Υ: log n where Ω(n) = 2, zero elsewhere.  The window of Ω is folded
    into win's own bytes, viewed as int64, before the logs replace it; the
    ramp n − lo and the flag array are ``buffers``, the Ω pass's own."""
    big_omega = win.view(np.int64)
    omega(big_omega, lo)
    ramp, _, _, semi = (b[: win.size] for b in buffers)
    np.equal(big_omega, 2, out=semi)
    logs = np.add(ramp, lo, out=win, dtype=np.float64)
    np.log(logs, out=logs)
    logs *= semi

"""Transfer and Markov operators over the inverse branches of G, F and D.

Transfer operators weight the two preimages by |derivative|^(-q); with
integer q and rational points everything stays exact.  The Markov
operators average over the branches x/(1+x) and x+1 of G (apply_letter
0 and 1, the one branch step the package uses) with either fair weights
(chain 0) or the weights 1/(1+x), x/(1+x) (chain 1), whose boundary
values make 0 and infinity absorbing.  That chain definition (the names,
the branch step and the integer weights) lives in core, so the walk
kernel in stochastic steps the chains without loading this module.

The chain weights are integers over their sum: (1, 1) over 2 for MC0 and
(q, p) over p+q for MC1 at x = p/q.  An ExtRat value reads as its
Fraction.  A value is exact iff it is an instance of int or Fraction (a
bool is one); when every value f gives is exact, markov_apply,
averaging_apply and commutator_residual put the weighted values over one
denominator of Python ints and reduce once.  A value is complex iff it is
a Python complex or a numpy complex scalar, and reads as complex(v); any
other value reads as float(v).  Inexact values are scaled by the weight
and summed by _sum_terms.  markov_power walks the 2^n branch words depth
first and sums f as it goes, so it holds O(n) words, not 2^n.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain
from math import fsum, inf, isfinite, nan

from .core import CAPS, Caps, DomainError, ExtRat, _check_chain, _int_weights, check_cap

TRANSFER_KINDS = ("G", "dyadic", "farey")
_EXACT = (int, Fraction)  # isinstance of these: the values the integer-weight path takes
_BLOCK = 4096  # terms a _Sum holds before it folds them into its float sums


def _weighting(x, q):
    """(point, exponent, exact) for the weights |slope|^-q at x: x as a
    Fraction if rational, else a float; exact iff x is rational and q
    integral, and then the exponent is q as an int, else float(q)."""
    if isinstance(x, ExtRat):
        if x.is_infinite:
            raise DomainError("operators act at finite points")
        x = x.as_fraction()
    if not isinstance(x, _EXACT):
        return float(x), float(q), False
    if isinstance(q, Fraction) and q.denominator == 1 or isinstance(q, float) and q.is_integer():
        q = int(q)
    if isinstance(q, int):
        return Fraction(x), q, True
    return Fraction(x), float(q), False


def _power(base, e, exact: bool):
    # base^e with e possibly negative; exact rational when asked
    if exact:
        return Fraction(base) ** e
    return float(base) ** e


def _value(v):
    if isinstance(v, ExtRat):
        return v.as_fraction()
    return v


def _is_complex(v) -> bool:
    """A Python complex (np.complex128 is one) or a numpy complex scalar."""
    return isinstance(v, complex) or getattr(getattr(v, "dtype", None), "kind", None) == "c"


def _expansion(xs: list) -> list:
    """A few floats with the math.fsum of xs: an exact expansion of the
    finite floats, plus one each of the nan, inf and -inf among xs."""
    try:
        hi = fsum(xs)
    except ValueError:  # inf + -inf
        hi = nan
    specials = []
    if not isfinite(hi):
        odd = [x for x in xs if not isfinite(x)]
        specials = [v for v in (inf, -inf) if v in odd] + [nan] * any(x != x for x in odd)
        xs = [x for x in xs if isfinite(x)]
        hi = fsum(xs)
    parts = []
    while hi:  # each residual is below half an ulp of the part before it
        parts.append(hi)
        hi = fsum(chain(xs, [-p for p in parts]))
    return parts + specials


class _Sum:
    """One-pass sum of terms: exact while every term is an int or a Fraction.

    Terms are taken in blocks of _BLOCK.  A block adds to the exact sum
    while every term so far is rational.  The exact sum is a balanced
    tree of additions in leaf order: a block sums its terms pairwise, and
    the i-th block's subtotal merges with the subtotal of the 2^j blocks
    before it for each trailing zero bit j of i, the earlier sibling
    first.  So operands grow like a balanced tree's nodes, not like a
    running sum, and at most log2(blocks) + 1 subtotals wait.  Its real
    parts (float(t), or complex(t).real for complex t) and imaginary parts
    are folded into exact float expansions, so a float or complex result
    is math.fsum of all the parts, exactly rounded, in O(_BLOCK) memory.
    A conversion or overflow error waits until result() needs the float
    sums.  Partial sums that leave the float range raise OverflowError as
    in math.fsum; at that edge the two may differ in which term triggers
    it, or in which of two due errors is raised.
    """

    __slots__ = ("exact", "count", "is_complex", "pending", "re", "im", "error")

    def __init__(self):
        self.exact = []  # waiting subtotals; None once a term is not an int or a Fraction
        self.count = 0
        self.is_complex = False
        self.pending = []
        self.re = []
        self.im = []
        self.error = None

    def add(self, t) -> None:
        if len(self.pending) == _BLOCK:
            self._fold(last=False)
        self.pending.append(_value(t))

    def _fold(self, last: bool) -> None:
        terms, self.pending = self.pending, []
        rational = all(isinstance(t, _EXACT) for t in terms)
        if self.exact is not None:
            if rational:
                total = _pairwise(terms)
                self.count += 1
                i = self.count
                while not i & 1:  # a binary counter over the blocks
                    total = self.exact.pop() + total
                    i >>= 1
                self.exact.append(total)
                if last:
                    return
            else:
                self.exact = None
        if self.error is not None:
            return  # result() raises it unless every term is exact
        re, im = self.re, self.im
        try:
            for t in terms:
                if not rational and _is_complex(t):
                    self.is_complex = True
                    t = complex(t)
                    re.append(t.real)
                    im.append(t.imag)
                else:
                    re.append(float(t))
            self.re, self.im = _expansion(re), _expansion(im)
        except (OverflowError, TypeError, ValueError) as exc:
            self.error = exc

    def result(self):
        """The exact sum (a Fraction) if every term was rational, else the
        exactly rounded complex sum if a term was complex, else the float sum."""
        self._fold(last=True)
        if self.exact is not None:
            total = Fraction(0)
            for s in reversed(self.exact):
                total = s + total
            return total
        if self.error is not None:
            raise self.error
        if self.is_complex:
            return complex(fsum(self.re), fsum(self.im))
        return fsum(self.re)


def _pairwise(xs: list):
    """Sum of xs, adding neighbours level by level."""
    while len(xs) > 1:
        xs = [a + b for a, b in zip(xs[0::2], xs[1::2])] + xs[len(xs) & ~1:]
    return xs[0] if xs else 0


def _sum_terms(terms):
    acc = _Sum()
    for t in terms:
        acc.add(t)
    return acc.result()


def transfer_apply(kind: str, q, f, x):
    """Two-branch transfer operator at x: sum of f(preimage) / |slope|^q.

    Kinds: "G" uses the branches of the slow Euclid map on [0, inf),
    "dyadic" the halves of doubling, "farey" the branches of the Farey
    map on [0, 1].  Exact rational arithmetic whenever q is an integer
    and both x and f's values are rational.
    """
    pt, qq, exact = _weighting(x, q)
    if kind == "G":
        w0 = _power(1 + pt, -2 * qq, exact)
        return _sum_terms([_scale(w0, f(pt / (1 + pt))), f(pt + 1)])
    if kind == "dyadic":
        w = _power(2, -qq, exact)
        half = Fraction(1, 2) if isinstance(pt, Fraction) else 0.5
        return _sum_terms([_scale(w, f(pt / 2)), _scale(w, f(pt / 2 + half))])
    if kind == "farey":
        if pt == 2:
            raise DomainError("branch singularity at x = 2")
        w0 = _power(1 + pt, -2 * qq, exact)
        w1 = _power(2 - pt, -2 * qq, exact)
        return _sum_terms([_scale(w0, f(pt / (1 + pt))), _scale(w1, f(1 / (2 - pt)))])
    raise DomainError(f"unknown transfer kind {kind!r}; one of {TRANSFER_KINDS}")


def lewis_zagier_residual(f, q, x):
    """f(x) - f(x+1) - (1+x)^(-2q) f(x/(1+x)); zero iff f solves the
    three-term functional equation at x."""
    pt, qq, exact = _weighting(x, q)
    w = _power(1 + pt, -2 * qq, exact)
    return _sum_terms([f(pt), -_value(f(pt + 1)), -_scale(w, f(pt / (1 + pt)))])


def transition_probs(kind: str, x: ExtRat) -> tuple[Fraction, Fraction]:
    """Exact branch weights (p(0,x), p(1,x)); they always sum to 1.

    Chain MC0 is the fair coin; MC1 weights 1/(1+x) and x/(1+x), which
    at the endpoints make 0 and infinity absorbing.
    """
    w0, w1 = _int_weights(kind, x.num, x.den)
    return Fraction(w0, w0 + w1), Fraction(w1, w0 + w1)


def _scale(w, v):
    """v weighed by w (a Fraction, or a float for inexact transfer weights)."""
    v = _value(v)
    if isinstance(v, _EXACT):
        return w * v
    if _is_complex(v):
        return complex(float(w)) * complex(v)
    return float(w) * float(v)


def _markov_mean(w0: int, v0, w1: int, v1):
    """(w0 v0 + w1 v1) / (w0 + w1); a zero-weight branch's value is ignored.

    Two exact values (ints or Fractions) go over one denominator and make
    one Fraction, reduced once.
    """
    if isinstance(v0, _EXACT) and isinstance(v1, _EXACT):
        b0, b1 = v0.denominator, v1.denominator
        return Fraction(w0 * v0.numerator * b1 + w1 * v1.numerator * b0, b0 * b1 * (w0 + w1))
    return _sum_terms([_scale(Fraction(w, w0 + w1), v) for w, v in ((w0, v0), (w1, v1)) if w])


def _average(a, b):
    if isinstance(a, _EXACT) and isinstance(b, _EXACT):
        return _markov_mean(1, a, 1, b)
    return _sum_terms([a, b]) / 2


def markov_apply(kind: str, f, x: ExtRat):
    """One application of the chain's averaging operator at x.

    Zero-weight branches are skipped, so absorption at the endpoints
    needs no special casing in f.
    """
    p, q = x.num, x.den
    w0, w1 = _int_weights(kind, p, q)
    # the branches of apply_letter: p/(p+q) and (p+q)/q
    v0 = f(ExtRat._raw(p, p + q)) if w0 else 0
    v1 = f(ExtRat._raw(p + q, q)) if w1 else 0
    return _markov_mean(w0, v0, w1, v1)


def _cw_leaves(p: int, q: int, n: int):
    """Yield the end points (p', q') of the 2^n n-letter branch words from
    p/q in word order (letter 0 first): the depth-n Calkin-Wilf subtree
    rooted at p/q, walked depth first with one pending sibling a level."""
    stack = [(p, q, n)]
    pop, push = stack.pop, stack.append
    while stack:
        p, q, k = pop()
        while k:
            k -= 1
            s = p + q
            push((s, q, k))
            q = s
        yield p, q


def markov_power(kind: str, f, x: ExtRat, n: int, caps: Caps = CAPS):
    """Exact n-step expectation E_x[f(W_n)] over all 2^n branch words.

    The words are walked depth first and f is summed as they come, so
    memory is O(n) words plus one _Sum.  An MC1 word's weight telescopes:
    letter 0 keeps p and sends q to s = p+q with weight q/s, letter 1
    keeps q and sends p to s with weight p/s, so each step weighs
    p q / (p' q') and the word from x = p/q to p_n/q_n weighs
    p q / (p_n q_n).  At 0 and infinity one word has all the weight.
    """
    if n < 0:
        raise DomainError("n must be nonnegative")
    check_cap(caps, "power", n, "operator power")
    _check_chain(kind)
    acc = _Sum()
    if kind == "MC0":
        for p, q in _cw_leaves(x.num, x.den, n):
            acc.add(f(ExtRat._raw(p, q)))
        return _scale(Fraction(1, 1 << n), acc.result())  # float(2^-n) is exact
    pq = x.num * x.den
    if not pq:
        return _sum_terms([_scale(Fraction(1), f(x))])
    for p, q in _cw_leaves(x.num, x.den, n):
        v = f(ExtRat._raw(p, q))
        if isinstance(v, _EXACT):
            acc.add(Fraction(pq * v.numerator, p * q * v.denominator))
        else:
            acc.add(_scale(Fraction(pq, p * q), v))
    return acc.result()


def averaging_apply(f, x: ExtRat):
    """(f(x) + f(1/x)) / 2, with 1/0 and 1/infinity the two endpoints."""
    return _average(f(x), f(x.reciprocal()))


def commutator_residual(kind: str, f, x: ExtRat):
    """(P A - A P) f at x; vanishes because the chains are 1/x-symmetric.

    f is called as markov_apply and averaging_apply composed call it, on
    the branches y0 = p/(p+q), y1 = (p+q)/q of x = p/q and z0 = q/(p+q),
    z1 = (p+q)/p of 1/x, skipping zero-weight branches.  When every value
    is exact, the eight weighted values go over one denominator, 2 s t,
    where the weights w0, w1 at x sum to s and u0, u1 at 1/x to t.
    """
    p, q = x.num, x.den
    w0, w1 = _int_weights(kind, p, q)
    u0, u1 = _int_weights(kind, q, p)
    r = p + q
    # P A f: at each branch y of x, the pair (f(y), f(1/y)) that A averages
    a0 = (f(ExtRat._raw(p, r)), f(ExtRat._raw(r, p))) if w0 else (0, 0)
    a1 = (f(ExtRat._raw(r, q)), f(ExtRat._raw(q, r))) if w1 else (0, 0)
    # A P f: P f at x and at 1/x
    v0 = f(ExtRat._raw(p, r)) if w0 else 0
    v1 = f(ExtRat._raw(r, q)) if w1 else 0
    z0 = f(ExtRat._raw(q, r)) if u0 else 0
    z1 = f(ExtRat._raw(r, p)) if u1 else 0
    s, t = w0 + w1, u0 + u1
    weights = (w0 * t, w0 * t, w1 * t, w1 * t, -w0 * t, -w1 * t, -u0 * s, -u1 * s)
    num, den = 0, 1
    for w, v in zip(weights, (*a0, *a1, v0, v1, z0, z1)):
        if not isinstance(v, _EXACT):
            break
        b = v.denominator
        num, den = num * b + w * v.numerator * den, den * b
    else:
        return Fraction(num, 2 * s * t * den)
    lhs = _markov_mean(w0, _average(*a0), w1, _average(*a1))
    return lhs - _average(_markov_mean(w0, v0, w1, v1), _markov_mean(u0, z0, u1, z1))


def harmonic_series_partial(kind: str, h, x: ExtRat, n_terms: int):
    """Partial sum of the harmonic reproducing series at x, plus its tail weight.

    Term k weighs h((x+k)/(x+k+1)) by 2^-(k+1) for chain 0 and by
    x/((x+k)(x+k+1)) for chain 1; the unplayed tail carries 2^-N,
    respectively x/(x+N).  For bounded harmonic h the partial sums
    converge to h(x) (chain 1 needs x > 0).
    """
    if x.is_infinite:
        raise DomainError("the series expands around finite x")
    if n_terms < 1:
        raise DomainError("need at least one term")
    _check_chain(kind)
    p, q = x.num, x.den
    terms = []
    for k in range(n_terms):
        arg = ExtRat(p + k * q, p + (k + 1) * q)
        if kind == "MC0":
            w = Fraction(1, 1 << (k + 1))
        else:
            w = Fraction(p * q, (p + k * q) * (p + (k + 1) * q)) if p else Fraction(0)
        terms.append(_scale(w, h(arg)))
    tail = Fraction(1, 1 << n_terms) if kind == "MC0" else Fraction(p, p + n_terms * q)
    return _sum_terms(terms), tail


def h1(x: ExtRat) -> int:
    """Indicator of the two absorbing states 0 and infinity.

    Together with the constant 1 it spans the bounded harmonic
    functions of chain 1; it is harmonic pointwise because both
    endpoints are fixed by their only positive-weight branch.
    """
    return 1 if x.is_zero or x.is_infinite else 0

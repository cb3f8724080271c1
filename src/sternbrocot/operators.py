"""Transfer and Markov operators over the inverse branches of G, F and D.

Transfer operators weight the two preimages by |derivative|^(-q); with
integer q and rational points everything stays exact.  The Markov
operators average over the branches x/(1+x) and x+1 of G (apply_letter
0 and 1, the one branch step the package uses) with either fair weights
(chain 0) or the weights 1/(1+x), x/(1+x) (chain 1), whose boundary
values make 0 and infinity absorbing.
"""

from __future__ import annotations

from fractions import Fraction
from math import fsum

from .core import CAPS, Caps, DomainError, ExtRat, check_cap

TRANSFER_KINDS = ("G", "dyadic", "farey")
CHAIN_KINDS = ("MC0", "MC1")


def _point(x):
    if isinstance(x, ExtRat):
        if x.is_infinite:
            raise DomainError("operators act at finite points")
        return x.as_fraction()
    if isinstance(x, (int, Fraction)):
        return Fraction(x)
    return float(x)


def _integer_q(q):
    if isinstance(q, int):
        return q
    if isinstance(q, Fraction) and q.denominator == 1:
        return q.numerator
    if isinstance(q, float) and q.is_integer():
        return int(q)
    return None


def _power(base, e, exact: bool):
    # base^e with e possibly negative; exact rational when asked
    if exact:
        return Fraction(base) ** e
    return float(base) ** e


def _value(v):
    if isinstance(v, ExtRat):
        return v.as_fraction()
    return v


def _sum_terms(terms: list):
    terms = [_value(t) for t in terms]
    if all(isinstance(t, (int, Fraction)) for t in terms):
        return sum(terms, Fraction(0))
    if any(isinstance(t, complex) for t in terms):
        vals = [complex(t) for t in terms]
        return complex(fsum(v.real for v in vals), fsum(v.imag for v in vals))
    return fsum(float(t) for t in terms)


def transfer_apply(kind: str, q, f, x):
    """Two-branch transfer operator at x: sum of f(preimage) / |slope|^q.

    Kinds: "G" uses the branches of the slow Euclid map on [0, inf),
    "dyadic" the halves of doubling, "farey" the branches of the Farey
    map on [0, 1].  Exact rational arithmetic whenever q is an integer
    and both x and f's values are rational.
    """
    pt = _point(x)
    qi = _integer_q(q)
    exact = qi is not None and isinstance(pt, Fraction)
    qq = qi if exact else float(q)
    if kind == "G":
        w0 = _power(1 + pt, -2 * qq, exact)
        return _sum_terms([w0 * f(pt / (1 + pt)), f(pt + 1)])
    if kind == "dyadic":
        w = _power(2, -qq, exact)
        half = Fraction(1, 2) if isinstance(pt, Fraction) else 0.5
        return _sum_terms([w * f(pt / 2), w * f(pt / 2 + half)])
    if kind == "farey":
        if pt == 2:
            raise DomainError("branch singularity at x = 2")
        w0 = _power(1 + pt, -2 * qq, exact)
        w1 = _power(2 - pt, -2 * qq, exact)
        return _sum_terms([w0 * f(pt / (1 + pt)), w1 * f(1 / (2 - pt))])
    raise DomainError(f"unknown transfer kind {kind!r}; one of {TRANSFER_KINDS}")


def lewis_zagier_residual(f, q, x):
    """f(x) - f(x+1) - (1+x)^(-2q) f(x/(1+x)); zero iff f solves the
    three-term functional equation at x."""
    pt = _point(x)
    qi = _integer_q(q)
    exact = qi is not None and isinstance(pt, Fraction)
    w = _power(1 + pt, -2 * (qi if exact else float(q)), exact)
    return _sum_terms([f(pt), -f(pt + 1), -(w * f(pt / (1 + pt)))])


def apply_letter(x: ExtRat, letter: int) -> ExtRat:
    """G-branch step on [0, inf]: letter 0 sends p/q to p/(p+q), 1 to (p+q)/q."""
    # both images are already in lowest terms: gcd(p, p+q) = gcd(p, q)
    if letter == 0:
        return ExtRat._raw(x.num, x.num + x.den)
    return ExtRat._raw(x.num + x.den, x.den)


def transition_probs(kind: str, x: ExtRat) -> tuple[Fraction, Fraction]:
    """Exact branch weights (p(0,x), p(1,x)); they always sum to 1.

    Chain MC0 is the fair coin; MC1 weights 1/(1+x) and x/(1+x), which
    at the endpoints make 0 and infinity absorbing.
    """
    if kind == "MC0":
        return Fraction(1, 2), Fraction(1, 2)
    if kind == "MC1":
        p, q = x.num, x.den
        return Fraction(q, p + q), Fraction(p, p + q)
    raise DomainError(f"unknown chain {kind!r}; one of {CHAIN_KINDS}")


def _scale(w: Fraction, v):
    v = _value(v)
    if isinstance(v, (int, Fraction)):
        return w * v
    if isinstance(v, complex):
        return complex(float(w)) * v
    return float(w) * v


def markov_apply(kind: str, f, x: ExtRat):
    """One application of the chain's averaging operator at x.

    Zero-weight branches are skipped, so absorption at the endpoints
    needs no special casing in f.
    """
    p0, p1 = transition_probs(kind, x)
    terms = []
    if p0:
        terms.append(_scale(p0, f(apply_letter(x, 0))))
    if p1:
        terms.append(_scale(p1, f(apply_letter(x, 1))))
    return _sum_terms(terms)


def markov_power(kind: str, f, x: ExtRat, n: int, caps: Caps = CAPS):
    """Exact n-step expectation E_x[f(W_n)] over all 2^n branch words."""
    if n < 0:
        raise DomainError("n must be nonnegative")
    check_cap(caps, "power", n, "operator power")
    if kind == "MC0":
        frontier = [(x.num, x.den)]
        for _ in range(n):
            nxt = []
            push = nxt.append
            for p, q in frontier:
                s = p + q
                push((p, s))
                push((s, q))
            frontier = nxt
        vals = [f(ExtRat._raw(p, q)) for p, q in frontier]
        total = _sum_terms(vals)
        w = Fraction(1, 1 << n)
        return _scale(w, total) if not isinstance(total, float) else total / (1 << n)
    if kind != "MC1":
        raise DomainError(f"unknown chain {kind!r}; one of {CHAIN_KINDS}")
    weighted = [(x, Fraction(1))]
    for _ in range(n):
        nxt = []
        for y, w in weighted:
            p0, p1 = transition_probs(kind, y)
            if p0:
                nxt.append((apply_letter(y, 0), w * p0))
            if p1:
                nxt.append((apply_letter(y, 1), w * p1))
        weighted = nxt
    return _sum_terms([_scale(w, f(y)) for y, w in weighted])


def averaging_apply(f, x: ExtRat):
    """(f(x) + f(1/x)) / 2, with 1/0 and 1/infinity the two endpoints."""
    s = _sum_terms([f(x), f(x.reciprocal())])
    return s / 2


def commutator_residual(kind: str, f, x: ExtRat):
    """(P A - A P) f at x; vanishes because the chains are 1/x-symmetric."""
    pa = markov_apply(kind, lambda y: averaging_apply(f, y), x)
    ap = averaging_apply(lambda y: markov_apply(kind, f, y), x)
    return pa - ap


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
    if kind not in CHAIN_KINDS:
        raise DomainError(f"unknown chain {kind!r}; one of {CHAIN_KINDS}")
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

"""The one-pass exact kernels against the list-building versions they replaced.

Each reference below is the earlier implementation, kept verbatim in
substance: rho summed one shifted integer per partial sum of the
continued fraction, depth and rank summed the cf_from_rat list, hat
multiplied out the reversed word, parents read the columns of the
word's matrix, matrix_from_word multiplied one 2x2 product per letter,
pi_code and word_from_rat joined blocks over the list, code_compare
walked letter by letter, the Markov step and the commutator put
(weight, value) tuples over one denominator, and Dyadic added through
its generic _combine.  The digit-string kernels replaced loops too:
_bit_reverse shifted one digit at a time, binary_digits took one divmod
a digit and odometer_value summed that tuple, and rho_inv read both
binary expansions of its dyadic through groupby, then cross-checked
the two.  Results are compared exactly:
(num, exp), (num, den), Fraction values, float reprs, or the type and
text of the exception raised.
"""

import random
import time
import tracemalloc
from dataclasses import replace
from fractions import Fraction
from itertools import accumulate, groupby

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from sternbrocot.coding import (
    InfiniteCode,
    code_compare,
    hat,
    matrix_from_word,
    parents,
    pi_code,
    rat_from_matrix,
    word_from_rat,
)
from sternbrocot.core import (
    CAPS, UNSAFE_CAPS, CapExceeded, DomainError, ExtRat, INF, ONE, ZERO, _cf_value, _int_weights,
    apply_letter, cf_from_rat, check_cap, depth, phi, phi_inv, rank,
)
from sternbrocot.maps import (
    StackInterval, _bit_reverse, _need_unit, binary_digits, odometer_value, stack_interval,
)
from sternbrocot.minkowski import Dyadic, _check_unit, qmark, qmark_inv, rho, rho_inv
from sternbrocot.operators import _EXACT, _scale, _sum_terms, commutator_residual, h1, markov_apply
from sternbrocot.trees import TreeSpec, descendants


# ---------------------------------------------------------------- references

def ref_rho(x, caps=CAPS):
    if x.is_infinite:
        return Dyadic(1)
    cf = cf_from_rat(x)
    if cf == [0]:
        return Dyadic(0)
    sums = list(accumulate(cf))
    total = sums[-1]
    check_cap(caps, "exp", total, "dyadic bits")
    num = (1 << total) - sum((-1 if k % 2 else 1) << (total - s) for k, s in enumerate(sums))
    return Dyadic(num, total)


def ref_depth(x):
    if x.is_infinite or x.is_zero:
        return 0
    return sum(cf_from_rat(x))


def ref_rank(x):
    if x.is_infinite or x > ONE:
        raise DomainError("rank is defined on [0, 1]")
    if x.is_zero or x == ONE:
        return 0
    return ref_depth(x) - 1


def _ref_blocks(exps):
    return "".join(("R" if i % 2 == 0 else "L") * e for i, e in enumerate(exps))


def ref_word_from_rat(x, caps=CAPS):
    terms = cf_from_rat(x)
    if terms == [0]:
        raise DomainError("zero is an ancestor, not a vertex")
    check_cap(caps, "exp", sum(terms), "word depth")
    return _ref_blocks([*terms[:-1], terms[-1] - 1])


def ref_mat_mul(m, n):
    a, b, c, d = m
    e, f, g, h = n
    return (a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h)


def ref_matrix_from_word(word, caps=CAPS):
    check_cap(caps, "exp", len(word), "word length")
    m = (1, 0, 0, 1)
    for ch in word:
        if ch == "L":
            m = ref_mat_mul(m, (1, 0, 1, 1))
        elif ch == "R":
            m = ref_mat_mul(m, (1, 1, 0, 1))
        else:
            raise DomainError(f"bad letter {ch!r}")
    return m


# The references build the whole word, so they take the lifted caps.exp;
# hat and parents build none and have no cap.

def ref_hat(x):
    return rat_from_matrix(ref_matrix_from_word(ref_word_from_rat(x, UNSAFE_CAPS)[::-1], UNSAFE_CAPS))


def ref_parents(x):
    a, b, c, d = ref_matrix_from_word(ref_word_from_rat(x, UNSAFE_CAPS), UNSAFE_CAPS)
    return ExtRat(b, d), ExtRat(a, c)


def ref_pi_code(x):
    if x.is_infinite:
        return InfiniteCode("", "R")
    if x.is_zero:
        return InfiniteCode("", "L")
    terms = cf_from_rat(x)
    check_cap(CAPS, "exp", sum(terms), "word depth")
    tail = "L" if (len(terms) - 1) % 2 == 0 else "R"
    return InfiniteCode(_ref_blocks(terms), tail)


def ref_code_compare(c1, c2):
    span = max(len(c1.prefix), len(c2.prefix)) + 1
    for i in range(span):
        a, b = c1.letter(i), c2.letter(i)
        if a != b:
            return -1 if a == "L" else 1
    return 0


def _ref_exact_mean(pairs, total):
    num, den = 0, 1
    for w, v in pairs:
        if type(v) not in _EXACT:
            return None
        b = v.denominator
        num, den = num * b + w * v.numerator * den, den * b
    return Fraction(num, den * total)


def _ref_markov_mean(w0, v0, w1, v1):
    mean = _ref_exact_mean(((w0, v0), (w1, v1)), w0 + w1)
    if mean is None:
        return _sum_terms([_scale(Fraction(w, w0 + w1), v) for w, v in ((w0, v0), (w1, v1)) if w])
    return mean


def _ref_average(a, b):
    mean = _ref_exact_mean(((1, a), (1, b)), 2)
    return _sum_terms([a, b]) / 2 if mean is None else mean


def _ref_branches(kind, f, x):
    w0, w1 = _int_weights(kind, x.num, x.den)
    return w0, f(apply_letter(x, 0)) if w0 else 0, w1, f(apply_letter(x, 1)) if w1 else 0


def ref_markov_apply(kind, f, x):
    return _ref_markov_mean(*_ref_branches(kind, f, x))


def ref_commutator_residual(kind, f, x):
    w0, a0, w1, a1 = _ref_branches(kind, lambda y: (f(y), f(y.reciprocal())), x)
    a0, a1 = a0 or (0, 0), a1 or (0, 0)
    px, prx = _ref_branches(kind, f, x), _ref_branches(kind, f, x.reciprocal())
    s, t = w0 + w1, prx[0] + prx[2]
    terms = [(w0 * t, a0[0]), (w0 * t, a0[1]), (w1 * t, a1[0]), (w1 * t, a1[1]),
             (-w0 * t, px[1]), (-w1 * t, px[3]), (-prx[0] * s, prx[1]), (-prx[2] * s, prx[3])]
    mean = _ref_exact_mean(terms, 2 * s * t)
    if mean is None:
        lhs = _ref_markov_mean(w0, _ref_average(*a0), w1, _ref_average(*a1))
        return lhs - _ref_average(_ref_markov_mean(*px), _ref_markov_mean(*prx))
    return mean


def ref_dyadic_add(a, b):
    m = max(a.exp, b.exp)
    return Dyadic((a.num << (m - a.exp)) + (b.num << (m - b.exp)), m)


def ref_bit_reverse(v, n):
    out = 0
    for _ in range(n):
        out = (out << 1) | (v & 1)
        v >>= 1
    return out


def _ref_rho_runs(digits):
    runs = [0] if digits and digits[0] == "0" else []
    runs.extend(sum(1 for _ in g) for _, g in groupby(digits))
    return runs


def ref_rho_inv(d, caps=CAPS):
    _check_unit(d, caps)
    if d.num == 0:
        return ZERO
    if d == Dyadic(1):
        return INF
    # the terminating expansion, and the one ending in ones: the digits of num - 1, then 1s
    a = _cf_value(_ref_rho_runs(format(d.num, f"0{d.exp}b")))
    b = _cf_value(_ref_rho_runs(format(d.num - 1, f"0{d.exp}b")))
    if a != b:
        raise RuntimeError(f"binary readings of {d} disagree: {a} vs {b}")
    return a


def ref_qmark_inv(d, caps=CAPS):
    return phi(ref_rho_inv(d, caps))


def ref_binary_digits(x, m):
    _need_unit(x, "binary_digits")
    if x == ONE:
        return (1,) * m
    p, q = x.num, x.den
    out = []
    for _ in range(m):
        p *= 2
        b, p = divmod(p, q)
        out.append(b)
    return tuple(out)


def ref_odometer_value(x, m, map="T"):
    if m < 1:
        raise DomainError("need at least one digit")
    if map == "T":
        bits = ref_binary_digits(x, m)
    elif map == "S":
        bits = ref_binary_digits(qmark(x).as_extrat(), m)
    else:
        raise DomainError("the odometer picture applies to T and S")
    return sum(b << j for j, b in enumerate(bits))


def ref_stack_interval(family, i, n, caps=CAPS):
    if family not in ("A", "B", "C"):
        raise DomainError("family is A, B or C")
    check_cap(caps, "exp", n, "stack stage")
    if n < 0 or not 1 <= i <= 1 << n:
        raise DomainError(f"stack level {i} outside 1..2^{n}")
    lo = Dyadic(ref_bit_reverse(i - 1, n), n)
    hi = Dyadic(ref_bit_reverse(i - 1, n) + 1, n)
    if family == "A":
        return StackInterval(family, i, n, lo.as_extrat(), hi.as_extrat())
    blo, bhi = ref_qmark_inv(lo, caps), ref_qmark_inv(hi, caps)
    if family == "B":
        return StackInterval(family, i, n, blo, bhi)
    return StackInterval(family, i, n, phi_inv(blo), phi_inv(bhi))


# ---------------------------------------------------------------- inputs

def fib_ratio(bits):
    """F(n)/F(n+1) for the first n with F(n+1) of the given bit length:
    all partial quotients 1, the longest expansion for its size."""
    a, b = 1, 1
    while b.bit_length() < bits:
        a, b = b, a + b
    return ExtRat(a, b)


def _exact_bits(bits):
    return st.integers(1 << (bits - 1), (1 << bits) - 1)


points = st.one_of(
    st.sampled_from([ZERO, ONE, INF]),
    st.integers(1, 1 << 70).map(ExtRat),
    st.integers(1, 1 << 20).map(lambda q: ExtRat(1, q)),
    st.integers(1, 8192).map(fib_ratio),
    st.tuples(st.integers(1, 4096).flatmap(_exact_bits), st.integers(1, 4096).flatmap(_exact_bits))
    .map(lambda pq: ExtRat(*pq)),
)


def _near_bits(bits):
    return st.tuples(_exact_bits(bits), st.integers(max(1, bits - 16), bits + 16).flatmap(_exact_bits))


# Points whose words have at most 2^21 letters: the references build their
# words whole, so a point like 2^40 would ask them for a string of 2^40
# letters.  Past caps.exp = 2^16 both sides raise the same CapExceeded.
coded_points = st.one_of(
    st.sampled_from([ZERO, ONE, INF]),
    st.integers(1, 1 << 21).map(ExtRat),
    st.integers(1, 1 << 20).map(lambda q: ExtRat(1, q)),
    st.integers(1, 8192).map(fib_ratio),
    st.integers(1, 4096).flatmap(_near_bits).map(lambda pq: ExtRat(*pq)),
).filter(lambda x: depth(x) <= 1 << 21)

# Points of depth at most 2^13, so the references' words stay cheap to multiply out.
SHORT = 1 << 13
short_points = st.one_of(
    st.sampled_from([ZERO, ONE, INF]),
    st.integers(1, SHORT).map(ExtRat),
    st.integers(1, SHORT).map(lambda q: ExtRat(1, q)),
    st.integers(1, 4096).map(fib_ratio),
    st.integers(1, 1024).flatmap(_near_bits).map(lambda pq: ExtRat(*pq)),
).filter(lambda x: depth(x) <= SHORT)

# 65536 and 65537 sit on either side of the default caps.exp
EDGES = [ZERO, ONE, INF, ExtRat(2), ExtRat(7), ExtRat(1, 2), ExtRat(2, 5), ExtRat(355, 113),
         ExtRat(1, 1 << 16), ExtRat(1, (1 << 16) + 1), ExtRat(1 << 16), ExtRat((1 << 16) + 1),
         ExtRat(1, 1 << 20), fib_ratio(64), fib_ratio(1024), fib_ratio(8192)]
EDGE_IDS = [f"{x.num.bit_length()}b/{x.den.bit_length()}b" if x.num > 1 << 20 else str(x)
            for x in EDGES]


def outcome(fn, *args):
    """The result in a form compared exactly, or the exception's type and text."""
    try:
        v = fn(*args)
    except (ArithmeticError, TypeError, ValueError) as exc:
        return type(exc), str(exc)
    if isinstance(v, Dyadic):
        return "Dyadic", v.num, v.exp
    if isinstance(v, ExtRat):
        return "ExtRat", v.num, v.den
    if isinstance(v, InfiniteCode):
        return "InfiniteCode", v.prefix, v.tail
    if isinstance(v, StackInterval):
        return "StackInterval", v.family, v.i, v.n, outcome(lambda: v.lo), outcome(lambda: v.hi)
    if isinstance(v, tuple):
        return tuple, tuple(map(type, v)), v
    if isinstance(v, (float, complex)):
        return type(v), repr(v)
    return type(v), v


# ---------------------------------------------------------------- ? and rho

WIDE = replace(CAPS, exp=1 << 21)  # every 1/q of the inputs, q <= 2^20, fits


class TestRho:
    @pytest.mark.parametrize("x", EDGES, ids=EDGE_IDS)
    @pytest.mark.parametrize("caps", [CAPS, WIDE, UNSAFE_CAPS], ids=["caps", "wide", "unsafe"])
    def test_edges(self, x, caps):
        assert outcome(rho, x, caps) == outcome(ref_rho, x, caps)

    @settings(deadline=None)
    @given(points)
    def test_default_caps(self, x):
        assert outcome(rho, x) == outcome(ref_rho, x)

    @settings(deadline=None)
    @given(points)
    def test_wide_caps(self, x):
        assert outcome(rho, x, WIDE) == outcome(ref_rho, x, WIDE)

    @settings(deadline=None)
    @given(points)
    def test_qmark_on_the_unit_interval(self, x):
        # ? = rho o phi^-1, and phi^-1 of y/(1+y) is y: cover [0, 1] through phi
        y = ExtRat(x.num, x.num + x.den)
        assert outcome(qmark, y) == outcome(lambda z: ref_rho(ExtRat(z.num, z.den - z.num)), y)

    @settings(deadline=None)
    @given(points)
    def test_exactly_at_the_cap(self, x):
        # the exponent is depth(x), so a cap of depth(x) admits it and one less does not
        n = depth(x)
        assume(n <= WIDE.exp)
        d = rho(x, replace(CAPS, exp=n))
        assert d.num % 2 == 1 or d.exp == 0  # the form Dyadic._raw requires
        if n:
            assert outcome(rho, x, replace(CAPS, exp=n - 1))[0] is CapExceeded

    def test_cap_raises_before_any_large_integer(self):
        x = ExtRat(1, 1 << 24)
        want = outcome(ref_rho, x)
        tracemalloc.start()
        try:
            got = outcome(rho, x)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert got == want and want[0] is CapExceeded
        assert peak < 1 << 20


# ---------------------------------------------------------------- depth, rank

class TestDepthRank:
    @pytest.mark.parametrize("x", EDGES, ids=EDGE_IDS)
    def test_edges(self, x):
        assert outcome(depth, x) == outcome(ref_depth, x)
        assert outcome(rank, x) == outcome(ref_rank, x)

    @settings(deadline=None)
    @given(points)
    def test_depth(self, x):
        assert outcome(depth, x) == outcome(ref_depth, x)

    @settings(deadline=None)
    @given(points)
    def test_rank(self, x):
        assert outcome(rank, x) == outcome(ref_rank, x)
        unit = ExtRat(x.num, x.num + x.den)
        assert outcome(rank, unit) == outcome(ref_rank, unit)


# ---------------------------------------------------------------- codings

class TestCodings:
    @pytest.mark.parametrize("x", EDGES, ids=EDGE_IDS)
    def test_edges(self, x):
        for fn, ref in ((word_from_rat, ref_word_from_rat), (pi_code, ref_pi_code)):
            assert outcome(fn, x) == outcome(ref, x), fn.__name__
        if depth(x) <= SHORT:
            for fn, ref in ((hat, ref_hat), (parents, ref_parents)):
                assert outcome(fn, x) == outcome(ref, x), fn.__name__
        else:  # the deep edges, by involution and by depth
            assert hat(hat(x)) == x and depth(hat(x)) == depth(x)
            lo, hi = parents(x)
            assert lo < x < hi and ExtRat(lo.num + hi.num, lo.den + hi.den) == x
            assert max(depth(lo), depth(hi)) == depth(x) - 1

    @settings(deadline=None)
    @given(short_points)
    def test_hat(self, x):
        assert outcome(hat, x) == outcome(ref_hat, x)

    @settings(deadline=None)
    @given(short_points)
    def test_parents(self, x):
        assert outcome(parents, x) == outcome(ref_parents, x)

    # (x, hat(x), parents(x), children in the Stern-Brocot tree) for words of
    # 1025, 1999 and 2^42 - 1 letters: n and 1/n have the one-block words
    # R^(n-1) and L^(n-1), which reversal fixes
    DEEP = [
        (ExtRat(1, 1026), ExtRat(1, 1026), (ZERO, ExtRat(1, 1025)), (ExtRat(1, 1027), ExtRat(2, 2051))),
        (ExtRat(2000), ExtRat(2000), (ExtRat(1999), INF), (ExtRat(3999, 2), ExtRat(2001))),
        (ExtRat(1 << 42), ExtRat(1 << 42), (ExtRat((1 << 42) - 1), INF),
         (ExtRat((1 << 43) - 1, 2), ExtRat((1 << 42) + 1))),
    ]

    def test_hat_builds_no_word(self):
        # nor do parents and descendants
        for x, *want in self.DEEP:
            tracemalloc.start()
            try:
                got = [hat(x), parents(x), descendants(TreeSpec("sb"), x)]
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert got == want and peak < 1 << 16, x

    @settings(deadline=None)
    @given(coded_points)
    def test_word_and_code(self, x):
        assert outcome(word_from_rat, x) == outcome(ref_word_from_rat, x)
        assert outcome(pi_code, x) == outcome(ref_pi_code, x)

    @given(st.text("LRX", max_size=40))
    def test_matrix_from_word(self, word):
        assert outcome(matrix_from_word, word) == outcome(ref_matrix_from_word, word)

    # words of 2^16 - 1, 2^16 and 2^16 + 1 letters, on both sides of caps.exp;
    # a few blocks each, so the reference's entries grow linearly
    CAP = 1 << 16
    EDGE_WORDS = {
        "R65535": "R" * (CAP - 1), "L65536": "L" * CAP, "R65537": "R" * (CAP + 1),
        "L100-R65435-L": "L" * 100 + "R" * (CAP - 101) + "L", "RL50-R65436": "RL" * 50 + "R" * (CAP - 100),
        "LR-L65535": "LR" + "L" * (CAP - 1), "R65536-X": "R" * CAP + "X", "R65535-X": "R" * (CAP - 1) + "X",
    }

    @pytest.mark.parametrize("word", EDGE_WORDS.values(), ids=EDGE_WORDS.keys())
    def test_matrix_from_word_cap_edge(self, word):
        assert outcome(matrix_from_word, word) == outcome(ref_matrix_from_word, word)

    def test_hat_word_cap_edge(self):
        # depths n and n + 1 (words of n - 1 and n letters) on both sides of
        # caps.exp = 2^16: hat builds no word, so it has no cap
        for n in (1, 2, self.CAP - 2, self.CAP - 1, self.CAP, self.CAP + 1, self.CAP + 2):
            for x in (ExtRat(n), ExtRat(1, n + 1)):
                assert outcome(hat, x) == outcome(ref_hat, x), n

    codes = st.builds(InfiniteCode, st.text("LR", max_size=40), st.sampled_from(["L", "R"]))

    @given(codes, codes)
    @example(InfiniteCode("", "L"), InfiniteCode("", "L"))
    @example(InfiniteCode("R", "L"), InfiniteCode("RL", "L"))
    def test_code_compare(self, c1, c2):
        assert code_compare(c1, c2) == ref_code_compare(c1, c2)

    @settings(deadline=None)
    @given(coded_points, coded_points)
    def test_code_compare_on_points(self, x, y):
        c1, c2 = pi_code(x, WIDE), pi_code(y, WIDE)  # depths up to 2^21
        assert code_compare(c1, c2) == ref_code_compare(c1, c2)


# ---------------------------------------------------------------- Markov step

_TWO_THIRDS = Fraction(2, 3)
FUNCTIONS = {
    "const": lambda y: _TWO_THIRDS,
    "one": lambda y: 1,
    "h1": h1,
    "phi": lambda y: Fraction(y.num, y.num + y.den),
    "mixed": lambda y: y.num % 5 if y.den % 2 else Fraction(y.den % 7, 3),
    "float": lambda y: (y.num % 11) / 7.0,
    "extrat": lambda y: y if y.den else ONE,
}


class TestMarkovStep:
    @pytest.mark.parametrize("kind", ["MC0", "MC1"])
    @pytest.mark.parametrize("name", FUNCTIONS)
    @pytest.mark.parametrize("x", EDGES, ids=EDGE_IDS)
    def test_edges(self, kind, name, x):
        f = FUNCTIONS[name]
        assert outcome(markov_apply, kind, f, x) == outcome(ref_markov_apply, kind, f, x)
        assert outcome(commutator_residual, kind, f, x) == outcome(ref_commutator_residual, kind, f, x)

    @settings(deadline=None)
    @given(st.sampled_from(["MC0", "MC1", "MC2"]), st.sampled_from(sorted(FUNCTIONS)), points)
    def test_markov_apply(self, kind, name, x):
        f = FUNCTIONS[name]
        assert outcome(markov_apply, kind, f, x) == outcome(ref_markov_apply, kind, f, x)

    @settings(deadline=None)
    @given(st.sampled_from(["MC0", "MC1", "MC2"]), st.sampled_from(sorted(FUNCTIONS)), points)
    def test_commutator_residual(self, kind, name, x):
        f = FUNCTIONS[name]
        assert outcome(commutator_residual, kind, f, x) == outcome(ref_commutator_residual, kind, f, x)

    @pytest.mark.parametrize("kind", ["MC0", "MC1"])
    def test_calls_f_in_the_same_order(self, kind):
        for x in EDGES:
            seen, ref_seen = [], []
            commutator_residual(kind, lambda y: seen.append((y.num, y.den)) or 1, x)
            ref_commutator_residual(kind, lambda y: ref_seen.append((y.num, y.den)) or 1, x)
            assert seen == ref_seen


# ---------------------------------------------------------------- Dyadic

dyadics = st.builds(Dyadic, st.integers(-(1 << 80), 1 << 80), st.integers(0, 90))


class TestDyadic:
    @given(dyadics, dyadics)
    def test_add_and_eq(self, a, b):
        s, want = a + b, ref_dyadic_add(a, b)
        assert (s.num, s.exp) == (want.num, want.exp)
        assert (a == b) == ((a.num, a.exp) == (b.num, b.exp)) == (a.as_fraction() == b.as_fraction())

    @given(st.integers(-(1 << 80), 1 << 80), st.integers(0, 90))
    def test_raw_matches_the_normal_form(self, num, exp):
        d = Dyadic(num, exp)
        raw = Dyadic._raw(d.num, d.exp)
        assert raw == d and (raw.num, raw.exp) == (d.num, d.exp) and hash(raw) == hash(d)
        with pytest.raises(AttributeError):
            raw.num = 1


# ---------------------------------------------------------------- digit strings

# digit counts on either side of a machine word, the odometer's 12 and the default caps.exp
NS = [0, 1, 12, 62, 63, 1024, 1 << 16]


def _random_bits(n):
    return st.integers(0, 2 ** 32).map(lambda seed: random.Random(seed).getrandbits(n))


def _random_dyadic(exp):
    return _random_bits(exp).map(lambda num: Dyadic(num, exp))


DYADIC_EDGES = [Dyadic(0), Dyadic(1), Dyadic(1, 1), Dyadic(3, 2), Dyadic(1, 1 << 16),
                Dyadic((1 << (1 << 16)) - 1, 1 << 16), Dyadic(1, (1 << 16) + 1),
                Dyadic(int("10" * (1 << 15), 2), 1 << 16), rho(fib_ratio(8192)),
                Dyadic(3, 1), Dyadic(-1, 2)]

# dyadics of up to 2^16 bits: the cap, and one past it
dyadics_in_reach = st.one_of(
    st.sampled_from(DYADIC_EDGES),
    st.integers(0, 90).flatmap(_random_dyadic),
    st.integers(0, (1 << 16) + 1).flatmap(_random_dyadic),
)

unit_points = st.one_of(
    st.sampled_from([ZERO, ONE, INF, ExtRat(2), ExtRat(1, 2), ExtRat(1, 3), ExtRat(2, 3),
                     ExtRat(1, 1 << 16), fib_ratio(1024)]),
    st.tuples(st.integers(0, 1 << 64), st.integers(1, 1 << 64))
    .map(lambda pq: ExtRat(min(pq), max(pq))),
    st.integers(0, 4096).flatmap(_random_dyadic).map(Dyadic.as_extrat),
)


class TestDigitStrings:
    @pytest.mark.parametrize("n", NS)
    @settings(deadline=None, max_examples=10)
    @given(st.data())
    def test_bit_reverse(self, n, data):
        v = data.draw(st.one_of(st.sampled_from([0, (1 << n) - 1, 1 << n >> 1]), _random_bits(n)))
        assert outcome(_bit_reverse, v, n) == outcome(ref_bit_reverse, v, n)

    @settings(deadline=None, max_examples=40)
    @given(dyadics_in_reach)
    def test_rho_inv_and_qmark_inv(self, d):
        assert outcome(rho_inv, d) == outcome(ref_rho_inv, d)
        assert outcome(qmark_inv, d) == outcome(ref_qmark_inv, d)

    @pytest.mark.parametrize("d", DYADIC_EDGES, ids=lambda d: f"{d.num.bit_length()}b/2^{d.exp}")
    def test_rho_inv_edges_under_lifted_caps(self, d):
        assert outcome(rho_inv, d, UNSAFE_CAPS) == outcome(ref_rho_inv, d, UNSAFE_CAPS)

    @pytest.mark.parametrize("m", [-1, *NS])
    @settings(deadline=None, max_examples=10)
    @given(unit_points)
    def test_binary_digits(self, m, x):
        assert outcome(binary_digits, x, m) == outcome(ref_binary_digits, x, m)

    @pytest.mark.parametrize("map", ["T", "S", "R"])
    @pytest.mark.parametrize("m", [-1, *NS])
    @settings(deadline=None, max_examples=10)
    @given(unit_points)
    def test_odometer_value(self, map, m, x):
        assert outcome(odometer_value, x, m, map) == outcome(ref_odometer_value, x, m, map)

    @pytest.mark.parametrize("family", ["A", "B", "C", "D"])
    @pytest.mark.parametrize("n", [-1, *NS, (1 << 16) + 1])
    @settings(deadline=None, max_examples=4)
    @given(st.data())
    def test_stack_interval(self, family, n, data):
        i = data.draw(st.one_of(st.sampled_from([0, 1, 2, 1 << n, (1 << n) + 1] if n >= 0 else [1]),
                                _random_bits(max(n, 0)).map(lambda b: b + 1)))
        assert outcome(stack_interval, family, i, n) == outcome(ref_stack_interval, family, i, n)

    def test_digit_count_cap_raises_before_any_digit(self):
        # m = 2^40 would ask for a 2^40-bit integer; caps.exp refuses it first
        x, m = ExtRat(1, 3), 1 << 40
        tracemalloc.start()
        try:
            got = [outcome(binary_digits, x, m), outcome(odometer_value, x, m, "T"),
                   outcome(odometer_value, x, m, "S")]
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert all(g == (CapExceeded, "digit count 1099511627776 above the cap 65536 "
                        "(caps.exp: --unsafe-cap lifts it to 1048576)") for g in got)
        assert peak < 1 << 16
        m = CAPS.exp + 1
        assert outcome(binary_digits, x, m)[0] is CapExceeded
        assert binary_digits(x, m, UNSAFE_CAPS) == ref_binary_digits(x, m)
        assert odometer_value(x, m, "T", UNSAFE_CAPS) == ref_odometer_value(x, m)

    def test_stack_interval_time_is_linear_in_the_stage(self):
        # the loop reversal took about 0.2 s here
        n = 1 << 16
        for i in (1, 12345, 1 << n):
            start = time.perf_counter()
            stack_interval("A", i, n)
            elapsed = time.perf_counter() - start
            assert elapsed < 0.05, f"stack_interval('A', {i}, 2^16) took {elapsed:.3f}s"

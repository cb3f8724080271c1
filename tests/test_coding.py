"""Words over {L, R}, their matrices, and the infinite addresses."""

import random
import tracemalloc

import pytest
from hypothesis import given, strategies as st

from sternbrocot.core import (
    CAPS, UNSAFE_CAPS, CapExceeded, DomainError, ExtRat, INF, ONE, ZERO, cf_from_rat, rat_from_cf,
)
from sternbrocot.coding import (
    InfiniteCode,
    children_cf,
    code_compare,
    hat,
    matrix_from_word,
    mat_det,
    parents,
    pi_code,
    rat_from_word,
    word_from_cf,
    word_from_rat,
)


def ref_matrix(word: str):
    # independent fold with explicit 2x2 tuples
    m = ((1, 0), (0, 1))
    table = {"L": ((1, 0), (1, 1)), "R": ((1, 1), (0, 1))}
    for ch in word:
        a, b = m
        c, d = table[ch]
        m = (
            (a[0] * c[0] + a[1] * d[0], a[0] * c[1] + a[1] * d[1]),
            (b[0] * c[0] + b[1] * d[0], b[0] * c[1] + b[1] * d[1]),
        )
    return m


words = st.text(alphabet="LR", min_size=0, max_size=64)


class TestWordsAndMatrices:
    @given(words)
    def test_matrix_matches_reference_fold(self, w):
        m = matrix_from_word(w)
        ref = ref_matrix(w)
        assert m == (ref[0][0], ref[0][1], ref[1][0], ref[1][1])

    @given(words)
    def test_determinant_is_one(self, w):
        assert mat_det(matrix_from_word(w)) == 1

    def test_empty_word_is_the_root(self):
        assert rat_from_word("") == ONE

    def test_single_letters_are_the_first_children(self):
        assert rat_from_word("L") == ExtRat(1, 2)
        assert rat_from_word("R") == ExtRat(2, 1)

    def test_known_vertex(self):
        # 2/5 = [0;2,2]: blocks R^0 L^2 R^1
        assert word_from_rat(ExtRat(2, 5)) == "LLR"
        assert rat_from_word("LLR") == ExtRat(2, 5)

    def test_roundtrip_on_random_rationals(self):
        r = random.Random(23)
        for _ in range(2000):
            x = ExtRat(r.randrange(1, 999), r.randrange(1, 999))
            assert rat_from_word(word_from_rat(x)) == x

    def test_word_length_is_depth_minus_one(self):
        r = random.Random(29)
        for _ in range(500):
            x = ExtRat(r.randrange(1, 999), r.randrange(1, 999))
            assert len(word_from_rat(x)) == sum(cf_from_rat(x)) - 1

    def test_word_cap_is_a_cap(self):
        # caps.exp bounds a word's length, as it bounds every binary string
        assert matrix_from_word("L" * (1 << 16))[2] == 1 << 16
        with pytest.raises(CapExceeded, match=r"caps\.exp"):
            matrix_from_word("L" * ((1 << 16) + 1))
        assert matrix_from_word("L" * ((1 << 16) + 1), UNSAFE_CAPS)[2] == (1 << 16) + 1

    def test_rejects_bad_letters(self):
        with pytest.raises(DomainError):
            matrix_from_word("LXR")

    def test_zero_is_not_a_vertex(self):
        with pytest.raises(DomainError):
            word_from_cf([0])

    @pytest.mark.parametrize("refuse", [
        lambda: word_from_cf([0]), lambda: word_from_rat(ZERO), lambda: parents(ZERO),
        lambda: hat(ZERO), lambda: children_cf([0]),
    ], ids=["word_from_cf", "word_from_rat", "parents", "hat", "children_cf"])
    def test_every_entry_point_refuses_zero_alike(self, refuse):
        with pytest.raises(DomainError, match=r"^zero is an ancestor, not a vertex$"):
            refuse()


class TestSpelledWordsAreCapped:
    """word_from_cf spells every word, after checking its depth N against caps.exp."""

    DEEP = [
        lambda caps: word_from_rat(ExtRat(1 << 42), caps),
        lambda caps: pi_code(ExtRat(1 << 42), caps),
        lambda caps: word_from_cf([0, 1 << 42], caps),
    ]

    @pytest.mark.parametrize("spell", DEEP, ids=["word_from_rat", "pi_code", "word_from_cf"])
    def test_a_2_to_the_42_letter_word_is_refused_before_it_is_built(self, spell):
        for caps, note in ((CAPS, "lifts it to 1048576"), (UNSAFE_CAPS, "already lifted")):
            tracemalloc.start()
            try:
                with pytest.raises(CapExceeded, match=r"caps\.exp: ") as info:
                    spell(caps)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert note in str(info.value) and peak < 1 << 20

    @pytest.mark.parametrize("caps", [CAPS, UNSAFE_CAPS], ids=["caps", "unsafe"])
    def test_depth_at_the_cap_is_spelled_and_one_past_it_is_not(self, caps):
        n = caps.exp
        assert word_from_rat(ExtRat(n), caps) == "R" * (n - 1)
        assert word_from_cf([0, n], caps) == "L" * (n - 1)
        assert pi_code(ExtRat(1, n), caps) == InfiniteCode("L" * n, "R")
        assert pi_code(ExtRat(n - 1, n), caps) == InfiniteCode("L" + "R" * (n - 1), "L")
        for spell in (lambda: word_from_rat(ExtRat(n + 1), caps), lambda: word_from_cf([0, n + 1], caps),
                      lambda: pi_code(ExtRat(1, n + 1), caps), lambda: pi_code(ExtRat(n, n + 1), caps)):
            with pytest.raises(CapExceeded, match=rf"depth {n + 1} above the cap {n} \(caps\.exp"):
                spell()

    def test_the_cap_counts_depth_over_every_block(self):
        # [1; 2, 3, ..., 361] has depth 65341, [1; 2, ..., 362] 65703
        assert len(word_from_cf(list(range(1, 362)))) == 65340
        with pytest.raises(CapExceeded, match="depth 65703"):
            word_from_cf(list(range(1, 363)))


class TestParents:
    def test_root_parents_are_the_ancestors(self):
        assert parents(ONE) == (ZERO, INF)

    def test_parents_of_two_fifths(self):
        lo, hi = parents(ExtRat(2, 5))
        assert (lo, hi) == (ExtRat(1, 3), ExtRat(1, 2))

    @given(words)
    def test_vertex_is_the_mediant_of_its_parents(self, w):
        x = rat_from_word(w)
        lo, hi = parents(x)
        assert ExtRat(lo.num + hi.num, lo.den + hi.den) == x


class TestHat:
    @given(words)
    def test_reversal_is_an_involution(self, w):
        x = rat_from_word(w)
        assert hat(hat(x)) == x

    @given(words)
    def test_reversal_preserves_depth(self, w):
        x = rat_from_word(w)
        assert sum(cf_from_rat(hat(x))) == sum(cf_from_rat(x))

    def test_known_images(self):
        # level 4 of the permuted tree reorders level 4 of the plain one:
        # plain (1/4, 2/5, 3/5, 3/4, ...) maps to (1/4, 4/3, 3/5, 5/2, ...)
        assert hat(ExtRat(2, 5)) == ExtRat(4, 3)
        assert hat(ExtRat(4, 3)) == ExtRat(2, 5)
        assert hat(ExtRat(3, 4)) == ExtRat(5, 2)
        assert hat(ExtRat(1, 4)) == ExtRat(1, 4)
        assert hat(ExtRat(3, 5)) == ExtRat(3, 5)

    def test_reciprocal_conjugation(self):
        # swapping letters in the word inverts the value
        r = random.Random(31)
        for _ in range(300):
            x = ExtRat(r.randrange(1, 999), r.randrange(1, 999))
            w = word_from_rat(x)
            y = rat_from_word(w.translate(str.maketrans("LR", "RL")))
            assert y.num == x.den and y.den == x.num


class TestChildren:
    @given(words.filter(lambda w: len(w) <= 32))
    def test_children_cf_matches_word_extension(self, w):
        x = rat_from_word(w)
        lcf, rcf = children_cf(cf_from_rat(x))
        assert rat_from_cf(lcf) == rat_from_word(w + "L")
        assert rat_from_cf(rcf) == rat_from_word(w + "R")


class TestInfiniteCodes:
    def test_ancestor_codes(self):
        assert pi_code(ZERO) == InfiniteCode("", "L")
        assert pi_code(INF) == InfiniteCode("", "R")

    @pytest.mark.parametrize("prefix,tail", [
        ("LR", "X"), ("LR", "LL"), ("LR", ""), ("LR", None), ("LXR", "L"), ("lr", "L"),
    ])
    def test_a_code_is_spelled_in_l_and_r(self, prefix, tail):
        # unchecked, code_compare answered 1 for the first two and for LXR against
        # InfiniteCode("LR", "L"), and a None tail raised TypeError
        with pytest.raises(DomainError, match="bad code"):
            InfiniteCode(prefix, tail)

    def test_rational_code_uses_full_blocks_and_opposite_tail(self):
        # 2/5 = [0;2,2]: prefix LLRR, then L forever
        assert pi_code(ExtRat(2, 5)) == InfiniteCode("LLRR", "L")
        assert pi_code(ONE) == InfiniteCode("R", "L")

    def test_code_prefix_extends_the_tree_word(self):
        r = random.Random(37)
        for _ in range(500):
            x = ExtRat(r.randrange(1, 999), r.randrange(1, 999))
            w = word_from_rat(x)
            c = pi_code(x)
            assert c.prefix[: len(w)] == w
            assert len(c.prefix) == len(w) + 1

    def test_order_matches_the_rationals(self):
        r = random.Random(41)
        for _ in range(1000):
            x = ExtRat(r.randrange(1, 999), r.randrange(1, 999))
            y = ExtRat(r.randrange(1, 999), r.randrange(1, 999))
            got = code_compare(pi_code(x), pi_code(y))
            want = -1 if x < y else (1 if x > y else 0)
            assert got == want

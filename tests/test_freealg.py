import dataclasses
import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from m2alg import freealg, groebner, mat2
from m2alg.errors import Inconsistency, UnsupportedParameters
from m2alg.fields import GF, QQ, FpElem
from m2alg.freealg import (
    NCPoly,
    RewriteFuelExhausted,
    Word,
    _rewrite,
    build_rewrite_system,
    certify_normal_forms,
    check_identities,
    matrix_model,
    parse_word_expr,
    reduce,
    validate_system,
)
from m2alg.mat2 import Mat2, mat_pow
from m2alg.model import x_power


def w(letters):
    return Word.from_letters(letters)


def test_word_normalization():
    assert Word((("x", 2), ("x", 3))).runs == (("x", 5),)
    assert Word((("x", 0), ("y", 1))).runs == (("y", 1),)
    assert w("xxyyx").runs == (("x", 2), ("y", 2), ("x", 1))
    assert (w("xy") * w("yx")).runs == (("x", 1), ("y", 2), ("x", 1))
    assert Word.one().degree == 0
    assert w("xyx").text() == "x*y*x"
    assert Word.gen("x", 3).text() == "x^3"


def test_word_key_is_deglex_on_the_letter_string():
    words = [w("".join(v)) for n in range(11) for v in itertools.product("xy", repeat=n)]
    assert len(words) == 2047
    by_runs = sorted(words, key=Word.key)
    by_letters = sorted(words, key=lambda v: (v.degree, "".join(l * e for l, e in v.runs)))
    assert by_runs == by_letters


def test_word_key_needs_no_letter_string():
    e = 10**30
    assert Word.gen("x", e).key() < (Word.gen("x", e - 1) * w("y")).key()
    assert (w("y") * Word.gen("x", e)).key() > (Word.gen("x", e) * w("y")).key()
    assert parse_word_expr(f"y*x^{e} + x^{e}*y", QQ).text() == f"y*x^{e} + x^{e}*y"


def test_word_rejects_bad_input():
    with pytest.raises(ValueError):
        Word((("z", 1),))
    with pytest.raises(ValueError):
        Word((("x", -1),))


def test_word_checks_each_run_before_dropping_an_empty_one():
    with pytest.raises(ValueError, match="unknown letter"):
        Word((("z", 0),))
    for e in (2.5, 2.0, True):
        with pytest.raises(TypeError, match="is not an int$"):
            Word((("x", e),))
    assert Word((("y", 0), ("x", 2))).runs == (("x", 2),)


def test_ncpoly_arithmetic():
    x = NCPoly.x(QQ)
    y = NCPoly.y(QQ)
    assert (x * y - y * x).terms != {}
    assert x * y != y * x
    p = (x + y) * (x - y)
    # x^2 - xy + yx - y^2: all four distinct words
    assert len(p.terms) == 4
    assert (p - p).is_zero()
    assert (x + 1) * (x - 1) == x * x - NCPoly.one(QQ)


def test_ncpoly_text_ordering():
    x = NCPoly.x(QQ)
    y = NCPoly.y(QQ)
    p = NCPoly.one(QQ) + y - x * y
    assert p.text() == "-x*y + y + 1"


def test_parse_word_expr():
    p = parse_word_expr("x^2*y + y*x - 1", QQ)
    x = NCPoly.x(QQ)
    y = NCPoly.y(QQ)
    assert p == x * x * y + y * x - NCPoly.one(QQ)
    assert parse_word_expr("2*x*y", QQ) == (x * y).scale(2)
    assert parse_word_expr("-x + 3", QQ) == -x + NCPoly.one(QQ).scale(3)
    # order of letters matters
    assert parse_word_expr("y*x", QQ) != parse_word_expr("x*y", QQ)
    with pytest.raises(ValueError):
        parse_word_expr("x^", QQ)
    with pytest.raises(ValueError):
        parse_word_expr("q + 1", QQ)


def test_build_rewrite_system_goldens():
    rs = build_rewrite_system(1, 1)
    assert rs.xpow is None
    assert rs.yx_rhs == NCPoly.one(QQ) - NCPoly.x(QQ) * NCPoly.y(QQ)

    rs21 = build_rewrite_system(2, 1)
    assert rs21.xpow[0] == 2
    assert rs21.xpow[1] == NCPoly.x(QQ) - NCPoly.one(QQ)
    assert rs21.yx_rhs == parse_word_expr("1 + y - x*y", QQ)

    rs32 = build_rewrite_system(3, 2)
    assert rs32.xpow[0] == 4
    assert rs32.xpow[1] == parse_word_expr("x^3 - x^2 + x - 1", QQ)
    assert rs32.yx_rhs == parse_word_expr(
        "-x^3*y + x^2*y - x^3 - x*y + x^2 + y", QQ
    )


def test_build_rewrite_system_rejects():
    with pytest.raises(UnsupportedParameters):
        build_rewrite_system(4, 2)


def test_reduce_examples():
    rs = build_rewrite_system(1, 1)
    y = NCPoly.y(QQ)
    assert reduce(NCPoly.of_word(w("yxy"), QQ), rs) == y
    assert reduce(NCPoly.of_word(w("yyx"), QQ), rs).is_zero()
    rs21 = build_rewrite_system(2, 1)
    assert reduce(parse_word_expr("x^2*y + y*x", QQ), rs21) == NCPoly.one(QQ)
    # defining relation in the swapped orientation also collapses
    assert reduce(parse_word_expr("x*y + y*x^2", QQ), rs21) == NCPoly.one(QQ)


def test_reduce_normal_form_support():
    rs = build_rewrite_system(3, 2)
    rng = random.Random(1)
    for _ in range(60):
        word = w("".join(rng.choice("xy") for _ in range(rng.randint(1, 10))))
        nf = reduce(NCPoly.of_word(word, QQ), rs)
        for u in nf.terms:
            runs = u.runs
            assert len(runs) <= 2
            if runs:
                assert runs[0][0] == "x" or (len(runs) == 1 and runs[0] == ("y", 1))
                if runs[0][0] == "x":
                    assert runs[0][1] < 4
                if len(runs) == 2:
                    assert runs[1] == ("y", 1)


@st.composite
def ncpolys(draw):
    terms = {}
    for _ in range(draw(st.integers(1, 3))):
        letters = draw(st.text(alphabet="xy", min_size=0, max_size=6))
        terms[Word.from_letters(letters)] = QQ.of(draw(st.integers(-3, 3)))
    return NCPoly(terms, QQ)


@settings(max_examples=40, deadline=None)
@given(ncpolys())
def test_reduce_idempotent(p):
    rs = build_rewrite_system(2, 1)
    nf = reduce(p, rs)
    assert reduce(nf, rs) == nf


@settings(max_examples=40, deadline=None)
@given(ncpolys(), ncpolys())
def test_reduce_linear(p, q):
    rs = build_rewrite_system(2, 1)
    assert reduce(p + q, rs) == reduce(p, rs) + reduce(q, rs)


def test_word_image_examples():
    for i, j in [(2, 1), (4, 3), (3, 2)]:
        model = matrix_model(i, j)
        ring = model.ring
        assert model.image(NCPoly.x(QQ, i + j)) == Mat2.scalar(ring, ring.s())
        assert model.image(
            NCPoly.x(QQ, j) - NCPoly.x(QQ, i)
        ) == Mat2.scalar(ring, ring.t())
        rel = NCPoly.x(QQ, i) * NCPoly.y(QQ) + NCPoly.y(QQ) * NCPoly.x(QQ, j)
        assert model.image(rel) == Mat2.identity(ring)


def test_word_image_function_form():
    model = matrix_model(1, 1)
    img = model.image(parse_word_expr("x*y + y*x", QQ))
    assert img == Mat2.identity(model.ring)


def test_word_image_rejects_non_coprime():
    with pytest.raises(UnsupportedParameters):
        matrix_model(4, 2).image(NCPoly.x(QQ))


def test_model_injectivity_on_spanning_set():
    # distinct normal-form words have distinct images (2x2 entries in the
    # quotient), for every coprime pair with a finite spanning set
    for i, j in [(2, 1), (3, 2), (4, 3), (3, 1)]:
        model = matrix_model(i, j)
        bound = (i + j - 1) * (i - j)
        images = {}
        for a in range(bound):
            for with_y in (False, True):
                word = Word((("x", a), ("y", 1))) if with_y else Word.gen("x", a)
                m = model.word_matrix(word)
                key = (m.a.text(), m.b.text(), m.c.text(), m.d.text())
                assert key not in images, (i, j, word, images[key])
                images[key] = word


def test_validate_exhaustive_1_1():
    # every word of length <= 10: the walk against the heap engine
    for field in (QQ, GF(2), GF(3)):
        rs = build_rewrite_system(1, 1, field)
        rep = validate_system(rs, exhaustive_len=10)
        assert rep.ok, (field.name, rep.to_dict())
        assert rep.words_checked == 2**11 - 2


def test_rewrite_fuel_exhaustion_raises(monkeypatch):
    # y*x^n takes n rewrite steps at (1, 1)
    monkeypatch.setattr(freealg, "REWRITE_FUEL", 10)
    rs = build_rewrite_system(1, 1)
    with pytest.raises(RewriteFuelExhausted, match="no normal form within 10 steps"):
        _rewrite(parse_word_expr("y*x^20", QQ), rs)


def test_validate_random_2_1_and_3_2():
    for i, j in [(2, 1), (3, 2)]:
        rs = build_rewrite_system(i, j)
        rep = validate_system(rs, n_random=150, max_len=10, seed=3)
        assert rep.ok, rep.to_dict()
        assert rep.words_checked == 150


def test_check_identities_pairs():
    for i, j in [(2, 1), (3, 2), (1, 1)]:
        rep = check_identities(i, j, n_max=6)
        assert rep.ok, (i, j, rep.failures)
    # seventeen matrix-unit relations are part of the report
    rep = check_identities(2, 1, n_max=1)
    unit_checks = [n for n, _ in rep.entries if n.startswith("e")]
    assert len(unit_checks) == 17


def test_check_identities_over_fp():
    rep = check_identities(3, 2, n_max=4, field=GF(3))
    assert rep.ok, rep.failures


def test_check_identities_rejects():
    with pytest.raises(UnsupportedParameters):
        check_identities(6, 3)


FIELDS = (QQ, GF(2), GF(3))


def random_word(rng, max_len=12):
    return w("".join(rng.choice("xy") for _ in range(rng.randint(0, max_len))))


@pytest.mark.parametrize("field", FIELDS, ids=lambda f: f.name)
@pytest.mark.parametrize("i,j", [(1, 1), (2, 1), (3, 2), (4, 3), (5, 4), (5, 2), (7, 3)])
def test_table_route_agrees_with_heap(i, j, field):
    rs = build_rewrite_system(i, j, field)
    rng = random.Random(100 * i + j)
    for _ in range(30):
        p = NCPoly.of_word(random_word(rng), field)
        assert reduce(p, rs) == _rewrite(p, rs), (i, j, p)
    for _ in range(10):
        p = NCPoly.zero(field)
        for _ in range(rng.randint(2, 4)):
            p = p + NCPoly.of_word(random_word(rng), field, rng.randint(-3, 3))
        assert reduce(p, rs) == _rewrite(p, rs), (i, j, p)


@pytest.mark.parametrize("field", FIELDS, ids=lambda f: f.name)
def test_certify_normal_forms(field):
    pairs = [(i, j) for i in range(2, 14) for j in range(1, i) if math.gcd(i, j) == 1]
    if field is QQ:
        pairs += [(21, 20), (61, 60)]
    for i, j in pairs:
        rs = build_rewrite_system(i, j, field)
        assert certify_normal_forms(rs), (i, j, field.name)


def test_certify_normal_forms_needs_no_linear_algebra(monkeypatch):
    def refuse(*args):
        raise AssertionError("Gauss-Jordan or BiPoly conversion")

    monkeypatch.setattr(mat2, "_rref", refuse)
    monkeypatch.setattr(groebner.QuotientElem, "bipoly", refuse)
    assert not hasattr(freealg, "_rref")
    assert certify_normal_forms(build_rewrite_system(13, 8))


def test_certify_normal_forms_at_1_1():
    for field in FIELDS:
        assert certify_normal_forms(build_rewrite_system(1, 1, field)), field.name


def test_certify_normal_forms_detects_failures():
    rs = build_rewrite_system(3, 2)
    broken = dataclasses.replace(rs, yx_rhs=rs.yx_rhs + NCPoly.y(QQ))
    assert not certify_normal_forms(broken)
    repeated = dataclasses.replace(rs, basis=rs.basis[:-1] + rs.basis[:1])
    assert not certify_normal_forms(repeated)
    # y*x -> 1 + x*y leaves the overlap y*y*x at 2*y
    rs = build_rewrite_system(1, 1)
    broken = dataclasses.replace(rs, yx_rhs=parse_word_expr("1 + x*y", QQ))
    assert not certify_normal_forms(broken)


def test_certify_normal_forms_detects_mutations(monkeypatch):
    rs = build_rewrite_system(5, 3)
    assert certify_normal_forms(rs)
    assert not certify_normal_forms(dataclasses.replace(rs, basis=rs.basis[::-1]))
    # y*x -> yx_rhs + y*x^2 - reduce(y*x^2) holds in the model, but y*x^2 is
    # no spanning word, and the rules no longer terminate
    yxx = parse_word_expr("y*x^2", QQ)
    off = dataclasses.replace(rs, yx_rhs=rs.yx_rhs + yxx - reduce(yxx, rs))
    assert not certify_normal_forms(off)
    model = matrix_model(5, 3)
    real_image, e21 = model.image, Word.from_letters("xxxxxyxxx")

    def image(p):  # -e21 for the unit word x^5*y*x^3; the rules still hold
        return real_image(p).scale(-1) if p == e21 else real_image(p)

    with monkeypatch.context() as m:
        m.setattr(model, "image", image)
        assert not certify_normal_forms(rs)
    real_dimension = groebner.GroebnerBasis.dimension
    monkeypatch.setattr(
        groebner.GroebnerBasis, "dimension", lambda ring: real_dimension(ring) + 1
    )
    assert not certify_normal_forms(rs)


@pytest.mark.parametrize("i,j", [(1, 1), (5, 4), (7, 3)])
def test_tables_need_no_rewriting(i, j, monkeypatch):
    def refuse(p, rs):
        raise AssertionError("_rewrite called")

    monkeypatch.setattr(freealg, "_rewrite", refuse)
    rs = build_rewrite_system(i, j)
    p = parse_word_expr("y*x^5*y*x^2*y + x^4*y*x - 3*y*x^7", QQ)
    model = matrix_model(i, j)
    assert model.image(reduce(p, rs)) == model.image(p)


@pytest.mark.parametrize("field", FIELDS, ids=lambda f: f.name)
def test_table_rows_match_heap_engine(field):
    # every basis word times one letter: one step of the walk, against the rules
    for i in range(2, 10):
        for j in range(1, i):
            if math.gcd(i, j) != 1:
                continue
            rs = build_rewrite_system(i, j, field)
            for u in rs.basis:
                for letter in "xy":
                    p = NCPoly.of_word(u * w(letter), field)
                    assert reduce(p, rs) == _rewrite(p, rs), (i, j, u, letter)


@pytest.mark.parametrize("field", (QQ, GF(3)), ids=lambda f: f.name)
def test_every_walk_step_matches_heap_engine(field):
    # every state x^a or x^a y with a < M, times y or times one x-run x^e;
    # a run beyond 10^9 is checked against its fold by x^M = (-1)^(i+j)
    huge = 10**9 + 7
    for i, j in ((2, 1), (3, 1), (3, 2), (4, 1), (4, 3)):
        rs = build_rewrite_system(i, j, field)
        M = i * i - j * j
        folds = huge // M
        for a, h in itertools.product(range(M), (0, 1)):
            state = Word((("x", a), ("y", h)))
            for e in range(1, M + 2):
                p = NCPoly.of_word(state * Word.gen("x", e), field)
                assert reduce(p, rs) == _rewrite(p, rs), (i, j, a, h, e)
            p = NCPoly.of_word(state * w("y"), field)
            assert reduce(p, rs) == _rewrite(p, rs), (i, j, a, h, "y")
            p = NCPoly.of_word(state * Word.gen("x", huge), field)
            folded = NCPoly.of_word(state * Word.gen("x", huge % M), field)
            want = _rewrite(folded, rs).scale((-1) ** ((i + j) * folds))
            assert reduce(p, rs) == want, (i, j, a, h, huge)


def test_table_build_does_no_field_object_arithmetic(monkeypatch):
    def refuse(self, *args):
        raise AssertionError("field object arithmetic in the rule-set build")

    monkeypatch.setattr(freealg, "_build_sanity_check", lambda rs: None)
    for name in ("__add__", "__sub__", "__mul__"):
        monkeypatch.setattr(FpElem, name, refuse)
        monkeypatch.setattr(Fraction, name, refuse)
    systems = [build_rewrite_system(30, 7, field) for field in (QQ, GF(3))]
    monkeypatch.undo()
    for rs in systems:
        freealg._build_sanity_check(rs)


def test_model_powers_stay_bounded():
    i, j = 5, 4
    M = i * i - j * j
    rs = build_rewrite_system(i, j)
    model = matrix_model(i, j)
    e = 500_000
    p = NCPoly.x(QQ, e) * NCPoly.y(QQ)
    folded = (NCPoly.x(QQ, e % M) * NCPoly.y(QQ)).scale((-1) ** ((i + j) * (e // M)))
    assert model.image(p) == model.image(folded)
    # X^(2M) = I: powers are cached under e mod 2M
    assert len(model._xpow) <= 2 * M
    assert reduce(p, rs) == reduce(folded, rs) == _rewrite(folded, rs)


def test_model_powers_stay_bounded_at_1_1():
    model = matrix_model(1, 1)
    X, Y = model.pair.X, model.pair.Y
    for e in (20_000, 20_001):
        p = NCPoly.x(QQ, e) * NCPoly.y(QQ)
        assert model.image(p) == mat_pow(X, e) * Y
    # X has infinite order at (1, 1): every power is built afresh
    assert not model._xpow


def test_one_model_per_ring():
    assert matrix_model(4, 5) is matrix_model(5, 4)
    assert matrix_model(4, 5, GF(3)) is matrix_model(5, 4, GF(3))
    assert matrix_model(4, 5) is not matrix_model(4, 5, GF(3))


def _period(i, j):
    """The least e with X^e scalar: i^2 - j^2, or 2 at (1, 1)."""
    return 2 if i == j else abs(i * i - j * j)


MODEL_PAIRS = [(1, 1), (2, 1), (3, 2), (5, 4), (7, 3), (10, 7), (4, 5), (13, 8)]
MODEL_FIELDS = pytest.mark.parametrize("field", [QQ, GF(2), GF(3)], ids=["Q", "F2", "F3"])


@MODEL_FIELDS
@pytest.mark.parametrize("i,j", MODEL_PAIRS)
def test_x_power_matches_repeated_multiplication(i, j, field):
    pair = matrix_model(i, j, field).pair
    period = _period(i, j)
    scalar = pair.ring.s() if i == j else pair.ring.of((-1) ** (i + j))
    power = Mat2.identity(pair.ring)
    for e in range(2 * period + 3):
        assert x_power(pair.ring, e) == power, e
        if e == period:
            # the model caches X^e by this period without a matrix power
            assert power == Mat2.scalar(pair.ring, scalar)
        power = power * pair.X


@MODEL_FIELDS
@pytest.mark.parametrize("i,j", MODEL_PAIRS)
def test_x_power_matches_mat_pow(i, j, field):
    pair = matrix_model(i, j, field).pair
    rng = random.Random(1000 * i + j)
    for e in [rng.randrange(10**6) for _ in range(4)]:
        assert x_power(pair.ring, e) == mat_pow(pair.X, e), e


def test_xpow_runs_no_matrix_product(monkeypatch):
    i, j = 10, 7
    model = freealg.MatrixModel(i, j, QQ)  # a fresh model: nothing cached yet
    cycle = 2 * _period(i, j)
    exponents = [5, 97, cycle - 1, cycle + 40, 10 * cycle + 3, 987_654_321]
    assert len({e % cycle for e in exponents}) == len(exponents)
    calls = []
    real = Mat2.__mul__

    def counting(self, other):
        calls.append(1)
        return real(self, other)

    monkeypatch.setattr(Mat2, "__mul__", counting)
    powers = [model.xpow(e) for e in exponents]
    assert not calls
    monkeypatch.undo()
    assert sorted(model._xpow) == sorted(e % cycle for e in exponents)
    for e, power in zip(exponents, powers):
        assert power == mat_pow(model.pair.X, e)


def _plain_product(pair, word):
    """The image of word as a left-to-right product of X and Y powers."""
    m = Mat2.identity(pair.ring)
    for letter, e in word.runs:
        m = m * mat_pow(pair.X if letter == "x" else pair.Y, e)
    return m


def _model_words(rng, period):
    fixed = [
        Word.one(),
        w("y"),
        w("yy"),
        w("yxy"),
        w("xyyx"),
        Word((("x", period + 1), ("y", 1))),
        Word((("y", 1), ("x", 2 * period + 1), ("y", 1), ("x", period))),
    ]
    drawn = []
    for _ in range(20):
        runs = []
        letter = rng.choice("xy")
        length, target = 0, rng.randint(1, 14)
        while length < target:
            if letter == "y":
                e = 2 if rng.random() < 0.15 else 1
            elif rng.random() < 0.2:
                e = rng.randint(period, 2 * period + 2)
            else:
                e = rng.randint(1, 4)
            runs.append((letter, e))
            length += min(e, 4)
            letter = "y" if letter == "x" else "x"
        drawn.append(Word(runs))
    return fixed + drawn


@MODEL_FIELDS
@pytest.mark.parametrize("i,j", [(1, 1), (2, 1), (3, 2), (5, 4), (7, 3), (10, 7), (4, 5)])
def test_word_matrix_matches_plain_product(i, j, field):
    model = matrix_model(i, j, field)
    rng = random.Random(100 * i + j)
    for word in _model_words(rng, _period(i, j)):
        assert model.word_matrix(word) == _plain_product(model.pair, word), word.text()


def test_model_requires_y_to_be_e12(monkeypatch):
    real = freealg.witness_XY

    def with_e21(*args, **kwargs):
        pair = real(*args, **kwargs)
        ring = pair.ring
        return dataclasses.replace(pair, Y=Mat2(ring, ring.zero, ring.zero, ring.one, ring.zero))

    monkeypatch.setattr(freealg, "witness_XY", with_e21)
    with pytest.raises(Inconsistency):
        freealg.MatrixModel(5, 4, QQ)


@pytest.mark.parametrize("k", [1, 2, 3, 5, 7])
def test_word_matrix_multiply_count(monkeypatch, k):
    """A word with k single y's costs at most k + 4 general products in L."""
    model = matrix_model(10, 7)
    rng = random.Random(k)
    period = _period(10, 7)
    runs = [("x", rng.randint(1, 2 * period))]
    for _ in range(k):
        runs += [("y", 1), ("x", rng.randint(1, 2 * period))]
    word = Word(runs)
    model.word_matrix(word)  # caches the x-powers
    calls = []
    real = groebner._divide

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(groebner, "_divide", counting)
    image = model.word_matrix(word)
    assert len(calls) <= k + 4
    monkeypatch.undo()
    assert image == _plain_product(model.pair, word)

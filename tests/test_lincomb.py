import json
from fractions import Fraction
from itertools import product
from pathlib import Path
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from relalg import (
    FiniteRelativeAlgebra,
    LinComb,
    MorphismFamily,
    cyclic_monoid,
    format_scalar,
    lc_add,
    lc_bilinear_extend,
    lc_scale,
    parse_scalar,
)
from relalg.cli import main
from relalg.errors import MalformedInputError
from relalg.jsonio import load_algebra

DATA = Path(__file__).resolve().parent.parent / "data"

scalars = st.fractions(min_value=-100, max_value=100, max_denominator=100)
combs = st.dictionaries(st.integers(0, 5), scalars, max_size=6).map(LinComb)


def test_scalar_parse_format_roundtrip():
    for text in ["0/1", "5/6", "-3/4", "7/1"]:
        assert format_scalar(parse_scalar(text)) == text
    assert parse_scalar("3") == Fraction(3)
    assert parse_scalar("4/6") == Fraction(2, 3)


def test_scalar_parse_rejects_garbage():
    with pytest.raises(MalformedInputError, match="zero denominator"):
        parse_scalar("1/0")
    with pytest.raises(MalformedInputError):
        parse_scalar("seven")
    # a long text is quoted by a prefix and its length, never echoed whole
    for text, reason in [
        ("1" * 5000 + "/3", "5000 digits, too many"),
        ("x" * 10_000, 'expected "p/q"'),
    ]:
        with pytest.raises(MalformedInputError) as info:
            parse_scalar(text)
        message = str(info.value)
        assert len(message) < 200
        assert message.endswith(f"({len(text)} characters): {reason}")
        assert "set_int_max_str_digits" not in message


# Spellings Fraction accepts on some or all Python versions but the "p/q"
# grammar does not: digit separators (3.11+ only), decimals, exponents (the
# last one takes seconds to build), non-ASCII digits.
OFF_GRAMMAR = ["1_000", "1.5", "1e3", "\u0661/2", "1e8000000"]


@pytest.mark.parametrize("text", OFF_GRAMMAR)
def test_scalar_grammar_is_sign_digits_and_slash_digits(text, tmp_path, capsys):
    with pytest.raises(MalformedInputError, match="expected \"p/q\""):
        parse_scalar(text)
    doc = json.loads((DATA / "cocycle_algebra.json").read_text())
    doc["ops"]["mul"]["(0,1)"] = [[[text]]]
    path = tmp_path / "algebra.json"
    path.write_text(json.dumps(doc))
    assert main(["check-algebra", "--algebra", str(path), "--suite", "RelAssoc"]) == 2
    assert "algebra.ops.mul.(0,1)[0][0][0]: bad scalar" in capsys.readouterr().err


def test_scalar_grammar_keeps_signs_whitespace_and_expression_scalars(capsys):
    assert parse_scalar(" +6/4 ") == Fraction(3, 2)
    assert parse_scalar("-0") == 0 and type(parse_scalar("-7/1")) is int
    expr = "1/2 * x[] + -2 * succ(a, x[], y[])"
    assert main(["free-eval", "--expr", expr, "--dimonoid", str(DATA / "matching2.json")]) == 0
    assert "1/2 * x[]" in capsys.readouterr().out


@pytest.mark.parametrize(
    "expr, result", [("+1/2 * x[]", "1/2 * x[]"), ("x[] + +2 * y[]", "1/1 * x[] + 2/1 * y[]")]
)
def test_expression_scalars_take_a_plus_sign(capsys, expr, result):
    assert main(["free-eval", "--expr", expr, "--semigroup", str(DATA / "zmod2.json")]) == 0
    assert json.loads(capsys.readouterr().out)["result"] == result


def test_add_cancels_to_zero():
    a = LinComb.single("b1", 2)
    b = LinComb.single("b1", -2)
    assert lc_add(a, b) == LinComb()
    assert lc_add(a, b).is_zero()


def test_add_disjoint_supports():
    out = lc_add(LinComb.single("b1"), LinComb.single("b2"))
    assert out.items() == (("b1", Fraction(1)), ("b2", Fraction(1)))


def test_add_exact_rationals():
    # oracle: 1/2 + 1/3 = 5/6 in exact arithmetic
    out = lc_add(LinComb.single("b1", Fraction(1, 2)), LinComb.single("b1", Fraction(1, 3)))
    assert out == LinComb.single("b1", Fraction(5, 6))


def test_scale_annihilates_and_identity():
    a = LinComb.single("b1", 5)
    assert lc_scale(0, a).is_zero()
    assert lc_scale(1, a) == a
    assert lc_scale(Fraction(2, 3), LinComb.single("b1", Fraction(3, 4))) == LinComb.single(
        "b1", Fraction(1, 2)
    )


def test_bilinear_zero_and_singletons():
    f = lambda b1, b2: LinComb.single("c")
    assert lc_bilinear_extend(f, LinComb(), LinComb.single("b2")).is_zero()
    assert lc_bilinear_extend(f, LinComb.single("b1"), LinComb.single("b2")) == LinComb.single("c")


def test_bilinear_double_sum_by_hand():
    # {b1: 2} x {b2: 3} against a constant map is 2 * 3 * {c: 1} = {c: 6}
    f = lambda b1, b2: LinComb.single("c")
    out = lc_bilinear_extend(f, LinComb.single("b1", 2), LinComb.single("b2", 3))
    assert out == LinComb.single("c", 6)


def test_bilinear_aux_passthrough():
    f = lambda b1, b2, k: LinComb.single(b1 + b2, k)
    out = lc_bilinear_extend(f, LinComb.single(1), LinComb.single(2), Fraction(1, 2))
    assert out == LinComb.single(3, Fraction(1, 2))


def test_canonical_order_and_no_zeros():
    lc = LinComb([(3, Fraction(1)), (1, Fraction(2)), (2, Fraction(0))])
    assert lc.items() == ((1, 2), (3, 1))
    assert lc.coeff(2) == 0


# dicts as callers hand them over: zeros of both types, a Fraction with
# denominator 1, plain Fractions and ints
raw_dicts = st.dictionaries(
    st.integers(0, 5),
    st.sampled_from([0, Fraction(0), Fraction(4, 2)]) | st.integers(-3, 3) | scalars,
    max_size=6,
)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(raw_dicts, raw_dicts, scalars)
def test_a_dict_is_kept_in_exact_form_and_owned(d, e, k):
    a, b = LinComb(d), LinComb(e)
    assert a == LinComb(d.items()) and dict(a) == {u: c for u, c in d.items() if c}
    results = [a, b, a + b, a - b, a.scale(k), -a]
    for value in results:
        assert all(c != 0 and type(c) is (int if c.denominator == 1 else Fraction) for _, c in value)
    before = [value.items() for value in results]
    d.clear()
    e[0] = 7
    assert [value.items() for value in results] == before


def test_a_cancelled_int_coefficient_hashes_only_its_key():
    hashed = []

    class Basis:
        def __init__(self, name):
            self.name = name

        def __hash__(self):
            hashed.append(self.name)
            return hash(self.name)

    a, b, c = Basis("a"), Basis("b"), Basis("c")
    d = {a: 1, b: 0, c: 2}
    hashed.clear()
    lc = LinComb(d)
    assert hashed == ["b"]
    assert dict(lc) == {a: 1, c: 2} and len(d) == 3


@given(combs, combs, combs)
def test_add_commutative_associative(a, b, c):
    assert a + b == b + a
    assert (a + b) + c == a + (b + c)


@given(scalars, combs, combs)
def test_scale_distributes(k, a, b):
    assert (a + b).scale(k) == a.scale(k) + b.scale(k)


@given(combs, combs, combs)
def test_bilinear_linearity_each_argument(a1, a2, b):
    f = lambda i, j: LinComb.single(i * 7 + j, Fraction(i - j, 3))
    left = lc_bilinear_extend(f, a1 + a2, b)
    split = lc_bilinear_extend(f, a1, b) + lc_bilinear_extend(f, a2, b)
    assert left == split
    right = lc_bilinear_extend(f, b, a1 + a2)
    rsplit = lc_bilinear_extend(f, b, a1) + lc_bilinear_extend(f, b, a2)
    assert right == rsplit


DIM = 3
# structure constants with plenty of zeros, and vectors with at least two terms
small = st.builds(Fraction, st.integers(-5, 5), st.integers(1, 5))
entries = st.one_of(st.just(Fraction(0)), small)
constants = st.lists(entries, min_size=DIM**3, max_size=DIM**3).map(
    lambda flat: tuple(
        tuple(tuple(flat[(i * DIM + j) * DIM:(i * DIM + j + 1) * DIM]) for j in range(DIM))
        for i in range(DIM)
    )
)
vectors = st.dictionaries(
    st.integers(0, DIM - 1), scalars.filter(bool), min_size=2, max_size=DIM
).map(LinComb)


@given(st.lists(constants, min_size=2, max_size=2), vectors, vectors)
def test_finite_apply_matches_dense_reference(blocks, x, y):
    keys = [(0,), (1,)]
    ops = {"ast": dict(zip(keys, blocks))}
    alg = FiniteRelativeAlgebra(["u", "v", "w"], cyclic_monoid(2), ops)
    for key, block in zip(keys, blocks):
        dense = [
            sum(x.coeff(i) * y.coeff(j) * block[i][j][k] for i in range(DIM) for j in range(DIM))
            for k in range(DIM)
        ]
        assert alg.apply("ast", key, x, y) == LinComb(enumerate(dense))


def _distinct_blocks(count):
    rng = Random(0)
    blocks = set()
    while len(blocks) < count:
        blocks.add(tuple(
            tuple(tuple(rng.choice((0, 0, 1, -1, 2, Fraction(1, 3))) for _ in range(DIM))
                  for _ in range(DIM))
            for _ in range(DIM)
        ))
    return sorted(blocks)


SINGLE_COEFFS = (1, -1, 2, Fraction(1, 2), Fraction(-2, 3))


def test_kernels_and_memo_match_dense_reference():
    # every block differs, across index tuples and across roles, so a memo
    # shared between blocks or roles returns a wrong product
    blocks = iter(_distinct_blocks(10))
    pair_keys, family_keys = list(product(range(2), repeat=2)), [(0,), (1,)]
    ops = {
        "mul": {key: next(blocks) for key in pair_keys},
        "bracket": {key: next(blocks) for key in pair_keys},
        "ast": {key: next(blocks) for key in family_keys},
    }
    alg = FiniteRelativeAlgebra(["u", "v", "w"], cyclic_monoid(2), ops)
    assert alg.den == 3
    # every pair of single-term vectors, whatever their coefficients, reads
    # its block's memo of basis products; a zero argument gives one shared
    # zero; a vector of two terms is expanded against the constants
    singles = [LinComb.single(i, c) for i in range(DIM) for c in SINGLE_COEFFS]
    zero, mixed = LinComb(), LinComb(((0, 3), (2, Fraction(-1, 2))))
    vectors = singles + [mixed]
    pairs = (
        list(product(vectors, repeat=2))
        + [(zero, y) for y in vectors + [zero]] + [(x, zero) for x in vectors]
    )
    zeros = []
    for role, table in ops.items():
        op = alg.op(role)
        for key, block in table.items():
            unit_weight = []
            for x, y in pairs:
                dense = LinComb(
                    (k, x.coeff(i) * y.coeff(j) * block[i][j][k])
                    for i, j, k in product(range(DIM), repeat=3)
                )
                value = op.fn(*key, x, y)
                assert value == dense.scale(op.den)
                assert op(*key, x, y) == dense
                assert alg.apply(role, key, x, y) == dense
                if not x or not y:
                    zeros.append(value)
                elif len(x) == 1 == len(y) and x.items()[0][1] * y.items()[0][1] == 1:
                    unit_weight.append(value)
            # (1, 1), (-1, -1), (2, 1/2) and (1/2, 2) at each basis pair read
            # one memoised value; all are held here, so their ids are distinct
            assert len(unit_weight) == 4 * DIM**2
            assert len({id(value) for value in unit_weight}) <= DIM**2
    assert len({id(value) for value in zeros}) == 1


@given(combs)
def test_serialization_roundtrip(a):
    pairs = a.to_pairs(basis_str=str)
    back = LinComb((int(b), parse_scalar(c)) for c, b in pairs)
    assert back == a


@given(combs)
def test_neg_sub(a):
    assert a - a == LinComb()
    assert -(-a) == a


def _reference_bytes(terms):
    """render, to_pairs and repr of a combination given as a
    {basis: Fraction} dict, computed from its sorted Fraction terms."""
    items = sorted((b, Fraction(c)) for b, c in terms.items() if c != 0)
    if not items:
        return "0", [], "LinComb(0)"
    text = ""
    for i, (b, c) in enumerate(items):
        mag = f"{abs(c).numerator}/{abs(c).denominator}"
        sign = ("-" if c < 0 else "") if i == 0 else (" - " if c < 0 else " + ")
        text += f"{sign}{mag} * {b}"
    pairs = [[f"{c.numerator}/{c.denominator}", str(b)] for b, c in items]
    body = " + ".join(f"{c.numerator}/{c.denominator}*{b!r}" for b, c in items)
    return text, pairs, f"LinComb({body})"


@given(st.data())
def test_unordered_terms_with_int_or_fraction_coefficients(data):
    reference = data.draw(st.dictionaries(st.integers(0, 9), scalars.filter(bool), max_size=6))
    k = data.draw(st.integers(1, 5))
    # a term that cancels, so the combination is built through a zero sum
    terms = list(reference.items()) + [(10, Fraction(k)), (10, Fraction(-k))]

    def spelled(c, as_int):
        return c.numerator if as_int and c.denominator == 1 else c

    as_int = data.draw(st.lists(st.booleans(), min_size=len(terms), max_size=len(terms)))
    mixed = LinComb(data.draw(st.permutations([(b, spelled(c, f)) for (b, c), f in zip(terms, as_int)])))
    fractions_only = LinComb(data.draw(st.permutations(terms)))

    assert mixed == fractions_only
    assert hash(mixed) == hash(fractions_only)
    text, pairs, rep = _reference_bytes(reference)
    for lc in (mixed, fractions_only):
        assert lc.render() == text
        assert lc.to_pairs() == pairs
        assert repr(lc) == rep
        # a coefficient with denominator 1 is held as an int
        assert all(type(c) is int for _, c in lc if c.denominator == 1)
    assert mixed.coeff(11) == 0
    assert format_scalar(mixed.coeff(11)) == "0/1"
    assert mixed.scale(1) is mixed
    assert mixed.scale(Fraction(1)) is mixed
    assert mixed.scale(0) == LinComb()
    assert mixed.scale(0).is_zero()


def test_scalars_held_in_one_exact_form():
    # an integral scalar is an int wherever it enters, any other a Fraction
    assert type(parse_scalar("4/2")) is int and parse_scalar("4/2") == 2
    assert type(parse_scalar("1/2")) is Fraction and parse_scalar("1/2") == Fraction(1, 2)
    doc = {
        "dim": 1,
        "basis": ["u"],
        "semigroup": {"elements": ["e"], "product": [[0]], "unit": "e", "commutative": True},
        "ops": {"mul": {"(e,e)": [[["1/1"]]]}},
        "unit": None,
    }
    assert type(load_algebra(doc).ops["mul"][(0, 0)][0][0][0]) is int
    index = cyclic_monoid(1)
    alg = FiniteRelativeAlgebra(["u"], index, {"mul": {(0, 0): (((Fraction(3, 1),),),)}})
    assert type(alg.ops["mul"][(0, 0)][0][0][0]) is int
    # a library float still enters exactly
    half = FiniteRelativeAlgebra(["u"], index, {"mul": {(0, 0): (((0.5,),),)}})
    assert half.ops["mul"][(0, 0)][0][0][0] == Fraction(1, 2)
    assert type(half.ops["mul"][(0, 0)][0][0][0]) is Fraction
    maps = MorphismFamily(alg, alg, {0: ((Fraction(2, 1),),)}).maps
    assert type(maps[0][0][0]) is int
    assert MorphismFamily(alg, alg, {0: ((0.5,),)}).maps[0][0][0] == Fraction(1, 2)
    # rendering is the same for either form
    assert [format_scalar(v) for v in (2, Fraction(2), Fraction(1, 2), 0, -3)] == [
        "2/1",
        "2/1",
        "1/2",
        "0/1",
        "-3/1",
    ]

import math
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from _oracles import assert_canonical
from sweedler.errors import ParseError, UnsupportedField
from sweedler.fields import (
    PRIME_BOUND,
    RATIONAL_DIGITS,
    GF,
    QQ,
    Field,
    is_prime,
    parse_field,
    primitive_root,
    same_field,
)


def test_prime_check():
    assert [p for p in range(30) if is_prime(p)] == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
    with pytest.raises(ValueError):
        Field(6)


def test_primitive_root_is_the_least_element_of_order_p_minus_1():
    for p in range(2, 200):
        if is_prime(p):
            orders = {g: next(e for e in range(1, p) if pow(g, e, p) == 1) for g in range(1, p)}
            assert primitive_root(p) == min(g for g, order in orders.items() if order == p - 1)


def _trial_division(n):
    return n >= 2 and all(n % d for d in range(2, math.isqrt(n) + 1))


def test_miller_rabin_agrees_with_trial_division_below_1e5():
    sieve = [True] * 100_000
    sieve[0] = sieve[1] = False
    for d in range(2, 317):
        if sieve[d]:
            sieve[d * d::d] = [False] * len(sieve[d * d::d])
    assert all(is_prime(n) == sieve[n] for n in range(100_000))
    assert all(_trial_division(n) == sieve[n] for n in range(0, 100_000, 97))


def test_miller_rabin_near_its_bound():
    # the least strong pseudoprime to the bases 2..37 is caught by the base 41
    assert 399165290221 * 798330580441 == 318665857834031151167461
    assert not is_prime(318665857834031151167461)
    assert is_prime(2 ** 61 - 1) and is_prime(2 ** 31 - 1)
    assert not is_prime((2 ** 31 - 1) * (2 ** 19 - 1))
    assert not is_prime(3215031751)  # strong pseudoprime to the bases 2, 3, 5, 7
    assert not is_prime(PRIME_BOUND - 1)  # even
    with pytest.raises(ValueError):
        is_prime(PRIME_BOUND)


@pytest.mark.parametrize("digits", [str(PRIME_BOUND), str(2 ** 89 - 1),
                                    "1000000000000000000000000000057", "9" * 5000])
def test_prime_fields_above_the_bound_are_parse_errors(digits):
    with pytest.raises(ParseError, match=str(PRIME_BOUND)):
        parse_field("F" + digits)


def test_the_prime_bound_is_the_documented_one():
    text = (Path(__file__).resolve().parents[1] / "docs" / "format.md").read_text()
    assert f"must be below {PRIME_BOUND}" in text
    assert parse_field(f"F{2 ** 61 - 1}") == GF(2 ** 61 - 1)


def test_prime_field_arithmetic():
    f5 = GF(5)
    assert f5.add(3, 4) == 2
    assert f5.mul(3, 4) == 2
    assert f5.inv(3) == 2
    assert f5.neg(0) == 0
    assert list(f5.elements()) == [0, 1, 2, 3, 4]
    with pytest.raises(ZeroDivisionError):
        f5.inv(0)


def test_rational_arithmetic():
    x = QQ.coerce(Fraction(1, 3))
    assert QQ.add(x, x) == Fraction(2, 3)
    assert QQ.inv(x) == 3
    # integral results are ints, the others Fractions; one, zero and
    # from_int are ints, and a bool or an integral Fraction coerces to an int
    results = [QQ.add(x, x), QQ.add(x, QQ.add(x, x)), QQ.sub(x, x), QQ.mul(x, 3), QQ.neg(x),
               QQ.mul(Fraction(3, 2), Fraction(2, 3)), QQ.zero(), QQ.one(), QQ.from_int(-5),
               QQ.coerce(True), QQ.coerce(Fraction(6, 3)), QQ.coerce(Fraction(-1, 2))]
    assert results == [Fraction(2, 3), 1, 0, 1, Fraction(-1, 3), 1, 0, 1, -5, 1, 2,
                       Fraction(-1, 2)]
    assert_canonical(QQ, results)
    with pytest.raises(UnsupportedField):
        QQ.elements()


@pytest.mark.parametrize("x,inverse", [
    (2, Fraction(1, 2)), (-3, Fraction(-1, 3)), (1, Fraction(1)), (-1, Fraction(-1)),
    (Fraction(2, 3), Fraction(3, 2)), (Fraction(-5), Fraction(-1, 5)),
])
def test_rational_inverse_and_division_are_exact_fractions(x, inverse):
    # exact through Fraction, and canonical: an int exactly when integral,
    # whatever form the operands come in; no float may appear
    assert QQ.inv(x) == inverse
    assert_canonical(QQ, [QQ.inv(x)])
    for y in (1, -4, Fraction(7, 2), Fraction(2)):
        quotient = QQ.div(y, x)
        assert quotient == Fraction(y) * inverse
        assert_canonical(QQ, [quotient])
    assert QQ.div(1, 2) == Fraction(1, 2) and type(QQ.div(1, 2)) is Fraction
    assert QQ.div(4, 2) == 2 and type(QQ.div(4, 2)) is int


@pytest.mark.parametrize("zero", [0, Fraction(0)])
def test_rational_inverse_of_zero_raises(zero):
    with pytest.raises(ZeroDivisionError):
        QQ.inv(zero)
    with pytest.raises(ZeroDivisionError):
        QQ.div(1, zero)


@pytest.mark.parametrize("token,value", [
    ("0", Fraction(0)),
    ("-7", Fraction(-7)),
    ("3/4", Fraction(3, 4)),
    ("-1/2", Fraction(-1, 2)),
])
def test_rational_parse_canonical(token, value):
    # an integral token parses to an int, any other to a Fraction; both show
    # as the token, and so does an integral Fraction
    parsed = QQ.parse(token)
    assert parsed == value and type(parsed) is (int if value.denominator == 1 else Fraction)
    assert QQ.show(parsed) == QQ.show(value) == token


@pytest.mark.parametrize("token", ["2/4", "3/1", "4/-2", "+3", "01", "1/0", "", "a", "-0",
                                   "-0/3"])
def test_rational_parse_rejects_noncanonical(token):
    with pytest.raises(ParseError):
        QQ.parse(token)


@pytest.mark.parametrize("token", ["-1", "5", "7", "02"])
def test_prime_field_parse_rejects(token):
    with pytest.raises(ParseError):
        GF(5).parse(token)


@pytest.mark.parametrize("token", ["7" * 5000, "1/" + "7" * 5000, "-" + "7" * 4301,
                                   "7" * 4301 + "/2", "2/" + "7" * 4301],
                         ids=["integer", "denominator", "negative", "numerator", "4301"])
def test_rational_tokens_past_the_digit_bound_are_parse_errors(token):
    with pytest.raises(ParseError, match=f"more than {RATIONAL_DIGITS} digits"):
        QQ.parse(token)


@pytest.mark.parametrize("token", ["7" * 4300, "-" + "7" * 4300, "1/" + "7" * 4300,
                                   "-" + "7" * 4300 + "/" + "2" + "0" * 4299],
                         ids=["integer", "negative", "denominator", "both"])
def test_rational_tokens_at_the_digit_bound_round_trip(token):
    assert QQ.show(QQ.parse(token)) == token


@pytest.mark.parametrize("p,token", [(3, "7" * 5000), (3, "10"), (5, "1" * 4301),
                                     (2 ** 61 - 1, "1" + "0" * 19)],
                         ids=["F3-5000", "F3-2", "F5-4301", "mersenne61-20"])
def test_prime_field_tokens_longer_than_p_are_parse_errors(p, token):
    assert len(token) > len(str(p))
    with pytest.raises(ParseError, match=f"is not a canonical representative mod {p}"):
        Field(p).parse(token)


def test_the_digit_bound_is_the_documented_one():
    text = (Path(__file__).resolve().parents[1] / "docs" / "format.md").read_text()
    assert f"at most {RATIONAL_DIGITS:,} digits" in text


def test_parse_field_names():
    assert parse_field("Q") == QQ
    assert parse_field("F7") == GF(7)
    with pytest.raises(ParseError):
        parse_field("F6")
    with pytest.raises(ParseError):
        parse_field("GF(2)")


def test_fields_by_name_are_one_object_per_characteristic():
    assert parse_field("F3") is parse_field("F3") is GF(3)
    assert parse_field("Q") is GF(0) is QQ
    built = Field(3)
    assert built is not GF(3) and built == GF(3) and hash(built) == hash(GF(3))
    assert same_field(GF(3), built, parse_field("F3")) is GF(3)


def test_same_field_mismatch():
    from sweedler.errors import FieldMismatch

    with pytest.raises(FieldMismatch):
        same_field(QQ, GF(2))


@given(st.fractions())
def test_rational_token_roundtrip(x):
    assert QQ.parse(QQ.show(x)) == x


@given(st.integers(), st.integers())
def test_f7_matches_integer_arithmetic(a, b):
    f7 = GF(7)
    assert f7.add(f7.from_int(a), f7.from_int(b)) == (a + b) % 7
    assert f7.mul(f7.from_int(a), f7.from_int(b)) == (a * b) % 7

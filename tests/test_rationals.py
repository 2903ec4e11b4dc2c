"""Parsing, rendering, and decomposition of the rational parameter."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from betareduce import (
    Decomposition,
    DivergentParameter,
    OutsideDomain,
    ParseError,
    decompose,
    decompose_pos,
    parse_rational,
    render_rational,
)


class TestParse:
    def test_decimal_is_exact(self):
        assert parse_rational("12.3") == Fraction(123, 10)

    def test_fraction_reduces(self):
        assert parse_rational("3/6") == Fraction(1, 2)

    def test_sign_on_numerator(self):
        assert parse_rational("-7/4") == Fraction(-7, 4)

    def test_integer(self):
        assert parse_rational("5") == Fraction(5)

    def test_whitespace_tolerated(self):
        assert parse_rational("  1/2 ") == Fraction(1, 2)

    @pytest.mark.parametrize(
        "bad",
        ["", "abc", "1/0", "1/", "/2", ".5", "1.", "1.2.3", "+1/2", "1e3", "1/-2", "1 / 2"]
        # past the interpreter's 4,300-digit int-string limit
        + [
            pytest.param("1" * 5000, id="long-integer"),
            pytest.param("1/" + "3" * 5000, id="long-denominator"),
            pytest.param("0." + "1" * 5000, id="long-decimal"),
        ],
    )
    def test_malformed(self, bad):
        with pytest.raises(ParseError):
            parse_rational(bad)

    @given(
        sign=st.sampled_from(["", "-"]),
        lead=st.text("0", max_size=5),
        whole=st.text("0123456789", min_size=1, max_size=20),
        decimals=st.text("0123456789", max_size=20),
        trail=st.text("0", max_size=5),
    )
    def test_decimal_is_the_fraction_of_its_literal(self, sign, lead, whole, decimals, trail):
        point = f".{decimals}{trail}" if decimals or trail else ""
        text = f"{sign}{lead}{whole}{point}"
        value = parse_rational(text)
        assert type(value) is Fraction and value == Fraction(text)

    @pytest.mark.parametrize(
        "text",
        ["-" + "7" * 4301 + ".5", "1." + "2" * 4301, "-" + "3" * 4301 + "." + "4" * 4302],
    )
    def test_over_long_decimal_refused_with_the_fraction_parser_message(self, text):
        with pytest.raises(ValueError) as parser:
            Fraction(text)
        with pytest.raises(ParseError, match="numeral too long") as refused:
            parse_rational(text)
        assert str(refused.value) == f"numeral too long: {parser.value}"

    def test_each_side_of_the_point_within_the_digit_limit_parses(self):
        text = "-" + "9" * 4000 + "." + "1" * 4000
        assert parse_rational(text) == Fraction(text)

    def test_non_string(self):
        with pytest.raises(ParseError):
            parse_rational(1.5)

    @given(num=st.integers(-10**6, 10**6), den=st.integers(1, 10**6))
    def test_render_round_trip(self, num, den):
        x = Fraction(num, den)
        assert parse_rational(render_rational(x)) == x


class TestDecomposePos:
    def test_decimal_with_two_digit_integer_part(self):
        d = decompose_pos(Fraction(123, 10))
        assert (d.m, d.r) == (12, Fraction(3, 10))

    def test_five_fourths(self):
        d = decompose_pos(Fraction(5, 4))
        assert (d.m, d.r) == (1, Fraction(1, 4))

    def test_integer_gets_boundary_flag(self):
        # r = 1, the closed end of (0, 1], marks an integer
        d = decompose_pos(Fraction(3))
        assert d.r == 1 and d.m == 2
        assert d.reconstruct() == 3
        assert decompose(3) == decompose_pos(3) == d

    @pytest.mark.parametrize("nu", [Fraction(0), Fraction(-1, 2), Fraction(-4), 0, -4, 0.0, -0.5])
    def test_rejects_non_positive(self, nu):
        with pytest.raises(OutsideDomain):
            decompose_pos(nu)

    @given(num=st.integers(1, 10**30), den=st.integers(1, 10**30))
    def test_reconstruct_exact(self, num, den):
        nu = Fraction(num, den)
        d = decompose_pos(nu)
        assert d.reconstruct() == nu
        assert d == decompose(nu)
        # a float is read as the exact binary fraction it holds
        assert decompose_pos(float(nu)) == decompose(Fraction(float(nu)))
        assert d.m >= 0
        assert d.n == d.m
        assert 0 < d.r <= 1
        assert (d.r == 1) == (nu.denominator == 1)


class TestDecomposeNeg:
    def test_minus_half(self):
        d = decompose(Fraction(-1, 2))
        assert (d.m, d.r) == (-1, Fraction(1, 2))

    def test_minus_seven_fourths(self):
        d = decompose(Fraction(-7, 4))
        assert (d.m, d.r) == (-2, Fraction(1, 4))

    @pytest.mark.parametrize("nu", [Fraction(-3), Fraction(0), Fraction(-1), -3, 0, -1.0])
    def test_non_positive_integers_diverge(self, nu):
        with pytest.raises(DivergentParameter):
            decompose(nu)

    @pytest.mark.parametrize("nu", [Fraction(-3), Fraction(0), Fraction(-1)])
    def test_guard_diverges_at_non_positive_integers(self, nu):
        # the refusal names the integer it met
        with pytest.raises(DivergentParameter, match=f"non-positive integer {nu}$"):
            decompose(nu)

    @pytest.mark.parametrize(
        "nu,m",
        [(Fraction(1, 2), 0), (Fraction(1), 0), (Fraction(-1, 7), -1), (Fraction(7, 2), 3)]
        + [(3, 2), (-0.5, -1), (0.1, 0), (-2.75, -3)],
    )
    def test_shift_sign_follows_nu(self, nu, m):
        # m = ceil(nu) - 1 is negative exactly for nu < 0
        assert decompose(nu).m == m
        assert decompose(nu) == decompose(Fraction(nu))

    @given(num=st.integers(-10**30, -1), den=st.integers(2, 10**30))
    def test_reconstruct_exact(self, num, den):
        nu = Fraction(num, den)
        if nu.denominator == 1:
            with pytest.raises(DivergentParameter):
                decompose(nu)
            return
        d = decompose(nu)
        assert d.reconstruct() == nu
        assert d.m < 0
        assert d.n == -d.m
        assert 0 < d.r < 1
        assert math.gcd(d.r.numerator, d.r.denominator) == 1


# the split is an immutable, hashable tuple (m, r) with fixed fields, as README shows it
def test_decomposition_contract():
    d = Decomposition(-2, Fraction(1, 4))
    assert Decomposition._fields == ("m", "r")
    assert d == Decomposition(m=-2, r=Fraction(1, 4)) == (-2, Fraction(1, 4)) == decompose(Fraction(-7, 4))
    m, r = d
    assert (m, r, d.n, d.reconstruct()) == (-2, Fraction(1, 4), 2, Fraction(-7, 4))
    for name in ("m", "r", "n"):
        with pytest.raises(AttributeError):
            setattr(d, name, 1)
    assert d._replace(m=3) == Decomposition(3, Fraction(1, 4)) and d.m == -2
    assert hash(d) == hash(decompose(Fraction(-7, 4)))
    assert repr(d) == "Decomposition(m=-2, r=Fraction(1, 4))"

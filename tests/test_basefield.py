import random
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from radfree.basefield import (
    _decimal_or_length,
    BaseField,
    KIdeal,
    QuadForm,
    class_group,
    element_valuation,
    factor_ideal,
    ideal_valuation,
    is_principal,
    reduce_form,
    residue,
    split_prime,
    unit_reps_mod_p,
    units,
)
from radfree.errors import DomainError, ResourceLimitError

from helpers import EnumeratedClassGroup

Q = BaseField.rationals()
K5 = BaseField.imaginary_quadratic(-5)
K1 = BaseField.imaginary_quadratic(-1)
K3 = BaseField.imaginary_quadratic(-3)
K7 = BaseField.imaginary_quadratic(-7)


def test_field_construction():
    assert Q.discriminant == 1
    assert K5.discriminant == -20
    assert K1.discriminant == -4
    assert K3.discriminant == -3
    assert K7.discriminant == -7
    with pytest.raises(DomainError):
        BaseField.imaginary_quadratic(5)
    with pytest.raises(DomainError):
        BaseField.imaginary_quadratic(-12)


def test_elem_arithmetic():
    # w = sqrt(-5): (1+w)(1-w) = 1 + 5 = 6
    a = K5.elem(1, 1)
    b = K5.elem(1, -1)
    assert (a * b) == K5.elem(6)
    assert a.norm() == 6
    assert a.trace() == 2
    assert (a * a.inverse()).is_one()
    # w = (1+sqrt(-7))/2: w^2 = w - 2, N(w) = 2
    w = K7.elem(0, 1)
    assert w * w == K7.elem(-2, 1)
    assert w.norm() == 2
    assert w.trace() == 1
    with pytest.raises(DomainError):
        K5.elem(1) + Q.elem(1)


def test_elem_arithmetic_random():
    rng = random.Random(7)
    for field in (Q, K5, K7, K3):
        for _ in range(50):
            def rnd():
                x = Fraction(rng.randint(-9, 9), rng.randint(1, 4))
                y = 0 if field.is_rational else Fraction(rng.randint(-9, 9), rng.randint(1, 4))
                return field.elem(x, y)
            a, b, c = rnd(), rnd(), rnd()
            assert a * (b + c) == a * b + a * c
            assert (a * b) * c == a * (b * c)
            if not field.is_rational:
                assert a.norm() == (a * a.conj()).x
                assert a.trace() == (a + a.conj()).x
            assert (a * b).norm() == a.norm() * b.norm()


def test_factor_ideal_rationals():
    fac = factor_ideal(Q, Q.elem(28))
    assert [(P.q, e) for P, e in fac] == [(2, 2), (7, 1)]
    assert factor_ideal(Q, Q.elem(1)) == []
    assert factor_ideal(Q, Q.elem(-1)) == []
    with pytest.raises(DomainError):
        factor_ideal(Q, Q.elem(0))


def test_factor_ideal_quadratic():
    # 6 = p2^2 * p3 * p3' in Q(sqrt(-5)): 2 ramified, 3 split
    fac = factor_ideal(K5, K5.elem(6))
    assert len(fac) == 3
    norms = sorted(P.norm() ** e for P, e in fac)
    assert norms == [3, 3, 4]
    p2 = [P for P, _ in fac if P.q == 2][0]
    assert p2.ramified and p2.f == 1
    prod = KIdeal.unit_ideal(K5)
    for P, e in fac:
        prod = prod * P.ideal() ** e
    assert prod == KIdeal.principal(K5.elem(6))


def test_factor_reconstruction_random():
    rng = random.Random(23)
    for field in (Q, K5, K1, K7):
        for _ in range(20):
            x = field.elem(rng.randint(-40, 40),
                           0 if field.is_rational else rng.randint(-12, 12))
            if x.is_zero():
                continue
            prod = KIdeal.unit_ideal(field)
            for P, e in factor_ideal(field, x):
                prod = prod * P.ideal() ** e
            assert prod == KIdeal.principal(x)


def test_factor_resource_bound():
    with pytest.raises(ResourceLimitError):
        factor_ideal(Q, Q.elem(10**9), max_norm=10**6)


def test_long_integers_are_described_by_length():
    assert _decimal_or_length(10**40 - 1) == "9" * 40
    assert _decimal_or_length(-(10**40 - 1)) == "-" + "9" * 40
    assert _decimal_or_length(10**40) == "with 41 digits"
    # str() refuses integers past 4300 digits; their length is still exact
    for n in range(4290, 4310):
        assert _decimal_or_length(10**n - 1) == f"with {n:,} digits"
        assert _decimal_or_length(10**n) == f"with {n + 1:,} digits"
    with pytest.raises(ResourceLimitError, match="with 5,001 digits"):
        factor_ideal(Q, Q.elem(10**5000 + 1))


def test_valuation():
    p2 = split_prime(Q, 2)[0]
    p3 = split_prime(Q, 3)[0]
    i28 = KIdeal.principal(Q.elem(28))
    assert ideal_valuation(p2, i28) == 2
    assert ideal_valuation(p3, i28) == 0
    # (2) = p^2 in Q(sqrt(-5))
    p = split_prime(K5, 2)[0]
    assert ideal_valuation(p, KIdeal.principal(K5.elem(2))) == 2
    assert ideal_valuation(p, p.ideal()) == 1


def test_valuation_additive_random():
    rng = random.Random(11)
    for field in (Q, K5, K7):
        qs = [2, 3, 5, 7]
        for _ in range(15):
            a = field.elem(rng.randint(1, 30), 0 if field.is_rational else rng.randint(0, 5))
            b = field.elem(rng.randint(1, 30), 0 if field.is_rational else rng.randint(0, 5))
            if a.is_zero() or b.is_zero():
                continue
            A, B = KIdeal.principal(a), KIdeal.principal(b)
            for q in qs:
                for P in split_prime(field, q):
                    assert (ideal_valuation(P, A * B)
                            == ideal_valuation(P, A) + ideal_valuation(P, B))


def test_valuation_fractional():
    p2 = split_prime(Q, 2)[0]
    half = KIdeal.principal(Q.elem(Fraction(7, 2)))
    assert ideal_valuation(p2, half) == -1
    p = split_prime(K5, 2)[0]
    frac = KIdeal.principal(K5.elem(Fraction(1, 2)))
    assert ideal_valuation(p, frac) == -2


def test_class_group_orders():
    assert EnumeratedClassGroup(Q).h == 1
    assert EnumeratedClassGroup(K1).h == 1
    cg = EnumeratedClassGroup(K5)
    assert cg.h == 2
    assert set(cg.forms) == {QuadForm(1, 0, 5), QuadForm(2, 2, 3)}
    assert EnumeratedClassGroup(K3).h == 1
    assert EnumeratedClassGroup(K7).h == 1
    # h(-23) = 3, a class distinct from its inverse
    K23 = BaseField.imaginary_quadratic(-23)
    cg23 = EnumeratedClassGroup(K23)
    assert cg23.h == 3
    assert set(cg23.forms) == {QuadForm(1, 1, 6), QuadForm(2, 1, 3), QuadForm(2, -1, 3)}


def test_class_numbers_classical():
    # textbook values h(-d) for small discriminants
    expected = {-1: 1, -2: 1, -3: 1, -7: 1, -11: 1, -163: 1,
                -5: 2, -15: 2, -6: 2, -10: 2,
                -23: 3, -31: 3, -47: 5, -71: 7}
    for d, h in expected.items():
        assert EnumeratedClassGroup(BaseField.imaginary_quadratic(d)).h == h, d


def test_class_group_composition():
    for field in (K5, BaseField.imaginary_quadratic(-23),
                  BaseField.imaginary_quadratic(-14)):
        cg = EnumeratedClassGroup(field)
        e = cg.principal_form
        for f in cg.forms:
            assert cg.compose(f, e) == f
            assert cg.compose(f, cg.inverse(f)) == e
            for g in cg.forms:
                assert cg.compose(f, g) == cg.compose(g, f)
                for k in cg.forms:
                    assert cg.compose(cg.compose(f, g), k) == cg.compose(f, cg.compose(g, k))


def test_class_of_is_homomorphism():
    field = BaseField.imaginary_quadratic(-23)
    cg = EnumeratedClassGroup(field)
    ideals = [P.ideal() for q in (2, 3, 5, 13) for P in split_prime(field, q)
              if P.f == 1]
    for I in ideals:
        for J in ideals:
            assert cg.class_of(I * J) == cg.compose(cg.class_of(I), cg.class_of(J))


def test_is_principal():
    res = is_principal(Q, KIdeal.principal(Q.elem(Fraction(28, 3))))
    assert res.principal and res.generator == Q.elem(Fraction(28, 3))
    # (2, 1+sqrt(-5)) is not principal: x^2 + 5y^2 = 2 has no solution
    p2 = split_prime(K5, 2)[0]
    res = is_principal(K5, p2.ideal())
    assert not res.principal
    assert res.ideal_class == QuadForm(2, 2, 3)
    # (1 + sqrt(-5)) given by its HNF is recovered exactly
    g = K5.elem(1, 1)
    res = is_principal(K5, KIdeal.principal(g))
    assert res.principal
    assert res.generator == g


def test_is_principal_random():
    rng = random.Random(3)
    for field in (K5, K1, K7, BaseField.imaginary_quadratic(-23)):
        cg = class_group(field)
        for _ in range(15):
            g = field.elem(rng.randint(-9, 9), rng.randint(-9, 9))
            if g.is_zero():
                continue
            I = KIdeal.principal(g)
            res = is_principal(field, I)
            assert res.principal
            assert KIdeal.principal(res.generator) == I
            assert cg.is_principal_class(cg.class_of(I))


def test_ideal_inverse():
    rng = random.Random(59)
    one5 = KIdeal.unit_ideal(K5)
    for _ in range(12):
        g = K5.elem(rng.randint(-9, 9), rng.randint(-9, 9))
        if g.is_zero():
            continue
        I = KIdeal.principal(g)
        assert I * I.inverse() == one5
    p2 = split_prime(K5, 2)[0].ideal()
    assert p2 * p2.inverse() == one5
    q = KIdeal.principal(Q.elem(Fraction(28, 3)))
    assert q * q.inverse() == KIdeal.unit_ideal(Q)


def test_units():
    assert [str(u) for u in unit_reps_mod_p(Q, 3)] == ["1", "-1"]
    assert len(unit_reps_mod_p(K1, 3)) == 4
    assert len(unit_reps_mod_p(K5, 3)) == 2
    assert len(units(K3)) == 6
    for u in units(K3):
        assert u.norm() == 1
    with pytest.raises(DomainError):
        unit_reps_mod_p(K1, 2)
    with pytest.raises(DomainError):
        unit_reps_mod_p(K3, 3)  # 3 ramifies in Q(sqrt(-3))


def test_prime_splitting_shapes():
    # 2 splits iff d = 1 mod 8, inert iff d = 5 mod 8, ramified otherwise
    assert len(split_prime(BaseField.imaginary_quadratic(-7), 2)) == 2
    assert len(split_prime(K3, 2)) == 1 and split_prime(K3, 2)[0].f == 2
    assert split_prime(K5, 2)[0].ramified
    for field in (K5, K1, K7, K3):
        for q in (2, 3, 5, 7, 11, 13):
            prs = split_prime(field, q)
            assert sum(P.ram_index() * P.f for P in prs) == 2
            for P in prs:
                assert P.ideal().norm() == P.norm()


def test_reduce_form():
    assert reduce_form(QuadForm(3, 10, 10)) == QuadForm(2, 2, 3)
    assert reduce_form(QuadForm(1, 0, 5)) == QuadForm(1, 0, 5)
    assert reduce_form(QuadForm(3, -2, 2)) == QuadForm(2, 2, 3)


# ---------------------------------------------------------------------------
# Reference oracles for the integer ideal layer: the HNF-chain valuation and
# the generator-based product that the closed forms replaced.

def generator_product(I, J):
    """I*J as the O_K-module generated by the pairwise basis products."""
    return KIdeal.from_generators(
        I.field, [a * b for a in I.basis_elems() for b in J.basis_elems()])


def chain_valuation(P, I):
    """v_P(I): the largest k with P^k containing the numerator of I, by
    building P, P^2, ... from generators, less e(P) * v_q(den)."""
    num = KIdeal(I.field, I.rows, 1)
    Pid = P.ideal()
    v = 0
    power = Pid
    while power.contains_ideal(num):
        v += 1
        power = generator_product(power, Pid)
    den = I.den
    while den % P.q == 0:
        den //= P.q
        v -= P.ram_index()
    return v


# Q and fields where 2 and an odd q split, stay inert and ramify:
# -1: 2 ram, 3 inert, 5 split; -2: 2 ram, 3 split, 5 inert; -3: 2 inert,
# 3 ram, 7 split; -5: 2, 5 ram, 3, 7 split; -6: 2, 3 ram, 5, 7 split;
# -7: 2 split, 3 inert, 7 ram; -15: 2 split, 3, 5 ram, 7 inert.
PROPERTY_FIELDS = [Q] + [BaseField.imaginary_quadratic(d)
                         for d in (-1, -2, -3, -5, -6, -7, -15)]
PROPERTY_PRIMES = (2, 3, 5, 7)
PROPERTY_SETTINGS = settings(max_examples=400, deadline=None, derandomize=True)


def _primes(field):
    return [P for q in PROPERTY_PRIMES for P in split_prime(field, q)]


@st.composite
def elements(draw, field):
    """Nonzero elements with denominators that the small primes divide."""
    den = draw(st.sampled_from([1, 1, 2, 3, 4, 5, 6, 9, 12, 14, 49]))
    x = draw(st.integers(-60, 60))
    y = 0 if field.is_rational else draw(st.integers(-60, 60))
    if not (x or y):
        x = 1
    return field.elem(Fraction(x, den), Fraction(y, den))


@st.composite
def ideals(draw, field):
    gens = draw(st.lists(elements(field), min_size=1, max_size=2))
    return KIdeal.from_generators(field, gens)


@st.composite
def field_and_ideals(draw, count):
    field = draw(st.sampled_from(PROPERTY_FIELDS))
    return field, [draw(ideals(field)) for _ in range(count)]


@PROPERTY_SETTINGS
@given(field_and_ideals(1))
def test_ideal_valuation_matches_hnf_chain(case):
    field, (I,) = case
    for P in _primes(field):
        assert ideal_valuation(P, I) == chain_valuation(P, I), (P, I)


@PROPERTY_SETTINGS
@given(st.sampled_from(PROPERTY_FIELDS).flatmap(
    lambda f: st.tuples(st.just(f), elements(f))))
def test_element_valuation_matches_hnf_chain(case):
    field, g = case
    for P in _primes(field):
        assert element_valuation(P, g) == chain_valuation(
            P, KIdeal.principal(g)), (P, g)


@PROPERTY_SETTINGS
@given(field_and_ideals(2), st.integers(0, 3))
def test_ideal_product_matches_generator_product(case, n):
    field, (I, J) = case
    assert I * J == generator_product(I, J)
    power = KIdeal.unit_ideal(field)
    for _ in range(n):
        power = generator_product(power, I)
    assert I ** n == power


@PROPERTY_SETTINGS
@given(st.sampled_from(PROPERTY_FIELDS).flatmap(
    lambda f: st.tuples(st.just(f), elements(f), elements(f))))
def test_residue_classes_are_congruences(case):
    # for g, h integral at P: same residue iff g = h mod P
    field, g, h = case
    for P in _primes(field):
        if g.denominator() % P.q == 0:
            with pytest.raises(DomainError):
                residue(P, g)
            continue
        if h.denominator() % P.q:
            congruent = g == h or element_valuation(P, g - h) > 0
            assert (residue(P, g) == residue(P, h)) == congruent, (P, g, h)


def test_prime_ideal_matches_generators():
    for field in PROPERTY_FIELDS:
        for q in sympy.primerange(2, 60):
            for P in split_prime(field, q):
                gens = [field.elem(q)]
                if P.t0 is not None:
                    gens.append(P.pi_elem())
                assert P.ideal() == KIdeal.from_generators(field, gens), P


def test_valuation_of_zero():
    P = split_prime(K5, 2)[0]
    with pytest.raises(DomainError):
        ideal_valuation(P, KIdeal(K5, (), 1))
    with pytest.raises(DomainError):
        element_valuation(P, K5.zero())
    with pytest.raises(DomainError):
        element_valuation(P, K1.elem(1, 1))

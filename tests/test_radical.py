import random
from fractions import Fraction
from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from radfree import basefield, radical
from radfree.basefield import (
    DEFAULT_MAX_NORM,
    BaseField,
    KIdeal,
    factor_ideal,
    split_prime,
)
from radfree.cli import main
from radfree.errors import (
    DomainError,
    PreconditionError,
    RadfreeError,
    ResourceLimitError,
)
from radfree.extension import RadicandContext, min_poly
from radfree.radical import (
    TamenessVerdict,
    _residue_inverse,
    _strip_pth_powers,
    associated_ideals,
    i_part_decomposition,
    ramification_type,
    tameness_test,
)

Q = BaseField.rationals()
K5 = BaseField.imaginary_quadratic(-5)
K1 = BaseField.imaginary_quadratic(-1)


def test_i_part_decomposition():
    dec = i_part_decomposition(KIdeal.principal(Q.elem(360)))
    assert sorted(dec.parts) == [1, 2, 3]
    assert dec.parts[1] == KIdeal.principal(Q.elem(5))
    assert dec.parts[2] == KIdeal.principal(Q.elem(3))
    assert dec.parts[3] == KIdeal.principal(Q.elem(2))
    assert i_part_decomposition(KIdeal.unit_ideal(Q)).parts == {}
    # 2 O_K = p^2 in Q(sqrt(-5))
    dec = i_part_decomposition(KIdeal.principal(K5.elem(2)))
    assert list(dec.parts) == [2]
    assert dec.parts[2] == split_prime(K5, 2)[0].ideal()
    with pytest.raises(DomainError):
        i_part_decomposition(KIdeal.principal(Q.elem(Fraction(1, 2))))


def test_i_part_reconstruction_random():
    rng = random.Random(17)
    for field in (Q, K5, K1):
        for _ in range(15):
            x = field.elem(rng.randint(2, 400),
                           0 if field.is_rational else rng.randint(0, 6))
            if x.is_zero():
                continue
            dec = i_part_decomposition(KIdeal.principal(x))
            assert dec.reconstruct() == KIdeal.principal(x)
            # parts are squarefree and pairwise coprime
            parts = list(dec.parts.values())
            for i, part in enumerate(parts):
                from radfree.basefield import factor_kideal
                assert all(e == 1 for _, e in factor_kideal(part))
                for other in parts[i + 1:]:
                    assert part + other == KIdeal.unit_ideal(field)


def test_associated_ideals_28():
    ctx = RadicandContext(Q, 3, Q.elem(28))
    assoc = associated_ideals(ctx)
    assert assoc.b[0] == KIdeal.unit_ideal(Q)
    assert assoc.b[1] == KIdeal.unit_ideal(Q)
    assert assoc.b[2] == KIdeal.principal(Q.elem(2))
    assert all(cls is None for cls in assoc.classes)


def test_associated_ideals_squarefree():
    for a in (10, 17, 19, 37):
        ctx = RadicandContext(Q, 3, Q.elem(a))
        assoc = associated_ideals(ctx)
        assert all(bj == KIdeal.unit_ideal(Q) for bj in assoc.b)


def test_associated_ideals_496():
    ctx = RadicandContext(Q, 5, Q.elem(496))
    assoc = associated_ideals(ctx)
    expected = [1, 1, 2, 4, 8]
    for bj, e in zip(assoc.b, expected):
        assert bj == KIdeal.principal(Q.elem(e))


def test_associated_ideals_exponent_law_random():
    rng = random.Random(41)
    count = 0
    while count < 60:
        p = rng.choice([3, 5, 7])
        field = rng.choice([Q, K5, K1])
        a = field.elem(rng.randint(2, 3000),
                       0 if field.is_rational else rng.randint(0, 9))
        try:
            ctx = RadicandContext(field, p, a)
        except DomainError:
            continue
        count += 1
        assoc = associated_ideals(ctx)
        for P, v in ctx.radicand_factorization:
            for j in range(p):
                from radfree.basefield import ideal_valuation
                assert ideal_valuation(P, assoc.b[j]) == j * v // p


def test_ramification_type():
    ctx = RadicandContext(Q, 3, Q.elem(28))
    p7 = split_prime(Q, 7)[0]
    p5 = split_prime(Q, 5)[0]
    p2 = split_prime(Q, 2)[0]
    assert ramification_type(ctx, p7) == "totally-ramified"
    assert ramification_type(ctx, p5) == "unramified"
    ctx56 = RadicandContext(Q, 3, Q.elem(56))
    assert ramification_type(ctx56, p2) == "unramified"
    with pytest.raises(DomainError):
        ramification_type(ctx, split_prime(Q, 3)[0])


def test_tameness_basic():
    v = tameness_test(Q, 3, Q.elem(10))
    assert v.tame and v.normalized == Q.elem(10) and v.c.is_one()

    v = tameness_test(Q, 3, Q.elem(2))
    assert not v.tame and "wild" in v.witness

    v = tameness_test(Q, 3, Q.elem(17))
    assert v.tame and v.c == Q.elem(2)
    assert v.normalized == Q.elem(136)


def test_tameness_identity_and_field_preservation():
    # a' = a * c^p exactly, and alpha' = alpha * c is a root of
    # x^p - a', so the normalized radicand generates the same field
    for a in (17, 80, -10, 44):
        v = tameness_test(Q, 3, Q.elem(a))
        if not v.tame:
            continue
        assert Q.elem(a) * v.c ** 3 == v.normalized
        ctx = RadicandContext(Q, 3, Q.elem(a))
        alpha_prime = ctx.alpha_power(1).scale(v.c)
        assert alpha_prime ** 3 == ctx.from_k(v.normalized)
        mp = min_poly(ctx, alpha_prime)
        assert [c.x for c in mp] == [-v.normalized.x, 0, 0, 1]


def test_tameness_strips_pth_powers():
    # 80 = 2^4 * 5 -> stripped radicand 10, already normalized
    v = tameness_test(Q, 3, Q.elem(80))
    assert v.tame and v.stripped == Q.elem(10) and v.normalized == Q.elem(10)
    assert Q.elem(80) * v.c ** 3 == v.normalized
    # 54 = 2 * 27 -> stripped radicand 2, which is wild
    v = tameness_test(Q, 3, Q.elem(54))
    assert not v.tame and v.stripped == Q.elem(2)


def test_tameness_p5():
    for a in (26, 51, 76, 101):
        v = tameness_test(Q, 5, Q.elem(a))
        assert v.tame and v.c.is_one()
    assert not tameness_test(Q, 5, Q.elem(2)).tame


def test_tameness_classical_congruence_sample():
    # over Q the search agrees with a^(p-1) = 1 mod p^2 (full range in the
    # acceptance suite)
    for p in (3, 5):
        for a in range(-60, 61):
            if a in (-1, 0, 1) or a % p == 0:
                continue
            if any(abs(a) == b ** p for b in range(2, 5)):
                continue
            v = tameness_test(Q, p, Q.elem(a))
            assert v.tame == (pow(a, p - 1, p * p) == 1), a


def test_tameness_quadratic():
    v = tameness_test(K5, 3, K5.elem(10))
    assert v.tame and v.c.is_one()
    assert not tameness_test(K5, 3, K5.elem(3)).tame
    # a = 1 + 9w is already normalized
    v = tameness_test(K5, 3, K5.elem(1, 9))
    assert v.tame and v.normalized == K5.elem(1, 9)
    # Gaussian integers, p = 3 inert
    v = tameness_test(K1, 3, K1.elem(10))
    assert v.tame


def test_tameness_nonprincipal_strip_blocks():
    # v = 3 at one split prime above 3 whose cube class is non-principal
    a = K5.elem(7, 1)   # norm 54, valuation 3 at one prime above 3
    with pytest.raises(PreconditionError):
        tameness_test(K5, 3, a)


def normalized_context(field, p, a, max_norm=DEFAULT_MAX_NORM):
    """Tameness test plus the context for the normalized radicand."""
    verdict = tameness_test(field, p, a, max_norm)
    if not verdict.tame:
        return verdict, None
    ctx = RadicandContext(field, p, verdict.normalized, max_norm)
    assert ctx.is_normalized
    return verdict, ctx


def test_normalized_context():
    verdict, ctx = normalized_context(Q, 3, Q.elem(17))
    assert verdict.tame and ctx.is_normalized and ctx.a == Q.elem(136)
    verdict, ctx = normalized_context(Q, 3, Q.elem(2))
    assert not verdict.tame and ctx is None


def test_tameness_large_p_closed_form():
    # O_K/p^2 has 1009^2 residues over Q and 23^4 over Q(i)
    v = tameness_test(Q, 1009, Q.elem(2))
    assert not v.tame and v.stripped == Q.elem(2)
    v = tameness_test(K1, 23, K1.elem(2))
    assert not v.tame
    a = K1.elem(1, 1) ** 23 + K1.elem(5, -7).scale(23 * 23)
    v = tameness_test(K1, 23, a)
    assert v.tame and a * v.c ** 23 == v.normalized


def test_tameness_factors_the_radicand_once(monkeypatch):
    calls = []
    real = basefield.factor_kideal

    def counting(*args, **kwargs):
        calls.append(args[0])
        return real(*args, **kwargs)

    monkeypatch.setattr(basefield, "factor_kideal", counting)
    monkeypatch.setattr(radical, "factor_kideal", counting)
    # 80 and 54 lose a cube, 17 is tame with c = 2, K5's 10 has no cube part
    for field, a in ((Q, 80), (Q, 54), (Q, 17), (K5, 10)):
        calls.clear()
        tameness_test(field, 3, field.elem(a))
        assert len(calls) == 1, (field, a)


def test_strip_box_bound(monkeypatch, capsys):
    # 80 = 2^4 * 5: the exponent box of the cube part 2^1 has 2 points
    monkeypatch.setattr(radical, "STRIP_MAX_BOX", 1)
    with pytest.raises(ResourceLimitError) as exc:
        tameness_test(Q, 3, Q.elem(80))
    assert exc.value.bound == 1
    assert "tameness" in str(exc.value) and "STRIP_MAX_BOX" in str(exc.value)
    assert main(["analyze", "--base", "Q", "--p", "3", "--a", "80"]) == 3
    err = capsys.readouterr().err
    assert "tameness" in err and "bound: 1" in err
    # nothing to strip, no box
    assert tameness_test(Q, 3, Q.elem(10)).tame


# ---------------------------------------------------------------------------
# Oracle: the residue-table search that the closed form in tameness_test
# replaced.  It tries ell = 1..p-1 and looks a^(-ell) up in the table of
# c^p mod p^2 over all residues c of O_K/p^2 O_K; its first hit has ell = 1.

@lru_cache(maxsize=None)
def residue_pth_powers(field, p):
    """Map c^p mod p^2 -> first such c, over c = x + y*w with x, y in
    [0, p^2), x outermost; integer arithmetic mod p^2."""
    m = p * p
    s, r = field._omega_rel
    table = {}
    ys = range(1) if field.is_rational else range(m)
    for x in range(m):
        for y in ys:
            px, py = 1, 0
            for _ in range(p):
                ww = py * y
                px, py = (px * x + r * ww) % m, (px * y + py * x + s * ww) % m
            table.setdefault((px, py), (x, y))
    return table


def table_tameness(field, p, a, max_norm=DEFAULT_MAX_NORM):
    RadicandContext(field, p, a, max_norm)
    m = p * p
    a_str, g = _strip_pth_powers(field, a, p, factor_ideal(field, a, max_norm))
    fac = factor_ideal(field, a_str, max_norm)
    for P in split_prime(field, p):
        v = next((e for Q_, e in fac if Q_ == P), 0)
        if v == 0:
            continue
        if v % p:
            return TamenessVerdict(
                tame=False, stripped=a_str,
                witness=(f"v_P(a) = {v} at P = {P} above p after stripping; "
                         f"p is totally and wildly ramified"))
        raise PreconditionError("p-th-power part above p is not principal")
    table = residue_pth_powers(field, p)
    a_red = field.elem(a_str.x % m, a_str.y % m)
    for ell in range(1, p):
        target = _residue_inverse(field, a_red ** ell, m)
        hit = table.get((int(target.x), int(target.y)))
        if hit is not None:
            assert ell == 1, (field, p, a, ell)
            c = field.elem(*hit)
            return TamenessVerdict(tame=True, normalized=a_str * c ** p,
                                   c=c / g, stripped=a_str)
    return TamenessVerdict(
        tame=False, stripped=a_str,
        witness=(f"no l in 1..{p - 1} makes a^l a {p}-th power in "
                 f"(O_K/{m}O_K)^*; p is wildly ramified"))


# p = 3, 5, 7, 11 is split in some of these fields and inert in others
# (Q(i): 5 split, 3, 7, 11 inert; Q(sqrt-2): 3, 11 split, 5, 7 inert) and
# ramified in Q(sqrt-3), Q(sqrt-5), Q(sqrt-7), Q(sqrt-15).
ORACLE_FIELDS = (Q,) + tuple(BaseField.imaginary_quadratic(d)
                             for d in (-1, -2, -3, -5, -7, -15))


@st.composite
def tameness_cases(draw):
    """a = b * g^(k*p) * pi^e: b arbitrary or u^p + p^2*z (tame when prime
    to p), k = 0, 1, 2, and pi = p or pi = w - t0 above p with e near
    multiples of p."""
    field = draw(st.sampled_from(ORACLE_FIELDS))
    p = draw(st.sampled_from((3, 5, 7, 11)))

    def elem(bound):
        x = draw(st.integers(-bound, bound))
        y = 0 if field.is_rational else draw(st.integers(-bound, bound))
        return field.elem(x, y)

    b = elem(40)
    if draw(st.booleans()):
        b = elem(2) ** p + elem(6).scale(p * p)
    g = elem(2)
    if g.is_zero():
        g = field.one()
    a = b * g ** (p * draw(st.sampled_from((0, 1, 2))))
    pis = [field.elem(p)] + [P.pi_elem() for P in split_prime(field, p)
                             if P.pi_elem() is not None]
    a = a * draw(st.sampled_from(pis)) ** draw(
        st.sampled_from((0, 0, 0, 0, 1, 2, p - 1, p, p + 1)))
    return field, p, a


@settings(max_examples=600, deadline=None, derandomize=True)
@given(tameness_cases())
def test_tameness_matches_residue_table(case):
    field, p, a = case
    try:
        expected = table_tameness(field, p, a)
    except RadfreeError as exc:
        with pytest.raises(RadfreeError) as got:
            tameness_test(field, p, a)
        assert type(got.value) is type(exc), (got.value, exc)
        return
    assert tameness_test(field, p, a) == expected

from fractions import Fraction

import pytest

from radfree.basefield import BaseField, element_valuation, split_prime
from radfree.dedekind import dedekind_maximality_oracle
from radfree import integral
from radfree.cli import main
from radfree.errors import (
    PreconditionError,
    ResourceLimitError,
    UnsupportedScopeError,
)
from radfree.extension import RadicandContext, hnf_glue, span_lattice
from radfree.integral import (
    field_index_and_discriminant,
    global_integral_basis,
    local_basis,
    poly_discriminant,
    solve_coordinates,
    uniformizer,
)

from helpers import integral_bases, is_integral_at, local_bases

Q = BaseField.rationals()
K5 = BaseField.imaginary_quadratic(-5)


def ctx_q(p, a):
    return RadicandContext(Q, p, Q.elem(a))


def test_local_basis_away_from_p():
    ctx = ctx_q(3, 28)
    p2 = split_prime(Q, 2)[0]
    basis = local_basis(ctx, p2)
    assert basis.r_exponents == (0, 0, 1)
    assert basis.elements[0] == ctx.one()
    assert basis.elements[1] == ctx.alpha_power(1)
    assert basis.elements[2] == ctx.alpha_power(2).scale_rat(Fraction(1, 2))
    p5 = split_prime(Q, 5)[0]
    basis = local_basis(ctx, p5)
    assert basis.r_exponents == (0, 0, 0)
    assert list(basis.elements) == [ctx.alpha_power(j) for j in range(3)]


def test_local_basis_above_p():
    ctx = ctx_q(3, 10)
    p3 = split_prime(Q, 3)[0]
    basis = local_basis(ctx, p3)
    assert basis.elements[-1] == ctx.from_coords([Fraction(1, 3)] * 3)
    assert basis.uniformizer is None
    # non-normalized radicand above p is rejected
    with pytest.raises(PreconditionError):
        local_basis(ctx_q(3, 17), p3)


def test_local_basis_valuation_permutation():
    # at a totally ramified prime away from p the basis valuations at the
    # prime above are a permutation of 0..p-1
    for p, a, q in ((3, 28, 2), (3, 28, 7), (5, 96, 2), (5, 51 * 8, 2)):
        ctx = ctx_q(p, a)
        P = split_prime(Q, q)[0]
        v = ctx.v_a(P)
        if v % p == 0:
            continue
        vals = sorted((j * v - p * (j * v // p)) for j in range(p))
        assert vals == list(range(p))


def test_local_basis_determinant_valuation():
    # change-of-basis determinant from the power basis: valuation -sum r_j
    # away from p, exactly one factor 1/p above p
    ctx = ctx_q(3, 28)
    for q in (2, 3, 7):
        P = split_prime(Q, q)[0]
        basis = local_basis(ctx, P)
        det = Fraction(1)
        rows = [solve_coordinates(ctx, [ctx.alpha_power(j) for j in range(3)], e)
                for e in basis.elements]
        # triangular in these cases
        for j in range(3):
            det *= rows[j][j].x
        v = 0
        dd = det
        while dd.denominator % q == 0:
            dd *= q
            v -= 1
        while dd.numerator % q == 0:
            dd /= q
            v += 1
        if q == 3:
            assert v == -1
        else:
            assert v == -sum(basis.r_exponents)


def test_local_basis_determinant_valuation_random():
    # v_P(det change-of-basis from the power basis) is -sum_j r_j away from
    # p and -v_P(p) = -1 above p, across random tame instances
    import random

    from radfree.basefield import element_valuation
    from radfree.errors import DomainError
    from radfree.freeness import _det_k

    rng = random.Random(97)
    fields = [Q, K5, BaseField.imaginary_quadratic(-1),
              BaseField.imaginary_quadratic(-7)]
    n = 0
    while n < 25:
        p = rng.choice([3, 5])
        field = rng.choice(fields)
        if field.discriminant % p == 0:
            continue
        a = field.elem(1 + p * p * rng.randint(1, 200))
        try:
            ctx = RadicandContext(field, p, a)
        except DomainError:
            continue
        power = [ctx.alpha_power(j) for j in range(p)]
        for P in ctx.support_primes():
            basis = local_basis(ctx, P)
            rows = [solve_coordinates(ctx, power, e) for e in basis.elements]
            det = _det_k(ctx, rows)
            if P.q == p:
                assert element_valuation(P, det) == -1
            else:
                assert element_valuation(P, det) == -sum(basis.r_exponents)
        n += 1


def test_is_integral_at():
    ctx = ctx_q(3, 10)
    p3 = split_prime(Q, 3)[0]
    w = ctx.from_coords([Fraction(1, 3)] * 3)
    assert is_integral_at(ctx, w, p3)
    assert not is_integral_at(ctx, ctx.alpha_power(1).scale_rat(Fraction(1, 3)), p3)
    for q in (2, 3, 5, 7):
        P = split_prime(Q, q)[0]
        assert is_integral_at(ctx, ctx.alpha_power(1), P)
    # the a = 28 sign subtlety: (1 + a - a^2/2)/3 is integral at 3 but
    # (1 + a + a^2/2)/3 is not
    ctx28 = ctx_q(3, 28)
    p3 = split_prime(Q, 3)[0]
    good = ctx28.from_coords([Fraction(1, 3), Fraction(1, 3), Fraction(-1, 6)])
    bad = ctx28.from_coords([Fraction(1, 3), Fraction(1, 3), Fraction(1, 6)])
    assert is_integral_at(ctx28, good, p3)
    assert not is_integral_at(ctx28, bad, p3)


def test_is_integral_at_quadratic():
    ctx = RadicandContext(K5, 3, K5.elem(10))
    for P in split_prime(K5, 3):
        w = ctx.from_coords([Fraction(1, 3)] * 3)
        assert is_integral_at(ctx, w, P)
        assert not is_integral_at(ctx, ctx.one().scale_rat(Fraction(1, 3)), P)


def test_global_integral_basis_10():
    ctx = ctx_q(3, 10)
    lat = global_integral_basis(ctx, local_bases(ctx))
    w = ctx.from_coords([Fraction(1, 3)] * 3)
    assert lat == span_lattice(ctx, [ctx.one(), ctx.alpha_power(1), w])
    index, disc = field_index_and_discriminant(ctx, lat)
    assert poly_discriminant(ctx) == -2700
    assert index == 3 and disc == -300


def test_global_integral_basis_19():
    ctx = ctx_q(3, 19)
    lat = global_integral_basis(ctx, local_bases(ctx))
    w = ctx.from_coords([Fraction(1, 3)] * 3)
    assert lat == span_lattice(ctx, [ctx.one(), ctx.alpha_power(1), w])


def test_global_integral_basis_28():
    ctx = ctx_q(3, 28)
    lat = global_integral_basis(ctx, local_bases(ctx))
    assert lat.den == 6
    assert lat.rows == ((2, 2, 2), (0, 6, 0), (0, 0, 3))
    index, disc = field_index_and_discriminant(ctx, lat)
    assert index == 6 and disc == -588


def test_global_integral_basis_round_trip():
    for a in (10, 28, 19, 136):
        ctx = ctx_q(3, a)
        lat = global_integral_basis(ctx, local_bases(ctx))
        conds = [(P, [ctx.from_coords(r)
                      for r in lat.localize(P.q).rational_rows()])
                 for P in ctx.support_primes()]
        assert hnf_glue(ctx, conds) == lat


def test_global_integral_basis_scope():
    with pytest.raises(UnsupportedScopeError):
        global_integral_basis(RadicandContext(K5, 3, K5.elem(10)), {})


def test_uniformizer_principal():
    ctx = ctx_q(3, 28)
    for q in (2, 7):
        P = split_prime(Q, q)[0]
        assert uniformizer(ctx, P) == Q.elem(q)


def test_uniformizer_nonprincipal():
    # a = 10 over Q(sqrt(-5)): support = {p2, p5, p3, p3'}, p2 non-principal
    ctx = RadicandContext(K5, 3, K5.elem(10))
    p2 = split_prime(K5, 2)[0]
    pi = uniformizer(ctx, p2)
    assert element_valuation(p2, pi) == 1
    for P in ctx.support_primes():
        if P != p2:
            assert element_valuation(P, pi) == 0


def test_uniformizer_search_bound(monkeypatch, capsys):
    # x^2 + 5y^2 = 2 has no solution, so with one norm multiplier the search
    # at the non-principal (2, w-1) of Q(sqrt(-5)) finds nothing
    monkeypatch.setattr(integral, "UNIFORMIZER_MAX_MULTIPLIER", 1)
    ctx = RadicandContext(K5, 3, K5.elem(10))
    p2 = split_prime(K5, 2)[0]
    assert str(p2) == "(2, w-1)"
    with pytest.raises(ResourceLimitError) as exc:
        uniformizer(ctx, p2)
    assert exc.value.bound == 1
    assert "local bases" in str(exc.value) and "(2, w-1)" in str(exc.value)
    assert main(["analyze", "--base", "Qsqrt-5", "--p", "3", "--a", "10"]) == 3
    err = capsys.readouterr().err
    assert "local bases" in err and "bound: 1" in err


def test_dedekind_oracle_10():
    w3 = dedekind_maximality_oracle(3, 3, 10)
    assert not w3.maximal
    w5 = dedekind_maximality_oracle(5, 3, 10)
    assert w5.maximal
    w7 = dedekind_maximality_oracle(7, 3, 10)
    assert w7.maximal
    for w in (w3, w5, w7):
        assert w.recheck()


def test_dedekind_vs_global_index():
    # q divides the index iff the oracle reports non-maximal at q
    import sympy
    for p, a in ((3, 10), (3, 28), (3, 19), (3, 136), (3, 100), (5, 51),
                 (5, 32 * 51 % 10**6), (3, 244)):
        try:
            ctx = ctx_q(p, a)
        except Exception:
            continue
        if not ctx.is_normalized:
            continue
        index, _ = field_index_and_discriminant(ctx, integral_bases(ctx)[1])
        for q in sorted({p, *(int(v) for v in sympy.factorint(abs(a)))}):
            witness = dedekind_maximality_oracle(q, p, a)
            assert witness.maximal == (index % q != 0), (p, a, q)


def test_discriminant_against_round_two():
    # fully independent maximal-order computation (sympy round_two) agrees
    # with the glued local bases
    from sympy import Poly, QQ as SQQ
    from sympy.abc import x as sx
    from sympy.polys.numberfields.basis import round_two

    for p, a in ((3, 10), (3, 28), (3, 136), (3, 100), (5, 51), (5, 76),
                 (3, 19), (5, 101), (3, 1009)):
        ctx = ctx_q(p, a)
        assert ctx.is_normalized
        _, disc = field_index_and_discriminant(ctx, integral_bases(ctx)[1])
        _, dK = round_two(Poly(sx**p - a, sx, domain=SQQ))
        assert disc == int(dK), (p, a)


def test_dedekind_shapes():
    # f = x^3 - 10 at 5: fbar = x^3, radical x, T = 2
    w = dedekind_maximality_oracle(5, 3, 10)
    assert w.fbar == (0, 0, 0, 1)
    assert w.gstar == (0, 1)
    assert w.hstar == (0, 0, 1)
    assert w.tbar == (2,)
    # squarefree mod 7
    w = dedekind_maximality_oracle(7, 3, 10)
    assert w.hstar == (1,)
    assert w.maximal

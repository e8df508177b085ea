import itertools
import random
from fractions import Fraction

from radfree.basefield import BaseField, QuadForm, class_group, split_prime
from radfree.extension import RadicandContext
from radfree.hopf import (
    act,
    class_of_MOL,
    eta_coefficients,
    h_from_coords,
    h_identity,
    idempotent,
    idempotent_coords_from_eta,
    in_associated_order,
    in_associated_order_by_eta,
    in_maximal_order,
    local_generator,
    zeta_power,
)
from radfree.integral import local_basis, solve_coordinates
from radfree.freeness import _det_k
from radfree.radical import associated_ideals
from radfree.basefield import element_valuation

Q = BaseField.rationals()
K5 = BaseField.imaginary_quadratic(-5)
K1 = BaseField.imaginary_quadratic(-1)


def ctx_q(p, a):
    return RadicandContext(Q, p, Q.elem(a))


def test_idempotent_laws():
    for ctx in (ctx_q(3, 10), ctx_q(5, 51), RadicandContext(K5, 3, K5.elem(10))):
        p = ctx.p
        total = h_from_coords(ctx, [0] * p)
        for i in range(p):
            ei = idempotent(ctx, i)
            total = total + ei
            for j in range(p):
                ej = idempotent(ctx, j)
                expected = ei if i == j else h_from_coords(ctx, [0] * p)
                assert ei * ej == expected
        assert total == h_identity(ctx)


def test_delta_action():
    ctx = ctx_q(3, 10)
    x = ctx.from_coords([3, 2, 0])
    assert act(ctx, idempotent(ctx, 1), x) == ctx.from_coords([0, 2, 0])
    y = ctx.from_coords([5, 0, 1])
    assert act(ctx, idempotent(ctx, 2), y) == ctx.from_coords([0, 0, 1])
    for i in range(3):
        for j in range(3):
            lhs = act(ctx, idempotent(ctx, i), ctx.alpha_power(j))
            assert lhs == (ctx.alpha_power(j) if i == j else ctx.zero())


def test_action_algebra_compatibility():
    rng = random.Random(13)
    ctx = ctx_q(5, 51)
    for _ in range(20):
        h1 = h_from_coords(ctx, [rng.randint(-9, 9) for _ in range(5)])
        h2 = h_from_coords(ctx, [rng.randint(-9, 9) for _ in range(5)])
        x = ctx.from_coords([Fraction(rng.randint(-9, 9), rng.randint(1, 3))
                             for _ in range(5)])
        assert act(ctx, h1 * h2, x) == act(ctx, h1, act(ctx, h2, x))
        assert act(ctx, h_identity(ctx), x) == x


def test_eta_coefficients_examples():
    ctx = ctx_q(3, 10)
    d = eta_coefficients(ctx, h_identity(ctx))
    assert not d[0].is_zero() and d[0].coords[0].is_one()
    assert d[1].is_zero() and d[2].is_zero()

    d = eta_coefficients(ctx, idempotent(ctx, 0).scale(Q.elem(3)))
    for k in range(3):
        assert d[k].coords[0].is_one() and d[k].coords[1].is_zero()

    d = eta_coefficients(ctx, idempotent(ctx, 1).scale(Q.elem(3)))
    assert [c.x for c in d[0].coords] == [1, 0]
    assert [c.x for c in d[1].coords] == [-1, -1]   # zeta^(-1) = zeta^2
    assert [c.x for c in d[2].coords] == [0, 1]     # zeta^(-2) = zeta


def test_eta_round_trip():
    rng = random.Random(29)
    for ctx in (ctx_q(3, 10), ctx_q(5, 51), RadicandContext(K5, 3, K5.elem(10))):
        p = ctx.p
        for _ in range(10):
            coords = [ctx.field.elem(Fraction(rng.randint(-8, 8), rng.randint(1, 3)),
                                     0 if ctx.field.is_rational else rng.randint(-2, 2))
                      for _ in range(p)]
            h = h_from_coords(ctx, coords)
            d = eta_coefficients(ctx, h)
            back = idempotent_coords_from_eta(ctx, d)
            for ci, orig in zip(back, coords):
                assert ci.coords[0] == orig
                assert all(c.is_zero() for c in ci.coords[1:])


def test_zeta_power_reduction():
    ctx = ctx_q(5, 51)
    z4 = zeta_power(ctx, 4)
    assert all(c.x == -1 for c in z4.coords)
    assert zeta_power(ctx, 7).coords == zeta_power(ctx, 2).coords


def test_associated_order_examples():
    ctx = ctx_q(3, 10)
    assert in_associated_order(ctx, h_from_coords(ctx, [1, 4, 1]))
    assert in_associated_order_by_eta(ctx, h_from_coords(ctx, [1, 4, 1]))
    assert not in_associated_order(ctx, idempotent(ctx, 1))
    assert not in_associated_order_by_eta(ctx, idempotent(ctx, 1))
    for p, a in ((3, 10), (5, 51), (7, 50)):
        ctx = ctx_q(p, a)
        pk = ctx.field.elem(p)
        for i in range(p):
            assert in_associated_order(ctx, idempotent(ctx, i).scale(pk))
            assert in_associated_order_by_eta(ctx, idempotent(ctx, i).scale(pk))


def test_associated_order_in_maximal_order():
    ctx = ctx_q(3, 10)
    assert in_maximal_order(idempotent(ctx, 1))
    assert not in_maximal_order(h_from_coords(ctx, [Fraction(1, 2), 0, 0]))
    rng = random.Random(31)
    for _ in range(50):
        h = h_from_coords(ctx, [Fraction(rng.randint(-9, 9), rng.choice([1, 1, 3]))
                                for _ in range(3)])
        if in_associated_order(ctx, h):
            assert in_maximal_order(h)


def test_ring_closure_of_associated_order():
    rng = random.Random(37)
    for ctx in (ctx_q(3, 10), ctx_q(5, 51)):
        p = ctx.p
        members = []
        while len(members) < 8:
            base = rng.randint(-5, 5)
            h = h_from_coords(ctx, [base + p * rng.randint(-2, 2) for _ in range(p)])
            if in_associated_order(ctx, h):
                members.append(h)
        for h1 in members:
            for h2 in members:
                assert in_associated_order(ctx, h1 * h2)
        assert in_associated_order(ctx, h_identity(ctx))


def test_membership_agreement_exhaustive_p3():
    ctx = ctx_q(3, 10)
    for coords in itertools.product(range(-6, 7), repeat=3):
        h = h_from_coords(ctx, list(coords))
        assert in_associated_order(ctx, h) == in_associated_order_by_eta(ctx, h)


def test_membership_agreement_fractional_and_quadratic():
    rng = random.Random(43)
    ctxs = [ctx_q(3, 10), RadicandContext(K5, 3, K5.elem(10)),
            RadicandContext(K1, 3, K1.elem(10))]
    for ctx in ctxs:
        for _ in range(120):
            coords = [ctx.field.elem(
                Fraction(rng.randint(-9, 9), rng.choice([1, 1, 1, 2, 3])),
                0 if ctx.field.is_rational else rng.randint(-4, 4))
                for _ in range(ctx.p)]
            h = h_from_coords(ctx, coords)
            assert in_associated_order(ctx, h) == in_associated_order_by_eta(ctx, h)


def test_membership_agreement_random_p5_p7():
    rng = random.Random(47)
    for p, a in ((5, 51), (7, 50)):
        ctx = ctx_q(p, a)
        hits = 0
        for _ in range(300):
            base = rng.randint(-6, 6)
            coords = [base + p * rng.randint(-1, 1) if rng.random() < 0.5
                      else rng.randint(-6, 6) for _ in range(p)]
            h = h_from_coords(ctx, coords)
            lhs = in_associated_order(ctx, h)
            assert lhs == in_associated_order_by_eta(ctx, h)
            hits += lhs
        assert hits > 0


def test_local_generator_examples():
    ctx = ctx_q(3, 28)
    p7 = split_prime(Q, 7)[0]
    p2 = split_prime(Q, 2)[0]
    third = Fraction(1, 3)
    assert (local_generator(ctx, local_basis(ctx, p7))
            == ctx.from_coords([third, third, third]))
    assert (local_generator(ctx, local_basis(ctx, p2))
            == ctx.from_coords([third, third, Fraction(1, 6)]))
    ctx10 = ctx_q(3, 10)
    p3 = split_prime(Q, 3)[0]
    assert (local_generator(ctx10, local_basis(ctx10, p3))
            == ctx10.from_coords([third, third, third]))


def test_local_generation_spans():
    # {x_P} + {p e_i x_P} has unit determinant against the local basis
    for ctx in (ctx_q(3, 28), ctx_q(3, 10), ctx_q(5, 76),
                RadicandContext(K5, 3, K5.elem(10))):
        p = ctx.p
        pk = ctx.field.elem(p)
        for P in ctx.support_primes():
            x = local_generator(ctx, local_basis(ctx, P))
            spanners = [x] + [act(ctx, idempotent(ctx, i).scale(pk), x)
                              for i in range(1, p)]
            basis = local_basis(ctx, P)
            rows = [solve_coordinates(ctx, list(basis.elements), s)
                    for s in spanners]
            for row in rows:
                for c in row:
                    assert c.is_zero() or element_valuation(P, c) >= 0
            det = _det_k(ctx, rows)
            assert element_valuation(P, det) == 0


def test_class_of_MOL():
    ctx = ctx_q(3, 28)
    assoc = associated_ideals(ctx)
    assert all(cls is None for cls in class_of_MOL(ctx, assoc))

    ctx5 = RadicandContext(K5, 3, K5.elem(10))
    assoc5 = associated_ideals(ctx5)
    tup = class_of_MOL(ctx5, assoc5)
    cg = class_group(K5)
    assert cg.is_principal_class(tup[0])
    assert cg.is_principal_class(tup[1])
    assert tup[2] == QuadForm(2, 2, 3)

    # squarefree radicand: all classes principal
    ctx_sf = RadicandContext(K5, 3, K5.elem(19))
    assoc_sf = associated_ideals(ctx_sf)
    assert all(cg.is_principal_class(c) for c in class_of_MOL(ctx_sf, assoc_sf))

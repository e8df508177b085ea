"""Acceptance gate: one test per acceptance criterion, exact tolerances.

Each test prints a single [PASS] line (visible with -s) including its
runtime; a failing criterion fails its test.
"""

import itertools
import random
import time
from fractions import Fraction
from pathlib import Path

import sympy

from radfree.basefield import (
    BaseField,
    KIdeal,
    QuadForm,
    element_valuation,
    ideal_valuation,
    split_prime,
)
from radfree.dedekind import dedekind_maximality_oracle
from radfree.errors import DegenerateExtensionError, DomainError
from radfree.extension import RadicandContext
from radfree.freeness import _det_k, criterion_check, verify_generator
from radfree.hopf import (
    act,
    class_of_MOL,
    h_from_coords,
    h_identity,
    idempotent,
    in_associated_order,
    in_associated_order_by_eta,
    local_generator,
)
from radfree.integral import (
    field_index_and_discriminant,
    local_basis,
    poly_discriminant,
    solve_coordinates,
)
from radfree.radical import (
    associated_ideals,
    i_part_decomposition,
    tameness_test,
)

from helpers import EnumeratedClassGroup, integral_bases, stages

Q = BaseField.rationals()
K5 = BaseField.imaginary_quadratic(-5)

QUAD_FIELDS = [BaseField.imaginary_quadratic(d) for d in (-1, -2, -5, -7)]


def _report(name, t0, budget):
    elapsed = time.perf_counter() - t0
    assert elapsed < budget, f"{name} exceeded its {budget}s budget ({elapsed:.1f}s)"
    print(f"[PASS] {name} ({elapsed:.2f}s)")


def test_squarefree_family():
    # K = Q, p in {3, 5}: every squarefree a = 1 mod p^2 with 1 < a < 2000 is
    # free with generator (1/p) sum alpha^j, and the span check passes
    t0 = time.perf_counter()
    checked = 0
    for p in (3, 5):
        m = p * p
        for a in range(2, 2000):
            if a % m != 1:
                continue
            if any(e > 1 for e in sympy.factorint(a).values()):
                continue
            ctx = RadicandContext(Q, p, Q.elem(a))
            cert = criterion_check(ctx, *stages(ctx))
            assert cert.free, (p, a, cert.verdict)
            expected = tuple(Q.elem(Fraction(1, p)) for _ in range(p))
            assert cert.generator.coords == expected, (p, a)
            ok, _ = verify_generator(ctx, cert.generator, *integral_bases(ctx))
            assert ok, (p, a)
            checked += 1
    assert checked > 150
    _report(f"squarefree family ({checked} instances)", t0, 60)


def test_tameness_equivalence_oracle():
    # tameness search == classical congruence a^(p-1) = 1 mod p^2 == the
    # independent index oracle's ramification-at-p call, for all gcd(a,p)=1,
    # |a| <= 500
    t0 = time.perf_counter()
    checked = 0
    for p in (3, 5):
        for a in range(-500, 501):
            if a == 0 or abs(a) == 1 or a % p == 0:
                continue
            try:
                v = tameness_test(Q, p, Q.elem(a))
            except DegenerateExtensionError:
                continue
            classical = pow(a, p - 1, p * p) == 1
            assert v.tame == classical, (p, a)
            # tame above p <=> Z[alpha] is p-maximal fails (index divisible by p)
            witness = dedekind_maximality_oracle(p, p, a)
            assert v.tame == (not witness.maximal), (p, a)
            checked += 1
    _report(f"tameness equivalence oracle ({checked} radicands)", t0, 30)


def test_worked_instance_cbrt_10():
    t0 = time.perf_counter()
    ctx = RadicandContext(Q, 3, Q.elem(10))
    assert poly_discriminant(ctx) == -2700
    index, disc = field_index_and_discriminant(ctx, integral_bases(ctx)[1])
    assert index == 3 and disc == -300
    # non-maximal exactly at 3: only primes dividing disc can divide the
    # index, and the oracle confirms 2 and 5 are clean (7, 11 as controls)
    for q in (2, 3, 5, 7, 11):
        witness = dedekind_maximality_oracle(q, 3, 10)
        assert witness.maximal == (q != 3), q
        assert witness.recheck()
    cert = criterion_check(ctx, *stages(ctx))
    assert cert.free
    third = Fraction(1, 3)
    assert cert.generator.coords == tuple(Q.elem(third) for _ in range(3))
    assert verify_generator(ctx, cert.generator, *integral_bases(ctx))[0]
    _report("worked instance Q(10^(1/3))", t0, 1)


def test_class_obstruction_sqrt_minus_5():
    t0 = time.perf_counter()
    cg = EnumeratedClassGroup(K5)
    assert cg.h == 2
    assert set(cg.forms) == {QuadForm(1, 0, 5), QuadForm(2, 2, 3)}

    # CRT search: a = 1 mod 9 (normalized as-is) with v = 2 at the
    # non-principal prime above 2
    p2 = split_prime(K5, 2)[0]
    radicand = None
    for a_int in range(2, 2000):
        a = K5.elem(a_int)
        if (a - K5.one()).x % 9 != 0:
            continue
        try:
            ctx = RadicandContext(K5, 3, a)
        except DomainError:
            continue
        if ctx.v_a(p2) == 2:
            radicand = a
            break
    assert radicand is not None
    ctx = RadicandContext(K5, 3, radicand)
    assert ctx.is_normalized

    cert = criterion_check(ctx, *stages(ctx))
    assert cert.verdict == "not-free-class-obstruction"
    assert cert.obstruction_index == 2
    assert cert.obstruction_class == QuadForm(2, 2, 3)
    tup = class_of_MOL(ctx, cert.assoc)
    assert tup[2] == QuadForm(2, 2, 3)
    assert cg.is_principal_class(tup[0]) and cg.is_principal_class(tup[1])
    _report(f"class obstruction over Q(sqrt(-5)) (a = {radicand})", t0, 10)


def test_associated_ideal_property_suite():
    # 500 random (p, a): v_P(b_j) = floor(j v_P(a) / p) everywhere, and the
    # two defining formulas agree: the i-part construction
    # b_j = prod_i a_i^floor(ij/p) is recomputed here and compared
    t0 = time.perf_counter()
    rng = random.Random(2024)
    n = 0
    while n < 500:
        p = rng.choice([3, 5, 7])
        field = rng.choice([Q] + QUAD_FIELDS)
        a = field.elem(rng.randint(2, 100000),
                       0 if field.is_rational else rng.randint(0, 30))
        try:
            ctx = RadicandContext(field, p, a)
        except DomainError:
            continue
        assoc = associated_ideals(ctx)
        for P, v in ctx.radicand_factorization:
            for j in range(p):
                assert ideal_valuation(P, assoc.b[j]) == j * v // p
        dec = i_part_decomposition(KIdeal.principal(a), ctx.max_norm)
        for j in range(p):
            alt = KIdeal.unit_ideal(field)
            for i, part in dec.parts.items():
                alt = alt * part ** (i * j // p)
            assert alt == assoc.b[j], "the two defining formulas disagree"
        # primes away from the radicand impose nothing
        spare = split_prime(field, 11)[0]
        if ctx.v_a(spare) == 0:
            assert all(ideal_valuation(spare, bj) == 0 for bj in assoc.b)
        n += 1
    _report("associated-ideal property suite (500 samples)", t0, 120)


def test_hopf_invariant_suite():
    t0 = time.perf_counter()
    rng = random.Random(7331)

    # idempotent laws and delta action
    for ctx in (RadicandContext(Q, 3, Q.elem(10)),
                RadicandContext(Q, 5, Q.elem(51)),
                RadicandContext(K5, 3, K5.elem(10))):
        p = ctx.p
        total = h_from_coords(ctx, [0] * p)
        for i in range(p):
            ei = idempotent(ctx, i)
            total = total + ei
            for j in range(p):
                expected = ei if i == j else h_from_coords(ctx, [0] * p)
                assert ei * idempotent(ctx, j) == expected
                assert act(ctx, ei, ctx.alpha_power(j)) == (
                    ctx.alpha_power(j) if i == j else ctx.zero())
        assert total == h_identity(ctx)

    # ring closure of the associated order
    ctx = RadicandContext(Q, 3, Q.elem(10))
    members = []
    while len(members) < 10:
        base = rng.randint(-6, 6)
        h = h_from_coords(ctx, [base + 3 * rng.randint(-2, 2) for _ in range(3)])
        if in_associated_order(ctx, h):
            members.append(h)
    for h1 in members:
        for h2 in members:
            assert in_associated_order(ctx, h1 * h2)

    # membership agreement: exhaustive for p = 3 in the coordinate box
    for coords in itertools.product(range(-6, 7), repeat=3):
        h = h_from_coords(ctx, list(coords))
        assert in_associated_order(ctx, h) == in_associated_order_by_eta(ctx, h)
    # random for p in {5, 7}
    for p, a in ((5, 51), (7, 50)):
        ctxp = RadicandContext(Q, p, Q.elem(a))
        for _ in range(200):
            base = rng.randint(-6, 6)
            coords = [base + p * rng.randint(-1, 1) if rng.random() < 0.5
                      else Fraction(rng.randint(-9, 9), rng.choice([1, 1, 2, 3]))
                      for _ in range(p)]
            h = h_from_coords(ctxp, coords)
            assert in_associated_order(ctxp, h) == in_associated_order_by_eta(ctxp, h)

    # local generation: determinant of {x_P, p e_i x_P} against the local
    # basis is a local unit, on 100 random tame instances
    n = 0
    while n < 100:
        p = rng.choice([3, 5])
        field = rng.choice([Q] + QUAD_FIELDS)
        if field.discriminant % p == 0:
            continue
        m = p * p
        if field.is_rational or rng.random() < 0.6:
            a = field.elem(1 + m * rng.randint(1, 300))
        else:
            a = field.elem(1 + m * rng.randint(-8, 8), m * rng.randint(1, 8))
        try:
            ctx = RadicandContext(field, p, a)
        except DomainError:
            continue
        assert ctx.is_normalized
        pk = field.elem(p)
        for P in ctx.support_primes():
            x = local_generator(ctx, local_basis(ctx, P))
            spanners = [x] + [act(ctx, idempotent(ctx, i).scale(pk), x)
                              for i in range(1, p)]
            rows = [solve_coordinates(ctx, list(local_basis(ctx, P).elements), s)
                    for s in spanners]
            for row in rows:
                for c in row:
                    assert c.is_zero() or element_valuation(P, c) >= 0
            assert element_valuation(P, _det_k(ctx, rows)) == 0
        n += 1
    _report("hopf invariant suite", t0, 120)


def test_normal_case_documented_not_computed():
    # the identity of the criterion with the normal (Kummer) case is covered
    # by documentation only; assert the note exists and that no normal-case
    # computation path is exposed
    t0 = time.perf_counter()
    readme = Path(__file__).resolve().parents[1] / "README.md"
    text = readme.read_text()
    assert "Normal (Kummer) case" in text
    assert "case-agnostic" in text
    import radfree
    assert not any("normal" in name.lower() for name in dir(radfree))
    _report("normal-case identity documented, not computed", t0, 5)

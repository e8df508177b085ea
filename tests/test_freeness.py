import itertools
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from radfree import freeness, integral
from radfree.basefield import (
    BaseField,
    KIdeal,
    QuadForm,
    element_valuation,
    factor_ideal,
    is_principal,
    split_prime,
    unit_reps_mod_p,
    units,
)
from radfree.errors import (
    DegenerateExtensionError,
    DomainError,
    PreconditionError,
    ResourceLimitError,
)
from radfree.extension import RadicandContext
from radfree.freeness import (
    _candidate,
    criterion_check,
    verify_generator,
)
from radfree.hopf import class_of_MOL
from radfree.radical import associated_ideals, tameness_test

from helpers import (
    change_radicand,
    coordinate_criterion,
    integral_bases,
    is_integral_at,
    local_bases,
    stages,
)

Q = BaseField.rationals()
K5 = BaseField.imaginary_quadratic(-5)


def ctx_q(p, a):
    return RadicandContext(Q, p, Q.elem(a))


def test_criterion_requires_normalization():
    ctx = ctx_q(3, 17)
    with pytest.raises(PreconditionError):
        criterion_check(ctx, associated_ideals(ctx), {}, None)


def test_free_10():
    cert = criterion_check(ctx := ctx_q(3, 10), *stages(ctx))
    assert cert.free
    assert [str(b) for b in cert.b_generators] == ["1", "1", "1"]
    assert [str(u) for u in cert.units] == ["1", "1", "1"]
    third = Fraction(1, 3)
    assert cert.generator.coords == tuple(Q.elem(third) for _ in range(3))


def test_free_28_needs_unit_flip():
    cert = criterion_check(ctx := ctx_q(3, 28), *stages(ctx))
    assert cert.free
    assert [str(b) for b in cert.b_generators] == ["1", "1", "2"]
    assert [str(u) for u in cert.units] == ["1", "1", "-1"]
    assert [c.x for c in cert.generator.coords] == \
        [Fraction(1, 3), Fraction(1, 3), Fraction(-1, 6)]


def test_free_51_p5():
    cert = criterion_check(ctx := ctx_q(5, 51), *stages(ctx))
    assert cert.free
    fifth = Fraction(1, 5)
    assert cert.generator.coords == tuple(Q.elem(fifth) for _ in range(5))


def test_class_obstruction_sqrt_minus_5():
    ctx = RadicandContext(K5, 3, K5.elem(10))
    cert = criterion_check(ctx, *stages(ctx))
    assert cert.verdict == "not-free-class-obstruction"
    assert cert.obstruction_index == 2
    assert cert.obstruction_class == QuadForm(2, 2, 3)
    # consistency with the class tuple: it must carry a non-principal entry
    tup = class_of_MOL(ctx, cert.assoc)
    assert any(c is not None and c != QuadForm(1, 0, 5) for c in tup)


def test_congruence_obstruction_76_p5():
    # b = (1, 1, 1, 2, 2): b_0/b_3 = 1/2 = 3 mod 5 is not +-1 mod 5, so every
    # unit tuple fails, and j = 3 certifies it
    cert = criterion_check(ctx := ctx_q(5, 76), *stages(ctx))
    assert cert.verdict == "not-free-congruence-obstruction"
    assert cert.obstruction_index == 3
    assert cert.obstruction_residues == ((3, 0),)
    assert cert.units is None and cert.generator is None
    tup = class_of_MOL(ctx_q(5, 76), cert.assoc)
    assert all(c is None for c in tup)   # no class obstruction, only congruence


def test_verdict_class_tuple_consistency():
    # class obstruction iff the class tuple has a non-principal entry
    from radfree.basefield import class_group
    for field, a in ((Q, 10), (Q, 28), (K5, 10), (K5, 19), (K5, 1 + 9 * 0)):
        if a == 1:
            continue
        ctx = RadicandContext(field, 3, field.elem(a))
        if not ctx.is_normalized:
            continue
        cert = criterion_check(ctx, *stages(ctx))
        cg = class_group(field)
        tup = class_of_MOL(ctx, cert.assoc)
        has_nonprincipal = any(not cg.is_principal_class(c) for c in tup)
        assert (cert.verdict == "not-free-class-obstruction") == has_nonprincipal


def test_unit_search_invariance():
    # replacing every b_j by u*b_j for a fixed unit u leaves the verdict alone
    for p, a in ((3, 28), (5, 76), (3, 100)):
        ctx = ctx_q(p, a)
        assoc = associated_ideals(ctx)
        b_gens = tuple(is_principal(Q, bj).generator for bj in assoc.b)
        reps = unit_reps_mod_p(Q, p)
        primes_p = split_prime(Q, p)

        def works(bg):
            for units in itertools.product(reps, repeat=p):
                x = _candidate(ctx, bg, units)
                if all(is_integral_at(ctx, x, P) for P in primes_p):
                    return True
            return False

        base = works(b_gens)
        for u in reps:
            scaled = tuple(u * b for b in b_gens)
            assert works(scaled) == base


def test_change_radicand_identity():
    ctx = ctx_q(3, 28)
    assoc = associated_ideals(ctx)
    b_gens = tuple(is_principal(Q, bj).generator for bj in assoc.b)
    assert change_radicand(ctx, 1, Q.one(), b_gens) == b_gens
    with pytest.raises(DomainError):
        change_radicand(ctx, 3, Q.one(), b_gens)
    with pytest.raises(DomainError):
        change_radicand(ctx, 1, Q.zero(), b_gens)


def _beta_set_check(ctx, ell, c):
    """Set equality {beta^j / b_j} = {alpha^m / a_m} for beta = alpha^ell c."""
    beta = ctx.alpha_power(ell).scale(c)
    b = (ctx.a ** ell) * (c ** ctx.p)
    bctx = RadicandContext(ctx.field, ctx.p, b)
    assoc = associated_ideals(bctx)
    res = [is_principal(ctx.field, bj) for bj in assoc.b]
    if not all(r.principal for r in res):
        return
    b_gens = tuple(r.generator for r in res)
    a_gens = change_radicand(ctx, ell, c, b_gens)
    lhs = set()
    for j in range(ctx.p):
        lhs.add((beta ** j).scale(b_gens[j].inverse()).coords)
    rhs = set()
    for m in range(ctx.p):
        rhs.add(ctx.alpha_power(m).scale(a_gens[m].inverse()).coords)
    assert lhs == rhs
    # and each a_m generates the ideal associated to a O_K
    assoc_a = associated_ideals(ctx)
    for m in range(ctx.p):
        assert KIdeal.principal(a_gens[m]) == assoc_a.b[m]


def test_change_radicand_set_equality():
    ctx = ctx_q(3, 10)
    for ell in (1, 2, 5):
        for c in (Q.one(), Q.elem(2), Q.elem(-3)):
            _beta_set_check(ctx, ell, c)
    ctx = ctx_q(3, 28)
    for ell in (1, 2):
        _beta_set_check(ctx, ell, Q.one())
    ctx = ctx_q(5, 51)
    for ell in (1, 2, 3, 4):
        _beta_set_check(ctx, ell, Q.one())


def test_change_radicand_fractional_c():
    # beta = alpha/2 for a = 80 recovers the radicand 10 and the associated
    # generators (1, 2, 4) of 80's ideals
    ctx = ctx_q(3, 80)
    _beta_set_check(ctx, 1, Q.elem(Fraction(1, 2)))
    a_gens = change_radicand(ctx, 1, Q.elem(Fraction(1, 2)),
                             (Q.one(), Q.one(), Q.one()))
    assert [g.x for g in a_gens] == [1, 2, 4]


def test_change_radicand_quadratic():
    ctx = RadicandContext(K5, 3, K5.elem(19))
    for ell in (1, 2):
        for c in (K5.one(), K5.elem(0, 1), K5.elem(1, 1)):
            _beta_set_check(ctx, ell, c)


def test_verify_generator_10():
    ctx = ctx_q(3, 10)
    w = ctx.from_coords([Fraction(1, 3)] * 3)
    ok, ev = verify_generator(ctx, w, *integral_bases(ctx))
    assert ok and ev["method"] == "hnf-global"
    ok, _ = verify_generator(ctx, ctx.alpha_power(1), *integral_bases(ctx))
    assert not ok
    ok, ev = verify_generator(ctx, ctx.zero(), *integral_bases(ctx))
    assert not ok and ev["method"] == "trivial"


def test_verify_generator_28():
    ctx = ctx_q(3, 28)
    good = ctx.from_coords([Fraction(1, 3), Fraction(1, 3), Fraction(-1, 6)])
    bad = ctx.from_coords([Fraction(1, 3), Fraction(1, 3), Fraction(1, 6)])
    assert verify_generator(ctx, good, *integral_bases(ctx))[0]
    assert not verify_generator(ctx, bad, *integral_bases(ctx))[0]


def test_verify_generator_quadratic():
    ctx = RadicandContext(K5, 3, K5.elem(19))
    cert = criterion_check(ctx, *stages(ctx))
    assert cert.free
    ok, ev = verify_generator(ctx, cert.generator, *integral_bases(ctx))
    assert ok and ev["method"] == "local-determinants"
    assert all(d["ok"] for d in ev["details"])
    assert not verify_generator(ctx, cert.generator.scale(K5.elem(3)),
                                *integral_bases(ctx))[0]
    # scaling by a prime away from the support must also fail
    assert not verify_generator(ctx, cert.generator.scale(K5.elem(7)),
                                *integral_bases(ctx))[0]


def test_congruence_obstruction_p7():
    # b = (1,1,1,1,5,5,5) mod 7 forces the unit ratio 1/5 = 3, unreachable
    cert = criterion_check(ctx := ctx_q(7, 50), *stages(ctx))
    assert cert.verdict == "not-free-congruence-obstruction"
    assert cert.obstruction_index == 4
    assert cert.obstruction_residues == ((3, 0),)


def test_congruence_obstruction_with_principal_classes_quadratic():
    # 55 = 5 * 11 over Q(sqrt(-5)): b_2 = (sqrt(-5)) is principal, so the
    # class tuple is trivial, yet the ratio w mod 3 is not a unit residue and
    # the congruence search exhausts -- the two obstruction kinds are
    # distinguished inside one class-number-2 field
    from radfree.basefield import class_group
    from radfree.hopf import class_of_MOL

    ctx = RadicandContext(K5, 3, K5.elem(55))
    cert = criterion_check(ctx, *stages(ctx))
    assert cert.verdict == "not-free-congruence-obstruction"
    assert [str(b) for b in cert.b_generators] == ["1", "1", "w"]
    # 3 splits: 1/w is 1 mod (3, w-1) but 2 mod (3, w-2), and the units
    # +-1 have the same residue at both primes
    assert [str(P) for P in ctx.primes_above_p()] == ["(3, w-1)", "(3, w-2)"]
    assert (cert.obstruction_index, cert.obstruction_residues) == (2, (1, 2))
    cg = class_group(K5)
    assert all(cg.is_principal_class(c) for c in class_of_MOL(ctx, cert.assoc))


def test_congruence_obstruction_gaussian():
    # over Q(i) the fourth roots of unity still miss the ratio 1/(1+i) mod 3
    # forced by b_2 = (1+i), so 10 is congruence-obstructed; 3 is inert and
    # 1/(1+i) = 2 + i mod 3
    K1 = BaseField.imaginary_quadratic(-1)
    cert = criterion_check(ctx := RadicandContext(K1, 3, K1.elem(10)), *stages(ctx))
    assert cert.verdict == "not-free-congruence-obstruction"
    assert [str(b) for b in cert.b_generators] == ["1", "1", "1+w"]
    assert (cert.obstruction_index, cert.obstruction_residues) == (2, ((2, 1),))


def test_congruence_obstruction_sixth_roots():
    # Q(sqrt(-3)) has six units; 51 = 3 * 17 ramifies at sqrt(-3) and the
    # ratio 1/(1+w) = 4 + 3w mod 5 (5 is inert) defeats all 6^5 unit tuples
    K3 = BaseField.imaginary_quadratic(-3)
    ctx = RadicandContext(K3, 5, K3.elem(51))
    cert = criterion_check(ctx, *stages(ctx))
    assert cert.verdict == "not-free-congruence-obstruction"
    assert [str(b) for b in cert.b_generators] == ["1", "1", "1", "1+w", "1+w"]
    assert (cert.obstruction_index, cert.obstruction_residues) == (3, ((4, 3),))


def test_congruence_search_against_global_membership():
    # independent route over Q: a candidate is integral iff its power-basis
    # coordinate vector lies in the glued global HNF lattice; the engine's
    # local congruence search must agree with brute force over that test
    from radfree.integral import global_integral_basis
    from radfree.radical import tameness_test

    for p, bound in ((3, 260), (5, 180)):
        reps = unit_reps_mod_p(Q, p)
        for a in range(2, bound):
            v = None
            try:
                v = tameness_test(Q, p, Q.elem(a))
            except Exception:
                continue
            if not v.tame:
                continue
            ctx = RadicandContext(Q, p, v.normalized)
            assoc = associated_ideals(ctx)
            res = [is_principal(Q, bj) for bj in assoc.b]
            b_gens = tuple(r.generator for r in res)
            lattice = global_integral_basis(ctx, local_bases(ctx))
            brute_free = False
            for units in itertools.product(reps, repeat=p):
                x = _candidate(ctx, b_gens, units)
                if lattice.contains([c.x for c in x.coords]):
                    brute_free = True
                    break
            cert = criterion_check(ctx, *stages(ctx))
            assert cert.free == brute_free, (p, a)


def test_squarefree_family_small():
    for p, bound in ((3, 300), (5, 300)):
        m = p * p
        for a in range(2, bound):
            if a % m != 1:
                continue
            import sympy
            if any(e > 1 for e in sympy.factorint(a).values()):
                continue
            cert = criterion_check(ctx := ctx_q(p, a), *stages(ctx))
            assert cert.free
            assert cert.generator.coords == tuple(
                Q.elem(Fraction(1, p)) for _ in range(p))


# ---------------------------------------------------------------------------
# The residue test against the coordinate search it replaced

@st.composite
def normalized_contexts(draw, field, p):
    """A normalized context for a' from tameness_test on a = r (1 + p t).

    r is a product of small integral elements prime to p, to powers below p.
    Half the draws take them among the prime elements u + p h with u a unit:
    every b_j is then a unit mod p, which makes free verdicts with unit
    twists common.  r^E = 1 mod p, with E the exponent of (O_K/p)^*, and
    (1 + p t)^E = 1 - p t mod p^2 since E = -1 mod p, so
    t = (r^E - 1)/p mod p makes a tame.
    """
    one = field.one()
    small = [field.elem(x, y) for x in range(-4, 5)
             for y in ((0,) if field.is_rational else range(-3, 4))]
    if draw(st.booleans()):
        pool = [g for g in small if not g.is_zero() and g.norm() % p]
    else:
        pool = [g for g in (u + h.scale(p) for u in units(field) for h in small)
                if [e for _, e in factor_ideal(field, g)] == [1]]
        pool = sorted(pool, key=lambda g: g.norm())[:8]
    r = one
    for _ in range(draw(st.integers(1, 3))):
        r = r * draw(st.sampled_from(pool)) ** draw(st.integers(1, p - 1))
    split = field.is_rational or len(split_prime(field, p)) == 2
    s = r ** (p - 1 if split else p * p - 1) - one
    t = field.elem(s.x / p % p, s.y / p % p)
    try:
        verdict = tameness_test(field, p, r * (one + t.scale(p)))
    except (DegenerateExtensionError, ResourceLimitError):
        assume(False)   # a p-th power, or a norm past the factoring bound
    assert verdict.tame
    return RadicandContext(field, p, verdict.normalized)


# (d or None for Q, p, examples): p splits in Q(i) at 5 and in Q(sqrt(-5))
# at 3, where the order of failed_at matters; it is inert in Q(sqrt(-3)) at
# 5 and in Q(sqrt(-7)) at 3
ORACLE_CASES = (
    (None, 3, 40), (None, 5, 40), (None, 7, 25),
    (-1, 5, 20), (-5, 3, 40), (-3, 5, 8), (-7, 3, 40),
)


def congruent_mod_P(P, g, h) -> bool:
    """g = h mod P, for P-units g and h: v_P(g - h) > 0."""
    return (g - h).is_zero() or element_valuation(P, g - h) > 0


def congruent_to_a_unit(ctx, g) -> bool:
    """g = u mod pO_K for some unit u of O_K."""
    return any(all(congruent_mod_P(P, g, u) for P in ctx.primes_above_p())
               for u in units(ctx.field))


@pytest.mark.parametrize("d, p, examples", ORACLE_CASES,
                         ids=[f"{d or 'Q'}-p{p}" for d, p, _ in ORACLE_CASES])
def test_criterion_matches_coordinate_search(d, p, examples):
    field = Q if d is None else BaseField.imaginary_quadratic(d)

    @settings(max_examples=examples, deadline=None, derandomize=True)
    @given(normalized_contexts(field, p))
    def check(ctx):
        args = stages(ctx)
        cert = criterion_check(ctx, *args)
        want = coordinate_criterion(ctx, *args)
        if cert.verdict != "not-free-class-obstruction":
            # the congruence obstruction's index is the first j whose
            # b_0/b_j is no unit mod pO_K, and its residues are those of
            # b_0/b_j at the primes above p; a free verdict has no such j
            ratios = [cert.b_generators[0] / b for b in cert.b_generators]
            j = cert.obstruction_index
            first = next((k for k, g in enumerate(ratios)
                          if not congruent_to_a_unit(ctx, g)), None)
            assert j == first
            if j is not None:
                lifts = [field.elem(r) if isinstance(r, int) else field.elem(*r)
                         for r in cert.obstruction_residues]
                assert len(lifts) == len(ctx.primes_above_p())
                assert all(congruent_mod_P(P, ratios[j], r)
                           for P, r in zip(ctx.primes_above_p(), lifts))
                want = replace(want, obstruction_index=j,
                               obstruction_residues=cert.obstruction_residues)
        # verdict, b_generators, units, generator, evidence and obstruction:
        # the whole certificate
        assert cert == want

    check()


def test_criterion_solves_no_coordinates(monkeypatch):
    calls = []

    def counting(*args):
        calls.append(args)
        return solve(*args)

    solve = integral.solve_coordinates
    monkeypatch.setattr(integral, "solve_coordinates", counting)
    monkeypatch.setattr(freeness, "solve_coordinates", counting)
    K3 = BaseField.imaginary_quadratic(-3)
    for ctx in (ctx_q(5, 76), ctx_q(5, 51), RadicandContext(K3, 5, K3.elem(51))):
        args = stages(ctx)
        calls.clear()
        criterion_check(ctx, *args)
        assert calls == []


def test_free_verdict_enumerates_no_tuples():
    # the first passing tuple of a = 506 at p = 13 is number 2,731 of 2^13 in
    # product order; the residues find it without listing the 2,730 before it
    ctx = RadicandContext(Q, 13, tameness_test(Q, 13, Q.elem(506)).normalized)
    args = stages(ctx)
    want = coordinate_criterion(ctx, *args)
    assert want.free
    assert list(itertools.product(unit_reps_mod_p(Q, 13), repeat=13)).index(
        want.units) == 2730

    assert not hasattr(freeness, "itertools")
    assert criterion_check(ctx, *args) == want


"""Helpers shared by the tests.

The analysis hands each stage's result on as an argument; integral_bases and
stages build those arguments for a test that calls one stage on its own.
The rest is API that only tests use: integrality at one prime, the radicand
change of the criterion, the coordinate search that the criterion's residue
test replaced, and the class group with its reduced forms enumerated.
"""

import itertools
import math
from fractions import Fraction

from radfree.basefield import (
    ClassGroup,
    KIdeal,
    QuadForm,
    element_valuation,
    is_principal,
    reduce_form,
    unit_reps_mod_p,
)
from radfree.errors import DomainError, RadfreeError
from radfree.freeness import FreenessCertificate, _candidate, verify_generator
from radfree.integral import local_basis, solve_coordinates
from radfree.radical import associated_ideals
from radfree.report import _integral_bases as integral_bases


def local_bases(ctx):
    """The local basis at every support prime of ctx."""
    return {P: local_basis(ctx, P) for P in ctx.support_primes()}


def stages(ctx):
    """(assoc, bases, lattice): the arguments of criterion_check."""
    return (associated_ideals(ctx), *integral_bases(ctx))


def is_integral_at(ctx, x, P) -> bool:
    """True iff x lies in the local ring of integers at P."""
    basis = local_basis(ctx, P)
    coords = solve_coordinates(ctx, list(basis.elements), x)
    for c in coords:
        if c.is_zero() or c.is_integral():
            continue
        if element_valuation(P, c) < 0:
            return False
    return True


def change_radicand(ctx, ell, c, b_gens):
    """Generators a_m with {beta^j / b_j} = {alpha^m / a_m} as sets, for
    beta = alpha^ell * c.

    With t the inverse of ell mod p and j = (m t mod p):
    a_m = b_j * c^(-j) * a^(-floor(j*ell/p)), an exact identity
    alpha^m / a_m = beta^j / b_j.
    """
    p = ctx.p
    if ell % p == 0:
        raise DomainError("ell must be coprime to p")
    if c.is_zero():
        raise DomainError("c must be nonzero")
    t = pow(ell % p, -1, p)
    out = []
    for m in range(p):
        j = (m * t) % p
        a_m = b_gens[j] * c ** (-j) * ctx.a ** (-(j * ell // p))
        out.append(a_m)
    return tuple(out)


def coordinate_criterion(ctx, assoc, bases, lattice):
    """criterion_check by exhaustive search: every unit tuple in
    itertools.product order, each candidate's coordinates in the basis above
    p solved for and tested with element_valuation.  Same certificate, but
    the search names no index for a congruence obstruction: its
    obstruction_index and obstruction_residues are None."""
    b_gens = []
    for j, bj in enumerate(assoc.b):
        res = is_principal(ctx.field, bj)
        if not res.principal:
            return FreenessCertificate(
                verdict="not-free-class-obstruction", assoc=assoc,
                obstruction_index=j, obstruction_class=res.ideal_class)
        b_gens.append(res.generator)
    b_gens = tuple(b_gens)

    reps = unit_reps_mod_p(ctx.field, ctx.p)
    inverses = {u: u.inverse() for u in reps}
    primes_p = ctx.primes_above_p()
    # the candidate's local coordinates are linear in the unit inverses, so
    # solve once per basis vector and combine per tuple
    pre = {}
    for P in primes_p:
        basis = list(bases[P].elements)
        pre[P] = [solve_coordinates(ctx, basis,
                                    ctx.alpha_power(j).scale(b_gens[j].inverse()))
                  for j in range(ctx.p)]
    inv_p = Fraction(1, ctx.p)

    def integral_at(P, inv_units) -> bool:
        for k in range(ctx.p):
            c = ctx.field.zero()
            for j, uj in enumerate(inv_units):
                c = c + pre[P][j][k] * uj
            c = c.scale(inv_p)
            if c.is_zero() or c.is_integral():
                continue
            if element_valuation(P, c) < 0:
                return False
        return True

    for units_tuple in itertools.product(reps, repeat=ctx.p):
        inv_units = [inverses[u] for u in units_tuple]
        if all(integral_at(P, inv_units) for P in primes_p):
            x = _candidate(ctx, b_gens, units_tuple)
            ok, evidence = verify_generator(ctx, x, bases, lattice)
            if not ok:
                raise RadfreeError(f"candidate generator {x} fails the gate")
            return FreenessCertificate(
                verdict="free", assoc=assoc, b_generators=b_gens,
                units=units_tuple, generator=x, evidence=evidence)
    return FreenessCertificate(
        verdict="not-free-congruence-obstruction", assoc=assoc,
        b_generators=b_gens)


class EnumeratedClassGroup(ClassGroup):
    """ClassGroup plus the list of every reduced form, the class number and
    the group law; the enumeration costs O(|D|)."""

    def __init__(self, field):
        super().__init__(field)
        if field.is_rational:
            self.forms = ()
            self.h = 1
            return
        D = field.discriminant
        forms = []
        amax = math.isqrt(abs(D) // 3)
        for a in range(1, amax + 1):
            for b in range(-a + 1, a + 1):
                if (b * b - D) % (4 * a):
                    continue
                c = (b * b - D) // (4 * a)
                if c < a:
                    continue
                if a == c and b < 0:
                    continue
                if math.gcd(math.gcd(a, b), c) != 1:
                    continue
                forms.append(QuadForm(a, b, c))
        self.forms = tuple(sorted(forms))
        self.h = len(self.forms)

    def ideal_of(self, f: QuadForm) -> KIdeal:
        """An integral ideal I with class_of(I) = f; the sign of b is fixed so
        this is a section of class_of under the HNF orientation."""
        d = self.field.d
        if d % 4 == 1:
            second = self.field.elem(Fraction(f.b - 1, 2), 1)
        else:
            second = self.field.elem(Fraction(f.b, 2), 1)
        return KIdeal.from_generators(self.field,
                                      [self.field.elem(f.a), second])

    def compose(self, f1: QuadForm, f2: QuadForm) -> QuadForm:
        return self.class_of(self.ideal_of(f1) * self.ideal_of(f2))

    def inverse(self, f: QuadForm) -> QuadForm:
        return reduce_form(QuadForm(f.a, -f.b, f.c))

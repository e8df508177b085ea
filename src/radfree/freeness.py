"""Decide freeness of O_L over the associated order and certify it.

The ring of integers is free iff the associated ideals b_j of the (normalized)
radicand are all principal with generators b_j admitting units u_j such that
sum_j u_j^(-1) alpha^j / b_j = 0 mod p O_L; the generator is then
(1/p) sum_j u_j^(-1) alpha^j / b_j.  Testing beta = alpha only is sound: any
witness beta transforms back to alpha with adjusted generators (see
change_radicand in tests/helpers.py).  The congruence is checked at the primes
above p only -- denominators of the candidate away from p are cancelled by the
b_j by construction, so no other prime can obstruct.

Above p the congruence is a residue test.  Each c_j = u_j^(-1) / b_j is a
P-unit at every prime P above p, because b_j is prime to p and p is
unramified.  In the basis {1, alpha, ..., alpha^(p-2), (1 + ... +
alpha^(p-1))/p} the candidate has coordinates (c_j - c_(p-1))/p and c_(p-1),
so it is integral at P exactly when all c_j have the same residue mod P.
The unit representatives mod p form a group that contains u_0 = 1 and
b_0 = O_K has the generator 1, so some tuple passes iff every b_0/b_j is
congruent to a unit mod pO_K; then u_j is the first representative with that
residue, which is the first passing tuple in itertools.product order.
Otherwise the certificate is the first index j where no representative
matches, with the residues of b_0/b_j at the primes above p.

Every 'free' verdict is re-verified by an independent module-span comparison
before it is returned.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import sympy

from .basefield import (
    KElem,
    PrimeIdeal,
    QuadForm,
    element_valuation,
    factor_ideal,
    is_principal,
    residue,
    split_prime,
    unit_reps_mod_p,
)
from .errors import DomainError, PreconditionError, RadfreeError, ResourceLimitError
from .extension import LElem, RadicandContext, span_lattice
from .hopf import act, idempotent
from .integral import LocalIntegralBasis, local_basis, solve_coordinates
from .lattices import IntegerLattice
from .radical import AssociatedIdeals

@dataclass(frozen=True)
class FreenessCertificate:
    verdict: str            # free | not-free-class-obstruction | not-free-congruence-obstruction
    assoc: AssociatedIdeals
    b_generators: tuple[KElem, ...] | None = None
    units: tuple[KElem, ...] | None = None
    generator: LElem | None = None
    obstruction_index: int | None = None
    obstruction_class: QuadForm | None = None
    obstruction_residues: tuple | None = None
    evidence: dict | None = None

    @property
    def free(self) -> bool:
        return self.verdict == "free"


def _candidate(ctx: RadicandContext, b_gens, units_tuple) -> LElem:
    acc = ctx.zero()
    for j in range(ctx.p):
        coef = units_tuple[j].inverse() / b_gens[j]
        acc = acc + ctx.alpha_power(j).scale(coef)
    return acc.scale_rat(Fraction(1, ctx.p))


def criterion_check(ctx: RadicandContext, assoc: AssociatedIdeals,
                    bases: dict[PrimeIdeal, LocalIntegralBasis],
                    lattice: IntegerLattice | None) -> FreenessCertificate:
    """Run the freeness criterion on a normalized context.

    assoc is associated_ideals(ctx); bases holds the local basis at every
    support prime; lattice is the glued global basis over Q and None over a
    quadratic base.  The congruence is decided from residues mod the primes
    above p, and the one candidate that passes it goes through
    verify_generator.
    """
    if not ctx.is_normalized:
        raise PreconditionError(
            "criterion requires a normalized radicand (a = 1 mod p^2); "
            "run the tameness test first")

    b_gens = []
    for j, bj in enumerate(assoc.b):
        res = is_principal(ctx.field, bj)
        if not res.principal:
            return FreenessCertificate(
                verdict="not-free-class-obstruction", assoc=assoc,
                obstruction_index=j, obstruction_class=res.ideal_class)
        b_gens.append(res.generator)
    b_gens = tuple(b_gens)

    # residues at the primes above p, in primes_above_p() order, of each unit
    # representative and of each b_0/b_j, a P-unit because b_j is prime to p
    reps = unit_reps_mod_p(ctx.field, ctx.p)
    primes_p = ctx.primes_above_p()
    rep_keys = [tuple(residue(P, u) for P in primes_p) for u in reps]
    targets = [tuple(residue(P, b_gens[0] / b) for P in primes_p) for b in b_gens]
    j = next((j for j, key in enumerate(targets) if key not in rep_keys), None)
    if j is not None:
        return FreenessCertificate(
            verdict="not-free-congruence-obstruction", assoc=assoc,
            b_generators=b_gens, obstruction_index=j, obstruction_residues=targets[j])
    # reps[0] = 1, so u_j is the first representative congruent to b_0/b_j
    units_tuple = tuple(reps[rep_keys.index(key)] for key in targets)
    x = _candidate(ctx, b_gens, units_tuple)
    # soundness gate, run unconditionally: a generator that fails the
    # independent span comparison must never be certified
    ok, evidence = verify_generator(ctx, x, bases, lattice)
    if not ok:
        raise RadfreeError(
            f"internal error: candidate generator {x} passed the "
            f"congruence but fails the module-span verification")
    return FreenessCertificate(
        verdict="free", assoc=assoc, b_generators=b_gens,
        units=units_tuple, generator=x, evidence=evidence)


def _relevant_primes(ctx: RadicandContext, x: LElem) -> list[PrimeIdeal]:
    """Support of a*p plus every prime where a coordinate of x is a non-unit."""
    prs = {P for P in ctx.support_primes()}
    for c in x.coords:
        if c.is_zero():
            continue
        den = c.denominator()
        num = c.scale(den)
        for P, _ in factor_ideal(ctx.field, num, ctx.max_norm):
            prs.add(P)
        for q, _ in _int_factor(den, ctx.max_norm):
            for P in split_prime(ctx.field, q):
                prs.add(P)
    return sorted(prs, key=lambda P: P.sort_key())


def _int_factor(n: int, max_norm: int):
    if n > max_norm:
        raise ResourceLimitError(f"denominator {n} exceeds factorization bound",
                                 max_norm)
    return sorted((int(q), int(e)) for q, e in sympy.factorint(n).items())


def verify_generator(ctx: RadicandContext, x: LElem,
                     bases: dict[PrimeIdeal, LocalIntegralBasis],
                     lattice: IntegerLattice | None) -> tuple[bool, dict]:
    """Check that the associated-order span of x is the full ring of integers.

    The span is the O_K-module generated by {x, p e_1 x, ..., p e_(p-1) x}.
    Over Q its HNF is compared with lattice, the glued global basis; over a
    quadratic base (lattice None) the span is compared with the local basis
    at every relevant prime (coordinates integral and change-of-basis
    determinant a local unit).  bases holds the local basis at every support
    prime; a relevant prime outside the support has the power basis.  Both
    targets come from v_P(a) and the uniformizers, never from the criterion's
    b_j generators.
    """
    if not ctx.is_normalized:
        raise PreconditionError("normalize the radicand first")
    if x.ctx != ctx:
        raise DomainError("context mismatch")
    evidence: dict = {"method": None, "details": []}
    if x.is_zero():
        evidence["method"] = "trivial"
        evidence["details"].append("zero element spans nothing")
        return False, evidence
    p = ctx.p
    spanners = [x]
    p_elem = ctx.field.elem(p)
    for i in range(1, p):
        h = idempotent(ctx, i).scale(p_elem)
        spanners.append(act(ctx, h, x))

    if ctx.field.is_rational:
        evidence["method"] = "hnf-global"
        span = span_lattice(ctx, spanners)
        ok = span == lattice
        evidence["details"].append({
            "span_hnf": [list(r) for r in span.rows], "span_den": span.den,
            "target_hnf": [list(r) for r in lattice.rows], "target_den": lattice.den})
        return ok, evidence

    evidence["method"] = "local-determinants"
    ok = True
    for P in _relevant_primes(ctx, x):
        basis = bases[P] if P in bases else local_basis(ctx, P)
        coord_rows = [solve_coordinates(ctx, list(basis.elements), s)
                      for s in spanners]
        integral = all(
            c.is_zero() or element_valuation(P, c) >= 0
            for row in coord_rows for c in row)
        det = _det_k(ctx, coord_rows)
        detv = None if det.is_zero() else element_valuation(P, det)
        good = integral and detv == 0
        ok = ok and good
        evidence["details"].append({
            "prime": str(P), "integral": integral,
            "det_valuation": detv, "ok": good})
    return ok, evidence


def _det_k(ctx: RadicandContext, rows: list[list[KElem]]) -> KElem:
    """Determinant of a square matrix over K by Gaussian elimination."""
    n = len(rows)
    mat = [row[:] for row in rows]
    det = ctx.field.one()
    for col in range(n):
        piv = next((r for r in range(col, n) if not mat[r][col].is_zero()), None)
        if piv is None:
            return ctx.field.zero()
        if piv != col:
            mat[col], mat[piv] = mat[piv], mat[col]
            det = -det
        det = det * mat[col][col]
        inv = mat[col][col].inverse()
        for r in range(col + 1, n):
            if not mat[r][col].is_zero():
                f = mat[r][col] * inv
                mat[r] = [u - f * v for u, v in zip(mat[r], mat[col])]
    return det

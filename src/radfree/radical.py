"""Decomposition combinatorics for the radicand ideal and the tameness test.

An integral ideal factors uniquely as prod_i a_i^i with the a_i squarefree and
pairwise coprime (a_i = product of primes occurring with exact exponent i).
The associated ideals are b_j = prod_i a_i^(floor(ij/p)), equivalently
prod_P P^(floor(j*v_P(a)/p)); their classes are the freeness obstruction.

Tameness: L/K is tame iff the radicand can be moved, by a^l * c^p with l
coprime to p, to a' = 1 mod p^2 O_K.  After p-th-power prime factors are
stripped, a closed form decides this with l = 1 (see tameness_test).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

from .basefield import (
    DEFAULT_MAX_NORM,
    BaseField,
    KElem,
    KIdeal,
    PrimeIdeal,
    QuadForm,
    class_group,
    element_valuation,
    factor_kideal,
    is_principal,
)
from .errors import DomainError, PreconditionError, ResourceLimitError
from .extension import RadicandContext


@dataclass(frozen=True)
class IPartDecomposition:
    """parts[i] = product of the primes P with v_P(a) = i."""

    ideal: KIdeal
    parts: dict[int, KIdeal]

    def reconstruct(self) -> KIdeal:
        out = KIdeal.unit_ideal(self.ideal.field)
        for i, part in self.parts.items():
            out = out * part ** i
        return out


def i_part_decomposition(I: KIdeal,
                         max_norm: int = DEFAULT_MAX_NORM) -> IPartDecomposition:
    if not I.is_integral():
        raise DomainError("i-part decomposition requires an integral ideal")
    fac = factor_kideal(I, max_norm)
    parts: dict[int, KIdeal] = {}
    for P, v in fac:
        cur = parts.get(v, KIdeal.unit_ideal(I.field))
        parts[v] = cur * P.ideal()
    out = IPartDecomposition(I, dict(sorted(parts.items())))
    assert out.reconstruct() == I
    return out


@dataclass(frozen=True)
class AssociatedIdeals:
    """b[j] = prod P^(floor(j*v_P(a)/p)) and the classes of the b_j."""

    ctx: RadicandContext
    b: tuple[KIdeal, ...]
    classes: tuple[QuadForm | None, ...]
    exponents: tuple[tuple[PrimeIdeal, tuple[int, ...]], ...]

    def r(self, P: PrimeIdeal, j: int) -> int:
        for Q, row in self.exponents:
            if Q == P:
                return row[j]
        return 0


def associated_ideals(ctx: RadicandContext) -> AssociatedIdeals:
    field, p = ctx.field, ctx.p
    fac = ctx.radicand_factorization
    one = KIdeal.unit_ideal(field)

    b = [one for _ in range(p)]
    exps = []
    for P, v in fac:
        row = tuple(j * v // p for j in range(p))
        exps.append((P, row))
        for j in range(1, p):
            if row[j]:
                b[j] = b[j] * P.ideal() ** row[j]

    cg = class_group(field)
    classes = tuple(cg.class_of(bj) for bj in b)
    return AssociatedIdeals(ctx, tuple(b), classes, tuple(exps))


def ramification_type(ctx: RadicandContext, P: PrimeIdeal) -> str:
    """'unramified' or 'totally-ramified' at a prime away from p."""
    if P.q == ctx.p:
        raise DomainError("classification above p is part of the tameness test")
    return "unramified" if ctx.v_a(P) % ctx.p == 0 else "totally-ramified"


# ---------------------------------------------------------------------------
# Tameness

# _strip_pth_powers tests one divisor g O_K per point of the exponent box
# prod_P [0, floor(v_P(a)/p)]; a box of more points raises ResourceLimitError.
STRIP_MAX_BOX = 4096


@dataclass(frozen=True)
class TamenessVerdict:
    tame: bool
    normalized: KElem | None = None      # a' = a * c^p = 1 mod p^2, when tame
    c: KElem | None = None               # element of K with a' = a * c^p exactly
    stripped: KElem | None = None        # input after removing p-th-power prime factors
    witness: str | None = None           # wildness explanation otherwise


def _strip_pth_powers(field: BaseField, a: KElem, p: int, fac):
    """Divide a by g^p for the largest principal divisor g O_K of
    prod P^(floor(v_P(a)/p)), where fac factors a O_K; returns (stripped a, g)."""
    heavy = [(P, v // p) for P, v in fac if v >= p]
    if not heavy:
        return a, field.one()
    box = math.prod(k + 1 for _, k in heavy)
    if box > STRIP_MAX_BOX:
        raise ResourceLimitError(
            f"tameness: stripping p-th powers would test {box} divisors, "
            f"more than STRIP_MAX_BOX = {STRIP_MAX_BOX}", STRIP_MAX_BOX)

    def norm(exps):
        return math.prod(P.norm() ** e for (P, _), e in zip(heavy, exps))

    boxes = [range(k, -1, -1) for _, k in heavy]
    for exps in sorted(itertools.product(*boxes), key=lambda e: (-norm(e), e)):
        ideal = KIdeal.unit_ideal(field)
        for (P, _), e in zip(heavy, exps):
            if e:
                ideal = ideal * P.ideal() ** e
        res = is_principal(field, ideal)
        if res.principal:
            return a / res.generator ** p, res.generator
    return a, field.one()


def _residue_inverse(field: BaseField, u: KElem, m: int) -> KElem:
    """Inverse of an integral u in O_K/mO_K; N(u) must be invertible mod m.
    For quadratic K this is conj(u)/N(u) since N(u) = u*conj(u)."""
    if field.is_rational:
        return field.elem(pow(int(u.x % m), -1, m))
    n = int(u.norm() % m)
    ninv = pow(n, -1, m)
    c = u.conj()
    return field.elem(int(c.x % m) * ninv % m, int(c.y % m) * ninv % m)


def tameness_test(field: BaseField, p: int, a: KElem,
                  max_norm: int = DEFAULT_MAX_NORM) -> TamenessVerdict:
    """Decide tameness of K(a^(1/p))/K and produce a normalized radicand.

    A prime above p that keeps an exponent prime to p after the p-th-power
    stripping is totally and wildly ramified.  Otherwise a is prime to p and
    tame iff a*c^p = 1 mod p^2 O_K for c = Frob^-1(a^-1) mod p, reduced into
    [0, p): c^p mod p^2 depends only on c mod p, and c^p = Frob(c) mod p,
    where Frob is the conjugation if p is inert and the identity otherwise.
    The exponent l = 1 suffices, since (O_K/p^2)^* is its Teichmueller part,
    of order prime to p, times the elementary abelian (1 + pO_K)/(1 + p^2 O_K):
    so a^l with l prime to p is a p-th power mod p^2 iff a is.
    """
    ctx = RadicandContext(field, p, a, max_norm)   # validates the whole setup
    a_str, g = _strip_pth_powers(field, a, p, ctx.radicand_factorization)
    above_p = ctx.primes_above_p()
    for P in above_p:
        v = element_valuation(P, a_str)
        if v % p:
            return TamenessVerdict(
                tame=False, stripped=a_str,
                witness=(f"v_P(a) = {v} at P = {P} above p after stripping; "
                         f"p is totally and wildly ramified"))
        if v:
            raise PreconditionError(
                f"v_P(a) = {v} >= p at {P} above p and the p-th-power part is "
                f"not principal; cannot normalize below p")

    m = p * p
    t = _residue_inverse(field, a_str, p)
    if above_p[0].f == 2:
        t = t.conj()
    c = field.elem(t.x % p, t.y % p)
    normalized = a_str * c ** p
    if (normalized.x - 1) % m or normalized.y % m:
        return TamenessVerdict(
            tame=False, stripped=a_str,
            witness=(f"no l in 1..{p - 1} makes a^l a {p}-th power in "
                     f"(O_K/{m}O_K)^*; p is wildly ramified"))
    c_total = c / g
    assert a * c_total ** p == normalized
    return TamenessVerdict(tame=True, normalized=normalized, c=c_total,
                           stripped=a_str)

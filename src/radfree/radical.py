"""Decomposition combinatorics for the radicand ideal and the tameness test.

An integral ideal factors uniquely as prod_i a_i^i with the a_i squarefree and
pairwise coprime (a_i = product of primes occurring with exact exponent i).
The associated ideals are b_j = prod_i a_i^(floor(ij/p)), equivalently
prod_P P^(floor(j*v_P(a)/p)); their classes are the freeness obstruction.

Tameness: L/K is tame iff the radicand can be moved, by a^l * c^p with l
coprime to p, to a' = 1 mod p^2 O_K.  The decision procedure searches the
finite residue ring O_K/p^2 O_K after stripping p-th-power prime factors.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .basefield import (
    DEFAULT_MAX_NORM,
    BaseField,
    KElem,
    KIdeal,
    PrimeIdeal,
    QuadForm,
    class_group,
    factor_ideal,
    factor_kideal,
    is_principal,
    split_prime,
)
from .errors import DomainError, PreconditionError
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

@dataclass(frozen=True)
class TamenessVerdict:
    tame: bool
    normalized: KElem | None = None      # a' = a^ell * c^p = 1 mod p^2, when tame
    ell: int | None = None
    c: KElem | None = None               # element of K with a' = a^ell * c^p exactly
    stripped: KElem | None = None        # input after removing p-th-power prime factors
    witness: str | None = None           # wildness explanation otherwise


def _strip_pth_powers(field: BaseField, a: KElem, p: int, max_norm: int):
    """Divide a by g^p for the largest principal divisor g O_K of
    prod P^(floor(v_P(a)/p)); returns (stripped a, g)."""
    fac = factor_ideal(field, a, max_norm)
    heavy = [(P, v // p) for P, v in fac if v >= p]
    if not heavy:
        return a, field.one()
    boxes = [range(k, -1, -1) for _, k in heavy]
    candidates = []
    for exps in itertools.product(*boxes):
        ideal = KIdeal.unit_ideal(field)
        norm = Fraction(1)
        for (P, _), e in zip(heavy, exps):
            if e:
                ideal = ideal * P.ideal() ** e
                norm *= Fraction(P.norm()) ** e
        candidates.append((norm, exps, ideal))
    candidates.sort(key=lambda t: (-t[0], t[1]))
    for _, _, ideal in candidates:
        res = is_principal(field, ideal)
        if res.principal:
            g = res.generator
            return a / (g ** p), g
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


@lru_cache(maxsize=None)
def _residue_pth_powers(field: BaseField, p: int) -> dict:
    """Map c^p mod p^2 -> smallest such c, over residues c of O_K/p^2 O_K."""
    m = p * p
    table: dict[tuple, KElem] = {}
    ys = range(1) if field.is_rational else range(m)
    for x in range(m):
        for y in ys:
            c = field.elem(x, y)
            cp = c ** p
            key = (cp.x % m, cp.y % m)
            if key not in table:
                table[key] = c
    return table


def tameness_test(field: BaseField, p: int, a: KElem,
                  max_norm: int = DEFAULT_MAX_NORM) -> TamenessVerdict:
    """Decide tameness of K(a^(1/p))/K and produce a normalized radicand.

    Tame iff some power a^ell (ell coprime to p) becomes a p-th power in
    (O_K/p^2 O_K)^*; the search space is finite since the unit residues and
    ell range are.  A prime above p surviving the p-th-power stripping with
    exponent not divisible by p means p is totally and wildly ramified.
    """
    RadicandContext(field, p, a, max_norm)   # validates the whole setup
    m = p * p
    a_str, g = _strip_pth_powers(field, a, p, max_norm)
    fac = factor_ideal(field, a_str, max_norm)
    for P in split_prime(field, p):
        v = next((e for Q, e in fac if Q == P), 0)
        if v == 0:
            continue
        if v % p:
            return TamenessVerdict(
                tame=False, stripped=a_str,
                witness=(f"v_P(a) = {v} at P = {P} above p after stripping; "
                         f"p is totally and wildly ramified"))
        raise PreconditionError(
            f"v_P(a) = {v} >= p at {P} above p and the p-th-power part is not "
            f"principal; cannot normalize below p")

    table = _residue_pth_powers(field, p)
    a_red = field.elem(a_str.x % m, a_str.y % m)
    for ell in range(1, p):
        target = _residue_inverse(field, a_red ** ell, m)
        key = (target.x, target.y)
        c = table.get(key)
        if c is not None:
            normalized = a_str ** ell * c ** p
            c_total = c / g ** ell
            assert a ** ell * c_total ** p == normalized
            return TamenessVerdict(tame=True, normalized=normalized, ell=ell,
                                   c=c_total, stripped=a_str)
    return TamenessVerdict(
        tame=False, stripped=a_str,
        witness=(f"no l in 1..{p - 1} makes a^l a {p}-th power in "
                 f"(O_K/{m}O_K)^*; p is wildly ramified"))


def normalized_context(field: BaseField, p: int, a: KElem,
                       max_norm: int = DEFAULT_MAX_NORM):
    """Tameness test plus the context for the normalized radicand."""
    verdict = tameness_test(field, p, a, max_norm)
    if not verdict.tame:
        return verdict, None
    ctx = RadicandContext(field, p, verdict.normalized, max_norm)
    assert ctx.is_normalized
    return verdict, ctx

"""The Hopf algebra H = K^p acting on L, and its two distinguished orders.

H carries a basis of mutually orthogonal idempotents e_0, ..., e_(p-1) acting
by e_i * alpha^j = delta_ij alpha^j, and a group-like basis eta^k related by
e_i = (1/p) sum_k zeta^(-ik) eta^k with zeta a primitive p-th root of unity.
The maximal order M is the set of elements with integral idempotent
coordinates; the associated order A of O_L is the set whose eta-coefficients
are integral over the cyclotomic integral basis {1, zeta, ..., zeta^(p-2)}.
That membership has a closed form: coordinates integral and pairwise
congruent mod p O_K.  Both tests are implemented; the eta route is the
definitional oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .basefield import KElem, QuadForm, class_group
from .errors import DomainError
from .extension import LElem, RadicandContext
from .integral import LocalIntegralBasis
from .radical import AssociatedIdeals


@dataclass(frozen=True)
class HElem:
    """sum_i c[i] e_i; multiplication is componentwise."""

    ctx: RadicandContext
    c: tuple[KElem, ...]

    def _check(self, other: "HElem"):
        if self.ctx != other.ctx:
            raise DomainError("elements of different Hopf algebras")

    def __add__(self, other: "HElem") -> "HElem":
        self._check(other)
        return HElem(self.ctx, tuple(u + v for u, v in zip(self.c, other.c)))

    def __mul__(self, other: "HElem") -> "HElem":
        self._check(other)
        return HElem(self.ctx, tuple(u * v for u, v in zip(self.c, other.c)))

    def __sub__(self, other: "HElem") -> "HElem":
        self._check(other)
        return HElem(self.ctx, tuple(u - v for u, v in zip(self.c, other.c)))

    def scale(self, k: KElem) -> "HElem":
        return HElem(self.ctx, tuple(u * k for u in self.c))


def h_identity(ctx: RadicandContext) -> HElem:
    return HElem(ctx, (ctx.field.one(),) * ctx.p)


def idempotent(ctx: RadicandContext, i: int) -> HElem:
    c = [ctx.field.zero()] * ctx.p
    c[i % ctx.p] = ctx.field.one()
    return HElem(ctx, tuple(c))


def h_from_coords(ctx: RadicandContext, coords) -> HElem:
    vec = [c if isinstance(c, KElem) else ctx.field.elem(Fraction(c))
           for c in coords]
    if len(vec) != ctx.p:
        raise DomainError(f"expected {ctx.p} coordinates")
    return HElem(ctx, tuple(vec))


def act(ctx: RadicandContext, h: HElem, x: LElem) -> LElem:
    """(h.x)_j = c_j x_j in the power basis; K-linear and multiplicative."""
    if h.ctx != ctx or x.ctx != ctx:
        raise DomainError("context mismatch")
    return LElem(ctx, tuple(cj * xj for cj, xj in zip(h.c, x.coords)))


# ---------------------------------------------------------------------------
# Cyclotomic coordinates

@dataclass(frozen=True)
class CyclotomicElem:
    """Element of F = K(zeta) in the basis {1, zeta, ..., zeta^(p-2)}."""

    ctx: RadicandContext
    coords: tuple[KElem, ...]

    def __add__(self, other: "CyclotomicElem") -> "CyclotomicElem":
        if self.ctx != other.ctx:
            raise DomainError("context mismatch")
        return CyclotomicElem(self.ctx,
                              tuple(u + v for u, v in zip(self.coords, other.coords)))

    def scale(self, k: KElem) -> "CyclotomicElem":
        return CyclotomicElem(self.ctx, tuple(u * k for u in self.coords))

    def scale_rat(self, q) -> "CyclotomicElem":
        q = Fraction(q)
        return CyclotomicElem(self.ctx, tuple(u.scale(q) for u in self.coords))

    def is_integral(self) -> bool:
        # valid because {1, zeta, ..., zeta^(p-2)} is an integral basis of O_F
        return all(c.is_integral() for c in self.coords)

    def is_zero(self) -> bool:
        return all(c.is_zero() for c in self.coords)


def cyclo_zero(ctx: RadicandContext) -> CyclotomicElem:
    return CyclotomicElem(ctx, (ctx.field.zero(),) * (ctx.p - 1))


def zeta_power(ctx: RadicandContext, k: int) -> CyclotomicElem:
    """zeta^k reduced: zeta^(p-1) = -(1 + zeta + ... + zeta^(p-2))."""
    p = ctx.p
    k %= p
    if k <= p - 2:
        coords = [ctx.field.zero()] * (p - 1)
        coords[k] = ctx.field.one()
    else:
        coords = [-ctx.field.one()] * (p - 1)
    return CyclotomicElem(ctx, tuple(coords))


def mul_zeta_power(v: CyclotomicElem, k: int) -> CyclotomicElem:
    """v * zeta^k, reduced to the standard basis."""
    ctx = v.ctx
    out = cyclo_zero(ctx)
    for r, c in enumerate(v.coords):
        if not c.is_zero():
            out = out + zeta_power(ctx, r + k).scale(c)
    return out


def eta_coefficients(ctx: RadicandContext, h: HElem) -> tuple[CyclotomicElem, ...]:
    """Coefficients d_k with h = sum_k d_k eta^k, where
    d_k = (1/p) sum_i c_i zeta^(-ik)."""
    p = ctx.p
    out = []
    for k in range(p):
        acc = cyclo_zero(ctx)
        for i, ci in enumerate(h.c):
            if not ci.is_zero():
                acc = acc + zeta_power(ctx, (-i * k) % p).scale(ci)
        out.append(acc.scale_rat(Fraction(1, p)))
    return tuple(out)


def idempotent_coords_from_eta(ctx: RadicandContext,
                               d: tuple[CyclotomicElem, ...]) -> list[CyclotomicElem]:
    """Round trip: c_i = sum_k d_k zeta^(ik) (lands in K when h was in H)."""
    p = ctx.p
    out = []
    for i in range(p):
        acc = cyclo_zero(ctx)
        for k in range(p):
            acc = acc + mul_zeta_power(d[k], i * k)
        out.append(acc)
    return out


# ---------------------------------------------------------------------------
# Order membership

def in_maximal_order(h: HElem) -> bool:
    """M is the preimage of O_K^p under H = K^p."""
    return all(c.is_integral() for c in h.c)


def in_associated_order(ctx: RadicandContext, h: HElem) -> bool:
    """Closed form: all c_i integral and pairwise congruent mod p O_K."""
    if h.ctx != ctx:
        raise DomainError("context mismatch")
    if not in_maximal_order(h):
        return False
    p = ctx.p
    c0 = h.c[0]
    for ci in h.c[1:]:
        diff = ci - c0
        if diff.x % p != 0 or diff.y % p != 0:
            return False
    return True


def in_associated_order_by_eta(ctx: RadicandContext, h: HElem) -> bool:
    """Definitional test: every eta-coefficient integral in O_F."""
    if h.ctx != ctx:
        raise DomainError("context mismatch")
    return all(d.is_integral() for d in eta_coefficients(ctx, h))


# ---------------------------------------------------------------------------
# Local generators and the class tuple

def local_generator(ctx: RadicandContext, basis: LocalIntegralBasis) -> LElem:
    """Free generator of the local ring of integers over the local associated
    order, read off the local basis of ctx at its prime P: the last basis
    element (1/p) sum_j alpha^j above p, and (1/p) sum_j alpha^j / pi^r(j),
    the scaled sum of the basis, away from p."""
    if basis.prime.q == ctx.p:
        return basis.elements[-1]
    acc = ctx.zero()
    for b in basis.elements:
        acc = acc + b
    return acc.scale_rat(Fraction(1, ctx.p))


def class_of_MOL(ctx: RadicandContext,
                 assoc: AssociatedIdeals) -> tuple[QuadForm | None, ...]:
    """Classes of (b_0^-1, ..., b_(p-1)^-1); all principal iff M*O_L is free."""
    cg = class_group(ctx.field)
    out = []
    for bj in assoc.b:
        out.append(cg.class_of(bj.inverse()))
    return tuple(out)

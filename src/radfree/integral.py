"""Local integral bases of O_L and the global basis over Q.

Away from p the basis at a prime P is {alpha^j / pi^r(j)} with
r(j) = floor(j * v_P(a) / p) and pi a uniformizer chosen with valuation zero
at the other primes in the support of a*p.  Above p, for a normalized
radicand (a = 1 mod p^2), the basis is {1, alpha, ..., alpha^(p-2),
(1 + alpha + ... + alpha^(p-1))/p}.  Integrality of an element at P is
non-negativity of the P-valuations of its coordinates in the local basis.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .basefield import (
    KElem,
    PrimeIdeal,
    _norm_solutions,
    element_valuation,
    is_principal,
)
from .errors import (
    DomainError,
    PreconditionError,
    ResourceLimitError,
    UnsupportedScopeError,
)
from .extension import LElem, RadicandContext, hnf_glue
from .lattices import IntegerLattice

# The uniformizer search at a non-principal P tries the norms N(P) * m for
# m = 1..UNIFORMIZER_MAX_MULTIPLIER.
UNIFORMIZER_MAX_MULTIPLIER = 999


@dataclass(frozen=True)
class LocalIntegralBasis:
    prime: PrimeIdeal
    elements: tuple[LElem, ...]
    uniformizer: KElem | None            # None above p
    r_exponents: tuple[int, ...]


def uniformizer(ctx: RadicandContext, P: PrimeIdeal) -> KElem:
    """Element with v_P = 1 and valuation 0 at the other support primes.

    A generator works when P is principal; otherwise search lattice points of
    P by increasing norm until one avoids the rest of the support.
    """
    others = [Q for Q in ctx.support_primes() if Q != P]
    res = is_principal(ctx.field, P.ideal())
    if res.principal:
        g = res.generator
        assert all(element_valuation(Q, g) == 0 for Q in others)
        return g
    n0 = P.norm()
    for mult in range(1, UNIFORMIZER_MAX_MULTIPLIER + 1):
        for cand in _norm_solutions(ctx.field, n0 * mult):
            if not P.ideal().contains(cand):
                continue
            if element_valuation(P, cand) != 1:
                continue
            if all(element_valuation(Q, cand) == 0 for Q in others):
                return cand
    raise ResourceLimitError(
        f"local bases: no uniformizer at {P} among the elements of norm "
        f"{n0}*m, m <= {UNIFORMIZER_MAX_MULTIPLIER}", UNIFORMIZER_MAX_MULTIPLIER)


def local_basis(ctx: RadicandContext, P: PrimeIdeal) -> LocalIntegralBasis:
    p = ctx.p
    if P.q == p:
        if not ctx.is_normalized:
            raise PreconditionError(
                "local basis above p requires a normalized radicand "
                "(a = 1 mod p^2); run the tameness test first")
        top = ctx.zero()
        for j in range(p):
            top = top + ctx.alpha_power(j)
        elems = [ctx.alpha_power(j) for j in range(p - 1)]
        elems.append(top.scale_rat(Fraction(1, p)))
        return LocalIntegralBasis(P, tuple(elems), None, tuple([0] * p))
    v = ctx.v_a(P)
    r = tuple(j * v // p for j in range(p))
    if not any(r):
        return LocalIntegralBasis(P, tuple(ctx.alpha_power(j) for j in range(p)),
                                  None, r)
    pi = uniformizer(ctx, P)
    elems = [ctx.alpha_power(j).scale(pi ** (-r[j])) for j in range(p)]
    return LocalIntegralBasis(P, tuple(elems), pi, r)


def solve_coordinates(ctx: RadicandContext, basis: list[LElem],
                      x: LElem) -> list[KElem]:
    """Coordinates of x in a K-basis of L, by Gaussian elimination over K."""
    p = ctx.p
    rows = [list(b.coords) for b in basis]
    rhs = list(x.coords)
    # solve y * rows = rhs
    mat = [[rows[i][j] for i in range(p)] for j in range(p)]   # columns are basis
    vec = list(rhs)
    for col in range(p):
        piv = next((r for r in range(col, p) if not mat[r][col].is_zero()), None)
        if piv is None:
            raise DomainError("basis is singular")
        mat[col], mat[piv] = mat[piv], mat[col]
        vec[col], vec[piv] = vec[piv], vec[col]
        inv = mat[col][col].inverse()
        mat[col] = [c * inv for c in mat[col]]
        vec[col] = vec[col] * inv
        for r in range(p):
            if r != col and not mat[r][col].is_zero():
                f = mat[r][col]
                mat[r] = [c - f * d for c, d in zip(mat[r], mat[col])]
                vec[r] = vec[r] - f * vec[col]
    return vec


def global_integral_basis(ctx: RadicandContext,
                          bases: dict[PrimeIdeal, LocalIntegralBasis]) -> IntegerLattice:
    """HNF lattice equal to O_L, glued from the local bases (K = Q only).

    bases holds the local basis at every support prime of ctx.
    """
    if not ctx.field.is_rational:
        raise UnsupportedScopeError(
            "global integral bases are assembled over Q only; quadratic base "
            "fields are handled prime-locally")
    if not ctx.is_normalized:
        raise PreconditionError("normalize the radicand first")
    return hnf_glue(ctx, [(P, list(bases[P].elements))
                          for P in ctx.support_primes()])


def poly_discriminant(ctx: RadicandContext) -> int:
    """disc(x^p - a) = (-1)^(p(p-1)/2) * p^p * a^(p-1) over Q."""
    if not ctx.field.is_rational:
        raise UnsupportedScopeError("polynomial discriminant used over Q only")
    p = ctx.p
    a = int(ctx.a.x)
    sign = -1 if (p * (p - 1) // 2) % 2 else 1
    return sign * p ** p * a ** (p - 1)


def field_index_and_discriminant(ctx: RadicandContext,
                                 lattice: IntegerLattice) -> tuple[int, int]:
    """([O_L : Z[alpha]], disc O_L) from the glued global basis lattice of
    ctx, as built by global_integral_basis."""
    det = lattice.determinant()
    index = 1 / abs(det)
    assert index.denominator == 1
    index = int(index)
    disc = poly_discriminant(ctx)
    assert disc % (index * index) == 0
    return index, disc // (index * index)

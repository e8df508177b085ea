"""Exact arithmetic for the base field K: the rationals, or an imaginary
quadratic field Q(sqrt(d)) with d < 0 squarefree.

Elements are coordinate pairs x + y*w over the integral basis {1, w}, where
w = sqrt(d) or (1 + sqrt(d))/2 according to d mod 4.  Ideals are stored as the
Hermite normal form of their Z-basis with a positive integer denominator, so
ideal equality is tuple equality.  The ideal layer works on those integer
coordinates: a product multiplies the two Z-bases with w^2 = s*w + r and runs
one HNF, and v_P is read off the HNF rows in closed form (q-content, then one
residue test at P, then v_q of the norm when P is split).  The class group is
realized by reduced primitive binary quadratic forms of the field
discriminant, which keeps principality testing a finite norm-equation search.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import sympy

from .errors import DomainError, ResourceLimitError
from .lattices import hnf

DEFAULT_MAX_NORM = 2**64


def _is_squarefree(n: int) -> bool:
    return all(e == 1 for e in sympy.factorint(abs(n)).values())


@dataclass(frozen=True)
class BaseField:
    """K = Q (kind 'Q') or Q(sqrt(d)) with d < 0 squarefree (kind 'quad')."""

    kind: str
    d: int | None = None

    @staticmethod
    def rationals() -> "BaseField":
        return BaseField("Q")

    @staticmethod
    def imaginary_quadratic(d: int) -> "BaseField":
        if d >= 0:
            raise DomainError(f"d must be negative, got {d}")
        if not _is_squarefree(d):
            raise DomainError(f"d must be squarefree, got {d}")
        return BaseField("quad", d)

    @property
    def is_rational(self) -> bool:
        return self.kind == "Q"

    @property
    def discriminant(self) -> int:
        if self.is_rational:
            return 1
        return self.d if self.d % 4 == 1 else 4 * self.d

    # w^2 = s*w + r with s = Tr(w), -r = N(w)
    @property
    def _omega_rel(self) -> tuple[int, int]:
        if self.is_rational:
            return (0, 0)
        if self.d % 4 == 1:
            return (1, (self.d - 1) // 4)
        return (0, self.d)

    def elem(self, x, y=0) -> "KElem":
        x, y = Fraction(x), Fraction(y)
        if self.is_rational and y != 0:
            raise DomainError("rational field element with nonzero w-coordinate")
        return KElem(self, x, y)

    def zero(self) -> "KElem":
        return self.elem(0)

    def one(self) -> "KElem":
        return self.elem(1)

    def label(self) -> str:
        return "Q" if self.is_rational else f"Qsqrt{self.d}"


@dataclass(frozen=True)
class KElem:
    """x + y*w with exact rational coordinates."""

    field: BaseField
    x: Fraction
    y: Fraction

    def _check(self, other: "KElem"):
        if self.field != other.field:
            raise DomainError("elements of different base fields")

    def __add__(self, other: "KElem") -> "KElem":
        self._check(other)
        return KElem(self.field, self.x + other.x, self.y + other.y)

    def __sub__(self, other: "KElem") -> "KElem":
        self._check(other)
        return KElem(self.field, self.x - other.x, self.y - other.y)

    def __neg__(self) -> "KElem":
        return KElem(self.field, -self.x, -self.y)

    def __mul__(self, other: "KElem") -> "KElem":
        self._check(other)
        s, r = self.field._omega_rel
        ww = self.y * other.y
        return KElem(self.field,
                     self.x * other.x + r * ww,
                     self.x * other.y + self.y * other.x + s * ww)

    def conj(self) -> "KElem":
        s, _ = self.field._omega_rel
        return KElem(self.field, self.x + s * self.y, -self.y)

    def norm(self) -> Fraction:
        s, r = self.field._omega_rel
        if self.field.is_rational:
            return self.x
        return self.x * self.x + s * self.x * self.y - r * self.y * self.y

    def trace(self) -> Fraction:
        s, _ = self.field._omega_rel
        return 2 * self.x + s * self.y

    def inverse(self) -> "KElem":
        if self.is_zero():
            raise DomainError("division by zero")
        if self.field.is_rational:
            return KElem(self.field, 1 / self.x, Fraction(0))
        n = self.norm()
        c = self.conj()
        return KElem(self.field, c.x / n, c.y / n)

    def __truediv__(self, other: "KElem") -> "KElem":
        return self * other.inverse()

    def __pow__(self, n: int) -> "KElem":
        if n < 0:
            return self.inverse() ** (-n)
        out = self.field.one()
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def scale(self, q) -> "KElem":
        q = Fraction(q)
        return KElem(self.field, self.x * q, self.y * q)

    def is_zero(self) -> bool:
        return self.x == 0 and self.y == 0

    def is_integral(self) -> bool:
        return self.x.denominator == 1 and self.y.denominator == 1

    def is_one(self) -> bool:
        return self.x == 1 and self.y == 0

    def denominator(self) -> int:
        return self.x.denominator * self.y.denominator // math.gcd(
            self.x.denominator, self.y.denominator)

    def coords(self) -> tuple[Fraction, Fraction]:
        return (self.x, self.y)

    def __str__(self) -> str:
        if self.y == 0:
            return str(self.x)
        wpart = "w" if abs(self.y) == 1 else f"{abs(self.y)}*w"
        if self.x == 0:
            return wpart if self.y > 0 else f"-{wpart}"
        sign = "+" if self.y > 0 else "-"
        return f"{self.x}{sign}{wpart}"

    def __repr__(self) -> str:
        return f"KElem({self})"


# ---------------------------------------------------------------------------
# Ideals

@dataclass(frozen=True)
class KIdeal:
    """Fractional ideal (1/den) * (Z-span of HNF rows), rows over {1, w}.

    For K = Q the matrix is 1x1; norm, products and membership all reduce to
    rational arithmetic on the single entry.
    """

    field: BaseField
    rows: tuple[tuple[int, ...], ...]
    den: int

    @staticmethod
    def from_generators(field: BaseField, gens: list[KElem]) -> "KIdeal":
        """Smallest fractional O_K-module containing every generator."""
        vecs = []
        for g in gens:
            if g.field != field:
                raise DomainError("generator from a different field")
            if g.is_zero():
                continue
            vecs.append(g)
            if not field.is_rational:
                w = field.elem(0, 1)
                vecs.append(g * w)
        if not vecs:
            raise DomainError("zero ideal")
        den = 1
        for v in vecs:
            den = den * v.denominator() // math.gcd(den, v.denominator())
        dim = 1 if field.is_rational else 2
        int_rows = []
        for v in vecs:
            row = [int(v.x * den)] if dim == 1 else [int(v.x * den), int(v.y * den)]
            int_rows.append(row)
        return KIdeal._canonical(field, hnf(int_rows, dim), den)

    @staticmethod
    def principal(g: KElem) -> "KIdeal":
        return KIdeal.from_generators(g.field, [g])

    @staticmethod
    def unit_ideal(field: BaseField) -> "KIdeal":
        rows = ((1,),) if field.is_rational else ((1, 0), (0, 1))
        return KIdeal(field, rows, 1)

    @staticmethod
    def _canonical(field, rows, den) -> "KIdeal":
        g = den
        for row in rows:
            for v in row:
                g = math.gcd(g, v)
        if g > 1:
            rows = tuple(tuple(v // g for v in row) for row in rows)
            den //= g
        return KIdeal(field, rows, den)

    @property
    def dim(self) -> int:
        return 1 if self.field.is_rational else 2

    def basis_elems(self) -> list[KElem]:
        out = []
        for row in self.rows:
            x = Fraction(row[0], self.den)
            y = Fraction(row[1], self.den) if self.dim == 2 else Fraction(0)
            out.append(KElem(self.field, x, y))
        return out

    def __mul__(self, other: "KIdeal") -> "KIdeal":
        """The Z-span of the pairwise products of the two Z-bases is already
        an O_K-module, so one HNF of those integer rows gives the product."""
        if self.field != other.field:
            raise DomainError("ideals of different fields")
        if not self.rows or not other.rows:
            raise DomainError("zero ideal")
        if self.dim == 1:
            rows = [[a * c] for (a,) in self.rows for (c,) in other.rows]
        else:
            s, r = self.field._omega_rel
            rows = []
            for a, b in self.rows:
                for c, d in other.rows:
                    bd = b * d
                    rows.append([a * c + r * bd, a * d + b * c + s * bd])
        return KIdeal._canonical(self.field, hnf(rows, self.dim),
                                 self.den * other.den)

    def __pow__(self, n: int) -> "KIdeal":
        if n < 0:
            return self.inverse() ** (-n)
        out = None
        base = self
        while n:
            if n & 1:
                out = base if out is None else out * base
            n >>= 1
            if n:
                base = base * base
        return KIdeal.unit_ideal(self.field) if out is None else out

    def __add__(self, other: "KIdeal") -> "KIdeal":
        if self.field != other.field:
            raise DomainError("ideals of different fields")
        return KIdeal.from_generators(self.field,
                                      self.basis_elems() + other.basis_elems())

    def norm(self) -> Fraction:
        n = 1
        for i, row in enumerate(self.rows):
            n *= row[i]
        return Fraction(n, self.den ** self.dim)

    def is_integral(self) -> bool:
        return self.den == 1

    def contains(self, g: KElem) -> bool:
        if g.field != self.field:
            raise DomainError("element from a different field")
        vec = [g.x * self.den, g.y * self.den][: self.dim]
        if any(v.denominator != 1 for v in vec):
            return False
        rem = [int(v) for v in vec]
        for row in self.rows:
            j = next(k for k in range(self.dim) if row[k])
            if rem[j] % row[j]:
                return False
            q = rem[j] // row[j]
            rem = [a - q * b for a, b in zip(rem, row)]
        return not any(rem)

    def contains_ideal(self, other: "KIdeal") -> bool:
        return all(self.contains(b) for b in other.basis_elems())

    def conjugate(self) -> "KIdeal":
        return KIdeal.from_generators(self.field,
                                      [b.conj() for b in self.basis_elems()])

    def inverse(self) -> "KIdeal":
        if self.field.is_rational:
            g = Fraction(self.rows[0][0], self.den)
            return KIdeal.principal(self.field.elem(1 / g))
        n = self.norm()
        conj = self.conjugate()
        return KIdeal.from_generators(
            self.field, [b.scale(1 / n) for b in conj.basis_elems()])

    def __str__(self) -> str:
        core = "[" + ", ".join(str(list(r)) for r in self.rows) + "]"
        return core if self.den == 1 else f"(1/{self.den})*{core}"


# ---------------------------------------------------------------------------
# Prime ideals and splitting

@dataclass(frozen=True, order=True)
class PrimeIdeal:
    """Prime of O_K above the rational prime q, as (q, w - t0).

    ``t0`` is the smallest non-negative root of the minimal polynomial of w
    modulo q; it is None for inert primes and for primes of Q, where the ideal
    is (q) itself.  f is the residue degree.
    """

    field: BaseField
    q: int
    t0: int | None
    f: int
    ramified: bool

    def pi_elem(self) -> KElem | None:
        if self.t0 is None:
            return None
        return self.field.elem(-self.t0, 1)

    def ideal(self) -> KIdeal:
        return _prime_ideal(self)

    def norm(self) -> int:
        return self.q ** self.f

    def ram_index(self) -> int:
        return 2 if self.ramified else 1

    def sort_key(self):
        return (self.norm(), self.q, -1 if self.t0 is None else self.t0)

    def __str__(self) -> str:
        if self.t0 is None:
            return f"({self.q})"
        return f"({self.q}, w-{self.t0})" if self.t0 else f"({self.q}, w)"


@lru_cache(maxsize=None)
def _prime_ideal(P: PrimeIdeal) -> KIdeal:
    """HNF of (q) or of (q, w - t0) = {x + y*w : x + y*t0 = 0 mod q}."""
    q, t0 = P.q, P.t0
    if P.field.is_rational:
        rows = ((q,),)
    elif t0 is None:
        rows = ((q, 0), (0, q))
    elif t0 == 0:
        rows = ((q, 0), (0, 1))
    else:
        rows = ((1, -pow(t0, -1, q) % q), (0, q))
    return KIdeal(P.field, rows, 1)


def _sqrt_mod(a: int, q: int) -> int | None:
    """Smallest square root of a modulo an odd prime q, or None."""
    a %= q
    if a == 0:
        return 0
    if pow(a, (q - 1) // 2, q) != 1:
        return None
    if q % 4 == 3:
        r = pow(a, (q + 1) // 4, q)
        return min(r, q - r)
    # Tonelli-Shanks
    s, e = q - 1, 0
    while s % 2 == 0:
        s //= 2
        e += 1
    n = 2
    while pow(n, (q - 1) // 2, q) != q - 1:
        n += 1
    z = pow(n, s, q)
    r = pow(a, (s + 1) // 2, q)
    t = pow(a, s, q)
    m = e
    while t != 1:
        i, tt = 0, t
        while tt != 1:
            tt = tt * tt % q
            i += 1
        b = pow(z, 1 << (m - i - 1), q)
        r = r * b % q
        z = b * b % q
        t = t * z % q
        m = i
    return min(r, q - r)


def split_prime(field: BaseField, q: int) -> tuple[PrimeIdeal, ...]:
    """Primes of O_K above q, canonically ordered."""
    return _split_prime(field, int(q))


@lru_cache(maxsize=None)
def _split_prime(field: BaseField, q: int) -> tuple[PrimeIdeal, ...]:
    if not sympy.isprime(q):
        raise DomainError(f"{q} is not prime")
    if field.is_rational:
        return (PrimeIdeal(field, q, None, 1, False),)
    d = field.d
    if q == 2:
        if d % 4 == 1:
            if d % 8 == 1:
                return (PrimeIdeal(field, 2, 0, 1, False),
                        PrimeIdeal(field, 2, 1, 1, False))
            return (PrimeIdeal(field, 2, None, 2, False),)
        # D = 4d: 2 ramifies; double root of t^2 - d mod 2
        t0 = 0 if d % 2 == 0 else 1
        return (PrimeIdeal(field, 2, t0, 1, True),)
    if d % q == 0:
        # double root of t^2 - s*t - r
        s, _ = field._omega_rel
        t0 = s * pow(2, -1, q) % q
        return (PrimeIdeal(field, q, t0, 1, True),)
    rt = _sqrt_mod(d, q)
    if rt is None:
        return (PrimeIdeal(field, q, None, 2, False),)
    if d % 4 == 1:
        inv2 = pow(2, -1, q)
        roots = sorted(((1 + rt) * inv2 % q, (1 - rt) * inv2 % q))
    else:
        roots = sorted((rt % q, (q - rt) % q))
    return tuple(PrimeIdeal(field, q, t, 1, False) for t in roots)


def _vq(n: int, q: int) -> int:
    """v_q(n) for a nonzero integer n."""
    v = 0
    while n % q == 0:
        n //= q
        v += 1
    return v


def _int_valuation(P: PrimeIdeal, x: int, y: int = 0) -> int:
    """v_P(x + y*w) for integers x, y, not both zero (Cohen, GTM 138, ch. 4).

    After the q-content q^e is stripped, x + y*w lies in at most one prime
    above q: if it lay in P and in its conjugate, or in P^2 = (q) when P is
    ramified, q would divide it.  So v_P is e*e(P), plus 1 at a ramified P,
    or v_q of the norm at a split P, when x + y*t0 = 0 mod q.
    """
    q = P.q
    e = 0
    while x % q == 0 and y % q == 0:
        x //= q
        y //= q
        e += 1
    v = e * P.ram_index()
    if P.t0 is None or (x + y * P.t0) % q:
        return v
    if P.ramified:
        return v + 1
    s, r = P.field._omega_rel
    return v + _vq(x * x + s * x * y - r * y * y, q)


def _integer_coords(g: KElem) -> tuple[int, int, int]:
    """(x, y, den) with g = (x + y*w) / den and den the least such."""
    den = g.denominator()
    return (g.x.numerator * (den // g.x.denominator),
            g.y.numerator * (den // g.y.denominator), den)


def residue(P: PrimeIdeal, g: KElem):
    """The class of g in O_K/P, for g whose denominator is prime to q.

    At a split or ramified P = (q, w - t0) the class is x + y*t0 mod q, an
    int; at an inert P and over Q it is the pair (x, y) mod q.
    """
    if g.field != P.field:
        raise DomainError("element from a different field")
    q = P.q
    x, y, den = _integer_coords(g)
    if den % q == 0:
        raise DomainError(f"{g} has a denominator divisible by {q}; "
                          f"no residue mod {P}")
    inv = pow(den, -1, q)
    if P.t0 is None:
        return (x * inv % q, y * inv % q)
    return (x + y * P.t0) * inv % q


def ideal_valuation(P: PrimeIdeal, I: KIdeal) -> int:
    """v_P(I), additive over products; DomainError on the zero ideal.

    The HNF rows generate I as an O_K-module, so v_P(I) is their least
    valuation, less e(P) * v_q(den).
    """
    if I.field != P.field:
        raise DomainError("ideal from a different field")
    if not I.rows:
        raise DomainError("valuation of the zero ideal")
    v = min(_int_valuation(P, *row) for row in I.rows)
    return v - P.ram_index() * _vq(I.den, P.q)


def element_valuation(P: PrimeIdeal, g: KElem) -> int:
    if g.field != P.field:
        raise DomainError("element from a different field")
    if g.is_zero():
        raise DomainError("valuation of zero")
    x, y, den = _integer_coords(g)
    return _int_valuation(P, x, y) - P.ram_index() * _vq(den, P.q)


# ---------------------------------------------------------------------------
# Factorization

def _decimal_or_length(n: int) -> str:
    """n in decimal, or its digit count when it has more than 40 digits;
    str() refuses integers of more than 4300 digits."""
    m = abs(n)
    if m < 10 ** 40:
        return str(n)
    d = int(math.log10(m))      # within 1 of the digit count less 1
    return f"with {d + (m >= 10 ** d) + (m >= 10 ** (d + 1)):,} digits"


def factor_ideal(field: BaseField, g: KElem,
                 max_norm: int = DEFAULT_MAX_NORM) -> list[tuple[PrimeIdeal, int]]:
    """Factor gO_K into primes, sorted canonically; g must be a nonzero
    algebraic integer."""
    if g.is_zero():
        raise DomainError("cannot factor the zero ideal")
    if not g.is_integral():
        raise DomainError(f"{g} is not integral")
    return factor_kideal(KIdeal.principal(g), max_norm)


def factor_kideal(I: KIdeal,
                  max_norm: int = DEFAULT_MAX_NORM) -> list[tuple[PrimeIdeal, int]]:
    if not I.is_integral():
        raise DomainError("factorization requires an integral ideal")
    n = I.norm()
    assert n.denominator == 1
    n = int(n)
    if n == 0:
        raise DomainError("cannot factor the zero ideal")
    if n > max_norm:
        raise ResourceLimitError(
            f"ideal norm {_decimal_or_length(n)} exceeds factorization bound",
            max_norm)
    out = []
    for q in sorted(int(v) for v in sympy.factorint(n)):
        for P in split_prime(I.field, q):
            v = ideal_valuation(P, I)
            if v:
                out.append((P, v))
    out.sort(key=lambda t: t[0].sort_key())
    prod = Fraction(1)
    for P, v in out:
        prod *= Fraction(P.norm()) ** v
    assert prod == n, "norm bookkeeping failure in factorization"
    return out


# ---------------------------------------------------------------------------
# Class group via reduced binary quadratic forms

@dataclass(frozen=True, order=True)
class QuadForm:
    a: int
    b: int
    c: int

    def disc(self) -> int:
        return self.b * self.b - 4 * self.a * self.c

    def __str__(self) -> str:
        return f"({self.a},{self.b},{self.c})"


def reduce_form(f: QuadForm) -> QuadForm:
    """Unique reduced representative: |b| <= a <= c, b >= 0 if |b| = a or a = c."""
    a, b, c = f.a, f.b, f.c
    while True:
        if -a < b <= a <= c and not (a == c and b < 0):
            return QuadForm(a, b, c)
        if c < a or (c == a and b < 0):
            a, b, c = c, -b, a
            continue
        # normalize b into (-a, a]
        r = (a - b) // (2 * a)
        b2 = b + 2 * r * a
        c2 = a * r * r + b * r + c
        b, c = b2, c2


class ClassGroup:
    """Cl(O_K) as reduced primitive forms of the field discriminant."""

    def __init__(self, field: BaseField):
        self.field = field
        if field.is_rational:
            self.principal_form: QuadForm | None = None
            return
        D = field.discriminant
        self.principal_form = reduce_form(QuadForm(1, D % 2, ((D % 2) - D) // 4))

    def class_of(self, I: KIdeal) -> QuadForm | None:
        """Reduced form of the class of I (None means principal, for K = Q)."""
        if self.field.is_rational:
            return None
        num = KIdeal(self.field, I.rows, 1)   # class ignores the denominator
        (a0, b0), (z, c0) = num.rows
        assert z == 0
        alpha = self.field.elem(a0, b0)
        beta = self.field.elem(0, c0)
        n = num.norm()
        A = alpha.norm() / n
        B = (alpha * beta.conj()).trace() / n
        C = beta.norm() / n
        assert A.denominator == B.denominator == C.denominator == 1
        form = reduce_form(QuadForm(int(A), int(B), int(C)))
        assert form.disc() == self.field.discriminant
        return form

    def is_principal_class(self, f: QuadForm | None) -> bool:
        return f is None or f == self.principal_form


@lru_cache(maxsize=None)
def class_group(field: BaseField) -> ClassGroup:
    return ClassGroup(field)


# ---------------------------------------------------------------------------
# Principality and units

@dataclass(frozen=True)
class Principality:
    generator: KElem | None
    ideal_class: QuadForm | None     # reduced class representative when not principal

    @property
    def principal(self) -> bool:
        return self.generator is not None


def _norm_solutions(field: BaseField, m: int) -> list[KElem]:
    """All x + y*w with N = m > 0, canonically ordered (imaginary quadratic)."""
    d = field.d
    sols = set()
    if d % 4 != 1:
        ymax = math.isqrt(m // -d)
        for y in range(ymax + 1):
            r = m + d * y * y
            x = math.isqrt(r)
            if x * x == r:
                sols.update({(x, y), (-x, y), (x, -y), (-x, -y)})
    else:
        ymax = math.isqrt(4 * m // -d)
        for y in range(ymax + 1):
            r = 4 * m + d * y * y
            u = math.isqrt(r)
            if u * u != r or (u - y) % 2:
                continue
            for uu, yy in {(u, y), (-u, y), (u, -y), (-u, -y)}:
                sols.add(((uu - yy) // 2, yy))
    ordered = sorted(sols, key=lambda t: (t[1] * t[1], t[0] * t[0], t[1] < 0, t[0] < 0))
    return [field.elem(x, y) for x, y in ordered]


def is_principal(field: BaseField, I: KIdeal) -> Principality:
    """Find g with gO_K = I, or report the (non-principal) ideal class.

    For imaginary quadratic K a generator, if one exists, has |N(g)| equal to
    the ideal norm, so the search over lattice points of that norm is finite
    and exhaustive.
    """
    if field.is_rational:
        g = Fraction(I.rows[0][0], I.den)
        return Principality(field.elem(g), None)
    num = KIdeal(field, I.rows, 1)
    m = int(num.norm())
    for cand in _norm_solutions(field, m):
        if num.contains(cand):
            gen = cand.scale(Fraction(1, I.den))
            assert KIdeal.principal(gen) == I
            return Principality(gen, None)
    cls = class_group(field).class_of(I)
    return Principality(None, cls)


def units(field: BaseField) -> list[KElem]:
    """The unit group of O_K, finite for Q and imaginary quadratic K."""
    one = field.one()
    out = [one, -one]
    if not field.is_rational:
        w = field.elem(0, 1)
        if field.d == -1:
            out += [w, -w]
        elif field.d == -3:
            w2 = w * w
            out += [w, -w, w2, -w2]
    return out


def unit_reps_mod_p(field: BaseField, p: int) -> list[KElem]:
    """Units of O_K deduplicated modulo pO_K, in a fixed enumeration order."""
    if p == 2 or not sympy.isprime(p):
        raise DomainError(f"p must be an odd prime, got {p}")
    if field.discriminant % p == 0:
        raise DomainError(f"{p} ramifies in {field.label()}")
    seen = set()
    out = []
    for u in units(field):
        key = (u.x % p, u.y % p)
        if key not in seen:
            seen.add(key)
            out.append(u)
    return out

"""Integer lattices with a common denominator, canonicalized by Hermite
normal form.

An ``IntegerLattice`` stores ``(1/den) * rows`` where ``rows`` is the unique
row-style HNF of an integer matrix: row-echelon with positive pivots and the
entries above each pivot reduced into [0, pivot).  Equality of lattices is
equality of canonical forms.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd

from .errors import DomainError


def hnf(rows: list[list[int]], ncols: int) -> tuple[tuple[int, ...], ...]:
    """Unique row HNF of the lattice spanned by ``rows`` (zero rows dropped)."""
    basis: list[list[int]] = []      # echelon rows, sorted by pivot column
    pivots: list[int] = []
    for row in rows:
        vec = list(row)
        if len(vec) != ncols:
            raise DomainError(f"row of length {len(vec)}, expected {ncols}")
        j = 0
        while any(vec):
            j = next(k for k in range(ncols) if vec[k])
            pos = None
            for idx, pj in enumerate(pivots):
                if pj == j:
                    pos = idx
                    break
                if pj > j:
                    break
            if pos is None:
                break
            piv = basis[pos]
            a, b = piv[j], vec[j]
            if b % a == 0:
                q = b // a
                for k in range(j, ncols):
                    vec[k] -= q * piv[k]
            else:
                x, y, g = _xgcd(a, b)
                ag, bg = a // g, b // g
                for k in range(j, ncols):
                    pk, vk = piv[k], vec[k]
                    piv[k] = x * pk + y * vk
                    vec[k] = -bg * pk + ag * vk
        if any(vec):
            where = next((i for i, pj in enumerate(pivots) if pj > j), len(pivots))
            basis.insert(where, vec)
            pivots.insert(where, j)
    for i, j in enumerate(pivots):
        if basis[i][j] < 0:
            basis[i] = [-v for v in basis[i]]
    # reduce entries above each pivot into [0, pivot); ascending order so a
    # finalized pivot column is never disturbed by a later step
    for i in range(len(basis)):
        j = pivots[i]
        piv = basis[i][j]
        for k in range(i):
            q = basis[k][j] // piv
            if q:
                basis[k] = [a - q * b for a, b in zip(basis[k], basis[i])]
    return tuple(tuple(r) for r in basis)


def _xgcd(a: int, b: int) -> tuple[int, int, int]:
    x, nx, y, ny, g, ng = 1, 0, 0, 1, a, b
    while ng:
        q = g // ng
        x, nx = nx, x - q * nx
        y, ny = ny, y - q * ny
        g, ng = ng, g - q * ng
    return x, y, g


@dataclass(frozen=True)
class IntegerLattice:
    """(1/den) times the integer row lattice ``rows``, in canonical HNF."""

    ncols: int
    rows: tuple[tuple[int, ...], ...]
    den: int

    @staticmethod
    def from_rational_rows(rows: list[list[Fraction]], ncols: int) -> "IntegerLattice":
        den = 1
        for row in rows:
            for v in row:
                den = den * v.denominator // gcd(den, v.denominator)
        int_rows = [[int(v * den) for v in row] for row in rows]
        return IntegerLattice._canonical(ncols, hnf(int_rows, ncols), den)

    @staticmethod
    def _canonical(ncols, rows, den) -> "IntegerLattice":
        if not rows:
            return IntegerLattice(ncols, (), 1)
        g = den
        for row in rows:
            for v in row:
                g = gcd(g, v)
        if g > 1:
            rows = tuple(tuple(v // g for v in row) for row in rows)
            den //= g
        return IntegerLattice(ncols, rows, den)

    @property
    def rank(self) -> int:
        return len(self.rows)

    def rational_rows(self) -> list[list[Fraction]]:
        return [[Fraction(v, self.den) for v in row] for row in self.rows]

    def contains(self, vec: list[Fraction]) -> bool:
        scaled = [v * self.den for v in vec]
        if any(v.denominator != 1 for v in scaled):
            return False
        rem = [int(v) for v in scaled]
        for row in self.rows:
            j = next(k for k in range(self.ncols) if row[k])
            if rem[j] % row[j] == 0:
                q = rem[j] // row[j]
                rem = [a - q * b for a, b in zip(rem, row)]
        return not any(rem)

    def contains_locally(self, vec: list[Fraction], q: int) -> bool:
        """Membership in the localization at q: the (unique, by echelon
        structure) rational coordinates exist and have q-free denominators."""
        rem = list(vec)
        for row in self.rows:
            j = next(k for k in range(self.ncols) if row[k])
            c = rem[j] / Fraction(row[j], self.den)
            if c.denominator % q == 0:
                return False
            rem = [r - c * Fraction(v, self.den) for r, v in zip(rem, row)]
        return not any(rem)

    def determinant(self) -> Fraction:
        """Product of pivots over den^rank; 0 when rank < ncols."""
        if self.rank < self.ncols:
            return Fraction(0)
        det = Fraction(1)
        for i, row in enumerate(self.rows):
            det *= Fraction(row[i], self.den)
        return det

    def add(self, other: "IntegerLattice") -> "IntegerLattice":
        if self.ncols != other.ncols:
            raise DomainError("lattice dimension mismatch")
        return IntegerLattice.from_rational_rows(
            self.rational_rows() + other.rational_rows(), self.ncols)

    def localize(self, q: int) -> "IntegerLattice":
        """A lattice with the same span over Z localized at q but with
        denominators supported at q only (rows are scaled by q-units)."""
        rows = []
        for row in self.rational_rows():
            den = 1
            for v in row:
                den = den * v.denominator // gcd(den, v.denominator)
            away = den
            while away % q == 0:
                away //= q
            rows.append([v * away for v in row])
        return IntegerLattice.from_rational_rows(rows, self.ncols)

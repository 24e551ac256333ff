"""Exact scalar arithmetic over the rationals and over prime fields.

Elements of the rationals are `fractions.Fraction` values (always reduced);
elements of a prime field F_p are plain ints in the range 0..p-1.  A field
object carries the arithmetic so the rest of the package can stay agnostic
about the representation.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import PpcatError

MAX_PRIME = 2 ** 31


def is_prime(p: int) -> bool:
    if p < 2:
        return False
    if p % 2 == 0:
        return p == 2
    d = 3
    while d * d <= p:
        if p % d == 0:
            return False
        d += 2
    return True


@dataclass(frozen=True)
class Rationals:
    """The field of rational numbers with arbitrary-precision integers."""

    char = 0
    kind = "Q"

    def zero(self):
        return Fraction(0)

    def one(self):
        return Fraction(1)

    def from_int(self, n: int):
        return Fraction(n)

    def from_fraction(self, num: int, den: int):
        return Fraction(num, den)

    def add(self, a, b):
        return a + b

    def sub(self, a, b):
        return a - b

    def neg(self, a):
        return -a

    def mul(self, a, b):
        return a * b

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("inverse of zero")
        return 1 / Fraction(a)

    def is_zero(self, a) -> bool:
        return a == 0

    def to_str(self, a) -> str:
        a = Fraction(a)
        if a.denominator == 1:
            return str(a.numerator)
        return "%d/%d" % (a.numerator, a.denominator)

    def __str__(self):
        return "Q"


@dataclass(frozen=True)
class PrimeField:
    """The prime field F_p for a prime p < 2**31."""

    p: int

    def __post_init__(self):
        if self.p >= MAX_PRIME:
            raise PpcatError("prime %d too large (must be < 2**31)" % self.p)
        if not is_prime(self.p):
            raise PpcatError("%d is not prime" % self.p)

    @property
    def char(self):
        return self.p

    kind = "F"

    def zero(self):
        return 0

    def one(self):
        return 1

    def from_int(self, n: int):
        return n % self.p

    def from_fraction(self, num: int, den: int):
        return self.mul(self.from_int(num), self.inv(self.from_int(den)))

    def add(self, a, b):
        return (a + b) % self.p

    def sub(self, a, b):
        return (a - b) % self.p

    def neg(self, a):
        return (-a) % self.p

    def mul(self, a, b):
        return (a * b) % self.p

    def inv(self, a):
        a %= self.p
        if a == 0:
            raise ZeroDivisionError("inverse of zero")
        return pow(a, self.p - 2, self.p)

    def is_zero(self, a) -> bool:
        return a % self.p == 0

    def to_str(self, a) -> str:
        return str(a % self.p)

    def __str__(self):
        return "F%d" % self.p


QQ = Rationals()

"""Exact coefficient rings: the integers, the rationals, and prime fields.

Coefficients are plain Python objects (int for Z and F_p, Fraction for Q),
so all arithmetic is arbitrary precision.  A Ring instance only carries the
tag and knows how to coerce/normalize values.  group_notation writes a
finitely generated abelian group in terms of Z, or a vector space in terms
of its field, for the tables.
"""

from collections import Counter
from fractions import Fraction

from .errors import DomainError


# A strong probable prime to each of the 13 primes up to 41 is prime below
# _PRIME_BOUND, the least strong pseudoprime to all of them (Sorenson and
# Webster 2015), so Miller-Rabin to these bases is exact there.
_PRIME_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_PRIME_BOUND = 3317044064679887385961981


def _is_prime(n):
    """Miller-Rabin to _PRIME_BASES; a DomainError for n >= _PRIME_BOUND,
    whose primality it cannot certify."""
    if n >= _PRIME_BOUND:
        raise DomainError(f"moduli must lie below {_PRIME_BOUND}, got {n}")
    if n < 2:
        return False
    for a in _PRIME_BASES:
        if n % a == 0:
            return n == a
    d, r = n - 1, 0
    while not d & 1:
        d >>= 1
        r += 1
    for a in _PRIME_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class Ring:
    __slots__ = ("kind", "p")

    def __init__(self, kind, p=None):
        if kind not in ("Z", "Q", "Fp"):
            raise DomainError(f"unknown ring kind {kind!r}")
        if kind == "Fp":
            if p is None or not _is_prime(p):
                raise DomainError(f"F_p needs a prime modulus, got {p!r}")
        else:
            p = None
        self.kind = kind
        self.p = p

    @property
    def is_field(self):
        return self.kind != "Z"

    def coerce(self, x):
        """Bring x into canonical form for this ring; reject lossy input."""
        if type(x) is int:  # the common case, without the Fraction test
            if self.p is not None:
                return x % self.p
            return x if self.kind == "Z" else Fraction(x)
        if self.kind == "Q":
            return Fraction(x)
        # Z and F_p: allow integral Fractions through.
        if isinstance(x, Fraction):
            if x.denominator != 1:
                raise DomainError(f"{x} is not an integer")
            x = x.numerator
        return int(x) if self.p is None else int(x) % self.p

    @property
    def tag(self):
        if self.kind == "Fp":
            return f"F{self.p}"
        return self.kind

    def __repr__(self):
        return f"Ring({self.tag})"

    def __eq__(self, other):
        return isinstance(other, Ring) and self.kind == other.kind and self.p == other.p

    def __hash__(self):
        return hash((self.kind, self.p))


ZZ = Ring("Z")
QQ = Ring("Q")


def GF(p):
    return Ring("Fp", p)


def parse_ring(text):
    """Parse a CLI ring tag: Z, Q, F2, F7, or Fp:7."""
    t = text.strip() if isinstance(text, str) else ""
    if t == "Z":
        return ZZ
    if t == "Q":
        return QQ
    digits = t[3:] if t.startswith("Fp:") else t[1:] if t.startswith("F") else ""
    if digits.isascii() and digits.isdigit():
        return GF(int(digits))
    raise DomainError(f"cannot parse ring {text!r} (expected Z, Q, F2, Fp:<p>)")


def group_notation(free_rank, invariant_factors, tag="Z"):
    """Z^r + Z/d + (Z/e)^n ..., equal factors collected, or "0"; over the
    ring with another tag, its free part: F2^r, Q^r."""
    parts = []
    if free_rank:
        parts.append(tag if free_rank == 1 else f"{tag}^{free_rank}")
    for d, count in sorted(Counter(invariant_factors).items()):
        parts.append(f"Z/{d}" if count == 1 else f"(Z/{d})^{count}")
    return " + ".join(parts) if parts else "0"

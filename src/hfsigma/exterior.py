"""Exact multilinear algebra on the exterior algebra of a symplectic lattice:
sparse elements (Multivector), the symplectic form and its divided powers,
and the wedge and contraction products.  The bit-level blade rules the
table commands need are in the blades module; this layer loads only for
verify, the sl_2 operators of lefschetz and the tests.

Contraction x|_a follows the signed rule

    v |_ (w_1 ^ ... ^ w_k) = sum_l (-1)^(l-1) omega(w_l, v) w_1 ^ ... w^_l ... ^ w_k

for a single vector v, extended to blades by nesting from the right:
(v_1 ^ ... ^ v_p) |_ a = v_1 |_ (v_2 |_ (... (v_p |_ a))).  It splits over
the symplectic pairs (blades module docstring): x |_ a is nonzero iff
swap(x) is a subset of a, and then equals (-1)^s (a ^ swap(x)) with
s = #(even bits of x) + #(complete pairs of x) + sum over bits b of swap(x)
of #(bits of a below b).

Both per-blade signs count pairs of bits in order, so each is the parity
of one AND: a ^ b has sign (-1)^#(b & P(a)) and x |_ a has sign
(-1)^(#(even bits of x) + #(complete pairs of x) + #(a & P(swap(x)))),
where bit b of P(m) is the parity of the bits of m above b.  The products
compute P once per blade of the outer factor; wedge_blades and
contract_blades are the per-pair rules they are tested against.
"""

from fractions import Fraction
from functools import lru_cache

from .blades import (_EVEN, _popcount, blade_grade, blades_of_grade, block_masks,
                     complete_pairs, pair_mask, star_blade, swap_pairs)
from .errors import DomainError, GenusMismatch


def wedge_blades(a, b):
    """Wedge of two blades: (sign, mask), or None when they share a vector.

    The sign counts the transpositions needed to merge the two ascending
    index lists: for each vector of b, the vectors of a above it.
    """
    if a & b:
        return None
    inversions = 0
    bb = b
    while bb:
        low = bb & -bb
        # vectors of a with higher index than this vector of b
        inversions += _popcount(a & ~(low | (low - 1)))
        bb ^= low
    return (-1 if inversions & 1 else 1), a | b


def contract_blades(xmask, amask):
    """x |_ a for blades x, a: (coeff, mask) or None (closed form above)."""
    sx = swap_pairs(xmask)
    if sx & ~amask:
        return None
    parity = _popcount(xmask & _EVEN) + _popcount(complete_pairs(xmask))
    b = sx
    while b:
        low = b & -b
        parity += _popcount(amask & (low - 1))
        b ^= low
    return (-1 if parity & 1 else 1), amask ^ sx


def _above_parity(mask):
    """Bit b is the parity of the bits of mask above b (genus <= 32)."""
    x = mask >> 1
    for shift in (1, 2, 4, 8, 16, 32):
        x ^= x >> shift
    return x


def blade_indices(mask):
    """1-based covector indices of a blade, ascending."""
    out = []
    b = mask
    while b:
        low = b & -b
        out.append(low.bit_length())
        b ^= low
    return out


def mask_from_indices(indices, g):
    mask = 0
    for i in indices:
        if not 1 <= i <= 2 * g:
            raise DomainError(f"index {i} out of range for genus {g}")
        bit = 1 << (i - 1)
        if mask & bit:
            raise DomainError(f"repeated index {i} in blade")
        mask |= bit
    return mask


class Multivector:
    """Sparse element of the exterior algebra over H^1 of a genus-g surface.

    Coefficients are exact numbers: ints, or Fractions where
    primitive_decomposition divides (Fraction(2) == 2, and both hash
    alike).  No operation changes its operands, so omega and eta can hand
    out one cached element each.
    """

    __slots__ = ("genus", "coeffs")

    def __init__(self, genus, coeffs=None, _clean=False):
        self.genus = genus
        if coeffs is None:
            self.coeffs = {}
        elif _clean:  # a dict the operation built itself, zeros dropped
            self.coeffs = coeffs
        else:
            self.coeffs = {mask: c for mask, c in coeffs.items() if c != 0}

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, g):
        return cls(g, {}, _clean=True)

    @classmethod
    def unit(cls, g):
        return cls(g, {0: 1}, _clean=True)

    @classmethod
    def basis_vector(cls, g, i):
        """e_i, 1-based."""
        return cls(g, {mask_from_indices([i], g): 1}, _clean=True)

    @classmethod
    def z(cls, g, j):
        """z_j = e_{2j-1} ^ e_{2j}, 1-based."""
        if not 1 <= j <= g:
            raise DomainError(f"z_{j} undefined for genus {g}")
        return cls(g, {pair_mask(j - 1): 1}, _clean=True)

    @classmethod
    def from_blade(cls, g, mask, coeff=1):
        return cls(g, {mask: coeff})

    # -- basics ------------------------------------------------------------

    def _check(self, other):
        if self.genus != other.genus:
            raise GenusMismatch(f"genus {self.genus} vs {other.genus}")

    def is_zero(self):
        return not self.coeffs

    def __eq__(self, other):
        return (isinstance(other, Multivector)
                and self.genus == other.genus
                and self.coeffs == other.coeffs)

    def __hash__(self):
        return hash((self.genus, tuple(sorted(self.coeffs.items()))))

    def __add__(self, other):
        self._check(other)
        out = dict(self.coeffs)
        for mask, c in other.coeffs.items():
            v = out.get(mask, 0) + c
            if v:
                out[mask] = v
            else:
                out.pop(mask, None)
        return Multivector(self.genus, out, _clean=True)

    def __neg__(self):
        return self.scale(-1)

    def __sub__(self, other):
        return self + (-other)

    def scale(self, c):
        if c == 0:
            return Multivector.zero(self.genus)
        return Multivector(self.genus, {mask: v * c for mask, v in self.coeffs.items()},
                           _clean=True)

    def __rmul__(self, c):
        return self.scale(c)

    def grades(self):
        return sorted({blade_grade(m) for m in self.coeffs})

    def grade_part(self, p):
        out = {m: c for m, c in self.coeffs.items() if blade_grade(m) == p}
        return Multivector(self.genus, out, _clean=True)

    def is_homogeneous(self):
        return len(self.grades()) <= 1

    # -- products ----------------------------------------------------------

    def wedge(self, other):
        self._check(other)
        out = {}
        for ma, ca in self.coeffs.items():
            above = _above_parity(ma)
            for mb, cb in other.coeffs.items():
                if ma & mb:
                    continue
                m = ma | mb
                v = out.get(m, 0) + (-ca if _popcount(mb & above) & 1 else ca) * cb
                if v:
                    out[m] = v
                else:
                    out.pop(m, None)
        return Multivector(self.genus, out, _clean=True)

    def contract(self, other):
        """self |_ other."""
        self._check(other)
        out = {}
        for mx, cx in self.coeffs.items():
            sx = swap_pairs(mx)
            above = _above_parity(sx)
            if (_popcount(mx & _EVEN) + _popcount(complete_pairs(mx))) & 1:
                cx = -cx
            for ma, ca in other.coeffs.items():
                if sx & ~ma:
                    continue
                m = ma ^ sx
                v = out.get(m, 0) + (-cx if _popcount(ma & above) & 1 else cx) * ca
                if v:
                    out[m] = v
                else:
                    out.pop(m, None)
        return Multivector(self.genus, out, _clean=True)

    def star(self):
        """Hodge-Lefschetz star: contraction into eta_g."""
        out = {}
        g = self.genus
        for m, c in self.coeffs.items():
            s, m2 = star_blade(m, g)
            out[m2] = s * c
        return Multivector(self.genus, out, _clean=True)

    def to_terms(self):
        return sorted(self.coeffs.items())

    def __repr__(self):
        if not self.coeffs:
            return "0"
        bits = []
        for mask, c in self.to_terms():
            name = "1" if mask == 0 else "e" + "e".join(str(i) for i in blade_indices(mask))
            bits.append(f"{c}*{name}")
        return " + ".join(bits)

    # -- JSON --------------------------------------------------------------

    def to_json(self):
        return [{"blade": blade_indices(m), "coeff": str(c)}
                for m, c in self.to_terms()]

    @classmethod
    def from_json(cls, g, data):
        coeffs = {}
        for term in data:
            mask = mask_from_indices(term["blade"], g)
            text = term["coeff"]
            val = Fraction(text) if "/" in text else int(text)
            coeffs[mask] = coeffs.get(mask, 0) + val
        return cls(g, coeffs)


@lru_cache(maxsize=None)
def omega(g):
    """The symplectic form as a 2-form: sum of the z_j."""
    return Multivector(g, {pair_mask(j): 1 for j in range(g)}, _clean=True)


@lru_cache(maxsize=None)
def eta(k, g):
    """Divided power omega^k/k!: the sum of all k-fold products of distinct z_j.

    Defined over the integers; C(g, k) terms, every coefficient 1, on the
    masks of the weight-zero block of grade 2k (blades.block_masks).
    """
    return Multivector(g, dict.fromkeys(block_masks(g, 2 * k), 1), _clean=True)


def wedge(a, b):
    return a.wedge(b)


def contract(x, a):
    """x |_ a, bilinear in both slots."""
    return x.contract(a)


def hodge_lefschetz_star(a):
    return a.star()


def interior(gamma_star, a):
    """Interior product by a homology class, given its Poincare dual 1-form."""
    if blade_grade_max(gamma_star) > 1:
        raise DomainError("interior wants a 1-form (the Poincare dual)")
    return gamma_star.contract(a)


def blade_grade_max(mv):
    return max((blade_grade(m) for m in mv.coeffs), default=0)


def all_blades(g):
    """All blade masks of genus g, ascending."""
    return list(range(1 << (2 * g)))


def random_multivector(g, grade, rng, density=0.5, span=9):
    """Seeded random homogeneous element, for property sweeps."""
    coeffs = {}
    for m in blades_of_grade(g, grade):
        if rng.random() < density:
            c = rng.randint(-span, span)
            if c:
                coeffs[m] = c
    return Multivector(g, coeffs, _clean=True)

"""Assembly of the Floer homology tables of (genus-g surface) x (circle) in
the torsion spin-c structure: the hat, plus and infinity flavors, the
reduced part and its U-action.

Everything is mapping-cone homology of the structure map F = v + h between
the i >= 0 quotient and a corner region of the bigraded model: the group in
half-integer degree d + 1/2 is Ker(F_d) (+) Coker(F_{d+1}).  The complexes
carry no differential, so U acts blockwise and reduced parts are honest
lattice quotients by high U-powers.  Every block enters through the
content-addressed store of the blocks module, which also holds FloerTable:
one Smith form per distinct matrix, whatever degree, op or genus asks.

The paper's two other subjects have their own modules, so that a table
command compiles only its own: the nonzero-Chern-class sector and its
H_1-action (nontorsion) and the circle bundle over the Jacobian torus with
the triple cup product (bundle).  Both build on blocks, not on this module.
Their public names still resolve as attributes of this module, importing
their home on first access (PEP 562).
"""

from fractions import Fraction
from importlib import import_module
from math import comb

from .blades import blades_of_grade, star_blade
from .blocks import (FloerTable, _block_data, _block_sum, _cone_group,
                     _deg_str, _kernel_cols, smith_form)
from .cfk import (B_PLUS, corner, slice_digest, slice_map, u_chain_map,
                  u_slice_map)
from .linalg import (GroupPresentation, SparseExactMatrix, cokernel,
                     cokernel_over, factor_rank, lattice_quotient, rank)
from .rings import QQ, ZZ

_MOVED = {
    "nontorsion": ("CorrectionTerm", "XModel", "apply_F", "chain_matrix",
                   "correction_location", "f_restriction_surjective",
                   "h1_corrections", "hf_plus_nontorsion", "phi_image_rank",
                   "phi_series", "x_model_dims"),
    "bundle": ("beta_quotient_dims", "contraction_cokernel_comparison",
               "eg_cohomology", "eg_rank_prediction", "triple_cup_beta"),
}
_HOME = {name: mod for mod, names in _MOVED.items() for name in names}


def __getattr__(name):
    mod = _HOME.get(name)
    if mod is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f".{mod}", __package__), name)


# ---------------------------------------------------------------------------
# degrees
# ---------------------------------------------------------------------------

def half(n):
    """Degree n + 1/2 as a Fraction."""
    return Fraction(2 * n + 1, 2)


# ---------------------------------------------------------------------------
# hat flavor
# ---------------------------------------------------------------------------

def hf_hat(g, ring=ZZ, window=None):
    """The finitely generated flavor in the torsion spin-c structure.

    Nonzero only in degrees |d| <= g - 1/2; free of rank C(2g, g-|d|-1/2)
    away from the middle, with the star-fixed lattice adding
    2^(g-1) + C(2g,g)/2 at d = +-1/2.
    """
    if window is None:
        window = (-g - 1, g + 1)
    table = FloerTable(g, 0, ring, "hat")
    for d in range(window[0], window[1] + 1):
        table.entries[half(d)] = _cone_group(g, ("F_hat", d), ("F_hat", d + 1), ring)
    table.metadata["matrix_hash_d0"] = slice_digest(g, "F_hat", 0)
    return table


def hf_hat_closed_form_rank(g, degree):
    """Rank predicted by the closed form, degree a half-integer Fraction."""
    from .lefschetz import self_dual_rank
    ai = abs(Fraction(degree))
    if ai * 2 % 2 == 0:
        return 0
    if Fraction(3, 2) <= ai <= Fraction(2 * g - 1, 2):
        return comb(2 * g, g - int(ai + Fraction(1, 2)))
    if ai == Fraction(1, 2):
        return comb(2 * g, g - 1) + self_dual_rank(g)
    return 0


def sign_choice_cokernels(g):
    """Cokernels of 1 + (-1)^g * eps * star on the middle exterior power for
    eps = +-1; only the bundled sign (-1)^(g-1) gives a torsion-free one."""
    blades = blades_of_grade(g, g)
    idx = {m: i for i, m in enumerate(blades)}
    out = {}
    for eps in (1, -1):
        m = SparseExactMatrix(len(blades), len(blades))
        for c, mask in enumerate(blades):
            m[idx[mask], c] = m[idx[mask], c] + 1
            sc, smk = star_blade(mask, g)
            m[idx[smk], c] = m[idx[smk], c] + ((-1) ** g) * eps * sc
        out[eps] = cokernel(m)
    return out


# ---------------------------------------------------------------------------
# infinity flavor
# ---------------------------------------------------------------------------

def hf_infinity(g, ring=ZZ):
    """The fully U-inverted flavor, computed at the stable degrees g, g+1
    (one per parity); entries repeat with period 2 in the degree.
    """
    table = FloerTable(g, 0, ring, "infinity")
    for d in (g, g + 1):
        table.entries[half(d)] = _cone_group(
            g, ("one_plus_J", d), ("one_plus_J", d + 1), ring)
        hashes = table.metadata.setdefault("matrix_hashes", {})
        hashes[_deg_str(d)] = slice_digest(g, "one_plus_J", d)
    table.metadata["periodic"] = True
    table.metadata["parity_degrees"] = [_deg_str(half(g)), _deg_str(half(g + 1))]
    return table


# ---------------------------------------------------------------------------
# plus flavor at the torsion structure
# ---------------------------------------------------------------------------

def default_plus_window(g):
    return (-g - 2, g + 2)


def hf_plus_torsion(g, ring=ZZ, window=None):
    """The plus flavor at the torsion spin-c structure, per half-integer
    degree over the window; degrees past g - 1/2 repeat the infinity table."""
    if window is None:
        window = default_plus_window(g)
    table = FloerTable(g, 0, ring, "plus")
    for d in range(window[0], window[1] + 1):
        table.entries[half(d)] = _cone_group(g, ("F", d), ("F", d + 1), ring)
    table.towers = theorem_towers(g)
    table.metadata["stable_from"] = _deg_str(half(g - 1))
    return table


def theorem_towers(g):
    """U-tower summands of the plus flavor over the rationals: one for each
    primitive degree j (starting at j - g + 1/2) and each coprimitive degree
    (starting at j - g - 1/2), with computed dimensions."""
    from .lefschetz import coprimitive_dim, primitive_dim
    towers = []
    for j in range(0, g + 1):
        r = primitive_dim(g, j)
        if r:
            towers.append({"start_degree": _deg_str(Fraction(2 * (j - g) + 1, 2)),
                           "rank": r, "kind": "primitive", "j": j})
    for j in range(g, 2 * g + 1):
        r = coprimitive_dim(g, j)
        if r:
            towers.append({"start_degree": _deg_str(Fraction(2 * (j - g) - 1, 2)),
                           "rank": r, "kind": "coprimitive", "j": j})
    return towers


def _stable_hi(g, d):
    """A degree of the same parity as d from which U^N has stabilized."""
    hi = max(g + 1, d + 2)
    if (hi - d) % 2:
        hi += 1
    return hi


def _reduced_group(g, d, ring):
    """Reduced part of the degree d+1/2 group: the quotient of Ker F_d by
    the image S of U^N on Ker F_hi, plus the quotient of Coker F_{d+1} by
    the image of a high U-power.

    F, U^N and the regions preserve the weight vector and commute with the
    signed pair permutations (cfk module docstring), so the group is summed
    over the weight-zero blocks at each genus n <= g (hi taken at genus g).
    Per block, the cokernel side is one Smith form of [F_{d+1} | U^N] read
    over the ring, and the rank of Ker F_d over the ring comes from the
    block's Smith form.  Over a field k the kernel side is a dimension:
    U^N kills exactly the part of Ker F_hi that the stack [F_hi; U^N]
    kills, so dim S = rank_k [F_hi; U^N] - rank_k F_hi.  Over Z, S is
    spanned by the image of the kernel lattice at hi and the quotient is
    read off one Smith form of its generators (linalg.lattice_quotient).
    """
    hi = _stable_hi(g, d)
    steps = (hi - d) // 2

    def block_group(n):
        un = u_chain_map(n, B_PLUS, hi, steps, block=True).matrix
        f1 = slice_map(n, "F", d + 1, block=True).matrix
        un1 = u_chain_map(n, corner(0), hi + 1, steps, block=True).matrix
        stack = SparseExactMatrix.hstack(f1, un1)
        red_c = cokernel_over(stack.rows, smith_form(stack), ring)
        _, cols, factors = _block_data(n, "F", d)
        k_rank = cols - factor_rank(factors, ring)
        if ring.is_field:
            f_hi = slice_map(n, "F", hi, block=True).matrix
            s_rank = (rank(SparseExactMatrix.vstack(f_hi, un), ring)
                      - factor_rank(_block_data(n, "F", hi)[2], ring))
            red_k = GroupPresentation(k_rank - s_rank)
        else:
            img = [v for v in un.mul_columns(_kernel_cols(n, hi)) if v]
            if any(slice_map(n, "F", d, block=True).matrix.mul_columns(img)):
                raise AssertionError("U^N carried the kernel at hi outside Ker F_d")
            red_k = lattice_quotient(k_rank, img, un.rows, smith_form)
        return red_k.direct_sum(red_c)

    return _block_sum(g, block_group)


def hf_plus_reduced(g, ring=ZZ, window=None):
    """Reduced part of the plus flavor: the quotient by the image of every
    sufficiently high U-power, degree by degree."""
    if window is None:
        window = default_plus_window(g)
    table = FloerTable(g, 0, ring, "plus_red")
    for d in range(window[0], window[1] + 1):
        table.entries[half(d)] = _reduced_group(g, d, ring)
    return table


# ---------------------------------------------------------------------------
# U-action on the reduced part
# ---------------------------------------------------------------------------

def unexpected_u_kernel_dim(g):
    """Count of non-primitive star-self-dual middle-degree classes:
    2^(g-1) - C(2g,g)/2 + C(2g,g-2); the U-kernel of the reduced part one
    step above its middle degree."""
    return 2 ** (g - 1) - comb(2 * g, g) // 2 + comb(2 * g, g - 2)


def u_action_red(g, window=None):
    """The U endomorphism of the reduced plus flavor over Q, degree by
    degree, summed over the weight blocks like the reduced part itself.

    U commutes with F, so U^(N-1) Ker F_hi lies in Ker F_d: the subgroup
    U^N Ker F_hi divided out at d - 2 lies in U Ker F_d, and likewise
    U^N C_hi in U C_(d+1).  So U: red_(d+1/2) -> red_(d-3/2) has the
    cokernel of U on the cone, Ker F_(d-2) / U Ker F_d (+) C_(d-1) /
    (U C_(d+1) + Im F_(d-1)), per weight-zero block of dimension
    dim Ker F_(d-2) - rank [F_d; U] + rank F_d + rows C_(d-1)
    - rank [U | F_(d-1)].  The image has dimension dim red_(d-2) - coker,
    the kernel dim red_d - img, with dim red from the reduced part over Q.

    Reports, for each half-integer degree delta in the window: the reduced
    dimension, the kernel dimension of U: red_delta -> red_(delta-2), and
    whether the map is onto/injective.  Checks bundled in the report:
      (1) U is onto red_(delta-2) for every in-support delta <= -1/2;
      (2) U is injective for delta > 3/2;
      (3) the kernel in degree 1/2 has dimension
          2^(g-1) - C(2g,g)/2 + C(2g,g-2), matching the count of
          non-primitive star-self-dual middle classes.
    """
    if g < 3:
        return {"genus": g, "per_degree": {}, "checks": {}, "empty": True}
    if window is None:
        window = (-g, g - 1)
    dims = {d: _reduced_group(g, d, QQ).free_rank
            for d in range(window[0] - 2, window[1] + 1)}

    def u_cokernel(d):
        def block_group(n):
            f = slice_map(n, "F", d, block=True).matrix
            f1 = slice_map(n, "F", d - 1, block=True).matrix
            u = u_slice_map(n, B_PLUS, d, block=True).matrix
            u_c = u_slice_map(n, corner(0), d + 1, block=True).matrix
            _, cols, f_lo = _block_data(n, "F", d - 2)
            return GroupPresentation(
                cols - factor_rank(f_lo, QQ) - rank(SparseExactMatrix.vstack(f, u), QQ)
                + factor_rank(_block_data(n, "F", d)[2], QQ)
                + f1.rows - rank(SparseExactMatrix.hstack(u_c, f1), QQ))
        return _block_sum(g, block_group).free_rank

    per_degree = {}
    for d in range(window[0], window[1] + 1):
        img = dims[d - 2] - u_cokernel(d)
        ker = dims[d] - img
        per_degree[half(d)] = {"dim": dims[d], "ker": ker, "img": img,
                               "surjective": d - 2 < window[0] or img == dims[d - 2],
                               "injective": ker == 0}
    formula = unexpected_u_kernel_dim(g)
    got = per_degree.get(Fraction(1, 2), {"ker": 0})["ker"]
    checks = {
        "surjective_at_and_below_middle": all(
            row["surjective"] for delta, row in per_degree.items()
            if row["dim"] and delta <= Fraction(-1, 2)),
        "injective_above": all(row["injective"] for delta, row in per_degree.items()
                               if delta > Fraction(3, 2)),
        "unexpected_kernel_formula": formula,
        "unexpected_kernel_computed": got,
        "unexpected_kernel_matches": got == formula,
    }
    return {"genus": g,
            "per_degree": {_deg_str(k): v for k, v in sorted(per_degree.items())},
            "checks": checks}

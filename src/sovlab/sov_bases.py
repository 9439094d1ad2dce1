"""Left and right SoV bases generated by transfer matrices on a reference pair.

The one place that knows how an SoV family is built (:func:`basis_tree`,
one GEMM per digit per level, fed by :func:`transfer_family`) and how its
members are scaled (the unit-norm frame a read-only :class:`SovBasisPair`
owns).  The "powers" variant applies plain powers T_1(xi_a)^{h_a} to a free
tensor reference on either side.  The "dressed" variant applies
T_2(xi_a - eta) for digit 0 and T_1(xi_a) for digit 2 on the left, and
T_2(xi_a) / T_1(xi_a) for digits 1 / 2 on the right; its right reference
vector is pinned by the duality condition <k|0> = delta_{k,0} against the
dressed left family and admits a closed per-site form.

Basis families are enumerated in flat ternary order with site 1 fastest, the
ordering used by every report and file format in the package.  The label
tables and the basis tree take the label base from their caller, so the
gl(2) model builds its binary-labelled bases on them as well.
"""

import functools
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateReference, SingularBasis
from .gl3_model import require_no_double_shift
from .numkernel import RANK_RTOL, rank_ratio

_NONZERO_ATOL = 1e-12


@functools.lru_cache(maxsize=None)
def label_digits(sites, base=3):
    """Read-only ``(base^N, N)`` int8 array: row ``flat`` holds the digits of
    that label.

    Flat order, site 1 fastest (column a is digit a, weight base^a, as in
    :func:`flat_index`): base 3 is the gl(3) order, base 2 the gl(2) one;
    cached per (N, base) and shared.
    """
    flat = np.arange(base**sites)
    digits = (flat[:, None] // base ** np.arange(sites)) % base
    out = digits.astype(np.int8)
    out.setflags(write=False)
    return out


def flat_index(digits):
    """Flat position of a gl(3) label, a tuple of digits in {0, 1, 2}: digit
    a (0-based) weighs 3^a, so site 1 is fastest."""
    return sum(int(d) * 3**a for a, d in enumerate(digits))


def label_products(factors):
    """``prod_a factors[a, h_a]`` for every label h in flat order.

    ``factors`` is an ``(N, d, ...)`` table indexed by site and digit, and
    its width d is the label base; trailing axes are a batch, carried into
    the ``(d^N, ...)`` result.  The product runs over sites 1..N with one
    vector operation per site.
    """
    factors = np.asarray(factors, dtype=complex)
    digits = label_digits(*factors.shape[:2])
    out = np.ones(digits.shape[:1] + factors.shape[2:], dtype=complex)
    for a, row in enumerate(factors):
        out *= row[digits[:, a]]
    return out


def label_vandermonde(nodes):
    """``prod_{i<j} (nodes[:, j] - nodes[:, i])`` for every row of a ``(labels,
    N)`` table of shifted inhomogeneities, one vector operation per pair."""
    out = np.ones(len(nodes), dtype=complex)
    for i in range(nodes.shape[1]):
        for j in range(i + 1, nodes.shape[1]):
            out *= nodes[:, j] - nodes[:, i]
    return out


def tensor_product_state(factors):
    """Tensor product over sites 1..N (factors[0] is site 1, the fastest index)."""
    out = np.array([1.0 + 0j])
    for f in factors:
        out = np.kron(np.asarray(f, dtype=complex), out)
    return out


def reference_covector(xyz, params):
    """Tensor-product reference row <site copies of (x,y,z) W^{-1}>.

    The admissibility condition depends on the Jordan case of the twist:
    all of x, y, z nonzero for case i, x and z for case ii, x for case iii.
    """
    twist = params.twist
    x, y, z = (complex(c) for c in xyz)
    need = {"i": (x, y, z), "ii": (x, z), "iii": (x,)}[twist.case]
    if any(abs(c) <= _NONZERO_ATOL for c in need):
        raise DegenerateReference(
            f"components {xyz} violate the case-{twist.case} non-vanishing condition"
        )
    row = np.array([x, y, z]) @ np.linalg.inv(twist.w)
    return tensor_product_state([row] * params.sites)


def _local_reference_column(xyz, twist):
    """Unnormalized per-site column annihilated by (x,y,z) and (x,y,z)K_J,
    together with its pairing against (x,y,z) adj(K_J)."""
    v = np.array([complex(c) for c in xyz])
    direction = np.cross(v, v @ twist.k_jordan)
    pairing = v @ twist.k_adjugate @ direction
    return direction, complex(pairing)


def reference_vector_closed(xyz, params):
    """Closed tensor-product form of the right reference vector |0>.

    Per site the column is the (unique) direction annihilated by the rows
    (x,y,z) and (x,y,z) K_J, normalized so that its pairing with
    (x,y,z) adj(K_J) equals 1 / (d(xi_a - eta) d(xi_a - 2 eta)).  With this
    normalization the dressed left family satisfies <k|0> = delta_{k,0}.
    """
    reference_covector(xyz, params)  # validate the case condition
    require_no_double_shift(params)
    direction, pairing = _local_reference_column(xyz, params.twist)
    if abs(pairing) <= _NONZERO_ATOL * max(np.abs(direction).max(), 1.0):
        raise DegenerateReference("reference vector degenerate: adjugate pairing vanishes")
    factors = []
    for a in range(params.sites):
        denom = pairing
        for shift in (1, 2):
            node = params.xi_shifted(a, shift)
            for x in params.xi:
                denom *= node - x
        factors.append(params.twist.w @ (direction / denom))
    return tensor_product_state(factors)


def reference_vector_solve(left_basis, row_norms, rank_left):
    """Solve <k|v> = delta_{k,0} against an explicit left family.

    The rows are equilibrated first: (L / |L_k|) v = e_0 / |L_0| has the same
    solution, and the dressed rows' norms span many orders of magnitude.
    ``row_norms`` are the rows' norms and ``rank_left`` the family's
    unit-norm rank ratio, both from the caller (a :class:`SovBasisPair`'s
    ``row_norms`` and ``rank_ratios()[0]``).
    """
    if rank_left < 1e-13:
        raise SingularBasis(f"left family is rank deficient (sigma ratio {rank_left:.2e})")
    rhs = np.zeros(len(row_norms), dtype=complex)
    rhs[0] = 1.0 / row_norms[0]
    return np.linalg.solve(left_basis / row_norms[:, None], rhs)


def basis_tree(ref, steps, side):
    """Members of every label, built down a prefix tree over sites 1..N.

    ``steps[a][d]`` lists the matrices digit d applies at site a, in order.
    On ``side`` "left" each matrix advances a row (``row @ m``) and the rows
    are returned; on "right" each advances a column (``m @ col``) and the
    columns are returned as one contiguous matrix.  Level a holds, one per
    row, the members for the digits of sites 1..a in flat order (site 1
    fastest); digit d of site a + 1 takes the whole level through its
    matrices, one GEMM each (``block @ m``, or ``block @ m.T`` on the right,
    a transposed view), into its rows of the next level.  So the products of
    a prefix are shared by every label that has it, and a level's working
    set is the level, the next one and one digit's block.
    """
    left = {"left": True, "right": False}[side]
    level = np.asarray(ref, dtype=complex)[None, :]
    for site in steps:
        width = len(level)
        nxt = np.empty((len(site) * width, level.shape[1]), dtype=complex)
        for d, mats in enumerate(site):
            nxt[d * width:(d + 1) * width] = functools.reduce(
                lambda block, m: block @ (m if left else m.T), mats, level)
        level = nxt
    return level if left else np.ascontiguousarray(level.T)


def transfer_family(cache, ref, variant, side):
    """Left rows or right columns, in flat order, of a transfer-matrix family
    on the reference ``ref``: row or column ``flat_index(h)`` is the member
    labeled by h.

    "powers": T_1(xi_a)^d on either side.  "dressed": the left family
    applies T_2(xi_a - eta) for digit 0 and T_1(xi_a) for digit 2, the right
    family T_2(xi_a) for digit 1 and T_1(xi_a) for digit 2.
    """
    if variant not in ("powers", "dressed"):
        raise ValueError("variant must be 'powers' or 'dressed'")
    steps = []
    for x in cache.params.xi:
        t1 = cache.t1(x)
        if variant == "powers":
            steps.append(([], [t1], [t1, t1]))
        elif side == "left":
            steps.append(([cache.t2(x - cache.params.eta)], [], [t1]))
        else:
            steps.append(([], [cache.t2(x)], [t1]))
    return basis_tree(ref, steps, side)


def _read_only(arr):
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class SovBasisPair:
    """Ordered left (rows) and right (columns) SoV families with their
    references, read-only.  ``row_norms`` and ``col_norms``, the members'
    Euclidean norms, are the unit-norm frame every rank, coupling and
    coordinate figure is read in; they and the rank ratios are computed once.
    """

    left: np.ndarray
    right: np.ndarray
    variant: str
    ref_covector: np.ndarray
    ref_vector: np.ndarray

    def __post_init__(self):
        for arr in (self.left, self.right, self.ref_covector, self.ref_vector):
            arr.setflags(write=False)

    @property
    def dim(self):
        return self.left.shape[0]

    @functools.cached_property
    def row_norms(self):
        return _read_only(np.linalg.norm(self.left, axis=1))

    @functools.cached_property
    def col_norms(self):
        return _read_only(np.linalg.norm(self.right, axis=0))

    @functools.cached_property
    def _ranks(self):
        if self.row_norms.min() == 0 or self.col_norms.min() == 0:
            return 0.0, 0.0
        return (rank_ratio(self.left / self.row_norms[:, None]),
                rank_ratio(self.right / self.col_norms[None, :]))

    def rank_ratios(self):
        """sigma_min/sigma_max of the two families in the unit-norm frame.

        Every basis state carries an arbitrary overall scale (products of
        transfer-matrix values), so the raw singular-value ratio conflates
        that normalization freedom with actual rank; the normalized ratio
        tests linear independence of the family itself.
        """
        return self._ranks

    def require_full_rank(self):
        rl, rr = self.rank_ratios()
        if rl <= RANK_RTOL or rr <= RANK_RTOL:
            raise SingularBasis(f"basis rank ratios ({rl:.2e}, {rr:.2e}) below {RANK_RTOL}")
        return rl, rr


def dressed_pair(cache, xyz):
    """Dressed left/right bases from the tensor reference pair fixed by xyz,
    a new read-only pair on each call."""
    params = cache.params
    ref_row = reference_covector(xyz, params)
    ref_col = reference_vector_closed(xyz, params)
    left = transfer_family(cache, ref_row, "dressed", "left")
    right = transfer_family(cache, ref_col, "dressed", "right")
    return SovBasisPair(left, right, "dressed", ref_row, ref_col)


def power_pair(cache, xyz, rst):
    """Plain-powers left/right bases on free tensor references."""
    params = cache.params
    ref_row = reference_covector(xyz, params)
    r, s, t = (complex(c) for c in rst)
    need = {"i": (r, s, t), "ii": (s, t), "iii": (t,)}[params.twist.case]
    if any(abs(c) <= _NONZERO_ATOL for c in need):
        raise DegenerateReference(
            f"components {rst} violate the case-{params.twist.case} condition for vectors"
        )
    col = params.twist.w @ np.array([r, s, t])
    ref_col = tensor_product_state([col] * params.sites)
    left = transfer_family(cache, ref_row, "powers", "left")
    right = transfer_family(cache, ref_col, "powers", "right")
    return SovBasisPair(left, right, "powers", ref_row, ref_col)

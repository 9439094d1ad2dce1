"""Fundamental gl(3) chain: R-matrix, monodromy, fused transfer matrices.

Conventions used everywhere in the library:

* quantum site 1 is the fastest-varying index of a state vector, i.e. a state
  on N sites reshapes to ``(3,)*N`` with site N on axis 0 and site 1 on the
  last axis;
* auxiliary legs always precede quantum legs in dense operators, so the
  monodromy matrix lives on ``C^3 (x) H`` with the auxiliary index slowest.

The fused transfer matrices are evaluated by contracting the auxiliary-space
product site by site, never by forming the ``d^m * d^N`` dimensional product
space densely.  The contraction runs on the antisymmetric fused space
Lambda^m C^d, so its bond is binom(d, m): 3, 3 and 1 for gl(3) at m = 1, 2, 3
and 2 for gl(2).  Both kernels read the site operators S_1 ... S_N at lam one
way (:func:`_sites`): one ``vander`` of the N values of z = lam - xi_a and one
GEMV per site on read-only coefficient tables, laid out the way the GEMMs
read them.  The twist on Lambda^m C^d is memoized per twist
(:func:`_boundary`).

* dense T_m (:func:`transfer`, for a gl(3) or a gl(2) chain) is the
  matrix-product-operator product :func:`fused_dense`, which meets in the
  middle: the half-chains S_k ... S_1 B (B the boundary, k = N // 2) and
  S_N ... S_(k+1) take one GEMM per site, and one GEMM between them closes
  the trace;
* the matrix-free action on a state vector or a few columns
  (:func:`fused_apply`) is :func:`fused_contract`, for chains too large to
  hold T_m densely; :func:`fused_apply` is the one matrix-free entry point.
  It takes one row u of the boundary at a time and sweeps from site N down:
  row u of S_N reads the columns directly, the middle sites go in two-site
  blocks and S_1 folded with column u of the boundary closes the trace.  Its
  working set is two buffers of bond * d^N * cols entries, one auxiliary
  leg, and the result.  At m = 1 and lam exactly equal to an
  inhomogeneity xi_a it applies the one-site product formula T_1(xi_a) = eta
  R_{a,a-1} ... R_{a,1} K_a R_{a,N} ... R_{a,a+1} instead (:func:`_node_t1`):
  leg swaps and one d x d twist, with no auxiliary leg.

The matrix-free kernel's blocking and node path do not reach the dense path,
so dense T_m, which every report residual reads, keeps its bits.

The dense checks (Yang-Baxter, RTT, the product formula and its exchange
relation) apply every R-matrix and twist factor with :func:`on_legs`, the
local-operator kernel: it right-multiplies a matrix by an operator on a few
tensor slots, and :func:`embed` is its value on the identity.
"""

import itertools
import math
import time
from collections import Counter
from dataclasses import dataclass, field
from functools import lru_cache, reduce

import numpy as np

from .errors import DoubleShift, IndexOrder, NonGeneric
from .numkernel import (
    adjugate3,
    antisymmetrizer,
    as_matrix,
    eig_general,
    rel_residual,
    require_dense,
)


def r_matrix(lam, eta, d=3):
    """Rational gl(d) R-matrix lam*I + eta*P on C^d (x) C^d."""
    swap = np.eye(d * d, dtype=complex).reshape((d,) * 4).transpose(1, 0, 2, 3)
    return lam * np.eye(d * d, dtype=complex) + eta * swap.reshape(d * d, d * d)


def check_yang_baxter(lam, mu, eta):
    """Relative residual of R12(lam-mu) R13(lam) R23(mu) = R23(mu) R13(lam) R12(lam-mu)."""
    r12 = embed(r_matrix(lam - mu, eta), 3, (0, 1))
    r13 = embed(r_matrix(lam, eta), 3, (0, 2))
    r23 = embed(r_matrix(mu, eta), 3, (1, 2))
    lhs = r12 @ r13 @ r23
    rhs = r23 @ r13 @ r12
    return rel_residual(lhs - rhs, lhs)


def scalar_yb_residual(k_matrix, lam, eta):
    """Relative residual of R12(lam) K1 K2 = K2 K1 R12(lam)."""
    k = as_matrix(k_matrix)
    k1 = np.kron(k, np.eye(3))
    k2 = np.kron(np.eye(3), k)
    r = r_matrix(lam, eta)
    lhs = r @ k1 @ k2
    rhs = k2 @ k1 @ r
    return rel_residual(lhs - rhs, lhs)


def on_legs(mat, op, legs, d=3):
    """``mat @ embed(op, n, legs)`` without forming the embedding.

    The columns of ``mat`` index n tensor slots of dimension d, slot 0 the
    slowest; ``op`` acts on the slots ``legs`` with legs[0] as its first
    factor.  Costs d^len(legs) multiply-adds per entry of ``mat``.
    """
    n = round(math.log(mat.shape[1], d))
    k = len(legs)
    if len(set(legs)) != k or not all(0 <= s < n for s in legs):
        raise ValueError(f"legs {legs} must be distinct slots in 0..{n - 1}")
    axes = [1 + s for s in legs]
    last = list(range(n + 1 - k, n + 1))
    t = np.moveaxis(mat.reshape((-1,) + (d,) * n), axes, last)
    t = (t.reshape(-1, d**k) @ op).reshape(t.shape)
    return np.moveaxis(t, last, axes).reshape(mat.shape)


def embed(op, n_slots, legs, d=3):
    """Dense embedding of ``op`` into the slots ``legs`` of n slots: a copy of
    its entries, with slot 0 the slowest index."""
    return on_legs(np.eye(d**n_slots, dtype=complex), op, legs, d)


# ---------------------------------------------------------------------------
# twist data


def _case_of_jordan(kj):
    if kj.shape != (3, 3):
        raise ValueError("K_J must be 3x3: three eigenvalues or a 3x3 k_jordan")
    rtol = 1e-10
    scale = max(np.abs(kj).max(), 1.0)
    y1, y2 = kj[0, 1], kj[1, 2]
    lower = np.abs(np.tril(kj, -1)).max()
    if lower > rtol * scale or abs(kj[0, 2]) > rtol * scale:
        raise ValueError("k_jordan must be upper triangular with zero (0,2) entry")
    k0, k1, k2 = kj[0, 0], kj[1, 1], kj[2, 2]
    if abs(y1) <= rtol * scale and abs(y2) <= rtol * scale:
        if min(abs(k0 - k1), abs(k0 - k2), abs(k1 - k2)) <= rtol * scale:
            raise ValueError("diagonal Jordan form requires distinct eigenvalues")
        return "i"
    if abs(y1 - 1) <= rtol and abs(y2) <= rtol * scale:
        if abs(k0 - k1) > rtol * scale or abs(k0 - k2) <= rtol * scale:
            raise ValueError("2+1 Jordan form requires k0 == k1 != k2")
        return "ii"
    if abs(y1 - 1) <= rtol and abs(y2 - 1) <= rtol:
        if max(abs(k0 - k1), abs(k0 - k2)) > rtol * scale:
            raise ValueError("full Jordan block requires k0 == k1 == k2")
        return "iii"
    raise ValueError("off-diagonal Jordan entries must be 0 or 1")


@dataclass(frozen=True)
class TwistData:
    """Twist matrix K together with its Jordan data K = W K_J W^{-1}.

    ``case`` is "i" (diagonalizable, distinct eigenvalues), "ii" (one 2-block)
    or "iii" (a single 3-block).  Spectral invariants: ``trace_inv`` = tr K,
    ``second_inv`` = ((tr K)^2 - tr K^2)/2 and ``det`` = det K.
    """

    k_matrix: np.ndarray
    case: str
    w: np.ndarray
    k_jordan: np.ndarray
    k_adjugate: np.ndarray = field(default=None)

    def __post_init__(self):
        object.__setattr__(self, "k_matrix", as_matrix(self.k_matrix))
        object.__setattr__(self, "w", as_matrix(self.w))
        object.__setattr__(self, "k_jordan", as_matrix(self.k_jordan))
        adj = adjugate3(self.k_jordan)
        object.__setattr__(self, "k_adjugate", adj)
        recon = self.w @ self.k_jordan @ np.linalg.inv(self.w)
        scale = max(np.abs(self.k_matrix).max(), 1e-300)
        if np.abs(recon - self.k_matrix).max() > 1e-10 * scale:
            raise ValueError("K != W K_J W^{-1} within tolerance")
        prod = adj @ self.k_jordan
        if np.abs(prod - self.det * np.eye(3)).max() > 1e-10 * max(np.abs(prod).max(), scale**3, 1.0):
            raise ValueError("adjugate identity violated")

    @property
    def trace_inv(self):
        return complex(np.trace(self.k_matrix))

    @property
    def second_inv(self):
        t = np.trace(self.k_matrix)
        return complex((t * t - np.trace(self.k_matrix @ self.k_matrix)) / 2)

    @property
    def det(self):
        return complex(np.linalg.det(self.k_jordan))

    def invertible(self, rtol=1e-9):
        """|det K| above ``rtol`` times max|K_ij|^3, the scale of a 3x3
        determinant."""
        return abs(self.det) > rtol * max(np.abs(self.k_matrix).max(), 1e-300) ** 3

    @property
    def eigenvalues(self):
        return (complex(self.k_jordan[0, 0]), complex(self.k_jordan[1, 1]),
                complex(self.k_jordan[2, 2]))

    @classmethod
    def from_jordan(cls, w, k_jordan):
        kj = as_matrix(k_jordan)
        case = _case_of_jordan(kj)
        w = as_matrix(w)
        k = w @ kj @ np.linalg.inv(w)
        return cls(k, case, w, kj)

    @classmethod
    def from_matrix(cls, k):
        """Diagonalize a user-supplied K (case i only).

        Numerical Jordan forms are ill-posed, so a K with (numerically)
        repeated eigenvalues is rejected; supply explicit (W, K_J) instead.
        """
        dec = eig_general(k, gap_rtol=1e-8)
        return cls(k, "i", dec.right, np.diag(dec.values))

    @classmethod
    def from_eigenvalues(cls, eigenvalues, w=None):
        vals = [complex(v) for v in eigenvalues]
        w = np.eye(3, dtype=complex) if w is None else as_matrix(w)
        kj = np.diag(vals)
        case = _case_of_jordan(kj)
        return cls(w @ kj @ np.linalg.inv(w), case, w, kj)


#: K_J's basis vectors grouped by Jordan block, for each twist case
JORDAN_GROUPS = {"i": ((0,), (1,), (2,)), "ii": ((0, 1), (2,)), "iii": ((0, 1, 2),)}


def weight_sectors(twist, sites):
    """The twist-weight sectors of a chain, as :func:`eig_general`'s
    ``sectors=(w, labels)``.

    R(lam) = lam + eta P commutes with X (x) 1 + 1 (x) X for every X, so T_m
    commutes with sum_sites X for every X commuting with K, such as the
    projectors W P_g W^{-1} onto the Jordan blocks g of K_J.  In the basis
    W^{(x)N}, T_m is therefore block diagonal by weight, the number of sites
    in each block g; a basis state's label is sum_sites (N + 1)^g, which
    encodes that count.
    """
    group = np.empty(3, dtype=int)
    for g, members in enumerate(JORDAN_GROUPS[twist.case]):
        group[list(members)] = g
    digits = np.indices((3,) * sites).reshape(sites, -1)
    return twist.w, ((sites + 1) ** group[digits]).sum(axis=0)


def check_gl2_twist(k):
    """A gl(2) twist as a complex array: finite, 2x2 and not a multiple of
    the identity, else a ValueError."""
    k = np.asarray(k, dtype=complex)
    if k.shape != (2, 2) or not np.isfinite(k).all():
        raise ValueError("a gl(2) twist is a finite 2x2 matrix")
    off = max(abs(k[0, 1]), abs(k[1, 0]), abs(k[0, 0] - k[1, 1]))
    if off <= 1e-12 * max(np.abs(k).max(), 1e-300):
        raise ValueError("twist must not be a multiple of the identity")
    return k


# ---------------------------------------------------------------------------
# model parameters


def xi_separation(xi, eta):
    """Distance of the differences xi_i - xi_j (i != j) from {0, +eta, -eta}.

    The genericity condition of the inhomogeneities, shared by gl(3) and
    gl(2); infinite for a single site.
    """
    diffs = (x - y for x, y in itertools.combinations(xi, 2))
    return min((min(abs(d), abs(d - eta), abs(d + eta)) for d in diffs), default=np.inf)


def require_no_double_shift(params):
    """Refuse a chain with xi_a - xi_b = 2 eta for some sites a, b: then
    d(xi_a - 2 eta) = 0, and the closed right reference vector, the diagonal
    couplings and the determinant-overlap prefactors divide by it."""
    for a, b in itertools.permutations(range(params.sites), 2):
        if abs(params.xi[a] - params.xi[b] - 2 * params.eta) < 1e-12:
            raise DoubleShift(f"sites {a + 1} and {b + 1} have xi_{a + 1} - xi_{b + 1} = 2 eta, "
                              f"so d(xi_{a + 1} - 2 eta) = 0")


def default_probe_point(params):
    """Generic spectral point xi_1 + 13/7 eta at which both algebras
    diagonalize their transfer matrix (and the charges pair eigenstates)."""
    return params.xi[0] + 13 / 7 * params.eta


@dataclass(frozen=True)
class ModelParams:
    """Sites, shift eta, inhomogeneities and twist of one chain: a gl(3) chain
    when ``twist`` is :class:`TwistData`, a gl(2) chain when it is a 2x2
    matrix (validated by :func:`check_gl2_twist`)."""

    sites: int
    eta: complex
    xi: tuple
    twist: TwistData | np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "eta", complex(self.eta))
        object.__setattr__(self, "xi", tuple(complex(x) for x in self.xi))
        if self.sites < 1 or len(self.xi) != self.sites:
            raise ValueError("need sites >= 1 inhomogeneities")
        if self.eta == 0:
            raise NonGeneric("eta must be nonzero")
        if not isinstance(self.twist, TwistData):
            object.__setattr__(self, "twist", check_gl2_twist(self.twist))
        if xi_separation(self.xi, self.eta) < 1e-12:
            raise NonGeneric("inhomogeneities must satisfy xi_i - xi_j not in {0, +eta, -eta}")

    @property
    def dim(self):
        return len(self.k_matrix) ** self.sites

    @property
    def k_matrix(self):
        """The d x d twist matrix, for either algebra."""
        return self.twist.k_matrix if isinstance(self.twist, TwistData) else self.twist

    def xi_shifted(self, a, h):
        """xi_a - h*eta for 0-based site a."""
        return self.xi[a] - h * self.eta

    def with_twist(self, twist):
        return ModelParams(self.sites, self.eta, self.xi, twist)


# ---------------------------------------------------------------------------
# monodromy and transfer matrices


def monodromy(params, lam, aux=0, n_aux=1):
    """Dense monodromy matrix K_a R_{a,N}(lam - xi_N) ... R_{a,1}(lam - xi_1)
    with the auxiliary space a in slot ``aux`` of ``n_aux`` auxiliary slots,
    which precede the quantum slots: slot n_aux + (N - b) holds site b."""
    n = params.sites
    slots = n_aux + n
    require_dense(3**slots)
    m = embed(params.twist.k_matrix, slots, (aux,))
    for b in range(n, 0, -1):
        m = on_legs(m, r_matrix(lam - params.xi[b - 1], params.eta), (aux, n_aux + n - b))
    return m


def rtt_residual(params, lam, mu):
    """Relative residual of the exchange relation
    R12(lam-mu) M1(lam) M2(mu) = M2(mu) M1(lam) R12(lam-mu)."""
    m1 = monodromy(params, lam, 0, 2)
    m2 = monodromy(params, mu, 1, 2)
    r12 = r_matrix(lam - mu, params.eta)
    lhs = embed(r12, params.sites + 2, (0, 1)) @ m1 @ m2
    rhs = on_legs(m2 @ m1, r12, (0, 1))
    return rel_residual(lhs - rhs, lhs)


@lru_cache(maxsize=None)
def _wedge_columns(d, m):
    """Columns of antisymmetrizer(d, m) at the ascending index tuples: a basis
    of its range Lambda^m C^d, left-inverted by m! times its transpose.

    Up to a scale sqrt(m!) this is an orthonormal basis; unscaled, the entries
    stay 0, +-1/m! and +-1, so for m <= 2 the compression adds no rounding and
    exact zeros of T_2 (diagonal det K = 0 twists) survive.  The identity for m = 1.
    """
    flat = [sum(i * d ** (m - 1 - k) for k, i in enumerate(idx))
            for idx in itertools.combinations(range(d), m)]
    cols = antisymmetrizer(d, m)[:, flat]
    cols.flags.writeable = False
    return cols


@lru_cache(maxsize=None)
def _site_tables(d, m, eta):
    """Coefficient tables of the compressed order-m site operator of the gl(d)
    chain: S_a(lam) = sum_p z^p C[p] with z = lam - xi_a, auxiliary legs u, w
    on Lambda^m C^d and quantum legs i, j.

    S_a is the fused product R_{1,a}(z) R_{2,a}(z - eta) ... R_{m,a}(z - (m-1)*eta)
    of auxiliary copies 1..m with site a.  Fusion keeps the range of the
    antisymmetrizer invariant, so S_a is compressed onto it.  Every factor is
    z*I + (eta*P - k*eta*I), so the product is a degree-m polynomial in z whose
    coefficients depend on (d, m, eta) only.

    Both read-only tables have one row per power p, with C[p] flattened the
    way the GEMMs read it: ``chain`` as [u, i, j, w], the (u, i, j) x w matrix
    of a site GEMM, and ``close`` as [(i, j), (u, w)], the d^2 x bond^2 matrix
    that closes the trace.
    """
    extend = _wedge_columns(d, m)
    restrict = math.factorial(m) * extend.T
    low = []  # coefficients of the first k factors below the leading identity, lowest degree first
    for k in range(m):
        const = embed(r_matrix(-k * eta, eta, d), m + 1, (k, m), d)
        prods = [c @ const for c in low] + [const]  # the identity times const is const
        low = prods[:1] + [p + c for p, c in zip(prods[1:], low)]
    poly = low + [np.eye(d ** (m + 1), dtype=complex)]
    site_restrict = np.kron(restrict, np.eye(d))
    site_extend = np.kron(extend, np.eye(d))
    bond = extend.shape[1]
    coeffs = np.array([site_restrict @ c @ site_extend for c in poly])
    coeffs = coeffs.reshape(m + 1, bond, d, bond, d)  # [p, u, i, w, j]
    chain = coeffs.transpose(0, 1, 2, 4, 3).reshape(m + 1, -1)
    close = coeffs.transpose(0, 2, 4, 1, 3).reshape(m + 1, -1)
    chain.flags.writeable = close.flags.writeable = False
    return chain, close


def _sites(d, m, eta, xi, lam):
    """S_1 ... S_(N-1) at lam as rows in the ``chain`` layout and S_N in the
    ``close`` layout of :func:`_site_tables`: one ``vander`` of the N values
    of z = lam - xi_a and one GEMV per site."""
    chain, close = _site_tables(d, m, complex(eta))
    vz = np.vander(lam - np.asarray(xi, dtype=complex), m + 1, increasing=True)
    return np.matmul(vz[:-1, None, :], chain)[:, 0], vz[-1] @ close


def _boundary(k_matrix, m):
    """restrict K^{(x)m} extend: the twist on Lambda^m C^d, read-only.

    Memoized by the twist's entries, so two twists never share a value."""
    k = np.ascontiguousarray(k_matrix, dtype=complex)
    return _boundary_of(k.tobytes(), k.shape[0], m)


@lru_cache(maxsize=64)
def _boundary_of(k_bytes, d, m):
    k = np.frombuffer(k_bytes, dtype=complex).reshape(d, d)
    extend = _wedge_columns(d, m)
    out = math.factorial(m) * extend.T @ reduce(np.kron, [k] * m) @ extend
    out.flags.writeable = False
    return out


def _on_sites(y, op, axes, work):
    """Contract ``op`` [(out, i...), (in, j...)] with the auxiliary leg (axis
    0) and the site legs ``axes`` of ``y``, a view of ``work[0]``: the legs
    are gathered into ``work[1]`` and the GEMM writes back into ``work[0]``."""
    front = list(range(1, len(axes) + 1))
    moved = np.moveaxis(y, axes, front)
    np.copyto(work[1].reshape(moved.shape), moved)
    out = np.matmul(op, work[1].reshape(op.shape[1], -1), out=work[0].reshape(op.shape[0], -1))
    return np.moveaxis(out.reshape(moved.shape), front, axes)


def _node_t1(k_matrix, eta, xi, a, block):
    """T_1(xi_s) = eta R_{s,s-1} ... R_{s,1} K_s R_{s,N} ... R_{s,s+1} on the
    columns of ``block``, for site s = a + 1, with R_{sb} = R_{sb}(xi_s - xi_b).

    Each R_{sb}(z) = z + eta P_sb is a scaled copy plus a scaled swap of the
    legs of sites s and b, and K acts on the leg of site s: O(N d^N) per
    column, with no auxiliary leg.
    """
    d = k_matrix.shape[0]
    n = len(xi)
    leg = n - 1 - a  # 0-based site a is on axis n - 1 - a

    def r_ab(y, b):
        return (xi[a] - xi[b]) * y + eta * np.swapaxes(y, leg, n - 1 - b)

    y = block.reshape((d,) * n + (-1,))
    for b in range(a + 1, n):  # the rightmost factor R_{s,s+1} acts first
        y = r_ab(y, b)
    y = np.moveaxis(np.tensordot(k_matrix, y, axes=(1, leg)), 0, leg)
    for b in range(a):
        y = r_ab(y, b)
    return (eta * y).reshape(block.shape)


def fused_contract(k_matrix, eta, xi, m, lam, block):
    """Apply tr_{Lambda^m} K^{(x)m} S_N(lam) ... S_1(lam) to the columns of
    ``block``, for the gl(d) chain with d x d twist ``k_matrix`` (see
    :func:`_site_tables` for S_a).

    At m = 1 and lam equal to some xi_a the site-a factor is R_{0a}(0) =
    eta P_{0a} (regularity).  Moving that swap through the other factors and
    closing the trace leaves the one-site R-chain of :func:`_node_t1`, an
    exact operator identity (the product formula that ``appendixA`` checks
    densely), so those columns skip the MPO below.  Only exact equality
    selects this path; lam one ulp away from a node takes the MPO.

    Otherwise the trace is a sum over the boundary index u of
    e_u^T S_N ... S_2 (S_1 B e_u), B the boundary.  For each u the running
    tensor y[w, q_N, ..., q_1, col] holds row u of S_N ... S_a applied to the
    block, one auxiliary leg w, and the sweep runs from site N down:

    * row u of S_N reads the block directly (1/bond of a full site);
    * the middle sites go two at a time from S_(N-1) down, one bond*d^2
      square operator and one gather copy per pair, with S_2 alone for an odd
      remainder.  The sites below a pair are still in place, so the gather
      for a pair ending at site a copies runs of d^(a-1)*cols entries (a
      sweep from site 2 up gathers single entries when cols = 1);
    * S_1 folded with column u of B is one d x bond*d matrix that closes the
      trace (1/bond of a full site).  Its gather puts the columns ahead of
      sites N ... 2 and its GEMM is taken transposed, so it writes
      [col, q_N, ..., q_1], the result's transpose in site order, and is
      added into it with no permutation copy.

    Every gather copies into one of two work buffers of bond*d^N*cols
    entries, allocated once per call, and every GEMM writes into the other:
    the working set is 2*bond*d^N*cols entries plus the result.  A fresh
    y-sized array per step is new memory from the system each time, and
    touching it cost about as much as the GEMMs at N = 8.  A block's result
    is a transposed view, each column contiguous.  The dense path is
    :func:`fused_dense`.
    """
    if m == 1:
        node = next((a for a, x in enumerate(xi) if x == lam), None)
        if node is not None:
            return _node_t1(k_matrix, eta, xi, node, block)
    d = k_matrix.shape[0]
    n = len(xi)
    bond = _wedge_columns(d, m).shape[1]
    cols = block.shape[1] if block.ndim == 2 else 1
    sites, s_n = _sites(d, m, eta, xi, lam)
    boundary = _boundary(k_matrix, m)
    if n == 1:  # S_1 is also S_N: close the trace on it alone
        # [i, w, t, j]: sum_u B[t, u] S_N[(i, j), (u, w)]
        last = np.einsum('tu,ijuw->iwtj', boundary, s_n.reshape(d, d, bond, bond))
        out = np.einsum('iwwj->ij', last) @ block.reshape(d, cols)
        return out if block.ndim == 2 else out[:, 0]
    sites = sites.reshape(n - 1, bond, d, d, bond)  # [a, u, i, j, w]
    # [u, (w, i), j]: row u of S_N
    tops = s_n.reshape(d, d, bond, bond).transpose(2, 3, 0, 1).reshape(bond, bond * d, d)
    # [u, i, (w, j)]: sum_t S_1[w, i, j, t] B[t, u]
    closes = np.einsum('wijt,tu->uiwj', sites[0], boundary).reshape(bond, d, bond * d)
    middle = sites[:0:-1]  # S_(N-1) ... S_2
    pairs = len(middle) // 2
    # [(u, i_hi, j_hi), (i_lo, j_lo, w)]: sum_v S_hi[u, i_hi, j_hi, v] S_lo[v, i_lo, j_lo, w]
    ops = np.matmul(middle[0:2 * pairs:2].reshape(pairs, bond * d * d, bond),
                    middle[1:2 * pairs:2].reshape(pairs, bond, d * d * bond))
    # -> [(w, i_hi, i_lo), (u, j_hi, j_lo)], a row in u out as a row in w, before the work
    # buffers are taken
    ops = ops.reshape((pairs, bond) + (d,) * 4 + (bond,)).transpose(0, 6, 2, 4, 1, 3, 5)
    ops = ops.reshape(pairs, bond * d * d, bond * d * d)
    steps = [(op, [2 * p + 2, 2 * p + 3]) for p, op in enumerate(ops)]  # site N - 1 - 2p first
    if len(middle) % 2:  # S_2 on axis N - 1: [(w, i), (u, j)]
        steps.append((middle[-1].transpose(3, 1, 0, 2).reshape(bond * d, bond * d), [n - 1]))
    work = np.empty((2, bond * d**n * cols), dtype=complex)
    v = block.reshape(d, -1)  # [q_N, (q_(N-1), ..., q_1, col)]
    out = np.zeros((cols * d**(n - 1), d), dtype=complex)  # [(col, q_N, ..., q_2), q_1]
    for top, close in zip(tops, closes):
        y = np.matmul(top, v, out=work[0].reshape(bond * d, -1))
        y = y.reshape((bond,) + (d,) * n + (cols,))
        for op, axes in steps:
            y = _on_sites(y, op, axes, work)
        moved = np.moveaxis(y, [n, n + 1], [1, 2])  # [w, q_1, col, q_N, ..., q_2]
        np.copyto(work[1].reshape(moved.shape), moved)
        out += np.matmul(work[1].reshape(bond * d, -1).T, close.T,
                         out=work[0][:out.size].reshape(out.shape))
    out = out.reshape(cols, d**n)
    return out.T if block.ndim == 2 else out[0]


def fused_dense(k_matrix, eta, xi, m, lam):
    """Dense tr_{Lambda^m} K^{(x)m} S_N(lam) ... S_1(lam) on the d^N quantum
    space of the gl(d) chain, as a matrix-product-operator product that meets
    in the middle.

    With k = floor(N/2), the lower half R = S_k ... S_1 B (B the boundary)
    starts from S_1 and takes one site per GEMM, as [w, (i_k, j_k), ...,
    (i_1, j_1), u] with auxiliary w, u; B multiplies only this half, as
    :func:`fused_contract` folds it into S_1.  The upper half L = S_N ...
    S_(k+1) starts from S_N and takes one site per GEMM, as [u, (i_N, j_N),
    ..., w].  Each half's quantum legs are reordered to (i..., j...), and one
    GEMM of d^(2(N-k)) x bond^2 by bond^2 x d^(2k) closes the trace; a 4-axis
    swap gives the rows (i_N, ..., i_1) and columns (j_N, ..., j_1).  The
    halves hold at most bond^2 d^(N+1) entries each, so the working set is
    the GEMM's result and its swapped copy, 2 d^(2N) entries.
    Against the same MPO contracted in extended precision (648 cases at
    N = 2..5, the test suite's check), the worst and mean errors relative to
    the generic-point scale read 4.6e-14 and 2.2e-16, against 4.8e-14 and
    2.3e-16 for one running tensor S_(N-1) ... S_1 closed by S_N.
    """
    d = k_matrix.shape[0]
    n = len(xi)
    k = n // 2
    bond = _wedge_columns(d, m).shape[1]
    sites, s_n = _sites(d, m, eta, xi, lam)
    boundary = _boundary(k_matrix, m)
    if k:
        low = sites[0]
        for site in sites[1:k]:
            low = site.reshape(-1, bond) @ low.reshape(bond, -1)
        low = low.reshape(-1, bond) @ boundary
    else:
        low = boundary  # the product of no sites, times B
    # S_N from [(i, j), (u, w)] to [u, (i, j), w]
    high = s_n.reshape(d * d, bond, bond).transpose(1, 0, 2)
    for site in sites[k:][::-1]:  # S_(N-1) down to S_(k+1)
        high = high.reshape(-1, bond) @ site.reshape(bond, -1)
    # [(i_N..i_(k+1), j_N..j_(k+1)), (u, w)] @ [(u, w), (i_k..i_1, j_k..j_1)]
    hi, lo = 2 * (n - k), 2 * k
    high = high.reshape((bond,) + (d,) * hi + (bond,))
    high = high.transpose(list(range(1, hi + 1, 2)) + list(range(2, hi + 1, 2)) + [0, hi + 1])
    low = low.reshape((bond,) + (d,) * lo + (bond,))
    low = low.transpose([lo + 1, 0] + list(range(1, lo + 1, 2)) + list(range(2, lo + 1, 2)))
    out = np.dot(high.reshape(-1, bond * bond), low.reshape(bond * bond, -1))
    out = out.reshape(d ** (n - k), d ** (n - k), d**k, d**k).transpose(0, 2, 1, 3)
    return out.reshape(d**n, d**n)


def _check_order(m):
    if m not in (1, 2, 3):
        raise ValueError("fusion order m must be 1, 2 or 3")


def fused_apply(params, m, lam, block):
    """Matrix-free action of T_m(lam), m in {1, 2, 3}, on a state vector or
    on the columns of a block, without forming the auxiliary product space
    densely; the result has the shape of ``block``."""
    _check_order(m)
    block = np.asarray(block, dtype=complex)
    if block.ndim not in (1, 2) or block.shape[0] != params.dim:
        raise ValueError(f"state vectors must have length {params.dim}")
    return fused_contract(params.k_matrix, params.eta, params.xi, m, lam, block)


def transfer(params, m, lam):
    """Dense fused transfer matrix T_m(lam) of a gl(3) chain or, at m = 1, a gl(2) one."""
    require_dense(params.dim)
    _check_order(m)
    return fused_dense(params.k_matrix, params.eta, params.xi, m, lam)


class TransferCache:
    """Evaluator for dense transfer matrices of one chain, keyed by (m, lam).

    The one handle on a chain, gl(3) or gl(2): every chain-level function
    takes the chain's cache and reads ``params`` from it.  Single-threaded
    use.  It stores T_1 at the nodes, lam exactly equal to some xi_a or
    xi_a - eta, which the SoV bases and the product checks re-read: at most
    2N matrices.  Any other (m, lam), T_2 at a node included, is assembled
    on each request and not kept, so callers that read it more than once
    hold it themselves.  The workspace empties
    the store when a suite ends (:meth:`clear`), so a later suite assembles
    its nodes again.  ``hits[m]`` and ``misses[m]`` count the lookups of
    fusion order m; a hit is a node re-read, and every miss assembles one
    dense T_m, whose wall-clock seconds add to ``seconds[m]``.  ``stored`` is
    the number of matrices held.  It only
    evaluates T_m: the SoV bases built from it are values that their builder's
    caller keeps (the workspace's memos).
    """

    def __init__(self, params):
        self.params = params
        self._nodes = {p for x in params.xi for p in (x, x - params.eta)}
        self._store = {}
        self.hits = Counter()
        self.misses = Counter()
        self.seconds = Counter()

    @property
    def stored(self):
        return len(self._store)

    def value(self, m, lam):
        key = (m, complex(lam))
        if key in self._store:
            self.hits[m] += 1
            return self._store[key]
        self.misses[m] += 1
        start = time.perf_counter()
        mat = transfer(self.params, m, lam)
        self.seconds[m] += time.perf_counter() - start
        if m == 1 and key[1] in self._nodes:
            self._store[key] = mat
        return mat

    def clear(self):
        """Drop the stored matrices; the counts stay."""
        self._store.clear()

    def t1(self, lam):
        return self.value(1, lam)

    def t2(self, lam):
        return self.value(2, lam)

    def t3(self, lam):
        return self.value(3, lam)


def _qdet_product(val, xi_list, eta, lam):
    """``val`` times prod_x (lam - x + eta)(lam - x - eta)(lam - x - 2 eta),
    multiplied in site order."""
    for x in xi_list:
        val *= (lam - x + eta) * (lam - x - eta) * (lam - x - 2 * eta)
    return complex(val)


def quantum_determinant(params, lam):
    """Closed-form scalar value of T_3(lam)."""
    return _qdet_product(params.twist.det, params.xi, params.eta, lam)


def quantum_determinant_identity(xi_list, eta, lam):
    """q-det of the untwisted chain (K = I)."""
    return _qdet_product(1.0 + 0j, xi_list, eta, lam)


# ---------------------------------------------------------------------------
# interpolation machinery


class InterpolationWeights:
    """Lagrange data for transfer matrices on shifted inhomogeneity nodes.

    ``g(a, shifts, lam, order)`` is the weight multiplying T_order at node
    xi_a - shifts[a]*eta when a degree-N (order=1) or degree-2N-with-known-
    zeros (order=2) family is reconstructed from its values at the N nodes
    xi_b - shifts[b]*eta plus the central asymptotics.
    """

    def __init__(self, params):
        self.params = params

    def d(self, lam):
        out = 1.0 + 0j
        for x in self.params.xi:
            out *= lam - x
        return complex(out)

    def a(self, lam):
        return self.d(lam + self.params.eta)

    def g(self, a, shifts, lam, order):
        p = self.params
        node = p.xi_shifted(a, shifts[a])
        out = 1.0 + 0j
        for b in range(p.sites):
            if b == a:
                continue
            other = p.xi_shifted(b, shifts[b])
            out *= (lam - other) / (node - other)
        if order == 2:
            for b in range(p.sites):
                out /= node - (p.xi[b] + p.eta)
        elif order != 1:
            raise ValueError("interpolation order must be 1 or 2")
        return complex(out)

    def asymptotic(self, m, shifts, lam):
        """Central leading term: (tr K or second invariant) * prod(lam - node_b)."""
        p = self.params
        lead = p.twist.trace_inv if m == 1 else p.twist.second_inv
        out = lead
        for b in range(p.sites):
            out *= lam - p.xi_shifted(b, shifts[b])
        return complex(out)


def t2_interpolated(cache, lam):
    """Reconstruct T_2(lam) from T_1 values at the inhomogeneities via the
    fusion products T_1(xi_a - eta) T_1(xi_a), the central zeros at xi_a + eta
    and the known asymptotics."""
    params = cache.params
    w = InterpolationWeights(params)
    zero_shifts = (0,) * params.sites
    acc = w.asymptotic(2, zero_shifts, lam) * np.eye(params.dim, dtype=complex)
    for a in range(params.sites):
        prod = cache.t1(params.xi[a] - params.eta) @ cache.t1(params.xi[a])
        acc = acc + w.g(a, zero_shifts, lam, 2) * prod
    return w.d(lam - params.eta) * acc


def fusion_residuals(cache):
    """Per-site residual table of the fusion hierarchy.

    Returns ``{"fusion": {(a, m): r}, "central_zero": {a: r}}`` with 0-based
    site keys: each fusion residual relative to the larger side's magnitude,
    each central zero relative to T_2 at the node.
    """
    params = cache.params
    out = {"fusion": {}, "central_zero": {}}

    def fusion(lhs, rhs):
        return rel_residual(lhs - rhs, max(np.abs(lhs).max(), np.abs(rhs).max()))

    for a in range(params.sites):
        xa = params.xi[a]
        t1, t2 = cache.t1(xa), cache.t2(xa)  # T_2(xi_a) is not stored: held for both reads
        out["fusion"][(a, 1)] = fusion(t1 @ cache.t1(xa - params.eta), t2)
        out["fusion"][(a, 2)] = fusion(t1 @ cache.t2(xa - params.eta), cache.t3(xa))
        out["central_zero"][a] = rel_residual(cache.t2(xa + params.eta), t2)
    return out


# ---------------------------------------------------------------------------
# product of transfer matrices at the inhomogeneities


def _chain(mat, params, a, others, omit):
    """``mat`` times R_{a,b_M}(xi_a - xi_{b_M}) ... R_{a,b_1}(xi_a - xi_{b_1})
    on the quantum space, skipping sites listed in ``omit`` (1-based sites)."""
    n = params.sites
    for b in reversed(others):
        if b not in omit:
            r = r_matrix(params.xi[a - 1] - params.xi[b - 1], params.eta)
            mat = on_legs(mat, r, (n - a, n - b))
    return mat


def product_formula_check(cache, a_indices):
    """Relative residual of the closed product formula for
    prod_j T_1(xi_{a_j}) as a twist insertion dressed by R-chains.

    ``a_indices`` are 1-based, strictly ascending.  The scalar prefactor is
    eta^M * prod_{i<j} (eta^2 - (xi_{a_i} - xi_{a_j})^2).
    """
    params = cache.params
    sites = list(a_indices)
    n = params.sites
    if sites != sorted(set(sites)) or any(not 1 <= a <= n for a in sites):
        raise IndexOrder("site indices must be strictly ascending and within range")
    mm = len(sites)
    lhs = reduce(np.matmul, [cache.t1(params.xi[a - 1]) for a in sites])
    coef = params.eta**mm
    for i in range(mm):
        for j in range(i + 1, mm):
            coef *= params.eta**2 - (params.xi[sites[i] - 1] - params.xi[sites[j] - 1]) ** 2
    rhs = np.eye(params.dim, dtype=complex)
    for pos, a in enumerate(sites):
        rhs = _chain(rhs, params, a, range(1, a), omit=sites[:pos])
    for a in sites:
        rhs = on_legs(rhs, params.twist.k_matrix, (n - a,))
    for pos, a in enumerate(sites):
        rhs = _chain(rhs, params, a, range(a + 1, n + 1), omit=sites[pos + 1:])
    rhs = coef * rhs
    return rel_residual(lhs - rhs, lhs)


def exchange_relation_residual(params, low, high, between):
    """Residual of the R-chain exchange identity used to prove the product
    formula: moving the left chain of site ``high`` through the right chain
    of site ``low`` (both with the sites in ``between`` omitted) costs the
    scalar eta^2 - (xi_high - xi_low)^2 and extends both omission sets."""
    n = params.sites
    if not low < high or any(not low < b < high for b in between):
        raise IndexOrder("need low < between sites < high")
    right_low = lambda mat, omit: _chain(mat, params, low, range(low + 1, n + 1), omit)
    left_high = lambda mat, omit: _chain(mat, params, high, range(1, high), omit)
    between = tuple(between)
    eye = np.eye(params.dim, dtype=complex)
    lhs = left_high(right_low(eye, between), between)
    scal = params.eta**2 - (params.xi[high - 1] - params.xi[low - 1]) ** 2
    rhs = scal * right_low(left_high(eye, between + (low,)), between + (high,))
    return rel_residual(lhs - rhs, lhs)

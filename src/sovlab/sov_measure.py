"""Coupling (Gram) matrix of the SoV basis pair and its sparse inverse measure.

The dressed left and right families are generically *pseudo-orthogonal*: the
coupling <h|k> vanishes unless h = k or h is obtained from k by replacing r
disjoint pairs of digit-1 entries with one 0 and one 2.  Each surviving
off-diagonal entry factors as <k|k> * C * (det K)^r with C independent of
det K.  The diagonal is an explicit Vandermonde expression in the shifted
inhomogeneities, independent of the twist.
"""

import functools
from dataclasses import dataclass

import numpy as np

from .errors import DetKZero, SingularGram
from .gl3_model import (InterpolationWeights, quantum_determinant_identity,
                        require_no_double_shift)
from .numkernel import rel_residual, vandermonde
from .sov_bases import flat_index, label_digits, label_products, label_vandermonde


@dataclass(frozen=True)
class PairClass:
    """Classification of one (h, k) cell: 'diagonal', 'offdiag' or 'zero'."""

    kind: str
    alpha: tuple = ()
    beta: tuple = ()

    @property
    def pair_count(self):
        return len(self.alpha)


def classify_pair(h, k):
    """Decide whether <h|k> may be nonzero and find the unique pair move;
    ``h`` and ``k`` are digit tuples.

    Off-diagonal couplings require disjoint alpha, beta inside the digit-1
    set of k, of equal size r >= 1, with h = k after alpha -> 0, beta -> 2
    and all other digits equal.  In particular nonzero cells conserve the
    total digit sum (each pair move trades two 1s for a 0 and a 2).
    """
    if h == k:
        return PairClass("diagonal")
    alpha = []
    beta = []
    for a, (ha, ka) in enumerate(zip(h, k)):
        if ha == ka:
            continue
        if ka == 1 and ha == 0:
            alpha.append(a)
        elif ka == 1 and ha == 2:
            beta.append(a)
        else:
            return PairClass("zero")
    if len(alpha) != len(beta) or not alpha:
        return PairClass("zero")
    return PairClass("offdiag", tuple(alpha), tuple(beta))


@dataclass(frozen=True)
class PairSupport:
    """:func:`classify_pair` for every cell at once, indexed
    ``[flat_index(h), flat_index(k)]``.

    ``diagonal``, ``offdiag`` and ``zero`` are disjoint read-only boolean
    masks covering every cell; ``pair_count`` is r on off-diagonal cells and
    0 elsewhere.
    """

    diagonal: np.ndarray
    offdiag: np.ndarray
    zero: np.ndarray
    pair_count: np.ndarray


@functools.lru_cache(maxsize=None)
def pair_support(sites):
    """Cached pair-move support of the N-site labels.

    Built site by site from the rule of :func:`classify_pair`: a cell may be
    nonzero only if every site keeps its digit or turns a digit 1 of k into
    a 0 (alpha) or a 2 (beta) of h, with |alpha| = |beta|.  Memory stays at a
    few bytes per cell.
    """
    digits = label_digits(sites)
    dim = len(digits)
    moved = np.zeros((dim, dim), dtype=bool)  # some site changed other than 1 -> 0, 2
    to0 = np.zeros((dim, dim), dtype=np.int8)
    to2 = np.zeros((dim, dim), dtype=np.int8)
    for a in range(sites):
        h = digits[:, a, None]
        k = digits[None, :, a]
        alpha = (k == 1) & (h == 0)
        beta = (k == 1) & (h == 2)
        moved |= (h != k) & ~alpha & ~beta
        to0 += alpha
        to2 += beta
    diagonal = np.eye(dim, dtype=bool)
    offdiag = ~moved & (to0 == to2) & (to0 > 0)
    zero = ~(diagonal | offdiag)
    pair_count = np.where(offdiag, to0, 0).astype(np.int8)
    for arr in (diagonal, offdiag, zero, pair_count):
        arr.setflags(write=False)
    return PairSupport(diagonal, offdiag, zero, pair_count)


def diag_values(params):
    """Twist-independent diagonal couplings <h|h> of the dressed pair, for
    every label h in flat order.

    <h|h> = prod_a d(xi_a^(1)) / d(xi_a^(1+z_a)) * V(xi)^2 / (V(xi^(z)) V(xi^(y)))
    with z_a = [h_a >= 1], y_a = [h_a = 2], xi_a^(s) = xi_a - s eta and V the
    Vandermonde product.
    """
    require_no_double_shift(params)
    w = InterpolationWeights(params)
    n = params.sites
    digits = label_digits(n)
    out = label_products(
        [[w.d(params.xi_shifted(a, 1)) / w.d(params.xi_shifted(a, 1 + z)) for z in (0, 1, 1)]
         for a in range(n)]
    )
    xi = np.array(params.xi, dtype=complex)
    vz = label_vandermonde(xi - (digits >= 1) * params.eta)
    vy = label_vandermonde(xi - (digits == 2) * params.eta)
    return out * (vandermonde(params.xi) ** 2 / (vz * vy))


@dataclass(frozen=True)
class GramReport:
    """Full coupling matrix with its classification audit, read-only.

    Sparsity decisions are taken on the ``cosine`` matrix (couplings divided
    by the Euclidean norms of the two states) so that the arbitrary overall
    scale of each basis member neither hides a genuine coupling nor turns
    dot-product cancellation noise into a fake one.  ``violations`` lists
    zero-classified cells above ``rtol * max|cosine|`` and, for invertible
    twists, off-diagonal cells below ``1e3 * rtol * max|cosine|`` (the
    hysteresis gap keeps the two checks from flapping).  Diagonal values are
    compared raw: the closed formula fixes their normalization.
    """

    params: object
    gram: np.ndarray
    cosine: np.ndarray
    diag: np.ndarray
    predicted_diag: np.ndarray
    rtol: float
    violations: list
    coefficients: dict

    @property
    def scale(self):
        return float(np.abs(self.gram).max())

    @property
    def max_zero_cosine(self):
        """Largest zero-classified |cosine| relative to the largest |cosine|."""
        return self._max_cosine(pair_support(self.params.sites).zero)

    @property
    def max_offdiag_cosine(self):
        return self._max_cosine(~pair_support(self.params.sites).diagonal)

    def _max_cosine(self, cells):
        return rel_residual(np.where(cells, self.cosine, 0), self.cosine)

    @property
    def max_diag_rel_err(self):
        return rel_residual(self.diag - self.predicted_diag, self.predicted_diag, axis=())


def gram(pair, params, rtol=1e-9):
    """Assemble <h|k> of ``pair``, classify every cell and compare the diagonal.

    The cosine divides each cell by the pair's member norms.  Violations and
    coefficients are listed cell by cell with k the outer and h the inner
    label, both in flat order.  The matrices are read-only and ``diag`` is
    a view of the coupling matrix's diagonal.
    """
    g = pair.left @ pair.right
    predicted = diag_values(params)
    cosine = g / np.outer(pair.row_norms, pair.col_norms)
    for arr in (g, predicted, cosine):
        arr.setflags(write=False)
    mags = np.abs(cosine)
    cscale = max(mags.max(), 1e-300)
    invertible = params.twist.invertible(rtol)
    support = pair_support(params.sites)
    digits = label_digits(params.sites)
    flagged = support.zero & (mags > rtol * cscale)
    if invertible:
        flagged |= support.offdiag & (mags <= 1e3 * rtol * cscale)
    violations = [
        {"kind": "zero" if support.zero[h, k] else "offdiag",
         "h": tuple(int(d) for d in digits[h]), "k": tuple(int(d) for d in digits[k]),
         "magnitude": abs(cosine[h, k]) / cscale}
        for k, h in zip(*np.nonzero(flagged.T))
    ]
    coefficients = {}
    if invertible:
        detk = params.twist.det
        for k, h in zip(*np.nonzero(support.offdiag.T)):
            coeff = g[h, k] / (g[k, k] * detk ** int(support.pair_count[h, k]))
            coefficients[(int(h), int(k))] = complex(coeff)
    return GramReport(params, g, cosine, np.diagonal(g), predicted, rtol, violations,
                      coefficients)


def extract_coefficient(report, h, k):
    """C = <h|k> / (<k|k> (det K)^r) for an off-diagonal cell, as :func:`gram`
    recorded it; gram records none when det K is numerically zero."""
    if classify_pair(h, k).kind != "offdiag":
        raise ValueError("coefficient extraction needs an off-diagonal cell")
    try:
        return report.coefficients[(flat_index(h), flat_index(k))]
    except KeyError:
        raise DetKZero("det K is numerically zero; the coefficient is undefined") from None


def coeff_r0_closed_form(params, h_rest):
    """Closed form of the single-pair coefficient with the pair on sites 1, 2.

    ``h_rest`` are the digits on sites 3..N (each in {0, 1, 2}), shared by the
    co-vector (0, 2, h_rest) and the vector (1, 1, h_rest).
    """
    if len(h_rest) != params.sites - 2:
        raise ValueError("h_rest must cover sites 3..N")
    eta = params.eta
    x1, x2 = params.xi[0], params.xi[1]
    w = InterpolationWeights(params)
    val = w.d(x2 - eta) / w.d(x1 - eta)
    val *= quantum_determinant_identity(params.xi, eta, x1) * eta**2 / (x1 - x2 + eta) ** 2
    for i, d in enumerate(h_rest):
        xa = params.xi[2 + i]
        up = xa - (eta if d == 2 else 0)
        lo = xa - (0 if d == 0 else eta)
        val *= ((x1 - eta - up) * (x2 - lo)) / ((x2 - eta - up) * (x1 - lo))
    return complex(val)


# ---------------------------------------------------------------------------
# dual families and the inverse measure


@dataclass(frozen=True)
class DualBasisData:
    """Families bi-orthogonal to the SoV pair and the inverse coupling matrix,
    read-only.

    Rows of ``p_covectors`` pair to delta against right columns, columns of
    ``p_vectors`` against left rows, both normalized by the diagonal coupling.
    ``measure`` is the inverse of the coupling matrix.  All solves and residuals
    are carried out in the row/column-equilibrated frame: the basis members
    carry arbitrary overall scales spanning many orders of magnitude, and raw
    products of the inverse against the coupling matrix are dominated by
    cancellation noise proportional to that spread rather than by the actual
    quality of the inverse.
    """

    p_covectors: np.ndarray
    p_vectors: np.ndarray
    measure: np.ndarray
    ortho_residual: float
    inverse_residual: float


def dual_bases(pair, report):
    """p-families D R^{-1} and L^{-1} D plus the inverse measure."""
    dim = pair.dim
    eye = np.eye(dim)
    row_norms, col_norms = pair.row_norms, pair.col_norms
    left_u = pair.left / row_norms[:, None]
    right_u = pair.right / col_norms[None, :]
    try:
        cos_inv = np.linalg.solve(report.cosine, eye.astype(complex))
        # p_cov = D R^{-1} = diag(N/dc) Ru^{-1};  p_vec = L^{-1} D = Lu^{-1} diag(N/dr)
        p_cov = np.linalg.solve(right_u.T, np.diag(report.diag / col_norms).T).T
        p_vec = np.linalg.solve(left_u, np.diag(report.diag / row_norms))
    except np.linalg.LinAlgError as exc:
        raise SingularGram(str(exc)) from exc
    measure = (cos_inv / row_norms[None, :]) / col_norms[:, None]
    inverse = rel_residual(cos_inv @ report.cosine - eye, eye)
    if not np.isfinite(inverse) or inverse > 1e-4:
        raise SingularGram(f"inverse residual {inverse:.2e}; coupling matrix near singular")
    ortho = max(
        rel_residual(p_cov @ right_u - np.diag(report.diag / col_norms), report.diag / col_norms),
        rel_residual(left_u @ p_vec - np.diag(report.diag / row_norms), report.diag / row_norms),
    )
    for arr in (p_cov, p_vec, measure):
        arr.setflags(write=False)
    return DualBasisData(p_cov, p_vec, measure, ortho, inverse)


def expansion_coefficients(report, dual):
    """Coordinates of every dual vector in the right SoV family: column h
    holds those of the dual vector labeled h."""
    return dual.measure * report.diag


def b_recursion(report):
    """Dual-expansion coefficients of every label: column h of the dim x dim
    matrix B holds 1 at h and B_(alpha,beta) at each r-pair move s of h, whose
    dual coordinate is (det K)^r B_(alpha,beta).

    The paper's bottom-up recursion B[s, h] = -sum_t Cbar[s, t] B[t, h], with
    Cbar = <s|t> / (<s|s> (det K)^r) on the pair-move cells, for every h at
    once: a move turns digit-1 entries into 0 and 2, so starting from B = I
    the rows are solved one digit-1 count at a time, from N - 1 down to 0.
    Raises :class:`DetKZero` when :func:`gram` found det K numerically zero.
    """
    sites = report.params.sites
    support = pair_support(sites)
    if support.offdiag.any() and not report.coefficients:
        raise DetKZero("det K is numerically zero; the dual expansion is undefined by this route")
    g = report.gram
    scale = np.diagonal(g)[:, None] * report.params.twist.det ** support.pair_count
    cbar = np.where(support.offdiag, g / scale, 0)
    ones = (label_digits(sites) == 1).sum(axis=1)
    b = np.eye(len(g), dtype=complex)
    for level in range(sites - 1, -1, -1):
        rows, higher = ones == level, ones > level
        b[rows] -= cbar[np.ix_(rows, higher)] @ b[higher]
    return b


# ---------------------------------------------------------------------------
# recursion checks for the coupling coefficients


def appc_recursion_check(cache, r, pair, t2_xi2, h_rest=()):
    """Numerical check of the coupling-coefficient recursion at pair depth r.

    r = 0 verifies the seed identity
    ``<h^(1,1)|T2(xi_2)|h^(0,1)> = <h^(1,1)|h^(1,1)> * d(xi_2 - eta)/d(xi_1 - eta)
    * eta/(xi_1 - xi_2 + eta) * prod_{a>=3} (xi_2 - xi_a^{(s_a)}) / (xi_1 - xi_a^{(s_a)})``
    with s_a = 1 - delta_{h_a,0}.  r = 1 verifies the two-pair reduction with
    sites (1,2) outer and (3,4) carrying the extra pair, on the chain's
    dressed ``pair``.  Both read ``t2_xi2`` = T_2(xi_2), which the cache does
    not store, so a caller that runs both reads it once.  Returns relative
    residuals keyed by the configuration.
    """
    params = cache.params
    if r not in (0, 1):
        raise ValueError("recursion check supports r in {0, 1}")
    needed = 2 + 2 * r
    if params.sites < needed or len(h_rest) != params.sites - needed:
        raise ValueError(f"need {needed}+len(h_rest) sites")
    eta = params.eta
    xi = params.xi
    w = InterpolationWeights(params)
    out = {}
    if r == 0:
        hk = flat_index((1, 1) + tuple(h_rest))
        hb = flat_index((0, 1) + tuple(h_rest))
        lhs = pair.left[hk] @ t2_xi2 @ pair.right[:, hb]
        diag = pair.left[hk] @ pair.right[:, hk]
        pred = diag * w.d(xi[1] - eta) / w.d(xi[0] - eta) * eta / (xi[0] - xi[1] + eta)
        for i, d in enumerate(h_rest):
            node = xi[2 + i] - (0 if d == 0 else eta)
            pred *= (xi[1] - node) / (xi[0] - node)
        out["seed"] = rel_residual(lhs - pred, lhs)
        return out

    # r = 1: sites (0,1) outer, (2,3) the pair, 0-based
    rest = tuple(h_rest)
    cov = flat_index((1, 1, 0, 2) + rest)
    vec = flat_index((0, 1, 1, 1) + rest)
    t2_inner = cache.t2(xi[3])
    lhs = pair.left[cov] @ t2_xi2 @ pair.right[:, vec]

    def r_coef(src):
        # src is the 0-based index of the odd-slot node the expansion lands on
        val = w.d(xi[1] - eta) / w.d(xi[src] - eta)
        for n in (1, 3):
            val *= (xi[1] - (xi[n] - eta)) / (xi[src] - (xi[n] - eta))
        for n in (0, 2):
            if n == src:
                continue
            val *= (xi[1] - xi[n]) / (xi[src] - xi[n])
        for j, d in enumerate(rest):
            node = xi[4 + j] - (0 if d == 0 else eta)
            val *= (xi[1] - node) / (xi[src] - node)
        return val

    def s_coef():
        val = 1.0 + 0j
        for i in (0, 1):
            val *= (xi[2] - eta - xi[i]) / (xi[3] - eta - xi[i])
        val *= -eta / (xi[3] - eta - xi[2])
        for j, d in enumerate(rest):
            node = xi[4 + j] - (eta if d == 2 else 0)
            val *= (xi[2] - eta - node) / (xi[3] - eta - node)
        return val

    cova = flat_index((1, 1, 1, 1) + rest)
    veca = flat_index((1, 1, 0, 1) + rest)
    c3 = params.twist.det * quantum_determinant_identity(xi, eta, xi[2])
    m1 = pair.left[cova] @ t2_inner @ pair.right[:, veca]
    m2 = pair.left[cova] @ t2_inner @ pair.right[:, vec]
    rhs = c3 * s_coef() * (r_coef(0) * m1 + r_coef(2) * m2)
    out["two_pair"] = rel_residual(lhs - rhs, lhs)
    return out


# ---------------------------------------------------------------------------
# exports


def export_matrix_csv(matrix, path):
    """CSV with flat label row/column headers 0..dim-1; complex cells as "re,im"."""
    matrix = np.asarray(matrix, dtype=complex)
    headers = [str(i) for i in range(len(matrix))]
    # the bytes of csv.writer's default dialect: every cell holds a comma, so
    # it is quoted, and rows end in \r\n; no label or float repr holds a quote
    with open(path, "w", newline="") as fh:
        fh.write(",".join(["h\\k"] + headers) + "\r\n")
        for head, re_row, im_row in zip(headers, matrix.real.tolist(), matrix.imag.tolist()):
            cells = [f'"{x!r},{y!r}"' for x, y in zip(re_row, im_row)]
            fh.write(",".join([head] + cells) + "\r\n")


def report_summary(report):
    """JSON-friendly digest of a coupling-matrix report."""
    return {
        "scale": report.scale,
        "max_diag_rel_err": report.max_diag_rel_err,
        "max_zero_cosine": report.max_zero_cosine,
        "violations": report.violations,
        "n_offdiag": len(report.coefficients),
        "coefficients": {
            f"{hf}|{kf}": [c.real, c.imag] for (hf, kf), c in sorted(report.coefficients.items())
        },
    }

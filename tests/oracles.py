"""Reference implementations the tests compare the library against.

None of these has a caller in the library: each is either a per-label or
per-case form of an array computation the library does once, or a check that
only the tests run.
"""

import csv
import math

import numpy as np

from sovlab.det0_spectrum import ZERO_THETA, separated_coordinates
from sovlab.errors import SovLabError
from sovlab import gl3_model
from sovlab.gl3_model import InterpolationWeights, TransferCache, embed, r_matrix
from sovlab.numkernel import rayleigh_quotients, rel_residual, vandermonde
from sovlab.sov_bases import dressed_pair, flat_index, label_digits
from sovlab.sov_measure import b_recursion, classify_pair, gram, pair_support


class DegenerateFamily(SovLabError):
    """A one-parameter twist family of :func:`c_scaling_scan` hit an
    eigenvalue collision."""


def all_labels(sites):
    """Every gl(3) label of ``sites`` sites, as digit tuples in flat order."""
    return [tuple(row.tolist()) for row in label_digits(sites)]


def with_digit(h, a, value):
    """Label ``h`` with its digit at site ``a`` (0-based) set to ``value``."""
    return h[:a] + (value,) + h[a + 1:]


def digit_ones(h):
    """Positions of label ``h`` carrying digit 1, the set the pair moves act on."""
    return tuple(a for a, d in enumerate(h) if d == 1)


def label_action_oracle(cache, h, which, side, pair, lambdas):
    """``det0_spectrum.interpolated_action_check`` with the four label actions
    written out as separate builders, one per (side, order), summing the same
    terms in the same order."""
    params = cache.params
    w = InterpolationWeights(params)
    worst = 0.0

    def zshift(idx):
        return tuple(1 if d in (1, 2) else 0 for d in idx)

    def yshift(idx):
        return tuple(1 if d == 2 else 0 for d in idx)

    def left_t2_terms(idx, lam):
        z = zshift(idx)
        terms = [(w.asymptotic(2, z, lam), idx)]
        for a, d in enumerate(idx):
            if d == 1:
                terms.append((w.g(a, z, lam, 2), with_digit(idx, a, 0)))
        return [(w.d(lam - params.eta) * c, i) for c, i in terms]

    def left_t1_terms(idx, lam):
        y = yshift(idx)
        terms = [(w.asymptotic(1, y, lam), idx)]
        for a, d in enumerate(idx):
            if d == 1:
                terms.append((w.g(a, y, lam, 1), with_digit(idx, a, 2)))
            elif d == 2:
                lowered = with_digit(idx, a, 1)
                coef = w.g(a, y, lam, 1)
                terms.extend(
                    (coef * c, i) for c, i in left_t2_terms(lowered, params.xi[a])
                )
        return terms

    def right_t2_terms(idx, lam):
        z = zshift(idx)
        terms = [(w.asymptotic(2, z, lam), idx)]
        for a, d in enumerate(idx):
            if d == 0:
                terms.append((w.g(a, z, lam, 2), with_digit(idx, a, 1)))
        return [(w.d(lam - params.eta) * c, i) for c, i in terms]

    def right_t1_terms(idx, lam):
        y = yshift(idx)
        terms = [(w.asymptotic(1, y, lam), idx)]
        for a, d in enumerate(idx):
            if d == 0:
                terms.append((w.g(a, y, lam, 1), with_digit(idx, a, 2)))
            elif d == 2:
                terms.append((w.g(a, y, lam, 1), with_digit(idx, a, 1)))
            else:
                raised = with_digit(idx, a, 2)
                coef = w.g(a, y, lam, 1)
                terms.extend(
                    (coef * c, i) for c, i in right_t2_terms(raised, params.xi[a])
                )
        return terms

    builders = {
        ("left", 2): left_t2_terms,
        ("left", 1): left_t1_terms,
        ("right", 2): right_t2_terms,
        ("right", 1): right_t1_terms,
    }
    build = builders[(side, which)]
    for lam in lambdas:
        if side == "left":
            dense = pair.left[flat_index(h)] @ cache.value(which, lam)
            approx = np.zeros(params.dim, dtype=complex)
            for coef, idx in build(h, lam):
                approx += coef * pair.left[flat_index(idx)]
        else:
            dense = cache.value(which, lam) @ pair.right[:, flat_index(h)]
            approx = np.zeros(params.dim, dtype=complex)
            for coef, idx in build(h, lam):
                approx += coef * pair.right[:, flat_index(idx)]
        worst = max(worst, rel_residual(dense - approx, dense))
    return worst


def t1_leading_coefficient(cache):
    """Degree-N leading coefficient of T_1 recovered by finite differencing
    through N+1 evaluation points (divided differences)."""
    params = cache.params
    n = params.sites
    pts = [params.xi[0] + (2 + k) * params.eta * (1 + 0.25j) for k in range(n + 1)]
    table = [cache.t1(p) for p in pts]
    for level in range(1, n + 1):
        table = [
            (table[i + 1] - table[i]) / (pts[i + level] - pts[i])
            for i in range(len(table) - 1)
        ]
    return table[0]


def node_normalization(params, a, shifts, order):
    """The product that ``InterpolationWeights.g(a, ., node_a, order)`` must
    invert at its own node."""
    node = params.xi_shifted(a, shifts[a])
    out = 1.0 + 0j
    if order == 2:
        for b in range(params.sites):
            out *= node - (params.xi[b] + params.eta)
    return complex(out)


def reconstruct(dec):
    """sum_i lam_i |v_i><u_i| of an ``EigenDecomposition`` as a dense matrix."""
    return (dec.right * dec.values) @ dec.left


def coupling_prediction(params, h):
    """1 / (V(xi) V(xi - h*eta)) - the orthogonal gl(2) coupling of one label,
    the per-label form of ``gl2_model.coupling_values``."""
    shifted = [params.xi[a] - h[a] * params.eta for a in range(params.sites)]
    return 1.0 / (vandermonde(params.xi) * vandermonde(shifted))


def c_scaling_scan(params, c_values, xyz):
    """Scan twists with fixed (tr K, second invariant) and varying det K = c.

    For each c the twist eigenvalues are the roots of
    t^3 - a t^2 + b t - c with (a, b) taken from ``params.twist`` and the
    change of basis W kept fixed.  Returns per-cell least-squares slopes of
    log|coupling| against log|c| plus the extracted coefficients, which must
    be constant along the family.
    """
    if len(c_values) < 3:
        raise ValueError("need at least 3 det-K values")
    a_inv = params.twist.trace_inv
    b_inv = params.twist.second_inv
    reports = []
    for c in c_values:
        roots = np.roots([1.0, -a_inv, b_inv, -complex(c)])
        gaps = [abs(roots[i] - roots[j]) for i in range(3) for j in range(i + 1, 3)]
        if min(gaps) <= 1e-6 * max(np.abs(roots).max(), 1e-300):
            raise DegenerateFamily(f"cubic root collision at c={c}")
        order = np.lexsort((roots.imag, roots.real))
        twist = params.twist.from_eigenvalues(roots[order], w=params.twist.w)
        p = params.with_twist(twist)
        pair = dressed_pair(TransferCache(p), xyz)
        reports.append((complex(c), gram(pair, p)))

    support = pair_support(params.sites)
    logc = np.log(np.abs([c for c, _ in reports]))
    slopes = {}
    coeff_spread = {}
    for k, h in zip(*np.nonzero(support.offdiag.T)):
        cell = (int(h), int(k))
        logm = np.log([abs(rep.gram[cell]) for _, rep in reports])
        slope = np.polyfit(logc, logm, 1)[0]
        coeffs = [rep.coefficients[cell] for _, rep in reports]
        spread = rel_residual(np.subtract(coeffs, coeffs[0]), coeffs[0])
        slopes[cell] = (float(slope.real), int(support.pair_count[cell]))
        coeff_spread[cell] = float(spread)
    diag_mags = np.abs([np.diagonal(rep.gram) for _, rep in reports]).T
    diag_slopes = [float(np.polyfit(logc, np.log(m), 1)[0].real) for m in diag_mags]
    return {
        "slopes": slopes,
        "coefficient_spread": coeff_spread,
        "diag_slopes": diag_slopes,
        "reports": reports,
    }


# ---------------------------------------------------------------------------
# Per-label reads of what the library forms as label arrays.


def pair_substitution(h, alpha, beta):
    """Label ``h`` with its digits at alpha set to 0 and at beta to 2 (the
    pair move, used on positions with digit 1)."""
    digits = list(h)
    for a in alpha:
        digits[a] = 0
    for b in beta:
        digits[b] = 2
    return tuple(digits)


def gram_entry(report, h, k):
    """Coupling <h|k> of a :class:`sov_measure.GramReport`."""
    return report.gram[flat_index(h), flat_index(k)]


def label_b_recursion(report, h):
    """Expansion coefficients of the dual vector of ``h`` over its pair moves:
    column h of ``sov_measure.b_recursion`` as ``{(alpha, beta): B}``."""
    col = b_recursion(report)[:, flat_index(h)]
    digits = label_digits(report.params.sites)
    out = {}
    for s in np.flatnonzero(pair_support(report.params.sites).offdiag[:, flat_index(h)]):
        move = classify_pair(tuple(digits[s].tolist()), h)
        out[(move.alpha, move.beta)] = complex(col[s])
    return out


def eigensolve_oracle(pair, dec, t1_xi, t2_shift):
    """``det0_spectrum.eigensolve_sov``'s vectors and factorization residuals
    formed one state at a time, each with its own GEMVs: ``[(right, left,
    residual)]`` of the states of ``dec``, whose node eigenvalues are the
    rows of ``t1_xi`` and ``t2_shift`` (those of the table)."""
    sites = len(t1_xi[0])
    one_flat, zero_flat = flat_index((1,) * sites), flat_index((0,) * sites)
    out = []
    for i in range(len(dec.values)):
        v, u = dec.right[:, i], dec.left[i]
        v = v / (pair.left[one_flat] @ v)
        u = u / (u @ pair.right[:, zero_flat])
        pred = separated_coordinates(t1_xi[i], t2_shift[i])
        scale = np.multiply.outer(pair.row_norms, np.linalg.norm(v))
        out.append((v, u, rel_residual(pair.left @ v - pred, scale, axis=())))
    return out


def split_oracle(t1_xi, t1_shift):
    """One state's A/B split by the per-state rule, ``(a_sites, b_sites)``,
    or the ``AmbiguousPattern`` reason of a magnitude in the decision band."""
    mags = np.abs(t1_xi)
    scale = max(mags.max(), np.abs(t1_shift).max(), 1e-300)
    band = (mags >= 0.1 * ZERO_THETA * scale) & (mags <= 10 * ZERO_THETA * scale)
    if band.any():
        return f"|t_1(xi)| in the ambiguity band at sites {np.where(band)[0].tolist()}"
    is_a = mags >= ZERO_THETA * scale
    return tuple(np.flatnonzero(is_a).tolist()), tuple(np.flatnonzero(~is_a).tolist())


def pattern_figures_oracle(cache, states):
    """``det0_spectrum.zero_pattern``'s figures over the table ``states``,
    whose splits are decided, with the pointwise checks formed state by state
    and site by site on scalars read from its rows, and the closed form as
    one batched Rayleigh quotient per point."""
    params = cache.params
    zero = fusion = 0.0
    floor = np.inf
    roots = []
    for t1_xi, t1_shift, t2_xi, t2_shift in zip(states.t1_xi, states.t1_shift, states.t2_xi,
                                                states.t2_shift):
        mags = np.abs(t1_xi)
        scale = max(mags.max(), np.abs(t1_shift).max(), 1e-300)
        a_sites = [a for a in range(params.sites) if mags[a] >= ZERO_THETA * scale]
        b_sites = [b for b in range(params.sites) if mags[b] < ZERO_THETA * scale]
        t2s_scale = max(np.abs(t2_shift).max(), 1e-300)
        zero_scale = max(t2s_scale, np.abs(t2_xi).max())
        zero = max(zero, max((abs(t2_shift[a]) for a in a_sites), default=0.0) / zero_scale)
        floor = min(floor, min((abs(t2_shift[b]) for b in b_sites), default=np.inf) / t2s_scale)
        for a in range(params.sites):
            lhs = t1_xi[a] * t1_shift[a]
            fusion = max(fusion, abs(lhs - t2_xi[a]) / max(abs(t2_xi[a]), t2s_scale))
        roots.append([params.xi[a] - params.eta if a in a_sites else params.xi[a]
                      for a in range(params.sites)])
    w = InterpolationWeights(params)
    closed = np.zeros(len(states))
    for k in range(4):
        lam = params.xi[0] + (3 + k) * params.eta * (1 + 0.2j)
        pred = params.twist.second_inv * w.d(lam - params.eta) * np.prod(lam - np.array(roots),
                                                                          axis=1)
        actual = rayleigh_quotients(states.left, cache.t2(lam), states.right)
        closed = np.maximum(closed, np.abs(actual - pred) / np.maximum(np.abs(actual), 1e-300))
    return {"pattern_zero_residual": float(zero), "pattern_fusion_residual": float(fusion),
            "pattern_t2_closed_form_residual": float(closed.max()),
            "pattern_nonzero_floor": float(floor)}


# ---------------------------------------------------------------------------
# Report residuals as the library wrote them out before each became one
# ``numkernel.rel_residual`` call; the tests assert that both agree bit for bit.


def entry_ratio(diff, ref):
    """Worst per-entry ratio |diff_i| / |ref_i|."""
    return float(np.max(np.abs(diff) / np.abs(ref)))


def masked_cosine(cosine, cells):
    """Largest |cosine| over ``cells`` relative to the largest |cosine|."""
    mags = np.abs(cosine)
    return float(np.max(mags[cells], initial=0.0) / max(mags.max(), 1e-300))


def masked_column_ratio(diff, ref, cells):
    """Largest |diff| over ``cells``, each relative to its column's max |ref|."""
    scale = np.maximum(np.abs(ref).max(axis=0), 1e-300)
    return float(np.max((np.abs(diff) / scale)[cells], initial=0.0))


def identity_error(x, eye):
    """max |x - eye|: the absolute error against the identity."""
    return float(np.abs(x - eye).max())


def two_sided(lhs, rhs):
    """max |lhs - rhs| relative to the larger side's largest magnitude."""
    scale = max(np.abs(lhs).max(), np.abs(rhs).max(), 1e-300)
    return float(np.abs(lhs - rhs).max() / scale)


def per_cell_matrix_csv(matrix, path):
    """``sov_measure.export_matrix_csv`` as it formatted each cell from its
    numpy scalar; the library's row-list writer must give the same bytes."""
    matrix = np.asarray(matrix)
    headers = [str(i) for i in range(len(matrix))]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["h\\k"] + headers)
        for i, row in enumerate(matrix):
            writer.writerow(
                [headers[i]] + [f"{float(z.real)!r},{float(z.imag)!r}" for z in row]
            )


def config_digest(cfg):
    """The report's ``config`` block written out field by field: the complex
    fields as [re, im] pairs, a gl3 twist as its Jordan data."""
    from sovlab.cli import _encode

    digest = dict(cfg)
    for key in ("eta", "xi", "reference"):
        digest[key] = _encode(cfg[key]) if cfg[key] is not None else None
    tw = cfg["twist"]
    if tw is None or isinstance(tw, list):
        digest["twist"] = None if tw is None else _encode(tw)
    else:
        digest["twist"] = {"case": tw.case, "k_matrix": _encode(tw.k_matrix),
                           "w": _encode(tw.w), "k_jordan": _encode(tw.k_jordan)}
    return digest


def site_tables_oracle(d, m, eta):
    """``gl3_model._site_tables`` as first written: the coefficients of the
    fused product grown one factor at a time from the identity, multiplying
    every coefficient, the identity and a zero pad included, by the factor's
    constant term."""
    extend = gl3_model._wedge_columns(d, m)
    restrict = math.factorial(m) * extend.T
    eye = np.eye(d ** (m + 1), dtype=complex)
    zero = np.zeros_like(eye)
    poly = [eye]
    for k in range(m):
        const = embed(r_matrix(-k * eta, eta, d), m + 1, (k, m), d)
        poly = [c @ const + z_c for c, z_c in zip(poly + [zero], [zero] + poly)]
    site_restrict = np.kron(restrict, np.eye(d))
    site_extend = np.kron(extend, np.eye(d))
    bond = extend.shape[1]
    coeffs = np.array([site_restrict @ c @ site_extend for c in poly])
    coeffs = coeffs.reshape(m + 1, bond, d, bond, d)  # [p, u, i, w, j]
    chain = coeffs.transpose(0, 1, 2, 4, 3).reshape(m + 1, -1)
    close = coeffs.transpose(0, 2, 4, 1, 3).reshape(m + 1, -1)
    return chain, close


def running_tensor_dense(k_matrix, eta, xi, m, lam):
    """``gl3_model.fused_dense`` in its earlier association: one running
    tensor S_(N-1) ... S_1 grown from S_1, the boundary on its auxiliary leg
    by a GEMM over every entry, and one GEMM with S_N that closes the trace."""
    d = k_matrix.shape[0]
    n = len(xi)
    bond = gl3_model._wedge_columns(d, m).shape[1]
    sites, s_n = gl3_model._sites(d, m, eta, xi, lam)
    x = np.eye(bond, dtype=complex) if n == 1 else sites[0]
    for site in sites[1:]:
        x = site.reshape(-1, bond) @ x.reshape(bond, -1)
    x = (x.reshape(-1, bond) @ gl3_model._boundary(k_matrix, m)).reshape(bond, -1, bond)
    out = np.dot(s_n.reshape(d * d, -1), x.transpose(2, 0, 1).reshape(bond * bond, -1))
    order = list(range(0, 2 * n, 2)) + list(range(1, 2 * n, 2))
    return out.reshape((d,) * (2 * n)).transpose(order).reshape(d**n, d**n)


def mpo_extended(k_matrix, eta, xi, m, lam):
    """The MPO of ``fused_dense`` contracted in ``np.clongdouble``: the same
    site operators (``gl3_model._sites``) and boundary entries, with every
    product in extended precision."""
    d = k_matrix.shape[0]
    bond = gl3_model._wedge_columns(d, m).shape[1]
    sites, s_n = gl3_model._sites(d, m, eta, xi, lam)
    sites = sites.reshape(-1, bond, d, d, bond).astype(np.clongdouble)  # [a, u, i, j, w]
    x = gl3_model._boundary(k_matrix, m).astype(np.clongdouble)[:, None, None, :]
    for site in sites:  # x = S_a ... S_1 B as [u, rows, cols, t]
        x = np.einsum("uijw,wrct->uirjct", site, x)
        x = x.reshape(bond, d * x.shape[2], d * x.shape[4], bond)
    s_n = s_n.reshape(d, d, bond, bond).astype(np.clongdouble)  # [i, j, u, w]
    out = np.einsum("ijuw,wrcu->irjc", s_n, x)
    return out.reshape(d * x.shape[1], d * x.shape[2])


def row_by_row_family(ref, steps, side):
    """``sov_bases.basis_tree`` as a loop over labels: every member takes its
    own GEMVs site by site (``steps[a][h_a]``), with no product shared
    between labels; rows (left) or one C-contiguous matrix of columns
    (right) in flat order."""
    members = []
    for h in label_digits(len(steps), len(steps[0])):
        member = np.asarray(ref, dtype=complex)
        for a, d in enumerate(h):
            for m in steps[a][d]:
                member = member @ m if side == "left" else m @ member
        members.append(member)
    out = np.array(members)
    return out if side == "left" else np.ascontiguousarray(out.T)


def family_extended(ref, steps, side):
    """The members of ``sov_bases.basis_tree`` with every product in
    ``np.clongdouble``: level by level, each digit's matrices applied to the
    whole level, rows (left) or columns (right) in flat order."""
    level = np.asarray(ref).astype(np.clongdouble)[None, :]
    for site in steps:
        blocks = []
        for mats in site:
            block = level
            for m in mats:
                m = m.astype(np.clongdouble)
                block = block @ (m if side == "left" else m.T)
            blocks.append(block)
        level = np.concatenate(blocks)
    return level if side == "left" else level.T

"""Seeded parameter sampling on small rational grids.

All random model data flows through :class:`ParameterSampler` so that a run is
reproducible from a single integer seed.  Values are drawn as complex numbers
(p + i q)/den with small integer p, q, then rejected if they violate (or come
within a fixed margin of violating) the genericity conditions.  The rational grid
keeps condition numbers tame and makes reports bit-reproducible.
"""

import numpy as np
from numpy.random import default_rng  # at import: numpy 2 loads np.random lazily

from .gl3_model import xi_separation

_DEN = 8
_LO, _HI = -12, 12
MARGIN = 1e-3


class ParameterSampler:
    def __init__(self, seed):
        self.seed = int(seed)
        self._rng = default_rng(self.seed)

    def complex_rational(self, min_abs=0.0):
        while True:
            p = self._rng.integers(_LO, _HI + 1)
            q = self._rng.integers(_LO, _HI + 1)
            z = complex(p, q) / _DEN
            if abs(z) >= min_abs:
                return z

    def shift(self):
        """Shift parameter eta, bounded away from zero."""
        return self.complex_rational(min_abs=0.3)

    def inhomogeneities(self, sites, eta):
        """Pairwise-generic inhomogeneities: xi_i - xi_j stays at distance
        >= MARGIN from {0, +eta, -eta}."""
        for _ in range(500):
            xs = [self.complex_rational() for _ in range(sites)]
            if xi_separation(xs, eta) >= MARGIN:
                return tuple(xs)
        raise RuntimeError("could not sample generic inhomogeneities")

    def reference3(self):
        """(x, y, z) with every component bounded away from zero."""
        return tuple(self.complex_rational(min_abs=0.25) for _ in range(3))

    def spectral_point(self, xi, eta):
        """A spectral parameter at distance >= 0.05 from every shifted
        inhomogeneity node.

        Grid rationals can hit xi_a + k*eta exactly, where interpolation
        weights and eigenvalue profiles have poles or zeros.
        """
        nodes = [x + k * eta for x in xi for k in (-1, 0, 1, 2)]
        for _ in range(500):
            lam = self.complex_rational()
            if min(abs(lam - n) for n in nodes) >= 5e-2:
                return lam
        raise RuntimeError("could not sample a generic spectral point")

    def reference2(self):
        return tuple(self.complex_rational(min_abs=0.25) for _ in range(2))

    def distinct_eigenvalues(self):
        """Three eigenvalues with |lambda| >= 0.3 and pairwise gaps >= 0.2."""
        for _ in range(500):
            vals = [self.complex_rational(min_abs=0.3) for _ in range(3)]
            gaps = [abs(vals[i] - vals[j]) for i in range(3) for j in range(i + 1, 3)]
            if min(gaps) >= 0.2:
                return vals
        raise RuntimeError("could not sample distinct eigenvalues")

    def invertible3(self):
        """A generic well-conditioned 3x3 change-of-basis matrix."""
        for _ in range(200):
            w = np.array([[self.complex_rational() for _ in range(3)] for _ in range(3)])
            w += np.eye(3)
            s = np.linalg.svd(w, compute_uv=False)
            if s[-1] > 0.2 * s[0]:
                return w
        raise RuntimeError("could not sample an invertible change of basis")

    def gl2_twist(self):
        """Generic 2x2 twist, not a multiple of the identity."""
        for _ in range(200):
            k = np.array([[self.complex_rational() for _ in range(2)] for _ in range(2)])
            off = max(abs(k[0, 1]), abs(k[1, 0]), abs(k[0, 0] - k[1, 1]))
            if off >= 0.2 and abs(np.linalg.det(k)) >= 0.05:
                return k
        raise RuntimeError("could not sample a gl2 twist")


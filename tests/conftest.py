import numpy as np
import pytest

from sovlab.det0_spectrum import eigensolve_sov, probe_decomposition
from sovlab.gl3_model import ModelParams, TransferCache, TwistData
from sovlab.sampling import ParameterSampler
from sovlab.sov_bases import dressed_pair


def make_params(seed, sites, invertible=True, wild_w=False):
    """Reproducible chain data; invertible case-i twist by default."""
    s = ParameterSampler(seed)
    eta = s.shift()
    w = s.invertible3() if wild_w else None
    eigs = s.distinct_eigenvalues()
    if not invertible:
        eigs[int(np.argmin(np.abs(eigs)))] = 0.0
    twist = TwistData.from_eigenvalues(eigs, w=w)
    xi = s.inhomogeneities(sites, eta)
    return ModelParams(sites, eta, xi, twist), s.reference3(), s


def make_gl2(seed, sites):
    """A sampled gl(2) chain as ``(cache, ref)``."""
    s = ParameterSampler(seed)
    eta = s.shift()
    xi = s.inhomogeneities(sites, eta)
    return TransferCache(ModelParams(sites, eta, xi, s.gl2_twist())), s.reference2()


def eigenstates(cache, xyz):
    """The chain's probe-point eigenstates, read on its dressed pair."""
    return eigensolve_sov(cache, dressed_pair(cache, xyz), probe_decomposition(cache))


@pytest.fixture(scope="session")
def chain2():
    """Invertible-twist chain at two sites with its cache and dressed pair."""
    params, xyz, _ = make_params(7, 2)
    cache = TransferCache(params)
    pair = dressed_pair(cache, xyz)
    return params, xyz, cache, pair


@pytest.fixture(scope="session")
def chain3():
    params, xyz, _ = make_params(11, 3)
    cache = TransferCache(params)
    pair = dressed_pair(cache, xyz)
    return params, xyz, cache, pair


@pytest.fixture(scope="session")
def det0_chain2():
    params, xyz, _ = make_params(21, 2, invertible=False)
    cache = TransferCache(params)
    pair = dressed_pair(cache, xyz)
    return params, xyz, cache, pair


@pytest.fixture(scope="session")
def det0_chain3():
    params, xyz, _ = make_params(23, 3, invertible=False)
    cache = TransferCache(params)
    pair = dressed_pair(cache, xyz)
    return params, xyz, cache, pair

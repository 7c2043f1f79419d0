import numpy as np
import pytest

import emergolab as eg


@pytest.fixture(scope="session")
def ou():
    return eg.ornstein_uhlenbeck(kappa=1.0, sigma=1.0)


@pytest.fixture(scope="session")
def bp():
    return eg.bounded_perturbation(kappa=1.0, a=0.5, sigma=1.0)


@pytest.fixture(scope="session")
def grid12():
    return eg.Grid(-12.0, 12.0, 4097)


@pytest.fixture(scope="session")
def smallset_ou(ou):
    # OU, eta = 0.5, C = [-1, 1]
    return eg.minorization_epsilon(ou, 0.5, -1.0, 1.0)


@pytest.fixture
def solves(monkeypatch):
    """Empties the invariant-solve cache and records every GMRES solve run
    from then on (its positional arguments, one tuple per solve)."""
    import emergolab.kernel as ke
    ke._solved.cache_clear()
    calls = []
    real = ke._gmres

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(ke, "_gmres", counting)
    return calls


@pytest.fixture
def operators(monkeypatch):
    """Empties the operator cache and records every request for a cached
    kernel operator from then on, as (key, blocks) in request order.  The
    recorder keeps the cache's cache_info."""
    import emergolab.kernel as ke
    real = ke._kernel_matrix
    real.cache_clear()
    requests = []

    def recording(*key):
        blocks = real(*key)
        requests.append((key, blocks))
        return blocks

    recording.cache_info = real.cache_info
    monkeypatch.setattr(ke, "_kernel_matrix", recording)
    return requests


def gaussian_tv(m1, v1, m2, v2, half_width=20.0, n=200001):
    """Independent numeric integration of the TV distance of two normals."""
    x = np.linspace(-half_width, half_width, n)
    p = np.exp(-((x - m1) ** 2) / (2 * v1)) / np.sqrt(2 * np.pi * v1)
    q = np.exp(-((x - m2) ** 2) / (2 * v2)) / np.sqrt(2 * np.pi * v2)
    return 0.5 * float(np.trapezoid(np.abs(p - q), x))

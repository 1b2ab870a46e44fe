import numpy as np
import pytest

from subriemann import expr as ex
from subriemann import catalog as cat
from subriemann.surfaces import GraphSurface


@pytest.fixture(scope="session")
def rt():
    return cat.rt_structure()


@pytest.fixture(scope="session")
def heis():
    return cat.heisenberg_structure()


@pytest.fixture(scope="session")
def helicoid():
    return cat.find_entry("sigma_c").make()


@pytest.fixture(scope="session")
def plane_y0():
    return cat.find_entry("plane_y0").make()


@pytest.fixture(scope="session")
def sigma_a():
    return cat.find_entry("sigma_a").make()


@pytest.fixture(scope="session")
def sigma_b():
    return cat.find_entry("sigma_b").make()


@pytest.fixture(scope="session")
def x_plus_sin():
    return cat.find_entry("x_plus_sin").make()


def random_cubic(rng):
    """Random cubic polynomial in (x, y) with O(1) coefficients."""
    terms = [ex.ONE, ex.X, ex.Y, ex.mul(ex.X, ex.X), ex.mul(ex.X, ex.Y),
             ex.mul(ex.Y, ex.Y), ex.mul(ex.mul(ex.X, ex.X), ex.X),
             ex.mul(ex.mul(ex.X, ex.X), ex.Y), ex.mul(ex.mul(ex.X, ex.Y), ex.Y),
             ex.mul(ex.mul(ex.Y, ex.Y), ex.Y)]
    out = ex.ZERO
    for t in terms:
        out = ex.add(out, ex.mul(float(rng.uniform(-0.5, 0.5)), t))
    return out


def helicoid_points(rng, n):
    """Non-singular sample points of the right helicoid."""
    pts = []
    while len(pts) < n:
        r = rng.uniform(0.25, 2.5) * rng.choice([-1.0, 1.0])
        al = rng.uniform(-2.5, 2.5)
        pts.append((r * np.cos(al), r * np.sin(al), al))
    return pts


def plane_points(rng, n):
    """Non-singular sample points of the plane y = 0 (avoiding alpha = 0, pi)."""
    pts = []
    while len(pts) < n:
        al = rng.uniform(0.25, np.pi - 0.25)
        if rng.random() < 0.5:
            al += np.pi
        pts.append((rng.uniform(-2, 2), 0.0, al))
    return pts


def mc_area(gs: GraphSurface, n: int = 10_000_000, seed: int = 0) -> float:
    """Stratified Monte-Carlo oracle for the graph area (jittered grid), the
    independent check of ``area_graph``'s quadrature."""
    rng = np.random.default_rng(seed)
    (x0, x1), (y0, y1) = gs.domain
    m = int(np.sqrt(n))
    integrand = ex.compiled_cse([gs.area_integrand_expr()], "arrays")
    total = 0.0
    # stream in row blocks to bound memory
    ys_base = (np.arange(m) + 0.0) / m
    block = max(1, 2_000_000 // m)
    for i0 in range(0, m, block):
        i1 = min(m, i0 + block)
        ix = np.arange(i0, i1)
        jx = rng.random((i1 - i0, m))
        jy = rng.random((i1 - i0, m))
        xs = x0 + (x1 - x0) * (ix[:, None] + jx) / m
        ys = y0 + (y1 - y0) * (ys_base[None, :] + jy / m)
        pts = np.column_stack([xs.ravel(), ys.ravel(), np.zeros(xs.size)])
        total += float(np.sum(integrand(pts)[:, 0].reshape(xs.shape)))
    return total * (x1 - x0) * (y1 - y0) / (m * m)

"""Named structures and surfaces, and the unimodular Lie-group classifier.

Catalog entries carry the properties the engine is expected to reproduce
(curvatures, torsion, singular sets, stationarity and stability verdicts);
the test suite checks every one of them.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import expr as ex
from .structures import (StructureSpec, coordinate_structure,
                         unimodular_structure, nonunimodular_structure)
from .surfaces import ImplicitSurface

EQUALITY_TOL = 1e-12


def classify_unimodular(c2: float, c3: float) -> str:
    """Classify the unimodular group with algebra [X,Y] = -2T, [X,T] = c2 Y,
    [Y,T] = c3 X by the signs of W = -(c3 - c2) and |tau| = |c2 + c3|/2.

    Classes: Heisenberg (W = |tau| = 0), SU(2) (W > 2|tau|),
    E~(2) (W = 2|tau| > 0), E(1,1) (W = -2|tau| < 0), and
    SL~(2,R) otherwise (-2|tau| != W < 2|tau|).
    """
    w = -2.0 * (c3 - c2) / 2.0
    tau = abs(c2 + c3) / 2.0
    if abs(w) <= EQUALITY_TOL and tau <= EQUALITY_TOL:
        return "Heisenberg"
    if abs(w - 2.0 * tau) <= EQUALITY_TOL:
        return "E~(2)" if w > EQUALITY_TOL else "Heisenberg"
    if abs(w + 2.0 * tau) <= EQUALITY_TOL:
        return "E(1,1)" if w < -EQUALITY_TOL else "Heisenberg"
    if w > 2.0 * tau:
        return "SU(2)"
    return "SL~(2,R)"


@dataclass
class CatalogEntry:
    name: str
    kind: str                 # "structure" | "surface"
    build: object             # zero-arg factory
    expected: dict = field(default_factory=dict)
    description: str = ""

    def make(self):
        return self.build()


_RT_CHART = ((-64.0, 64.0), (-64.0, 64.0), (-16.0, 16.0))
_HEIS_CHART = ((-8.0, 8.0), (-8.0, 8.0), (-8.0, 8.0))


def rt_structure() -> StructureSpec:
    """The roto-translation group: chart (x, y, alpha) with frame
    X = d/dalpha, Y = cos(a) d/dx + sin(a) d/dy, T = sin(a) d/dx - cos(a) d/dy."""
    ca, sa = ex.cos(ex.T), ex.sin(ex.T)
    return coordinate_structure([0, 0, 1], [ca, sa, 0], [sa, ex.neg(ca), 0],
                                _RT_CHART, name="rt",
                                meta={"tau_norm_closed_form": 0.5})


def heisenberg_structure() -> StructureSpec:
    """First Heisenberg group with the omega0-consistent frame
    X = d/dx + y d/dt, Y = d/dy - x d/dt, T = d/dt (so c1 = 2)."""
    return coordinate_structure([1, 0, ex.Y], [0, 1, ex.neg(ex.X)], [0, 0, 1],
                                _HEIS_CHART, name="heisenberg",
                                meta={"tau_norm_closed_form": 0.0})


def catalog_structures() -> list[CatalogEntry]:
    return [
        CatalogEntry(
            "heisenberg", "structure", heisenberg_structure,
            expected={"c1": 2.0, "W": 0.0, "tau_norm": 0.0,
                      "class": "Heisenberg"},
            description="first Heisenberg group (Darboux chart frame)"),
        CatalogEntry(
            "rt", "structure", rt_structure,
            expected={"c1": 1.0, "W": 0.5, "tau_norm": 0.5,
                      "tau_matrix": [[0.0, 0.5], [0.5, 0.0]]},
            description="roto-translation group (rigid motions of the plane)"),
        CatalogEntry(
            "heisenberg-lie", "structure", lambda: unimodular_structure(0.0, 0.0),
            expected={"c1": 2.0, "W": 0.0, "tau_norm": 0.0,
                      "class": "Heisenberg"},
            description="unimodular representative with c2 = c3 = 0"),
        CatalogEntry(
            "su2", "structure", lambda: unimodular_structure(1.0, -2.0),
            expected={"c1": 2.0, "W": 3.0, "tau_norm": 0.5, "class": "SU(2)"},
            description="three-sphere group representative (c2, c3) = (1, -2)"),
        CatalogEntry(
            "sl2", "structure", lambda: unimodular_structure(2.0, 1.0),
            expected={"c1": 2.0, "W": 1.0, "tau_norm": 1.5, "class": "SL~(2,R)"},
            description="SL~(2,R) representative (c2, c3) = (2, 1)"),
        CatalogEntry(
            "e2", "structure", lambda: unimodular_structure(2.0, 0.0),
            expected={"c1": 2.0, "W": 2.0, "tau_norm": 1.0, "class": "E~(2)"},
            description="universal cover of plane rigid motions, (2, 0)"),
        CatalogEntry(
            "e11", "structure", lambda: unimodular_structure(-2.0, 0.0),
            expected={"c1": 2.0, "W": -2.0, "tau_norm": 1.0, "class": "E(1,1)"},
            description="rigid motions of Minkowski 2-space, (-2, 0)"),
        CatalogEntry(
            "sasakian", "structure", lambda: nonunimodular_structure(1.0, 0.0),
            expected={"c1": 2.0, "W": -1.0, "tau_norm": 0.0},
            description="non-unimodular Sasakian representative (alpha, gamma) = (1, 0)"),
    ]


def _rt_surface(expr_text: str, name: str) -> ImplicitSurface:
    return ImplicitSurface(ex.parse(expr_text), name=name)


def catalog_rt_surfaces() -> list[CatalogEntry]:
    """Named surfaces of the roto-translation group with their verdicts.

    Stability verdicts follow the engine's own second-variation machinery;
    where that machinery contradicts the source classification the expected
    entry records both (key ``paper_stable``).
    """
    return [
        CatalogEntry(
            "sigma_a", "surface", lambda: _rt_surface("t", "sigma_a"),
            expected={"minimal": True, "stationary": True, "stable": True,
                      "vertical": True, "singular": "empty", "criterion": 0.0},
            description="vertical plane alpha = 0"),
        CatalogEntry(
            "sigma_b", "surface",
            lambda: _rt_surface("cos(t)*x + sin(t)*y", "sigma_b"),
            expected={"minimal": True, "stationary": True, "stable": False,
                      "vertical": True, "singular": "empty",
                      "criterion_sign_off_axis": "positive"},
            description="left-handed helicoid (b = 1)"),
        CatalogEntry(
            "sigma_c", "surface",
            lambda: _rt_surface("x*sin(t) - y*cos(t)", "sigma_c"),
            expected={"minimal": True, "stationary": True, "stable": True,
                      "vertical": False,
                      "singular": "curve", "singular_curve": "x = y = 0",
                      "tauZnu": 0.5},
            description="right-handed helicoid (c = 1)"),
        CatalogEntry(
            "plane_y0", "surface", lambda: _rt_surface("y", "plane_y0"),
            expected={"minimal": True, "stationary": True, "stable": False,
                      "vertical": False, "singular": "curve",
                      "singular_curves": [{"alpha": 0.0}, {"alpha": np.pi}],
                      "tauZnu": -0.5,
                      "stability_note": ("tagged unstable in the source "
                                         "classification; the engine's pasted "
                                         "quadratic is nonnegative on the "
                                         "modeled variation class")},
            description="plane ax + by + c = 0 representative (y = 0)"),
        CatalogEntry(
            "x_plus_sin", "surface", lambda: _rt_surface("x + sin(t)", "x_plus_sin"),
            expected={"minimal": True, "stationary": False,
                      "singular": "curve",
                      "singular_curves": [{"x": -1.0, "alpha": np.pi / 2},
                                          {"x": 1.0, "alpha": 3 * np.pi / 2}],
                      "tauZnu": 0.0},
            description="minimal but not area-stationary example"),
        CatalogEntry(
            "xy_wave", "surface",
            lambda: _rt_surface("x - y + 0.5*(sin(t) + cos(t))", "xy_wave"),
            expected={"minimal": True, "stationary": False, "tauZnu": 0.0},
            description="second non-stationary minimal example (c = 1/2, d = 0)"),
    ]


def find_entry(name: str) -> CatalogEntry:
    for entry in catalog_structures() + catalog_rt_surfaces():
        if entry.name == name:
            return entry
    raise KeyError(f"no catalog entry named {name!r}")


def structure_by_name(name: str) -> StructureSpec:
    entry = find_entry(name)
    if entry.kind != "structure":
        raise KeyError(f"{name!r} is a surface entry, not a structure")
    return entry.make()

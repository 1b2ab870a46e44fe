"""Computational engine for 3D pseudo-hermitian sub-Riemannian geometry.

Submodules:

* :mod:`subriemann.expr` -- symbolic expressions over chart coordinates
* :mod:`subriemann.structures` -- frames, connections, torsion, curvature
* :mod:`subriemann.curves` -- characteristic curves, geodesics, Jacobi fields
* :mod:`subriemann.surfaces` -- surface models, area, mean curvature,
  singular sets
* :mod:`subriemann.variation` -- first/second variation, index form,
  stability operators
* :mod:`subriemann.catalog` -- named structures and surfaces, the unimodular
  classifier
* :mod:`subriemann.reproduce` -- the roto-translation report, the Q runners
  and the payloads of the command-line verbs
* :mod:`subriemann.cli` -- command-line front end
"""

from .structures import (StructureSpec, TangentVector, CurvatureSample,
                         StructureError, coordinate_structure,
                         unimodular_structure, nonunimodular_structure,
                         torsion_in_rotated_frame, structure_from_json)
from .curves import (CharState, CurveTrace, JacobiTrace,
                     integrate_characteristic, integrate_geodesic,
                     rt_characteristic_closed_form, jacobi_vertical_ode,
                     jacobi_from_curve_family)
from .surfaces import (GraphSurface, ImplicitSurface, SurfaceFramePoint,
                       SingularPointSignal, surface_frame, horizontal_jacobian,
                       area_graph, mean_curvature_graph, mean_curvature_frame,
                       rt_minimal_residual, singular_set_detect,
                       stationarity_at_singular_curve, surface_from_json)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"

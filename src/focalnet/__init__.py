"""Curvature-line frames, focal sheets, and quadratic direction nets for
parametric surfaces, on an exact truncated-Taylor derivative engine.

Layers, bottom up:

- ``jet`` / ``expr`` / ``sdl``: bivariate Taylor arithmetic to order 4 (at
  one point, or at a batch of points in one pass), the expression compiler,
  and the little surface-definition language with its built-in gallery.
- ``geometry`` / ``frames``: principal curvatures and directions as jets;
  the moving frame with its structure functions (k1, k2, q1, q2), Pfaffian
  derivatives, and the compatibility checks.
- ``central``: the two focal sheets — closed-form fundamentals, an
  independent oracle, focal-sheet derivatives, and the divergence identity.
- ``nets``: the quadratic direction nets pulled back from the focal sheets,
  with orthogonality / conjugacy / reality defects and direction extraction.
- ``classify``: pointwise functional-relation defects (one per curvature
  function), flags, and per-statement residual reports.
- ``report`` / ``mesh`` / ``cli`` / ``checks``: grid reports (JSON/CSV,
  their float texts written on arrays by ``floattext``), OBJ export, the
  command-line tool, and the seeded self-check suites.
"""

from .central import (CentralFundamentals, CentralPoint, central_ii_oracle,
                      central_pfaffian, central_point, divergence_closed_form,
                      divergence_scale, isothermic_divergence, w_jacobian)
from .classify import (CLASS_NAMES, DefectReport, PropositionResidual,
                       class_defects, moulding_defect, proposition_report,
                       w_defect)
from .decisions import DEFAULT_TOLERANCES, ToleranceSet
from .errors import (CanalDegenerate, DegenerateNetError,
                     DegenerateParametrization, FocalnetError,
                     ImaginaryNetError, JetDomainError, ParabolicPoint,
                     ParseError, UmbilicPoint, UnknownParameterError,
                     UnknownSurfaceError)
from .frames import FramePoint, check_codazzi, check_gauss, frame_point
from .geometry import PrincipalData, SurfaceJet, eval_surface, principal_data
from .jet import Jet4
from .mesh import export_obj
from .nets import (NetForm, conjugacy_defect, net_asymptotic_pullback,
                   net_curvature_pullback, net_directions,
                   orthogonality_defect, reality_discriminant,
                   spherical_image)
from .report import (GridReport, emit_csv, emit_json, grid_report,
                     parse_json, point_record, write_csv, write_json)
from .sdl import (SurfaceDef, SurfaceProgram, compile_surface, gallery,
                  gallery_names, load_surface, parse_surface)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # errors
    "FocalnetError", "JetDomainError", "ParseError", "UnknownSurfaceError",
    "UnknownParameterError", "DegenerateParametrization", "UmbilicPoint",
    "ParabolicPoint", "CanalDegenerate", "ImaginaryNetError",
    "DegenerateNetError",
    # decisions
    "ToleranceSet", "DEFAULT_TOLERANCES",
    # jets and surfaces
    "Jet4", "SurfaceDef", "SurfaceProgram", "parse_surface",
    "compile_surface", "load_surface", "gallery", "gallery_names",
    "SurfaceJet", "eval_surface", "PrincipalData", "principal_data",
    # frames
    "FramePoint", "frame_point", "check_codazzi", "check_gauss",
    # focal sheets
    "CentralPoint", "CentralFundamentals", "central_point",
    "central_ii_oracle", "central_pfaffian", "isothermic_divergence",
    "divergence_closed_form", "divergence_scale", "w_jacobian",
    # nets
    "NetForm", "net_asymptotic_pullback", "net_curvature_pullback",
    "spherical_image", "net_directions", "orthogonality_defect",
    "conjugacy_defect", "reality_discriminant",
    # classification
    "CLASS_NAMES", "DefectReport", "PropositionResidual", "w_defect",
    "class_defects", "moulding_defect", "proposition_report",
    # reports, mesh, checks
    "GridReport", "point_record", "grid_report", "emit_json", "write_json",
    "parse_json", "emit_csv", "write_csv", "export_obj", "CheckResult",
    "run_suite",
]


def __getattr__(name):
    # The self-check suite (and the finite-difference oracle it alone
    # uses) is imported on first use: the library's evaluations never
    # need it, and it is about a sixth of the time `import focalnet`
    # takes without it.
    if name in ("CheckResult", "run_suite"):
        from . import checks
        return getattr(checks, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

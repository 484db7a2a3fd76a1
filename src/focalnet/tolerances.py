"""Tolerance knobs shared across the pipeline.

All degeneracy tests are relative: raw quantities are compared against a
scale built from curvature magnitudes plus `curvature_floor`, so the same
tolerances work for surfaces of very different size.
"""
from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class ToleranceSet:
    umbilic: float = 1e-7          # (k1-k2)^2 vs (|k1|+|k2|+floor)^2
    parabolic: float = 1e-9        # |k1*k2| vs (|k1|+|k2|+floor)^2
    metric: float = 1e-12          # EG - F^2 vs (E + G)^2
    sign: float = 1e-12            # threshold for sign canonicalization
    curvature_floor: float = 1e-9  # additive floor for relative scales
    canal: float = 1e-6            # |grad_i k_i| vs |k_i|^3 + floor
    classify: float = 1e-6         # normalized class/W defects
    moulding: float = 1e-6         # min(|q1|,|q2|) vs |k1|+|k2|+floor


DEFAULT_TOLERANCES = ToleranceSet()

"""Bragg spectra of cut-and-project tilings via the internal Fourier cocycle.

The library computes exact-support diffraction (Fourier-Bohr amplitudes
and Bragg intensities) for the silver-mean chain and its twisted
variant, the CAP/Hat family, and the CASPr/Spectre family, including
reprojections to deformed model sets.  All algebra up to the final
numerical evaluation is exact.
"""

from .algebra import (CAP, FIELDS, SILVER, SPECTRE, AlgebraicElement,
                      FieldMismatchError, FieldSpec, Surd)
from .cocycle import AmplitudeVector, FourierEvaluator
from .cps import (LatticeBasis, ModulePoint, enumerate_module,
                  internal_argument, module_point)
from .diffraction import (Peak, PeakTable, amplitude_at, analytic_silver,
                          deformation_from_lengths, peak_list, peaks_to_csv,
                          peaks_to_json, peaks_to_svg, symmetry_report,
                          weight_vector, weyl_sum)
from .inflation import (TypedPointSet, inflate, seed_patch, substitution_matrix,
                        truncate)
from .models import (DeformationMap, DisplacementMatrix, ModelDataError,
                     ModelSpec, builtin, builtin_names, load_displacement,
                     save_displacement, validate_symmetry)
from .windows import (WindowCloud, hull_intervals, ifs_step, iterate_windows,
                      render_windows, volume, window_volume_from_patch)

__version__ = "0.1.0"

__all__ = [
    "AlgebraicElement", "AmplitudeVector", "CAP", "DeformationMap",
    "DisplacementMatrix", "FIELDS", "FieldMismatchError", "FieldSpec",
    "FourierEvaluator", "LatticeBasis", "ModelDataError", "ModelSpec",
    "ModulePoint", "Peak", "PeakTable", "SILVER", "SPECTRE", "Surd",
    "TypedPointSet", "WindowCloud", "amplitude_at", "analytic_silver", "builtin",
    "builtin_names", "deformation_from_lengths",
    "enumerate_module", "hull_intervals", "ifs_step", "inflate",
    "internal_argument", "iterate_windows", "load_displacement",
    "module_point", "peak_list", "peaks_to_csv", "peaks_to_json",
    "peaks_to_svg", "render_windows", "save_displacement",
    "seed_patch", "substitution_matrix", "symmetry_report", "truncate",
    "validate_symmetry", "volume", "weight_vector", "weyl_sum",
    "window_volume_from_patch",
]

"""Spectral predictions and concentration experiments for mixture sample covariances.

The package splits into a statistical model layer (:mod:`covspec.model`),
the self-consistent fixed point behind the deterministic resolvent
equivalent (:mod:`covspec.fixed_point`, :mod:`covspec.equivalent`), column
samplers with reproducible streams, one per 64-column chunk
(:mod:`covspec.sampler`), Monte Carlo concentration checks
(:mod:`covspec.conc_lab`), majorization utilities
(:mod:`covspec.majorization`), and a batch CLI (:mod:`covspec.cli`).
"""

from .errors import ConvergenceError, DataError, ParameterError, ShapeError
from .model import (
    ClassModel,
    Mixture,
    build_mixture,
    estimate_class_model,
    toeplitz_covariance,
)
from .fixed_point import (
    FixedPointSolution,
    interference_map,
    solve_delta,
    solve_delta_complex,
)
from .equivalent import (
    SpectralPrediction,
    atom_at_zero,
    density_prediction,
    deterministic_resolvent,
    stieltjes_from_delta,
    stieltjes_prediction,
)
from .sampler import (
    EmpiricalSpectrum,
    GeneratorSpec,
    Histogram,
    MixtureSample,
    bounded_class_spec,
    class_model_of,
    empirical_spectrum,
    gaussian_class_spec,
    histogram,
    mixture_of,
    sample_class,
    sample_mixture,
    spectral_ks_distance,
)
from .conc_lab import (
    DeltaEstimate,
    DiameterEstimate,
    QuadFormCheck,
    ScalingReport,
    TailFit,
    TailProfile,
    delta_empirical,
    delta_gap_sweep,
    fit_exponential_tail,
    observable_diameter,
    quadratic_form_check,
    resolvent_error_sweep,
    resolvent_mean_error,
    tail_profile,
    tail_thresholds,
)
from .majorization import (
    check_sigma_lipschitz,
    check_singular_triangle,
    decreasing_rearrangement,
    majorizes,
    singular_values,
    submajorizes,
)

__version__ = "0.1.0"

"""spectime: temporal label recovery and seriation for noisy dynamical data.

Points sampled along an unknown one-dimensional trajectory (open curve
or closed loop) are ordered, and their hidden time labels recovered, by
the Fiedler eigenvectors of a Gaussian-kernel graph Laplacian.  The
package also includes PCA-style denoising for high-dimensional inputs,
rotation/reflection-invariant evaluation metrics, synthetic benchmark
generators with a pairwise-comparison baseline, and a CLI wiring the
stages into reproducible experiment sweeps.
"""

from .core import (
    CurveKind,
    DataMatrix,
    KernelParams,
    Ranking,
    TimeLabels,
    ranking_from_labels,
    validate_matrix,
)
from .denoise import DenoiseResult, denoise_auto, denoise_fixed_rank
from .eigen import SpectralResult, smallest_eigenpairs
from .kernel import KernelMatrix, LaplacianMatrix, PackedSymmetric, build_kernel, build_laplacian
from .metrics import (
    AlignmentReport,
    err_closed_rank,
    err_closed_time,
    err_open_rank,
    err_open_time,
    interior_relative_error,
    relative_error,
    snr,
)
from .pipeline import PipelineConfig, run_pipeline
from .recover import (
    RecoveryOutput,
    data_driven_bandwidth,
    recover_closed,
    recover_labels,
    recover_open,
    select_bandwidth,
)
from .sweep import SweepConfig, sweep
from .synth import (
    CurveSpec,
    add_noise,
    comparison_matrix,
    generate,
    noise_for_snr,
    noisy_sample,
    serialrank_baseline,
)

__version__ = "0.1.0"

__all__ = [
    "AlignmentReport",
    "CurveKind",
    "CurveSpec",
    "DataMatrix",
    "DenoiseResult",
    "KernelMatrix",
    "KernelParams",
    "LaplacianMatrix",
    "PackedSymmetric",
    "PipelineConfig",
    "Ranking",
    "RecoveryOutput",
    "SpectralResult",
    "SweepConfig",
    "TimeLabels",
    "add_noise",
    "build_kernel",
    "build_laplacian",
    "comparison_matrix",
    "data_driven_bandwidth",
    "denoise_auto",
    "denoise_fixed_rank",
    "err_closed_rank",
    "err_closed_time",
    "err_open_rank",
    "err_open_time",
    "generate",
    "interior_relative_error",
    "noise_for_snr",
    "noisy_sample",
    "ranking_from_labels",
    "recover_closed",
    "recover_labels",
    "recover_open",
    "relative_error",
    "run_pipeline",
    "select_bandwidth",
    "serialrank_baseline",
    "smallest_eigenpairs",
    "snr",
    "sweep",
    "validate_matrix",
]

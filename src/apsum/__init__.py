"""apsum: strong summation experiments for quasi-periodic signals."""

from .spectra import (
    Spectrum,
    SpectrumEntry,
    SpectrumError,
    QuasiPeriodicFunction,
    load_spectrum,
    power_mean,
    validate_spectrum,
)
from .kernels import (
    QuadratureToleranceError,
    kernel_mass,
    partial_sum_direct,
    partial_sum_kernel_table,
)
from .matrices import (
    ClassReport,
    MatrixError,
    SummabilityMatrix,
    cesaro_matrix,
    class_constants,
    class_membership,
    explicit_matrix,
    load_matrix,
    osc_gm2_matrix,
    riesz_matrix,
)
from .measures import (
    ModulusMajorant,
    OmegaClassReport,
    PowerModulus,
    SamplePlan,
    TableModulus,
    WindowGrid,
    check_eq7,
    fit_class_majorant,
    moduli,
    modulus_omega,
    phi_average,
    stepanov_norm,
)
from .strong_means import (
    RatioRecord,
    ratio_sweep,
    strong_mean_rows,
)
from .experiment import (
    ConfigError,
    ExperimentConfig,
    ExperimentReport,
    builtin_matrices,
    builtin_spectra,
    run,
    write_report,
)

__version__ = "0.1.0"

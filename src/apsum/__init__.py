"""apsum: strong summation experiments for quasi-periodic signals."""

from .spectra import (
    Spectrum,
    SpectrumEntry,
    SpectrumError,
    QuasiPeriodicFunction,
    fourier_coefficient,
    load_spectrum,
    save_spectrum,
    validate_spectrum,
)
from .kernels import (
    QuadratureConfig,
    QuadratureToleranceError,
    gap_free,
    kernel_mass,
    partial_sum_direct,
    partial_sum_kernel_table,
    psi,
    psi_k,
    tail_bound,
)
from .matrices import (
    ClassReport,
    MatrixError,
    SummabilityMatrix,
    cesaro_matrix,
    cesaro_row,
    class_membership,
    explicit_matrix,
    gm2_constant,
    gm_constant,
    is_ms,
    load_matrix,
    ms_constant,
    osc_gm2_matrix,
    rbvs_constant,
    riesz_matrix,
)
from .measures import (
    ModulusMajorant,
    OmegaClassReport,
    PowerModulus,
    SamplePlan,
    TableModulus,
    WindowGrid,
    best_approx_tail,
    check_eq7,
    fit_class_majorant,
    fit_majorant,
    modulus_omega,
    omega_class_check,
    phi_average,
    pointwise_modulus,
    shifted_difference_mean,
    stepanov_norm,
)
from .strong_means import (
    RatioRecord,
    RatioSeries,
    StrongMeanParams,
    dyadic_strong_mean,
    gm2_rows_rhs,
    ms_rows_rhs,
    omega_rows_rhs,
    power_mean,
    prop_dyadic_rhs,
    ratio_series,
    strong_mean,
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

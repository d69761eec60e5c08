"""z-measures on partitions and their determinantal hypergeometric kernel.

A library plus CLI for the three-parameter family of probability measures on
partitions, the point process they induce on the half-integer lattice, the
hypergeometric correlation kernel of that process, its Meixner degeneration
and Whittaker continuum limit, with built-in verification suites and a seeded
sampler.
"""

from .measures import (
    ADMISSIBILITY_CONDITIONS,
    AdmissibilityError,
    GrandParams,
    ZParams,
    mixed_measure,
    neg_binomial_weight,
    plancherel_measure,
    z_measure_n,
    z_measure_table,
)
from .kernels import (
    BLOCKS,
    FunctionTable,
    KernelBlock,
    decay_certificate,
    function_table,
    hyper_kernel,
    kernel_block_matrix,
    kernel_matrix,
    l_entry,
    l_matrix,
    meixner_kernel,
    meixner_kernel_matrix,
    pq,
    psi,
    rhat_shat,
    rs,
    whittaker_kernel,
    whittaker_p,
    whittaker_q,
)
from .partitions import (
    Configuration,
    EMPTY_CONFIGURATION,
    EMPTY_DIAGRAM,
    PartitionCapError,
    YoungDiagram,
    dimension,
    enumerate_partitions,
    from_configuration,
    partition_count,
    to_configuration,
)
from .specfun import (
    ConvergenceError,
    DomainError,
    PoleError,
    RealizationError,
    gauss_2f1_direct,
    gauss_2f1_w,
    gauss_2f1_w_dc,
    meixner_polynomial,
    pochhammer,
    realize,
    whittaker_w,
)
from .sampling import SampleBatch, empirical_correlation, sample_batch, sample_diagram, sample_size
from .verification import (
    VerificationReport,
    correlation_det,
    correlation_oracle,
    fredholm_check,
    identity_suite,
    meixner_check,
    normalization_check,
    operator_identity_check,
    oracle_check,
    run_suite,
    scaling_limit_check,
)

__version__ = "0.1.0"

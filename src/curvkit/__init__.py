"""Curvature diagnostics for feedforward scalar-output networks.

The toolkit decomposes the batch-loss Hessian into its positive
semidefinite Gauss-Newton part and the slope-weighted output-Hessian
remainder, tracks the curvature seen along the gradient during vanilla SGD
with a one-step estimator, and verifies the statistical behavior of these
quantities at random initialization with seeded Monte Carlo ensembles.
"""

__version__ = "0.1.0"

from .curvature import (
    CurvatureRecord,
    HessianDecomposition,
    PsdReport,
    curvature_projection,
    decompose,
    estimate_curvature,
    psd_check,
)
from .diff import (
    DENSE_CAP,
    LossFunction,
    batch_loss,
    fd_hessian,
    ggn_vp,
    gradient_curvatures,
    half_squared_error,
    hvp,
    loss_and_gradient,
    output_gradient,
    output_hessian,
    output_hessian_grad_product,
    output_hessian_vp,
    per_sample_output_gradients,
    raw_output,
    squared_error,
)
from .errors import (
    ActivationError,
    CapacityError,
    ConfigError,
    CurvkitError,
    DimensionError,
    DirectionError,
    DivergenceError,
    SymmetryError,
)
from .experiment import (
    Dataset,
    RunLog,
    SweepReport,
    TrainConfig,
    generate_dataset,
    initial_probe,
    lr_at_epoch,
    save_dataset,
    sgd_train,
    width_sweep,
)
from .network import (
    Architecture,
    Network,
    ParamIndex,
    batch_forward,
    forward,
    init_network,
    interlayer_jacobian,
    load_network,
    save_network,
)
from .rng import (
    GAUSSIAN,
    RADEMACHER,
    UNIFORM,
    InitDistribution,
    RngStream,
)
from .theory import (
    BilinearReport,
    CurvatureBoundParams,
    DeviationTable,
    GradNormResult,
    McConfig,
    McSummary,
    PositivityResult,
    backfit_variance_constant,
    grad_norm_limit,
    mc_bilinear_products,
    mc_cross_sample_stats,
    mc_curvature_positivity,
    mc_grad_norm_stats,
    mc_quadform_stats,
    positive_curvature_bound,
    predicted_variance_scale,
    quadform_samples,
)

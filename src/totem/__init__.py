"""Constraint-driven distribution fitting on finite entity spaces.

The workflow: declare attribute domains and enumerate the entity space
(`entity`), count data into an empirical distribution (`distribution`),
pick characteristic operators whose expectations summarize the data
(`operators`), project a reference distribution onto the family matching
those expectations (`projection`), then score and test competing operator
choices (`inference`).  `closed_forms` supplies analytically solved
constructions (coin sequences, grouped coins, a coupled-pair generator,
logistic regression) used as oracles and simulation generators.
"""

__version__ = "0.1.0"

from .closed_forms import (
    binomial_projection_closed_form,
    binomial_test_statistic_closed_form,
    coin_element,
    coin_space,
    ising_coin_generator,
    k_marginal_element,
    k_marginal_projection_closed_form,
    logistic_conditionals,
    logistic_element,
    logistic_model_distribution,
    logistic_space,
    logit_affine_fit,
    two_coin_pooled_element,
    two_coin_projection_closed_form,
    two_coin_space,
    two_coin_split_element,
)
from .distribution import (
    Distribution,
    RegularizationWarning,
    cross_entropy,
    distribution_from_dict,
    distribution_to_dict,
    entropy,
    i_divergence,
    load_distribution,
    log_multinomial,
    log_multinomial_leading,
    max_norm_distance,
    regularize,
    save_distribution,
    uniform,
)
from .entity import (
    AttributeDomain,
    DataTable,
    EntitySpace,
    build_entity_space,
    empirical_distribution,
    ingest_csv,
)
from .errors import (
    ConfigError,
    DataError,
    IncompatibleReferenceError,
    NestingError,
    NonConvergenceError,
    OperatorError,
    ProjectionError,
    SingularJacobianError,
    SpaceError,
    TotemError,
)
from .inference import (
    CalibrationResult,
    ScoreReport,
    TestReport,
    calibration_experiment,
    chi2_cdf,
    chi2_sf,
    i_score,
    i_test,
    ks_distance,
    sample_multinomial,
    select_element,
)
from .operators import (
    CharacteristicOperator,
    ConstructingElement,
    Totemplex,
    fapp_equivalent,
    identity_op,
    is_nested,
    k_marginal_op,
    kernel_basis,
    make_element,
    marginal_op,
    moment_op,
    operator_from_spec,
    product_op,
    row_rank,
    success_op,
)
from .projection import (
    ProjectionResult,
    chained_project,
    constraint_residual,
    ipf_project,
    is_compatible,
    newton_project,
)

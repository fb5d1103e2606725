"""Numerical laboratory for transfer operators of coupled expanding map
lattices: finite-window states and couplings, Ulam-discretized operators
with leading eigen-data, spectral gap and correlation decay, and
trajectory-level CLT / invariance-principle diagnostics."""

__version__ = "0.1.0"

import os as _os

# BLAS and OpenMP read their thread counts once, when numpy first loads
# them, so CML_LAB_THREADS must be applied before any submodule imports
# numpy.  It has no effect in a process that imported numpy before cml_lab.
if _os.environ.get("CML_LAB_THREADS"):
    for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        _os.environ[_var] = _os.environ["CML_LAB_THREADS"]

from .lattice import (
    Coupling,
    CouplingConstantEstimate,
    FiniteState,
    MetricParams,
    NodeMap,
    Potential,
    apply_T,
    apply_bar_tau,
    apply_coupling,
    doubling_map,
    embed,
    enumerate_inverse_branches,
    estimate_coupling_constant,
    invert_coupling,
    metric_d,
    perturbed_doubling_map,
    project,
    state,
)
from .observables import (
    constant_potential,
    decaying_sine_potential,
    node_coordinate,
    node_sine_potential,
    random_trig_observable,
    srb_potential,
    zero_potential,
)
from .transfer import (
    EigenData,
    Grid,
    UlamOperator,
    check_conformality,
    check_lasota_yorke,
    check_Pk_cauchy,
    estimate_holder_seminorm,
    eval_Pk,
    leading_eigenpair,
    load_operator,
    power_iterate,
    random_admissible_box,
    save_operator,
    ulam_matrix,
)
from .spectral import (
    GreenKubo,
    SpectrumReport,
    check_twisted_bound,
    operator_correlation,
    spectral_gap,
    stationary_distribution,
    twisted_matrix,
    variance_from_twisted_curvature,
    variance_green_kubo,
)
from .harness import (
    AsipDiagnostics,
    AutocorrelationFit,
    CltResult,
    EnsembleConfig,
    asip_diagnostic,
    autocorrelation_fit,
    clt_test,
    ensemble_series,
    ensemble_shares,
    ks_distance_to_normal,
    simulate_ensemble,
)

# The cli names load on first access (PEP 562) rather than here, so that
# `python -m cml_lab.cli` runs a single copy of that module, as __main__.
_CLI_NAMES = frozenset({
    "ConfigError",
    "ExperimentConfig",
    "RunReport",
    "emit_report",
    "parse_config",
    "run_experiment",
})


def __getattr__(name: str):
    if name in _CLI_NAMES:
        from . import cli

        return getattr(cli, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

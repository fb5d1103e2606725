"""Numerical laboratory for transfer operators of coupled expanding map
lattices: finite-window states and couplings, Ulam-discretized operators
with leading eigen-data, spectral gap and correlation decay, and
trajectory-level CLT / invariance-principle diagnostics."""

__version__ = "0.1.0"

import os as _os

# Under CML_LAB_THREADS, BLAS and OpenMP run on one thread: a threaded
# BLAS cuts its dot products by its thread count, so their sums, and the
# reports' last bits, would move with the cap.  They read their thread
# counts once, when numpy first loads them, so this must run before any
# submodule imports numpy; it has no effect in a process that imported
# numpy before cml_lab.
if _os.environ.get("CML_LAB_THREADS"):
    for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        _os.environ[_var] = "1"

from .lattice import (
    Coupling,
    MetricParams,
    NodeMap,
    Potential,
    doubling_map,
    estimate_coupling_constant,
    perturbed_doubling_map,
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

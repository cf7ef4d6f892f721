"""Stable configurations of periodic entangled graphs and weaves.

The package builds two kinds of systems from small text designs — doubly
periodic graphs whose vertices carry a pair of heights, and two-family
weaves of crossing threads — and relaxes them by steepest descent of an
energy that combines harmonic edge tension with a repulsive term keeping
each crossing's two strands apart.  Alongside the dynamics it classifies
the crossing pattern itself: entangled versus untangled, and for weaves
the full decomposition into vertically ordered tangle components.

Modules:

* ``model``     — designs, systems, configurations, initial conditions
* ``topology``  — classification and tangle decomposition
* ``dynamics``  — the descent flow integrator
* ``analysis``  — spectra, scaling fits, separation/flatness diagnostics
* ``designio``  — design-file grammar, CSV/JSON output
* ``cli``       — the ``tangleflow`` command
"""
from .analysis import (
    EigenData,
    ScalingReport,
    Series,
    commutation_check,
    compare_limits,
    eigendecompose,
    fit_power_law,
    flatness_series,
    separation_series,
    weave_spectrum,
)
from .designio import (
    design_to_system,
    load_design,
    parse_design,
    serialize_design,
    write_configuration_json,
    write_trajectory_csv,
)
from .dynamics import (
    FlowParams,
    RunStats,
    Sample,
    Trajectory,
    energy_entangled,
    energy_weave,
    gradient,
    integrate,
    step,
)
from .errors import TangleflowError
from .model import (
    Configuration,
    EntangledSystem,
    GraphDesign,
    PeriodicQuotientGraph,
    WeaveDesign,
    WeaveSystem,
    build_entangled_system,
    build_weave_system,
    harmonic_planar_coordinates,
    make_configuration,
    random_initial_configuration,
)
from .topology import (
    Classification,
    MinimalComponent,
    TangleComponent,
    TangleDecomposition,
    boundary_weight,
    classify_entangled_graph,
    is_entangled,
    minimal_weaved_components,
    tangle_decomposition,
    weavely_connected_components,
)

__version__ = "0.1.0"

__all__ = [
    "Classification",
    "Configuration",
    "EigenData",
    "EntangledSystem",
    "FlowParams",
    "GraphDesign",
    "MinimalComponent",
    "PeriodicQuotientGraph",
    "RunStats",
    "Sample",
    "ScalingReport",
    "Series",
    "TangleComponent",
    "TangleDecomposition",
    "TangleflowError",
    "Trajectory",
    "WeaveDesign",
    "WeaveSystem",
    "boundary_weight",
    "build_entangled_system",
    "build_weave_system",
    "classify_entangled_graph",
    "commutation_check",
    "compare_limits",
    "design_to_system",
    "eigendecompose",
    "energy_entangled",
    "energy_weave",
    "fit_power_law",
    "flatness_series",
    "gradient",
    "harmonic_planar_coordinates",
    "integrate",
    "is_entangled",
    "load_design",
    "make_configuration",
    "minimal_weaved_components",
    "parse_design",
    "random_initial_configuration",
    "separation_series",
    "serialize_design",
    "step",
    "tangle_decomposition",
    "weave_spectrum",
    "weavely_connected_components",
    "write_configuration_json",
    "write_trajectory_csv",
]

"""Coherent thermal-state circuits for small Ising clusters.

Synthesise preparation circuits whose amplitudes encode a Gibbs
distribution, simulate them exactly, read observables through a probe
qubit, model depolarising noise and its partial reversal, and
reconstruct thermal populations and entropy.
"""

from .engine import ProbeReadout, StateVector, direct_expectation, probe_expectation, run_circuit
from .errors import (
    CapacityError,
    CetsError,
    DomainError,
    IncompleteSetError,
    NonPhysicalStateError,
    NumericError,
    PauliParseError,
    TopologyError,
)
from .model import (
    CHAIN,
    TRIANGLE,
    GibbsTable,
    ModelParams,
    exact_entropy,
    exact_expectation,
    gibbs_distribution,
)
from .noise import (
    DecayProfile,
    DensityMatrix,
    default_decay_table,
    depolarize,
    estimate_eta,
    load_decay_table,
    projection_overlap,
    recover,
)
from .pauli import PauliString
from .reconstruct import (
    LABELS,
    DiagonalDensity,
    MeasurementSet,
    ObservablesSummary,
    assemble_density,
    entropy,
    exact_measurement_set,
    fidelity,
    observables_summary,
)
from .sweep import (
    NoiseOptions,
    PointResult,
    SweepDataset,
    SweepRow,
    SweepSpec,
    run_point,
    run_sweep,
)
from .synth import (
    AngleSet,
    Circuit,
    Gate,
    build_chain_circuit,
    build_circuit,
    build_triangle_circuit,
    cets_angles,
    export_circuit,
    load_circuit,
    parse_circuit,
    save_circuit,
)

__version__ = "0.1.0"

__all__ = [
    "AngleSet",
    "CapacityError",
    "CetsError",
    "CHAIN",
    "Circuit",
    "DecayProfile",
    "DensityMatrix",
    "DiagonalDensity",
    "DomainError",
    "Gate",
    "GibbsTable",
    "IncompleteSetError",
    "LABELS",
    "MeasurementSet",
    "ModelParams",
    "NoiseOptions",
    "NonPhysicalStateError",
    "NumericError",
    "ObservablesSummary",
    "PauliParseError",
    "PauliString",
    "PointResult",
    "ProbeReadout",
    "StateVector",
    "SweepDataset",
    "SweepRow",
    "SweepSpec",
    "TopologyError",
    "TRIANGLE",
    "assemble_density",
    "build_chain_circuit",
    "build_circuit",
    "build_triangle_circuit",
    "cets_angles",
    "default_decay_table",
    "depolarize",
    "direct_expectation",
    "entropy",
    "estimate_eta",
    "exact_entropy",
    "exact_expectation",
    "exact_measurement_set",
    "export_circuit",
    "fidelity",
    "gibbs_distribution",
    "load_circuit",
    "load_decay_table",
    "observables_summary",
    "parse_circuit",
    "probe_expectation",
    "projection_overlap",
    "recover",
    "run_circuit",
    "run_point",
    "run_sweep",
    "save_circuit",
]

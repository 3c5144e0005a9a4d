"""catbreed: simulate iterative breeding of optical Schrodinger-cat states.

The package models a heralded two-photon source feeding a storage cavity,
the beam-splitter breeding step with quadrature conditioning, loss
channels for storage and detection, a pulse-level timeline Monte Carlo for
generation rates, and a homodyne-tomography pipeline (synthetic sampling,
binned maximum-likelihood reconstruction, bootstrap error bars).
"""

__version__ = "0.1.0"

from .errors import (CatbreedError, ConfigError, ConvergenceError,
                     DomainError, HeraldImpossibleError, TruncationError)
from .fock import (DensityOperator, FockCutoff, StateVector, TargetCatSpec,
                   annihilation_matrix, coherent_state, fidelity,
                   fidelity_to_pure, fock_state, hermite_functions,
                   mean_photon_number, pad_density_operator,
                   parity_expectation, purity, quadrature_wavefunction,
                   squeeze_db_to_r, squeeze_matrix, target_cat, wigner,
                   wigner_grid)
from .optics import (QUADRATURE_SUPPORT, AcceptanceWindow, HeraldOutcome,
                     TwoModeState, beam_splitter, breed, condition,
                     homodyne_povm, loss_channel, partial_trace,
                     single_photon_state)
from .protocol import (CURVE_CSV_HEADER, DEFAULT_PER_TRIP_TRANSMISSION,
                       EVENT_KINDS, EVENT_RECORDS,
                       CurveRow, PipelineStates, ProtocolConfig,
                       RunStatistics, TimelineEvents, calibrate_beta_elec,
                       fidelity_vs_storage_curve, generation_rate,
                       per_trip_transmission_from_total, pipeline_states,
                       simulate_timeline, storage_evolve, window_probability,
                       write_curve_csv, write_event_log)
from .tomography import (BootstrapResult, HomodyneDataset,
                         ReconstructionResult, bootstrap, bootstrap_many,
                         concat_datasets, load_dataset_csv, marginal_pdf,
                         maxlik_reconstruct, read_density_csv,
                         sample_homodyne, sample_homodyne_phases,
                         read_meta, save_dataset_csv, uniform_phases,
                         write_density_csv, write_meta)

__all__ = [
    "__version__",
    # errors
    "CatbreedError", "ConfigError", "ConvergenceError", "DomainError",
    "HeraldImpossibleError", "TruncationError",
    # single-mode states and measures
    "FockCutoff", "StateVector", "DensityOperator", "TargetCatSpec",
    "annihilation_matrix", "fock_state", "coherent_state", "squeeze_db_to_r",
    "squeeze_matrix", "target_cat", "hermite_functions",
    "quadrature_wavefunction", "wigner", "wigner_grid", "fidelity",
    "fidelity_to_pure", "pad_density_operator", "purity",
    "mean_photon_number", "parity_expectation",
    # two-mode optics and conditioning
    "QUADRATURE_SUPPORT", "TwoModeState", "AcceptanceWindow", "HeraldOutcome",
    "beam_splitter", "partial_trace", "loss_channel",
    "homodyne_povm", "condition", "breed", "single_photon_state",
    # protocol model
    "ProtocolConfig", "TimelineEvents", "RunStatistics", "PipelineStates",
    "CurveRow", "CURVE_CSV_HEADER", "DEFAULT_PER_TRIP_TRANSMISSION",
    "EVENT_KINDS", "EVENT_RECORDS",
    "per_trip_transmission_from_total", "storage_evolve",
    "window_probability", "generation_rate", "calibrate_beta_elec",
    "pipeline_states", "fidelity_vs_storage_curve", "write_curve_csv",
    "write_event_log", "simulate_timeline",
    # tomography
    "HomodyneDataset", "concat_datasets", "marginal_pdf", "sample_homodyne",
    "sample_homodyne_phases", "uniform_phases", "maxlik_reconstruct",
    "ReconstructionResult", "bootstrap", "bootstrap_many", "BootstrapResult",
    "save_dataset_csv", "load_dataset_csv", "write_density_csv",
    "read_density_csv", "write_meta", "read_meta",
]

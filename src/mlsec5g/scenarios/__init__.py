"""Six 5G case studies: data generation, ingestion, and end-to-end drivers.

The drivers' entry point, run_case_study, is imported from .runner (as the
CLI does): importing it here would cycle through the config module, which
itself needs the generator schemas below.
"""

from .adapters import AdapterError, ingest_real_dataset
from .generators import (ATTACKER_IPS, CQI_FEATURES, MODULATIONS, SCENARIOS,
                         SIGNAL_FEATURES, SLICE_CLASSES, SLICE_FEATURES,
                         generate_scenario_data, records_to_matrix)
from .mimo import (MimoTopology, grid_topology, ground_truth_power,
                   normalize_powers, spectral_efficiency)

__all__ = [
    "ATTACKER_IPS",
    "AdapterError",
    "CQI_FEATURES",
    "MODULATIONS",
    "MimoTopology",
    "SCENARIOS",
    "SIGNAL_FEATURES",
    "SLICE_CLASSES",
    "SLICE_FEATURES",
    "generate_scenario_data",
    "grid_topology",
    "ground_truth_power",
    "ingest_real_dataset",
    "normalize_powers",
    "records_to_matrix",
    "spectral_efficiency",
]

"""Desk-scale laboratory for component mixers over bit strings.

The package provides metered black-box access to families of component-
preserving bijections, exact and Monte Carlo verification of the mixer
axioms at small n, a dense-vector quantum engine with the component-
projector measurement, interactive-protocol simulators, and the layered
counterfeiting reduction.
"""

__version__ = "0.1.0"

from .bits import as_int, from_bits, pair_decode, pair_encode, to_bits
from .errors import (
    BudgetExhaustedError,
    InvalidArgumentError,
    MalformedQueryError,
    MixerError,
    PromiseViolationError,
)
from .instances import (
    InstanceBundle,
    PointFunction,
    instance_from_config,
    make_coset_mixer,
    make_graph_iso_mixer,
    make_grover_mixer,
    make_grover_partition,
    make_offset_mixer,
)
from .layered import LayeredInstance, make_layered_instance
from .oracle import LabelOracle, MixerIndex, MixerOracle
from .partition import GroundTruthPartition
from .quantum import (
    DensityMatrix,
    QuantumState,
    measure_component_projector,
    swap_test,
    trace_distance,
)
from .verify import (
    full_connectivity_witness,
    instant_mixing_bound,
    is_label_consistent,
    tv_distance,
    verify_full_connectivity,
    verify_instant_mixing,
    verify_no_cross_mixing,
)

__all__ = [
    "BudgetExhaustedError",
    "DensityMatrix",
    "GroundTruthPartition",
    "InstanceBundle",
    "InvalidArgumentError",
    "LabelOracle",
    "LayeredInstance",
    "MalformedQueryError",
    "MixerError",
    "MixerIndex",
    "MixerOracle",
    "PointFunction",
    "PromiseViolationError",
    "QuantumState",
    "as_int",
    "from_bits",
    "full_connectivity_witness",
    "instance_from_config",
    "instant_mixing_bound",
    "is_label_consistent",
    "make_coset_mixer",
    "make_graph_iso_mixer",
    "make_grover_mixer",
    "make_grover_partition",
    "make_layered_instance",
    "make_offset_mixer",
    "measure_component_projector",
    "pair_decode",
    "pair_encode",
    "swap_test",
    "to_bits",
    "trace_distance",
    "tv_distance",
    "verify_full_connectivity",
    "verify_instant_mixing",
    "verify_no_cross_mixing",
]

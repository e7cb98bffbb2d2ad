"""Simulation and structural analysis of quantized-feedback relay beamforming.

Estimates symbol error rates and diversity orders for arbitrary quantizer
codebooks in parallel amplify-and-forward relay networks, and computes the
exact structural quantities (hitting-set diversity caps, orthogonal-selection
membership) that govern which codebooks can be error-rate optimal.
"""

from .codebooks import (
    CodebookError,
    ConstrainedSpec,
    FiniteCodebook,
    FullCsiSpec,
    PowerDependentSpec,
    SrsSpec,
    UnitarySpec,
    apply_unitary,
    make_srs,
    resolve_codebook,
    spec_from_json,
    spec_to_json,
)
from .model import NetworkConfig, PowerLevel
from .montecarlo import (
    DiversityEstimate,
    SerCurve,
    SimulationPlan,
    estimate_diversity,
    estimate_ser,
    gaussian_tail,
)
from .oracles import MaxMinRatio, q_lower_bound, run_audits
from .structure import (
    StructuralReport,
    analyze_codebook,
    diversity_cap,
    hitting_sets,
    is_admissible,
    is_omrs,
    is_srs,
    max_pairwise_overlap,
    min_max_weight,
)

__version__ = "0.1.0"

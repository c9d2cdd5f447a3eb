from .api import (
    Embedding,
    KuratowskiSubdivision,
    PlanarGraphError,
    PlanarityOutcome,
    classify_witness,
    edge_addition_subgraph,
    embed,
    extract_kuratowski,
    is_planar,
    validate_embedding,
    witness_is_valid,
)
from .types import NonPlanarStartError

__all__ = [
    "Embedding",
    "KuratowskiSubdivision",
    "PlanarGraphError",
    "NonPlanarStartError",
    "PlanarityOutcome",
    "classify_witness",
    "edge_addition_subgraph",
    "embed",
    "extract_kuratowski",
    "is_planar",
    "validate_embedding",
    "witness_is_valid",
]

"""Exact tools for fine Deligne-Lusztig strata of Lagrangian spaces over
finite fields and the Ekedahl-Oort types of the modules they induce."""

__version__ = "0.1.0"

from .gf import FieldCtx, field
from .weyl import (
    WeylElement,
    canonical_word_IW,
    class_c,
    compose,
    enumerate_IW,
    length,
    r_map,
    r_map_inv,
    r_w,
    reduced_word,
    simple_reflection,
)
from .bedard import (
    BedardSequence,
    FrobeniusAction,
    enumerate_sequences,
    is_irreducible,
    sequence_for,
    stratum_dimension,
)
from .symplectic import (
    Flag,
    Subspace,
    SymplecticSpace,
    enumerate_lagrangians,
    refine,
    relpos,
)
from .dlclassify import CensusRecord, census, classify_coarse, classify_fine
from .dieudonne import (
    DieudonneModule,
    EOType,
    build_from_lagrangian,
    canonical_flag,
    eo_type,
    verify_pullback,
)

__all__ = [
    "FieldCtx",
    "field",
    "WeylElement",
    "simple_reflection",
    "compose",
    "length",
    "reduced_word",
    "enumerate_IW",
    "canonical_word_IW",
    "r_w",
    "r_map",
    "r_map_inv",
    "class_c",
    "FrobeniusAction",
    "BedardSequence",
    "enumerate_sequences",
    "sequence_for",
    "stratum_dimension",
    "is_irreducible",
    "SymplecticSpace",
    "Subspace",
    "Flag",
    "relpos",
    "refine",
    "enumerate_lagrangians",
    "classify_fine",
    "classify_coarse",
    "census",
    "CensusRecord",
    "DieudonneModule",
    "build_from_lagrangian",
    "canonical_flag",
    "eo_type",
    "EOType",
    "verify_pullback",
]

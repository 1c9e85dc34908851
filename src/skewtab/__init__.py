"""Unmixed and sequentially Cohen-Macaulay classification of skew Ferrers
shapes and skew tableau ideals, with brute-force oracles for cross-checking."""

from .shapes import Component, SkewShape, delete_rows_cols, render
from .graphs import WeightedGraph, from_shape, is_buchsbaum_graph
from .ideals import is_scm_weighted_oracle, is_unmixed_ideal
from .classify import (PrimeShapePiece, ShapeFlags, UnmixedCertificate,
                       classify_shape, is_saturated, is_scm_skew,
                       is_unmixed_skew, scm_trace, unmixed_decomposition,
                       validate_certificate)
from .tableau import (SkewTableau, TableauError, classify_tableau, is_scm_tableau,
                      is_unmixed_tableau, validate)
from .harness import (CrossCheckReport, crosscheck, enumerate_fillings,
                      enumerate_skew_shapes)

__all__ = [name for name in dir() if not name.startswith("_")]

"""Exact vanishing homology of collapsing cell complexes.

A finite cell complex whose cells shrink at known rates (exponents of a
positive infinitesimal T) has, for every velocity cut on those rates, a
vanishing homology: the part of its rational homology that can be carried
on the collapsing cells.  This package computes it exactly, along with the
relative theory for pairs, the induced long exact sequence, excision
comparisons and velocity sweeps.
"""

from types import ModuleType as _ModuleType

from .puiseux import (INF, ONE, ZERO, ExtRational, IndeterminateAtPrecision,
                      PuiseuxSeries, SeriesParseError, Velocity, compare,
                      constant, format_series, format_velocity, parse_series,
                      parse_velocity, series, t_power, valuation,
                      velocity_contains)
from .cells import (Cell, CellComplex, CellSet, InvalidComplex, NotFaceClosed,
                    SimplicialBuilder, ValidationReport, build_circle,
                    build_pinched_spheres, build_torus, validate)
from .thinness import (DegenerateSimplex, GeometricComplex, MissingRate,
                       RateAnnotation, annotate_geometric, critical_rates,
                       is_thin, rate_of, simplex_rate, simplex_rates)
from .homology import Chain, Subspace, chain_boundary, rank_of, unit_chains
from .vanishing import (ChainSubspaceComplex, ExcisionReport, InvalidExcision,
                        LesNode, LesReport, PairReport, SweepTable,
                        VanishingBettiTable, excision_check, les_check,
                        relative_vanishing, sweep, thin_chain_complex,
                        vanishing_betti, vanishing_betti_oracle)
from .document import (ComplexDocument, DocumentError, document_dict,
                       document_problems, dumps_document, load_document)

__version__ = "0.1.0"

# the submodules are bound here by their import, but are not API
__all__ = [name for name in dir() if not name.startswith("_")
           and not isinstance(globals()[name], _ModuleType)]

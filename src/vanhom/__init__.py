"""Exact vanishing homology of collapsing cell complexes.

A finite cell complex whose cells shrink at known rates (exponents of a
positive infinitesimal T) has, for every velocity cut on those rates, a
vanishing homology: the part of its rational homology that can be carried
on the collapsing cells.  This package computes it exactly, along with the
relative theory for pairs, the induced long exact sequence, excision
comparisons and velocity sweeps.
"""

from .puiseux import (INF, ONE, ZERO, ExtRational, IndeterminateAtPrecision,
                      PuiseuxSeries, SeriesParseError, Velocity, compare,
                      constant, format_series, format_velocity, parse_series,
                      parse_velocity, series, t_power, valuation,
                      velocity_contains)
from .cells import (Cell, CellComplex, CellSet, InvalidComplex, NotFaceClosed,
                    NotNested, SimplicialBuilder, ValidationReport,
                    build_circle, build_pinched_spheres, build_torus,
                    disjoint_union, validate, vertex_support)
from .thinness import (DegenerateSimplex, Filtration, GeometricComplex,
                       MissingRate, RateAnnotation, annotate_geometric,
                       critical_rates, filtration, invariant_factor_valuations,
                       is_thin, rate_of, simplex_rate, simplex_rates)
from .homology import (Chain, Subspace, betti, boundary_space, chain_boundary,
                       cycle_space, image_betti, kernel_basis, rank_of,
                       restrict_chain, unit_chains)
from .vanishing import (ChainSubspaceComplex, ExcisionReport, InvalidExcision,
                        LesNode, LesReport, PairReport, SweepTable,
                        VanishingBettiTable, attached_chain_complex,
                        excision_check, les_check, relative_vanishing, sweep,
                        thin_chain_complex, vanishing_betti,
                        vanishing_betti_oracle, vanishing_euler)
from .document import (ComplexDocument, DocumentError, document_dict,
                       document_problems, dumps_document, load_document)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]

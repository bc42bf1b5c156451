"""The package's public names: growing them is a deliberate change."""

import vanhom

PUBLIC = [
    "Cell", "CellComplex", "CellSet", "Chain", "ChainSubspaceComplex",
    "ComplexDocument", "DegenerateSimplex", "DocumentError",
    "ExcisionReport", "ExtRational", "GeometricComplex", "INF",
    "IndeterminateAtPrecision", "InvalidComplex", "InvalidExcision",
    "LesNode", "LesReport", "MissingRate", "NotFaceClosed", "ONE",
    "PairReport", "PuiseuxSeries", "RateAnnotation", "SeriesParseError",
    "SimplicialBuilder", "Subspace", "SweepTable", "ValidationReport",
    "VanishingBettiTable", "Velocity", "ZERO", "annotate_geometric",
    "build_circle", "build_pinched_spheres", "build_torus", "chain_boundary",
    "compare", "constant", "critical_rates", "document_dict",
    "document_problems", "dumps_document", "excision_check",
    "format_series", "format_velocity", "is_thin", "les_check",
    "load_document", "parse_series", "parse_velocity", "rank_of", "rate_of",
    "relative_vanishing", "series", "simplex_rate", "simplex_rates", "sweep",
    "t_power", "thin_chain_complex", "unit_chains", "validate", "valuation",
    "vanishing_betti", "vanishing_betti_oracle", "velocity_contains",
]


def test_public_names_are_pinned():
    assert sorted(vanhom.__all__) == PUBLIC


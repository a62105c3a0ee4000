import harmconv


def test_public_names_are_pinned():
    assert sorted(harmconv.__all__) == [
        "BoundaryDegenerateError", "CohnInapplicableError", "ConvolutionSpec",
        "CriticalPointError", "DomainError", "FAMILIES", "FigureSpec",
        "GridSpec", "HarmconvError", "JBoundaryResult", "J_boundary",
        "MappingSpec", "ParameterError", "Poly", "QuadratureError",
        "SingularityError", "TableRow", "TruncatedSeries", "UnivalencyReport",
        "__version__", "cohn_reduce", "compute_row", "compute_table",
        "conv_derivatives", "conv_dilatation", "conv_dilatation_f0",
        "conv_parts_f1", "conv_value", "default_grid", "dilatation", "eval_B",
        "eval_J", "eval_f", "eval_g", "eval_g_prime", "eval_h",
        "eval_h_prime", "hadamard", "li2", "make_mapping", "render_webbing",
        "scan_dilatation", "series_derivative", "series_div", "series_eval",
        "shear_series", "singular_points", "taylor_of_mapping",
        "univalency_radius", "zeros_in_unit_disk",
    ]
    assert all(hasattr(harmconv, name) for name in harmconv.__all__)

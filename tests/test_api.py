"""The public surface: a name leaves it only through a change to this file."""

import inspect

import pytest

import netpricing

PUBLIC_NAMES = [
    "ALGORITHMS",
    "BMNPP",
    "BUILTIN_SOLVER",
    "ConfigError",
    "DemandNode",
    "ENUMERATION_LIMIT",
    "Edge",
    "EnumerationTooLarge",
    "FORMAT_MARKER",
    "GenParams",
    "HeuristicResult",
    "HeuristicTimeout",
    "Instance",
    "InstanceFormatError",
    "InvalidInstance",
    "LADDER_OUTLET_LIMIT",
    "LinearModel",
    "MNPP",
    "MODELS",
    "MONEY_SCALE",
    "Money",
    "MoneyError",
    "PM",
    "PW",
    "PmStats",
    "PriceGrid",
    "Rng",
    "RunRecord",
    "SOLVER_ENV_VAR",
    "SolveOutcome",
    "SolverAdapter",
    "SolverUnavailable",
    "TooManyOutlets",
    "adjacency",
    "allocate",
    "best_insertion",
    "brute_force",
    "build_ip1",
    "build_ip2",
    "build_model",
    "builtin_adapter",
    "cross_model_gap",
    "demand_at",
    "demand_bmnpp",
    "demand_mnpp",
    "derive_seed",
    "dp_prices",
    "evaluate_prices",
    "fraction_str",
    "full_insertion",
    "gain_over_sp",
    "generate",
    "greedy_select",
    "insertion_with_order",
    "instance_from_doc",
    "instance_label",
    "instance_to_doc",
    "ladder_exact",
    "load_config",
    "load_instance",
    "logit_share",
    "lp_text",
    "make_grid",
    "money_float",
    "money_str",
    "money_unit",
    "number_str",
    "opt_gap",
    "order_select",
    "paper_grid",
    "parse_fraction",
    "parse_money",
    "pm_accounting",
    "price_below",
    "read_runs_csv",
    "records_from_csv",
    "relax",
    "relax_order",
    "resolve_adapter",
    "revenue_table",
    "run_algorithm",
    "run_suite",
    "save_instance",
    "single_price",
    "solve_external",
    "solve_ip",
    "summarise",
    "validate_prices",
    "write_lp",
    "write_runs_csv",
    "write_summary",
]


def test_exported_names_are_pinned():
    assert sorted(netpricing.__all__) == PUBLIC_NAMES


def test_every_exported_name_resolves():
    for name in netpricing.__all__:
        assert hasattr(netpricing, name), name


@pytest.mark.parametrize(
    "name",
    [
        "dp_prices",
        "greedy_select",
        "best_insertion",
        "full_insertion",
        "insertion_with_order",
    ],
)
def test_pricing_functions_take_no_cap_of_their_own(name):
    # The spread cap is instance data: each prices within inst.pi.
    assert "pi" not in inspect.signature(getattr(netpricing, name)).parameters


def test_revenue_table_reports_its_cache():
    assert callable(netpricing.revenue_table.cache_info)

"""treesat: CNF families that hide a forced unit behind pair decisions,
plus the resolution and search machinery to analyze them."""

from .formula import (
    Atlas,
    BinaryVar,
    ChainVar,
    Clause,
    CnfFormula,
    DimacsError,
    FreshVar,
    RootVar,
    SlotVar,
    TAUTOLOGY,
    Tautology,
    VarName,
    build_formula,
    make_clause,
    parse_dimacs,
    parse_var_name,
    write_dimacs,
)
from .forge import (
    Alias,
    Closing,
    Closure,
    ClosureClause,
    NamedLit,
    RedundancySpec,
    TreeSpec,
    build_binary_tree,
    build_binomial_tree,
    build_multi_branching,
    build_pair_chain,
    build_unit_chain,
    compose_two_trees,
    parse_closure,
)
from .counts import (
    PathReport,
    binary_depth_for,
    binary_var_count,
    binomial_depth_for,
    binomial_var_count,
    candidate_combinations,
    enumerate_paths,
    leaf_path_counts,
)
from .oracle import (
    OracleVerdict,
    Verdict,
    brute_force_sat,
    dpll_sat,
    entails,
    is_dominant,
)
from .resolution import (
    Budget,
    DecisionChain,
    ResolutionDominance,
    ResolutionStep,
    SaturationResult,
    SaturationStatus,
    decision_chain_of,
    export_chain_dot,
    export_trace,
    is_dominant_by_resolution,
    replay_trace,
    resolve,
    saturate,
)
from .bench import (
    BenchRecord,
    PowerLawFit,
    export_csv,
    fit_power_law,
    parse_csv,
    run_one,
    run_sweep,
    summarize,
    write_scatter_svg,
)
from .verify import CheckResult, check_names, format_report, run_checks

__version__ = "0.1.0"

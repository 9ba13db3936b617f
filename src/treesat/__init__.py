"""treesat: CNF families that hide a forced unit behind pair decisions,
plus the resolution and search machinery to analyze them.

The package root re-exports the four engine modules (formula, forge,
resolution, oracle).  `treesat.counts`, `treesat.bench` and
`treesat.verify` are imported by name, so `import treesat` does not pay
for them."""

from .formula import (
    Atlas,
    Clause,
    CnfFormula,
    DimacsError,
    ROOT,
    build_formula,
    make_clause,
    parse_dimacs,
    parse_var_name,
    write_dimacs,
)
from .forge import (
    Closing,
    Closure,
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

__version__ = "0.1.0"

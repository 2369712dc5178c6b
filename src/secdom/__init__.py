"""secdom: computing, verifying, and approximating 2-secure dominating sets.

Every exact solve makes one call of the level scan,
`secdom.kernel.solve_level`, which calls `least(masks, kind, first, last)` of
one of two backends that run the same algorithm: a hand-written C extension
when it was built, else the pure-Python `secdom._pykernel`, selected at
import (see `secdom.kernel.BACKEND`); it counts the subsets examined itself,
for either.
"""

from .domination import (
    BudgetExceededError,
    DOMINATING,
    SolveReport,
    TWO_DOMINATING,
    exact_minimum,
    greedy_2dominating,
    greedy_dominating,
    is_2dominating,
    is_dominating,
)
from .gadgets import GadgetResult, apx_gadget, generate, gs_graph, inapprox_gadget
from .graphio import GraphParseError, parse_graph, write_graph
from .graphs import Graph, GraphError, build_graph
from .kernel import BACKEND as KERNEL_BACKEND
from .secure import (
    DefenseCertificate,
    DisconnectedGraphError,
    approx_2sds,
    dom_set_approx,
    exact_gamma_2s,
    find_defenders,
    first_failure,
    verify_2sds,
)

__version__ = "0.1.0"

__all__ = [
    "BudgetExceededError",
    "DOMINATING",
    "DefenseCertificate",
    "DisconnectedGraphError",
    "GadgetResult",
    "Graph",
    "GraphError",
    "GraphParseError",
    "KERNEL_BACKEND",
    "SolveReport",
    "TWO_DOMINATING",
    "approx_2sds",
    "apx_gadget",
    "build_graph",
    "dom_set_approx",
    "exact_gamma_2s",
    "exact_minimum",
    "find_defenders",
    "first_failure",
    "generate",
    "greedy_2dominating",
    "greedy_dominating",
    "gs_graph",
    "inapprox_gadget",
    "is_2dominating",
    "is_dominating",
    "parse_graph",
    "verify_2sds",
    "write_graph",
]

"""Exact solving for biased Maker-Breaker and unbiased Waiter-Client
positional games: bitset boards, construction generators, domination-game
reductions, scripted strategies, and an exhaustive strategy verifier.
"""

from .bitset import CAPACITY, ElementSet, indices_of, mask_from_indices
from .boards import (
    Hypergraph,
    RootedDigraph,
    SimpleGraph,
    add_all_k_subsets,
    digraph_new,
    disjoint_union,
    dumps,
    from_json,
    graph_new,
    hypergraph_new,
    loads,
    minimalize,
    to_json,
    transversal_hypergraph,
)
from .engine import (
    GameKind,
    GameSpec,
    GameState,
    Outcome,
    Player,
    apply_move,
    initial_state,
    legal_moves,
    status,
    successors,
)
from .errors import (
    BoardError,
    DegenerateTransversalError,
    FormatError,
    GuardExceeded,
    IllegalMove,
    PosgamesError,
    RestrictionError,
)
from .solver import (
    Objective,
    SolveResult,
    decide,
    decide_mb,
    decide_wc,
    game_values,
    solve_aux_game,
    values,
    wc_game_values,
)

__version__ = "0.1.0"

from .constructions import (  # noqa: E402
    build_complete_uniform,
    build_gadget,
    build_gtb,
    build_hmbst,
    build_htb,
    build_ht_wc,
    build_nonmonotone,
    build_thm12,
    build_thm14,
    build_thm15,
    build_thm16,
    build_wc_gap_case1,
)
from .domination import (  # noqa: E402
    ResidueReport,
    dom_game_values,
    dom_wc_values,
    domination_number,
    is_dominating,
    minimal_dominating_sets,
    residue,
    wc_cycle_value,
    wc_tree_value,
)
from .strategies import (  # noqa: E402
    CATALOG,
    Guarantee,
    Strategy,
    VerifyResult,
    instance,
    verify_strategy,
)

"""Randomised colouring of locally sparse graphs.

Toolkit pieces:

* :mod:`sparsecolour.graph` -- graphs, sparsity instrumentation, first-fit
  colouring, DIMACS/JSON io;
* :mod:`sparsecolour.cliques` -- exact maximum cliques and the
  clique-peeling reduction;
* :mod:`sparsecolour.correspondence` -- correspondence (DP-) colouring
  assignments;
* :mod:`sparsecolour.ncp` -- the randomised colouring rounds, restart
  wrapper, iteration schedule and driver;
* :mod:`sparsecolour.strong_edge` -- strong edge colouring via the square of
  the line graph;
* :mod:`sparsecolour.bounds` -- every closed-form bound, feasibility
  condition and the clique-ratio table;
* :mod:`sparsecolour.harness` -- exhaustive oracles and Monte Carlo
  estimation;
* :mod:`sparsecolour.cli` -- the command line entry point.
"""

__version__ = "0.1.0"

from .graph import (  # noqa: F401
    Graph,
    SparsityReport,
    first_fit,
    local_sparsity,
    min_degree_ordering,
)
from .cliques import (  # noqa: F401
    CliqueInfo,
    clique_info,
    hitting_independent_set,
    reduce_by_cliques,
)
from .correspondence import (  # noqa: F401
    CorrespondenceAssignment,
    from_lists,
    is_valid_colouring,
    residual_assignment,
    totalize,
    truncate,
    uniform_lists,
)
from .ncp import (  # noqa: F401
    IterationSchedule,
    RoundOutcome,
    RoundStats,
    build_schedule,
    derive_seed,
    greedy_complete,
    iterative_colour,
    keep_probability,
    quasirandom_check,
    round_stats,
    run_round,
)
from .strong_edge import (  # noqa: F401
    StrongNeighbourhoodProfile,
    c5_blowup,
    f_core,
    f_core_density_check,
    line_graph_square,
    strong_edge_colour,
    strong_profile,
)
from .bounds import (  # noqa: F401
    alpha_eps_table,
    approx_eps,
    condition_check,
    critical_sparsity,
    epsilon_for_alpha,
    neighbourhood_deficiency,
    savings_rate,
    strong_edge_constants,
)
from .harness import (  # noqa: F401
    enumerate_outcomes,
    exact_chromatic,
    monte_carlo_round,
    residual_sparsity_experiment,
)

"""Exact toolkit for 3n+1 sequences.

Incoming-term matrices over the odd integers, the component connection
tree built on them, two independent sequence generators, and a bounded
verification harness with brute-force oracles.
"""

from .arith import (
    DEFAULT_MAX_STEPS,
    NotReducible,
    col_step,
    index_lift,
    lift,
    odd_part,
    syr,
    syr_class,
    unlift,
    v2,
)
from .matrices import Coord, child_column, entry, iter_connections, locate, residue6, row, syr_via_matrix
from .sequences import (
    SeqStats,
    Sequence,
    col_seq,
    collatz_expand,
    stats,
    syr_seq_model,
    syr_seq_oracle,
    walk,
)
from .tree import (
    ComponentId,
    RootPath,
    Tree,
    TreeEdge,
    build_tree,
    children,
    connection_point,
    export,
    path_to_root,
)
from .verify import (
    PropertyCheck,
    SweepReport,
    check_closed_forms,
    check_connection_coverage,
    check_coverage,
    check_cycle_freedom,
    check_even_identity,
    check_partition,
    run_check,
    sweep_convergence,
    table_a_rows,
    table_b_cells,
)

__version__ = "0.1.0"

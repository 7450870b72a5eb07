"""SAT solving substrate (MiniSat stand-in for the synthesis pipeline).

Public surface:

* :class:`Cnf` — clause container with fresh-variable allocation.
* :class:`CdclSolver` / :func:`solve_cnf` — complete CDCL search
  (:class:`CdclSolver` is :class:`CdclCore`, the one solver class).
* :class:`SatResult` / :class:`SolverStats` — solve outcomes and counters.
* :func:`iter_models` / :func:`count_models` — AllSAT enumeration.
* :func:`parse_dimacs` / :func:`dimacs_text` — DIMACS interchange.
* :func:`brute_force_models` and friends — the exhaustive reference the
  solver is tested against.
"""

from .cnf import Cnf
from .core import (
    MAX_MERGED_STAT_FIELDS,
    CdclCore,
    CdclSolver,
    SatResult,
    SolverStats,
    luby,
    solve_cnf,
)
from .dimacs import dimacs_text, parse_dimacs, read_dimacs, write_dimacs
from .enumerate import count_models, iter_models
from .reference import brute_force_count, brute_force_models, brute_force_satisfiable

__all__ = [
    "Cnf",
    "MAX_MERGED_STAT_FIELDS",
    "CdclCore",
    "CdclSolver",
    "SatResult",
    "SolverStats",
    "luby",
    "solve_cnf",
    "iter_models",
    "count_models",
    "parse_dimacs",
    "read_dimacs",
    "write_dimacs",
    "dimacs_text",
    "brute_force_models",
    "brute_force_satisfiable",
    "brute_force_count",
]

"""Storage and search invariants of the flat-arena CDCL core.

``repro.sat.core.CdclCore`` is the one solver behind every SAT query, so
its internal data structures are checked directly here, beyond the
black-box brute-force comparisons of ``test_sat_properties.py`` and
``test_sat_fuzz.py``:

* the arena layout (``size | flags | lits``), the watch lists of long
  clauses (one ``blocker, cref`` pair on each of the first two literals)
  and the dedicated binary watch lists;
* root-level clause filtering in :meth:`CdclCore.add_clause` and
  variable growth after construction;
* learned-clause database reduction and arena compaction: which clauses
  survive, and that every reference (clause lists, watch lists, trail
  reasons) is remapped;
* the VSIDS heap, phase saving and backtracking;
* a corpus of structured instances with known answers and model counts
  (pigeonhole, parity, graph colouring, n-queens, exactly-one, random
  3-SAT checked by brute force): each is solved, solved twice for
  determinism, solved across forced database reductions, and enumerated,
  with the structural invariants checked after every search.
"""

from __future__ import annotations

import random
import time
from collections import Counter
from dataclasses import asdict
from itertools import combinations

import pytest

import repro.sat.core as core_module
from repro.errors import SolverInterrupted
from repro.resilience import deadline_scope
from repro.sat import (
    CdclCore,
    CdclSolver,
    Cnf,
    brute_force_count,
    brute_force_satisfiable,
)

# ----------------------------------------------------------------------
# Instance generators
# ----------------------------------------------------------------------


def make_cnf(num_vars: int, clauses: list[list[int]] = ()) -> Cnf:
    cnf = Cnf(num_vars)
    cnf.add_clauses(clauses)
    return cnf


def pigeonhole(pigeons: int, holes: int) -> Cnf:
    """Every pigeon in some hole, no hole shared: SAT iff pigeons <= holes;
    with pigeons == holes the models are the pigeons! bijections."""
    cnf = Cnf(pigeons * holes)

    def var(pigeon: int, hole: int) -> int:
        return pigeon * holes + hole + 1

    for pigeon in range(pigeons):
        cnf.add_clause([var(pigeon, hole) for hole in range(holes)])
    for hole in range(holes):
        for a, b in combinations(range(pigeons), 2):
            cnf.add_clause([-var(a, hole), -var(b, hole)])
    return cnf


def _xor_chain(cnf: Cnf, inputs: list[int]) -> int:
    """Tseitin-encode the XOR of ``inputs``; returns its output variable."""
    acc = inputs[0]
    for x in inputs[1:]:
        out = cnf.new_var()
        cnf.add_clauses(
            [[-out, acc, x], [-out, -acc, -x], [out, -acc, x], [out, acc, -x]]
        )
        acc = out
    return acc


def parity(n: int, contradict: bool = False) -> Cnf:
    """x1 xor ... xor xn = 1 (2^(n-1) models, auxiliaries determined);
    with ``contradict`` a second, independent chain over the same inputs
    must be 0, which is UNSAT."""
    cnf = Cnf(n)
    inputs = list(range(1, n + 1))
    cnf.add_clause([_xor_chain(cnf, inputs)])
    if contradict:
        cnf.add_clause([-_xor_chain(cnf, list(reversed(inputs)))])
    return cnf


def colouring(nodes: int, edges: list[tuple[int, int]], colours: int) -> Cnf:
    """Proper colourings, exactly one colour per node."""
    cnf = Cnf(nodes * colours)

    def var(node: int, colour: int) -> int:
        return node * colours + colour + 1

    for node in range(nodes):
        cnf.add_clause([var(node, c) for c in range(colours)])
        for a, b in combinations(range(colours), 2):
            cnf.add_clause([-var(node, a), -var(node, b)])
    for u, v in edges:
        for c in range(colours):
            cnf.add_clause([-var(u, c), -var(v, c)])
    return cnf


def cycle(n: int) -> list[tuple[int, int]]:
    return [(i, (i + 1) % n) for i in range(n)]


def complete(n: int) -> list[tuple[int, int]]:
    return list(combinations(range(n), 2))


PETERSEN = (
    cycle(5)
    + [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    + [(i, 5 + i) for i in range(5)]
)


def queens(n: int) -> Cnf:
    """n non-attacking queens on an n x n board."""
    cnf = Cnf(n * n)

    def var(row: int, col: int) -> int:
        return row * n + col + 1

    cells = [(r, c) for r in range(n) for c in range(n)]
    for row in range(n):
        cnf.add_clause([var(row, col) for col in range(n)])
    for (r1, c1), (r2, c2) in combinations(cells, 2):
        if r1 == r2 or c1 == c2 or abs(r1 - r2) == abs(c1 - c2):
            cnf.add_clause([-var(r1, c1), -var(r2, c2)])
    return cnf


def exactly_one(n: int) -> Cnf:
    cnf = make_cnf(n, [list(range(1, n + 1))])
    for a, b in combinations(range(1, n + 1), 2):
        cnf.add_clause([-a, -b])
    return cnf


def random_3sat(num_vars: int, num_clauses: int, seed: int) -> Cnf:
    rng = random.Random(seed)
    cnf = Cnf(num_vars)
    for _ in range(num_clauses):
        chosen = rng.sample(range(1, num_vars + 1), 3)
        cnf.add_clause([v if rng.random() < 0.5 else -v for v in chosen])
    return cnf


#: name -> (factory, satisfiable); None means "ask the brute-force oracle".
SOLVE_CORPUS = {
    **{f"php-{h + 1}-in-{h}": (lambda h=h: pigeonhole(h + 1, h), False) for h in range(2, 7)},
    **{f"php-{n}-in-{n}": (lambda n=n: pigeonhole(n, n), True) for n in range(3, 6)},
    "parity-5": (lambda: parity(5), True),
    "parity-8": (lambda: parity(8), True),
    "parity-clash-4": (lambda: parity(4, contradict=True), False),
    "parity-clash-7": (lambda: parity(7, contradict=True), False),
    "c5-2-colours": (lambda: colouring(5, cycle(5), 2), False),
    "c6-2-colours": (lambda: colouring(6, cycle(6), 2), True),
    "c5-3-colours": (lambda: colouring(5, cycle(5), 3), True),
    "k4-3-colours": (lambda: colouring(4, complete(4), 3), False),
    "k4-4-colours": (lambda: colouring(4, complete(4), 4), True),
    "petersen-2-colours": (lambda: colouring(10, PETERSEN, 2), False),
    "petersen-3-colours": (lambda: colouring(10, PETERSEN, 3), True),
    **{f"queens-{n}": (lambda n=n: queens(n), n >= 4) for n in (2, 3, 4, 5, 6, 8)},
    "exactly-one-7": (lambda: exactly_one(7), True),
    **{f"random-3sat-{s}": (lambda s=s: random_3sat(12, 52, s), None) for s in range(6)},
}

#: name -> (factory, model count); None means "ask the brute-force oracle".
ENUM_CORPUS = {
    "php-4-in-3": (lambda: pigeonhole(4, 3), 0),
    "php-3-in-3": (lambda: pigeonhole(3, 3), 6),
    "php-4-in-4": (lambda: pigeonhole(4, 4), 24),
    "parity-6": (lambda: parity(6), 32),
    "c5-3-colours": (lambda: colouring(5, cycle(5), 3), 30),
    "c6-2-colours": (lambda: colouring(6, cycle(6), 2), 2),
    "k4-4-colours": (lambda: colouring(4, complete(4), 4), 24),
    "queens-4": (lambda: queens(4), 2),
    "queens-5": (lambda: queens(5), 10),
    "queens-6": (lambda: queens(6), 4),
    "exactly-one-7": (lambda: exactly_one(7), 7),
    **{f"random-3sat-{s}": (lambda s=s: random_3sat(10, 30, s), None) for s in range(3)},
}


def expected_satisfiable(name: str, cnf: Cnf) -> bool:
    expected = SOLVE_CORPUS[name][1]
    return brute_force_satisfiable(cnf) if expected is None else expected


def expected_count(name: str, cnf: Cnf) -> int:
    expected = ENUM_CORPUS[name][1]
    return brute_force_count(cnf) if expected is None else expected


# ----------------------------------------------------------------------
# Structural invariants
# ----------------------------------------------------------------------


def clause_lits(solver: CdclCore, cref: int) -> list[int]:
    arena = solver._arena
    return arena[cref : cref + arena[cref - 2]]


def assert_core_invariants(solver: CdclCore) -> None:
    """The invariants every search step relies on, checked from scratch."""
    arena = solver._arena
    values = solver._values
    # Trail and assignment agree; levels never decrease along the trail.
    assigned = set()
    last_level = 0
    for lit in solver._trail:
        var = abs(lit)
        assert solver._value(lit) is True
        assert var not in assigned
        assigned.add(var)
        assert solver._level[var] >= last_level
        last_level = solver._level[var]
    for var in range(1, solver._nvars + 1):
        if var not in assigned:
            assert values[2 * var] == values[2 * var + 1] == 0
            # Every unassigned variable is still a decision candidate.
            assert solver._heap_pos[var] >= 0
    # Reasons: the forcing clause contains the literal, all others false.
    for lit in solver._trail:
        reason = solver._reason_lits(abs(lit))
        if reason is None:
            continue
        reason = list(reason)
        assert lit in reason
        assert all(solver._value(other) is False for other in reason if other != lit)
    # Heap: positions consistent, parent never ordered after its child.
    heap = solver._heap
    for index, var in enumerate(heap):
        assert solver._heap_pos[var] == index
        if index:
            assert not solver._heap_before(var, heap[(index - 1) >> 1])
    # Long clauses: watched exactly on their first two literals, each
    # watch carrying a blocker drawn from the clause itself.
    expected = Counter()
    for cref in solver._long_crefs + solver._learned_crefs:
        assert arena[cref - 2] >= 3
        expected[(solver._lit_index(-arena[cref]), cref)] += 1
        expected[(solver._lit_index(-arena[cref + 1]), cref)] += 1
    actual = Counter()
    for index, watch_list in enumerate(solver._watches):
        assert len(watch_list) % 2 == 0
        for k in range(0, len(watch_list), 2):
            blocker, cref = watch_list[k], watch_list[k + 1]
            assert blocker in clause_lits(solver, cref)
            actual[(index, cref)] += 1
    assert actual == expected
    # Binary clauses: one (other, cref) entry per literal.
    expected = Counter()
    for cref in solver._bin_crefs:
        assert arena[cref - 2] == 2
        a, b = arena[cref], arena[cref + 1]
        expected[(solver._lit_index(-a), b, cref)] += 1
        expected[(solver._lit_index(-b), a, cref)] += 1
    actual = Counter(
        (index, other, cref)
        for index, watch_list in enumerate(solver._bin_watches)
        for other, cref in watch_list
    )
    assert actual == expected
    # Learned bits: set on the learned list, clear on long problem clauses.
    assert all(arena[cref - 1] & 1 for cref in solver._learned_crefs)
    assert not any(arena[cref - 1] & 1 for cref in solver._long_crefs)


def model_key(model: dict[int, bool]) -> tuple:
    return tuple(sorted(model.items()))


# ----------------------------------------------------------------------
# Arena layout and watches
# ----------------------------------------------------------------------


class TestArenaLayout:
    def test_header_packs_size_lbd_and_learned_bit(self) -> None:
        solver = CdclSolver(make_cnf(5))
        cref = solver._attach_clause([1, -2, 3, 4], learned=True, lbd=5)
        assert solver._arena[cref - 2] == 4
        assert solver._arena[cref - 1] == (5 << 1) | 1
        assert clause_lits(solver, cref) == [1, -2, 3, 4]
        assert solver._learned_crefs == [cref]
        assert solver.learned_count == 1

    def test_padding_keeps_every_cref_above_one(self) -> None:
        solver = CdclSolver(make_cnf(3, [[1, 2, 3]]))
        assert solver._arena[:2] == [0, 0]
        assert solver._long_crefs == [4]

    def test_problem_clauses_load_in_cnf_order(self) -> None:
        solver = CdclSolver(make_cnf(4, [[1, 2, 3], [2, 3, 4], [-1, -4, 2]]))
        assert [clause_lits(solver, c) for c in solver._long_crefs] == [
            [1, 2, 3],
            [2, 3, 4],
            [-1, -4, 2],
        ]
        assert solver.learned_count == 0
        assert_core_invariants(solver)

    def test_binary_clause_uses_binary_watch_lists_only(self) -> None:
        solver = CdclSolver(make_cnf(2, [[1, -2]]))
        (cref,) = solver._bin_crefs
        assert solver._bin_watches[solver._lit_index(-1)] == [(-2, cref)]
        assert solver._bin_watches[solver._lit_index(2)] == [(1, cref)]
        assert not any(solver._watches)
        assert_core_invariants(solver)

    def test_long_clause_watches_its_first_two_literals(self) -> None:
        solver = CdclSolver(make_cnf(3, [[1, 2, 3]]))
        (cref,) = solver._long_crefs
        assert solver._watches[solver._lit_index(-1)] == [2, cref]
        assert solver._watches[solver._lit_index(-2)] == [1, cref]
        assert solver._watches[solver._lit_index(-3)] == []

    def test_binary_learned_clauses_are_not_counted(self) -> None:
        solver = CdclSolver(make_cnf(4))
        solver._attach_clause([1, 2], learned=True, lbd=2)
        assert solver.learned_count == 0
        solver._attach_clause([1, 2, 3], learned=True, lbd=2)
        assert solver.learned_count == 1

    def test_units_are_propagated_at_the_root_on_load(self) -> None:
        solver = CdclSolver(make_cnf(3, [[1], [-1, 2], [-2, -3]]))
        assert solver._trail == [1, 2, -3]
        assert [solver._level[v] for v in (1, 2, 3)] == [0, 0, 0]
        assert solver._reason_lits(1) is None
        assert sorted(solver._reason_lits(2)) == [-1, 2]
        assert_core_invariants(solver)

    @pytest.mark.parametrize(
        "clauses", [[[1], [-1]], [[]], [[1], [-1, 2], [-2]]], ids=str
    )
    def test_root_contradiction_on_load_is_final(self, clauses) -> None:
        solver = CdclSolver(make_cnf(2, clauses))
        assert not solver.solve().satisfiable
        assert list(solver.iter_solutions()) == []
        assert not solver.add_clause([1, 2])


# ----------------------------------------------------------------------
# add_clause: root-level filtering and growth
# ----------------------------------------------------------------------


class TestAddClause:
    def test_tautology_attaches_nothing(self) -> None:
        solver = CdclSolver(make_cnf(3))
        assert solver.add_clause([1, 2, -1])
        assert solver._long_crefs == solver._bin_crefs == []

    def test_duplicates_collapse_and_literals_sort_by_variable(self) -> None:
        solver = CdclSolver(make_cnf(5))
        assert solver.add_clause([5, -3, 5, 1])
        (cref,) = solver._long_crefs
        assert clause_lits(solver, cref) == [1, -3, 5]

    def test_root_satisfied_clause_is_dropped(self) -> None:
        solver = CdclSolver(make_cnf(3, [[2]]))
        assert solver.add_clause([1, 2, 3])
        assert solver._long_crefs == []

    def test_root_false_literals_are_stripped(self) -> None:
        solver = CdclSolver(make_cnf(4, [[-2]]))
        assert solver.add_clause([1, 2, 3])
        assert solver._long_crefs == []
        (cref,) = solver._bin_crefs
        assert clause_lits(solver, cref) == [1, 3]

    def test_clause_false_at_the_root_makes_the_solver_unsat(self) -> None:
        solver = CdclSolver(make_cnf(2, [[-1], [-2]]))
        assert not solver.add_clause([1, 2])
        assert not solver.solve().satisfiable
        assert not solver.add_clause([1])

    def test_unit_propagates_immediately(self) -> None:
        solver = CdclSolver(make_cnf(3, [[-1, 2], [-2, 3]]))
        assert solver.add_clause([1])
        assert solver._trail == [1, 2, 3]
        assert_core_invariants(solver)

    def test_new_variables_grow_every_per_variable_array(self) -> None:
        solver = CdclSolver(make_cnf(3, [[1, 2, 3]]))
        assert solver.solve().satisfiable
        solver.add_clause([-4, 5])
        solver.add_clause([4])
        assert solver._nvars == 5
        assert len(solver._values) == len(solver._watches) == 2 * 5 + 2
        assert len(solver._bin_watches) == 2 * 5 + 2
        for per_var in (
            solver._level,
            solver._reason,
            solver._activity,
            solver._saved_phase,
            solver._heap_pos,
            solver._seen,
        ):
            assert len(per_var) == 5 + 1
        result = solver.solve()
        assert result.satisfiable
        assert result.model[4] is True and result.model[5] is True
        assert_core_invariants(solver)

    def test_assumptions_on_unknown_variables_grow_the_solver(self) -> None:
        solver = CdclSolver(make_cnf(1, [[1]]))
        result = solver.solve(assumptions=[-3])
        assert result.satisfiable
        assert result.model == {1: True, 2: False, 3: False}

    def test_adding_mid_enumeration_returns_to_the_root(self) -> None:
        solver = CdclSolver(make_cnf(3))
        models = solver.iter_solutions()
        next(models)
        assert solver._trail_lim  # suspended at a total assignment
        assert solver.add_clause([1, 2])
        assert solver._trail_lim == []
        assert_core_invariants(solver)
        remaining = [model_key(m) for m in solver.iter_solutions()]
        assert len(remaining) == 6


# ----------------------------------------------------------------------
# Propagation and conflict reporting
# ----------------------------------------------------------------------


class TestPropagation:
    def test_long_clause_forces_its_last_literal(self) -> None:
        solver = CdclSolver(make_cnf(3, [[1, 2, 3]]))
        assert solver._enqueue(-1, -1)
        assert solver._enqueue(-2, -1)
        assert solver._propagate() is None
        assert solver._value(3) is True
        (cref,) = solver._long_crefs
        assert solver._reason[3] == cref
        assert_core_invariants(solver)

    def test_binary_clause_forces_the_other_literal(self) -> None:
        solver = CdclSolver(make_cnf(2, [[1, 2]]))
        solver._trail_lim.append(len(solver._trail))
        assert solver._enqueue(-1, -1)
        assert solver._propagate() is None
        assert solver._trail == [-1, 2]
        assert solver._level[2] == 1
        assert sorted(solver._reason_lits(2)) == [1, 2]
        assert solver.stats.propagations == 2

    def test_conflict_is_reported_as_the_clause_literals(self) -> None:
        solver = CdclSolver(make_cnf(3, [[1, 2, 3]]))
        for lit in (-1, -2, -3):
            assert solver._enqueue(lit, -1)
        assert sorted(solver._propagate()) == [1, 2, 3]

    def test_binary_conflict_is_reported_as_the_clause_literals(self) -> None:
        solver = CdclSolver(make_cnf(2, [[1, 2]]))
        assert solver._enqueue(-1, -1)
        assert solver._enqueue(-2, -1)
        assert sorted(solver._propagate()) == [1, 2]
        assert solver.stats.propagations > 0

    def test_watch_moves_to_an_unassigned_literal(self) -> None:
        solver = CdclSolver(make_cnf(4, [[1, 2, 3, 4]]))
        (cref,) = solver._long_crefs
        assert solver._enqueue(-1, -1)
        assert solver._propagate() is None
        watched = set(clause_lits(solver, cref)[:2])
        assert -1 not in watched and 1 not in watched
        assert solver._value(3) is None and solver._value(4) is None
        assert_core_invariants(solver)

    def test_enqueue_reports_the_existing_value(self) -> None:
        solver = CdclSolver(make_cnf(1))
        assert solver._enqueue(1, -1)
        assert solver._enqueue(1, -1)
        assert not solver._enqueue(-1, -1)
        assert solver._trail == [1]


# ----------------------------------------------------------------------
# Database reduction and arena compaction
# ----------------------------------------------------------------------


class TestReduction:
    def test_compaction_preserves_every_clause_and_packs_the_arena(self) -> None:
        solver = CdclSolver(make_cnf(6, [[1, 2], [1, 2, 3], [-4, 5, 6]]))
        solver._attach_clause([3, 4, 5], learned=True, lbd=3)
        solver._attach_clause([-1, -2], learned=True, lbd=2)
        solver._attach_clause([2, -5, 6, 1], learned=True, lbd=4)
        before = {
            name: [clause_lits(solver, c) for c in getattr(solver, name)]
            for name in ("_bin_crefs", "_long_crefs", "_learned_crefs")
        }
        solver._compact_and_rebuild()
        after = {
            name: [clause_lits(solver, c) for c in getattr(solver, name)]
            for name in before
        }
        assert after == before
        sizes = [len(lits) for group in before.values() for lits in group]
        assert len(solver._arena) == 2 + sum(2 + size for size in sizes)
        # Binary clauses first, then problem, then learned clauses.
        assert solver._bin_crefs[0] < solver._long_crefs[0] < solver._learned_crefs[0]
        assert_core_invariants(solver)

    def test_compaction_remaps_trail_reasons(self) -> None:
        solver = CdclSolver(make_cnf(4))
        stale = solver._attach_clause([1, 2, 3], learned=True, lbd=9)
        keeper = solver._attach_clause([-1, -2, 4], learned=True, lbd=9)
        assert solver._enqueue(1, -1)
        assert solver._enqueue(2, -1)
        assert solver._enqueue(4, keeper)
        solver._learned_crefs = [keeper]  # drop the first clause
        solver._compact_and_rebuild()
        assert solver._reason[4] != keeper and solver._reason[4] < stale + 3
        assert clause_lits(solver, solver._reason[4]) == [-1, -2, 4]
        assert_core_invariants(solver)

    def test_reduce_db_keeps_the_best_half_by_lbd(self) -> None:
        solver = CdclSolver(make_cnf(8))
        for lbd in (8, 3, 7, 4, 6, 5):
            solver._attach_clause([1, 2, lbd], learned=True, lbd=lbd)
        solver._max_learned = 4
        solver._reduce_db()
        kept = sorted(solver._arena[c - 1] >> 1 for c in solver._learned_crefs)
        assert kept == [3, 4, 5]
        assert solver.stats.db_reductions == 1
        assert solver.stats.deleted_clauses == 3
        assert solver._max_learned == 6
        assert_core_invariants(solver)

    def test_reduce_db_ties_break_by_length_then_age(self) -> None:
        solver = CdclSolver(make_cnf(8))
        long_old = solver._attach_clause([1, 2, 3, 4], learned=True, lbd=5)
        short = solver._attach_clause([1, 2, 5], learned=True, lbd=5)
        old = solver._attach_clause([1, 2, 6], learned=True, lbd=5)
        new = solver._attach_clause([1, 2, 7], learned=True, lbd=5)
        lits = {c: clause_lits(solver, c) for c in (long_old, short, old, new)}
        solver._reduce_db()
        assert [clause_lits(solver, c) for c in solver._learned_crefs] == [
            lits[short],
            lits[old],
        ]

    def test_reduce_db_keeps_glue_clauses(self) -> None:
        solver = CdclSolver(make_cnf(8))
        for lbd in (2, 2, 2, 9):
            solver._attach_clause([3, 4, 5 + lbd % 3], learned=True, lbd=lbd)
        solver._reduce_db()
        assert sorted(solver._arena[c - 1] >> 1 for c in solver._learned_crefs) == [
            2,
            2,
            2,
        ]

    def test_reduce_db_keeps_a_locked_clause_whatever_its_rank(self) -> None:
        solver = CdclSolver(make_cnf(6))
        solver._attach_clause([1, 2, 3], learned=True, lbd=3)
        solver._attach_clause([1, 2, 4], learned=True, lbd=3)
        locked = solver._attach_clause([5, -1, -2], learned=True, lbd=50)
        assert solver._enqueue(1, -1) and solver._enqueue(2, -1)
        assert solver._enqueue(5, locked)
        solver._reduce_db()
        assert [5, -1, -2] in [clause_lits(solver, c) for c in solver._learned_crefs]
        assert clause_lits(solver, solver._reason[5]) == [5, -1, -2]
        assert_core_invariants(solver)

    def test_problem_and_blocking_clauses_are_never_reduced(self) -> None:
        solver = CdclSolver(make_cnf(4, [[1, 2, 3], [1, -2, 4]]))
        blocking = [model_key(m) for m in solver.iter_solutions()]
        problem = [clause_lits(solver, c) for c in solver._long_crefs]
        binary = [clause_lits(solver, c) for c in solver._bin_crefs]
        assert solver.learned_count == 0  # blocking clauses are not learned
        solver._reduce_db()
        assert [clause_lits(solver, c) for c in solver._long_crefs] == problem
        assert [clause_lits(solver, c) for c in solver._bin_crefs] == binary
        assert solver.stats.deleted_clauses == 0
        assert len(blocking) == brute_force_count(make_cnf(4, [[1, 2, 3], [1, -2, 4]]))


# ----------------------------------------------------------------------
# VSIDS heap, phase saving, backtracking
# ----------------------------------------------------------------------


class TestSearchState:
    def test_fresh_heap_pops_variables_in_index_order(self) -> None:
        solver = CdclSolver(make_cnf(6))
        assert [solver._heap_pop() for _ in range(6)] == [1, 2, 3, 4, 5, 6]

    def test_heap_orders_by_activity_then_index(self) -> None:
        solver = CdclSolver(make_cnf(6))
        solver._bump(5)
        solver._bump(3)
        solver._bump(5)
        assert [solver._heap_pop() for _ in range(6)] == [5, 3, 1, 2, 4, 6]

    def test_activity_rescaling_preserves_the_order(self) -> None:
        solver = CdclSolver(make_cnf(4))
        solver._var_inc = 6e99
        solver._bump(2)
        solver._bump(2)  # crosses 1e100: every activity is rescaled
        solver._bump(4)
        assert max(solver._activity) < 1e100
        assert solver._var_inc < 1.0
        assert [solver._heap_pop() for _ in range(4)] == [2, 4, 1, 3]

    def test_decay_grows_the_bump_increment(self) -> None:
        solver = CdclSolver(make_cnf(1))
        solver._decay()
        assert solver._var_inc == pytest.approx(1 / 0.95)

    def test_first_decision_is_the_negative_phase(self) -> None:
        solver = CdclSolver(make_cnf(3))
        result = solver.solve()
        assert result.model == {1: False, 2: False, 3: False}
        assert solver.last_model_decisions() == [-1, -2, -3]

    def test_backtracking_saves_phases_and_refills_the_heap(self) -> None:
        solver = CdclSolver(make_cnf(3))
        assert [solver._heap_pop() for _ in range(3)] == [1, 2, 3]
        for lit in (2, -3, 1):
            solver._trail_lim.append(len(solver._trail))
            solver._enqueue(lit, -1)
        solver._cancel_until(1)
        assert solver._trail == [2]
        assert solver._saved_phase[1:] == [True, False, False]
        assert sorted(solver._heap) == [1, 3]
        solver._cancel_until(0)
        assert solver._saved_phase[1:] == [True, True, False]
        assert sorted(solver._heap) == [1, 2, 3]
        assert solver._trail == [] and solver._qhead == 0
        assert_core_invariants(solver)

    def test_saved_phases_steer_the_next_solve(self) -> None:
        solver = CdclSolver(make_cnf(3, [[1, 2, 3]]))
        first = solver.solve()
        assert first.model == {1: False, 2: False, 3: True}
        assert solver.solve().model == first.model

    def test_unit_blocking_clause_returns_to_the_root(self) -> None:
        """A model decided by one literal is blocked by a unit clause,
        which lands on level 0; a model with no decisions ends the
        enumeration."""
        solver = CdclSolver(make_cnf(2))
        models = solver.iter_solutions()
        assert next(models) == {1: False, 2: False}
        assert solver.last_model_decisions() == [-1, -2]
        assert next(models) == {1: False, 2: True}
        assert solver.last_model_decisions() == [-1]
        assert next(models) == {1: True, 2: True}
        assert solver._value(1) is True and solver._level[1] == 0
        assert next(models) == {1: True, 2: False}
        assert solver.last_model_decisions() == []
        with pytest.raises(StopIteration):
            next(models)
        assert solver._trail_lim == []
        assert_core_invariants(solver)

    def test_deadline_interrupts_a_long_enumeration(self, monkeypatch) -> None:
        monkeypatch.setattr(core_module, "DEADLINE_POLL_PROPAGATIONS", 1)
        solver = CdclSolver(random_3sat(12, 20, seed=5))
        models = solver.iter_solutions()
        next(models)
        with deadline_scope(time.monotonic() - 1.0):
            with pytest.raises(SolverInterrupted):
                while True:
                    next(models)
        assert solver._trail_lim == []
        assert_core_invariants(solver)


# ----------------------------------------------------------------------
# The instance corpus
# ----------------------------------------------------------------------


@pytest.mark.parametrize("name", sorted(SOLVE_CORPUS))
def test_corpus_solve_matches_the_known_answer(name: str) -> None:
    cnf = SOLVE_CORPUS[name][0]()
    solver = CdclSolver(cnf)
    result = solver.solve()
    assert result.satisfiable == expected_satisfiable(name, cnf)
    if result.satisfiable:
        assert cnf.evaluate(result.model)
    assert_core_invariants(solver)


@pytest.mark.parametrize("name", sorted(SOLVE_CORPUS))
def test_corpus_search_is_deterministic(name: str) -> None:
    """Two fresh solvers on one clause stream make the same search:
    same model, same decisions, same counters."""
    outcomes = []
    for _ in range(2):
        solver = CdclSolver(SOLVE_CORPUS[name][0]())
        result = solver.solve()
        outcomes.append(
            (
                result.satisfiable,
                result.model,
                solver.last_model_decisions(),
                asdict(solver.stats),
                solver._arena,
            )
        )
    assert outcomes[0] == outcomes[1]


@pytest.mark.parametrize("name", sorted(SOLVE_CORPUS))
def test_corpus_answer_survives_database_reductions(name: str) -> None:
    """A reduction at every restart and solve entry, plus one forced
    between queries, changes neither the answer nor the invariants."""
    cnf = SOLVE_CORPUS[name][0]()
    expected = expected_satisfiable(name, cnf)
    solver = CdclSolver(cnf)
    solver._max_learned = 0
    assert solver.solve().satisfiable == expected
    assert_core_invariants(solver)
    solver._reduce_db()
    assert_core_invariants(solver)
    result = solver.solve()
    assert result.satisfiable == expected
    if expected:
        assert cnf.evaluate(result.model)
    assert_core_invariants(solver)


@pytest.mark.parametrize(
    "name", sorted(n for n, (_, sat) in SOLVE_CORPUS.items() if sat)
)
def test_corpus_decisions_determine_the_model(name: str) -> None:
    """The model is the unique extension of its decision literals: the
    same literals as assumptions reproduce it, and blocking just them
    excludes exactly that model."""
    cnf = SOLVE_CORPUS[name][0]()
    solver = CdclSolver(cnf)
    model = solver.solve().model
    decisions = solver.last_model_decisions()
    assert all(model[abs(lit)] == (lit > 0) for lit in decisions)
    assert solver.solve(assumptions=decisions).model == model
    solver.add_clause([-lit for lit in decisions])
    second = solver.solve()
    if second.satisfiable:
        assert second.model != model
        assert cnf.evaluate(second.model)


@pytest.mark.parametrize("name", sorted(ENUM_CORPUS))
def test_corpus_enumeration_matches_the_model_count(name: str) -> None:
    cnf = ENUM_CORPUS[name][0]()
    solver = CdclSolver(cnf)
    models = [model_key(m) for m in solver.iter_solutions()]
    assert len(models) == len(set(models)) == expected_count(name, cnf)
    assert all(cnf.evaluate(dict(m)) for m in models)
    assert_core_invariants(solver)


@pytest.mark.parametrize("name", sorted(ENUM_CORPUS))
def test_corpus_enumeration_order_is_deterministic(name: str) -> None:
    orders = []
    for _ in range(2):
        solver = CdclSolver(ENUM_CORPUS[name][0]())
        orders.append(
            ([model_key(m) for m in solver.iter_solutions()], asdict(solver.stats))
        )
    assert orders[0] == orders[1]


@pytest.mark.parametrize("name", sorted(ENUM_CORPUS))
def test_corpus_solve_and_block_loop_survives_reductions(name: str) -> None:
    """The session-style AllSAT loop (solve, block the model, solve
    again) with a reduction due at every solve entry yields exactly the
    model set."""
    cnf = ENUM_CORPUS[name][0]()
    solver = CdclSolver(cnf)
    solver._max_learned = 0
    seen = set()
    while True:
        result = solver.solve()
        if not result.satisfiable:
            break
        key = model_key(result.model)
        assert key not in seen
        seen.add(key)
        solver.add_clause([-v if value else v for v, value in result.model.items()])
        assert_core_invariants(solver)
    assert len(seen) == expected_count(name, cnf)
    assert all(cnf.evaluate(dict(m)) for m in seen)

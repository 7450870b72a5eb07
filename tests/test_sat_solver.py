"""Unit tests for the CDCL SAT solver substrate."""

from __future__ import annotations

import random
import time
from dataclasses import asdict, fields

import pytest

import repro.sat.core as core_module
from repro.errors import CnfError, SolverInterrupted
from repro.resilience import deadline_scope
from repro.sat import (
    MAX_MERGED_STAT_FIELDS,
    CdclSolver,
    Cnf,
    SolverStats,
    brute_force_count,
    brute_force_models,
    brute_force_satisfiable,
    count_models,
    iter_models,
    luby,
    solve_cnf,
)


def make_cnf(num_vars: int, clauses: list[list[int]]) -> Cnf:
    cnf = Cnf(num_vars)
    cnf.add_clauses(clauses)
    return cnf


class TestCnfContainer:
    def test_new_var_sequence(self) -> None:
        cnf = Cnf()
        assert [cnf.new_var() for _ in range(3)] == [1, 2, 3]
        assert cnf.num_vars == 3

    def test_add_clause_grows_variable_range(self) -> None:
        cnf = Cnf()
        cnf.add_clause([5, -7])
        assert cnf.num_vars == 7

    def test_tautology_dropped(self) -> None:
        cnf = Cnf(2)
        cnf.add_clause([1, -1, 2])
        assert cnf.num_clauses == 0

    def test_duplicate_literals_collapsed(self) -> None:
        cnf = Cnf(1)
        cnf.add_clause([1, 1, 1])
        assert cnf.clauses[0] == (1,)

    def test_zero_literal_rejected(self) -> None:
        cnf = Cnf(1)
        with pytest.raises(CnfError):
            cnf.add_clause([0])

    def test_evaluate(self) -> None:
        cnf = make_cnf(2, [[1, 2], [-1, 2]])
        assert cnf.evaluate({1: True, 2: True})
        assert not cnf.evaluate({1: True, 2: False})

    def test_evaluate_missing_variable(self) -> None:
        cnf = make_cnf(2, [[1, 2]])
        with pytest.raises(CnfError):
            cnf.evaluate({1: False})


class TestBasicSolving:
    def test_empty_formula_is_sat(self) -> None:
        assert solve_cnf(Cnf(0)).satisfiable

    def test_single_unit(self) -> None:
        result = solve_cnf(make_cnf(1, [[1]]))
        assert result.satisfiable
        assert result.model == {1: True}

    def test_contradictory_units(self) -> None:
        assert not solve_cnf(make_cnf(1, [[1], [-1]])).satisfiable

    def test_empty_clause_unsat(self) -> None:
        cnf = Cnf(1)
        cnf.add_clause([])
        assert not solve_cnf(cnf).satisfiable

    def test_simple_implication_chain(self) -> None:
        # 1 -> 2 -> 3 -> 4, with 1 forced.
        cnf = make_cnf(4, [[1], [-1, 2], [-2, 3], [-3, 4]])
        result = solve_cnf(cnf)
        assert result.satisfiable
        assert result.model == {1: True, 2: True, 3: True, 4: True}

    def test_model_satisfies_formula(self) -> None:
        cnf = make_cnf(5, [[1, 2, -3], [-1, 4], [3, -4, 5], [-2, -5], [2, 3]])
        result = solve_cnf(cnf)
        assert result.satisfiable
        assert cnf.evaluate(result.model)

    def test_xor_chain_sat(self) -> None:
        # (a xor b), (b xor c) encoded in CNF; satisfiable.
        cnf = make_cnf(3, [[1, 2], [-1, -2], [2, 3], [-2, -3]])
        result = solve_cnf(cnf)
        assert result.satisfiable
        model = result.model
        assert model[1] != model[2]
        assert model[2] != model[3]

    def test_unsat_xor_cycle(self) -> None:
        # a xor b, b xor c, c xor a is unsatisfiable (odd cycle).
        cnf = make_cnf(
            3, [[1, 2], [-1, -2], [2, 3], [-2, -3], [3, 1], [-3, -1]]
        )
        assert not solve_cnf(cnf).satisfiable


def pigeonhole(holes: int) -> Cnf:
    """PHP(holes+1, holes): holes+1 pigeons in `holes` holes — UNSAT."""
    pigeons = holes + 1
    cnf = Cnf(pigeons * holes)

    def var(pigeon: int, hole: int) -> int:
        return pigeon * holes + hole + 1

    for pigeon in range(pigeons):
        cnf.add_clause([var(pigeon, hole) for hole in range(holes)])
    for hole in range(holes):
        for p1 in range(pigeons):
            for p2 in range(p1 + 1, pigeons):
                cnf.add_clause([-var(p1, hole), -var(p2, hole)])
    return cnf


class TestHarderInstances:
    @pytest.mark.parametrize("holes", [1, 2, 3, 4, 5])
    def test_pigeonhole_unsat(self, holes: int) -> None:
        assert not solve_cnf(pigeonhole(holes)).satisfiable

    def test_pigeonhole_sat_when_enough_holes(self) -> None:
        # n pigeons in n holes is satisfiable: reuse encoding with a dummy
        # pigeon removed by forcing it into hole 0 alongside nobody.
        holes = 4
        cnf = Cnf(holes * holes)

        def var(pigeon: int, hole: int) -> int:
            return pigeon * holes + hole + 1

        for pigeon in range(holes):
            cnf.add_clause([var(pigeon, hole) for hole in range(holes)])
        for hole in range(holes):
            for p1 in range(holes):
                for p2 in range(p1 + 1, holes):
                    cnf.add_clause([-var(p1, hole), -var(p2, hole)])
        assert solve_cnf(cnf).satisfiable

    def test_learned_clause_stats(self) -> None:
        solver = CdclSolver(pigeonhole(4))
        result = solver.solve()
        assert not result.satisfiable
        assert result.stats.conflicts > 0


class TestAssumptions:
    def test_sat_under_assumption(self) -> None:
        cnf = make_cnf(2, [[1, 2]])
        solver = CdclSolver(cnf)
        result = solver.solve(assumptions=[-1])
        assert result.satisfiable
        assert result.model[2] is True

    def test_unsat_under_assumptions_but_sat_overall(self) -> None:
        cnf = make_cnf(2, [[1, 2]])
        solver = CdclSolver(cnf)
        assert not solver.solve(assumptions=[-1, -2]).satisfiable
        # Solver remains usable and the formula itself is satisfiable.
        assert solver.solve().satisfiable

    def test_assumption_of_forced_literal(self) -> None:
        cnf = make_cnf(2, [[1], [-1, 2]])
        solver = CdclSolver(cnf)
        assert solver.solve(assumptions=[1, 2]).satisfiable
        assert not solver.solve(assumptions=[-2]).satisfiable
        assert solver.solve().satisfiable


class TestEnumeration:
    def test_count_all_models_of_or(self) -> None:
        cnf = make_cnf(2, [[1, 2]])
        assert count_models(cnf) == 3

    def test_projected_enumeration(self) -> None:
        # Variable 3 is free; projecting onto {1, 2} removes its doubling.
        cnf = make_cnf(3, [[1, 2]])
        assert count_models(cnf) == 6
        assert count_models(cnf, projection=[1, 2]) == 3

    def test_limit(self) -> None:
        cnf = make_cnf(3, [])
        models = list(iter_models(cnf, limit=5))
        assert len(models) == 5

    def test_models_are_distinct_and_satisfying(self) -> None:
        cnf = make_cnf(4, [[1, -2], [2, 3, -4]])
        seen = set()
        for model in iter_models(cnf):
            key = tuple(sorted(model.items()))
            assert key not in seen
            seen.add(key)
            assert cnf.evaluate(model)
        assert len(seen) == brute_force_count(cnf)

    def test_enumeration_matches_brute_force_on_unsat(self) -> None:
        cnf = make_cnf(1, [[1], [-1]])
        assert count_models(cnf) == 0
        assert not brute_force_satisfiable(cnf)


class TestLuby:
    def test_prefix(self) -> None:
        expected = [1, 1, 2, 1, 1, 2, 4, 1, 1, 2, 1, 1, 2, 4, 8]
        assert [luby(i) for i in range(1, 16)] == expected

    def test_values_are_powers_of_two(self) -> None:
        for i in range(1, 200):
            value = luby(i)
            assert value & (value - 1) == 0


# ----------------------------------------------------------------------
# Locked reasons under database reduction (dangling-reference sweep)
# ----------------------------------------------------------------------


def assert_reason_integrity(solver) -> None:
    """Every trail literal's reason clause must still read back as a
    clause containing that literal with every other literal false —
    exactly what conflict analysis will assume of it."""
    for lit in solver._trail:
        var = lit if lit > 0 else -lit
        reason = solver._reason_lits(var)
        if reason is None:
            continue
        lits = list(reason)
        assert lit in lits
        assert all(
            solver._value(other) is False for other in lits if other != lit
        )


def test_reduce_db_keeps_locked_reasons_valid() -> None:
    """Force a database reduction at every restart and every solve
    entry: clauses that are reasons of root-level assignments must
    survive and have their references remapped across compaction."""
    solver = CdclSolver(pigeonhole(6))
    solver._max_learned = 0
    assert not solver.solve().satisfiable
    assert solver.stats.db_reductions > 0

    rng = random.Random(0xBEEF)
    for _ in range(25):
        num_vars = rng.randint(4, 9)
        cnf = Cnf(num_vars)
        for _clause in range(rng.randint(num_vars, 4 * num_vars)):
            width = rng.randint(1, min(4, num_vars))
            chosen = rng.sample(range(1, num_vars + 1), width)
            cnf.add_clause([v if rng.random() < 0.5 else -v for v in chosen])
        solver = CdclSolver(cnf)
        solver._max_learned = 0
        result = solver.solve()
        assert result.satisfiable == brute_force_satisfiable(cnf)
        assert_reason_integrity(solver)
        seen = {tuple(sorted(m.items())) for m in solver.iter_solutions()}
        expected = {
            tuple(sorted(m.items())) for m in brute_force_models(cnf)
        }
        if result.satisfiable:
            assert seen == expected
        assert_reason_integrity(solver)


# ----------------------------------------------------------------------
# Cooperative-deadline re-reads
# ----------------------------------------------------------------------


def test_deadline_installed_mid_enumeration_interrupts(monkeypatch) -> None:
    """The solver re-reads the ambient deadline at every poll, so a
    scope entered *after* iter_solutions started must interrupt the
    very next burst — an entry-time snapshot would never see it."""
    monkeypatch.setattr(core_module, "DEADLINE_POLL_PROPAGATIONS", 1)
    solver = CdclSolver(make_cnf(4, []))
    models = solver.iter_solutions()
    assert next(models) is not None  # no deadline active: runs fine
    with deadline_scope(time.monotonic() - 1.0):
        with pytest.raises(SolverInterrupted):
            next(models)
    # The interrupt backtracked to the root: the solver stays usable.
    assert solver.solve().satisfiable


def test_expired_deadline_interrupts_solve(monkeypatch) -> None:
    monkeypatch.setattr(core_module, "DEADLINE_POLL_PROPAGATIONS", 1)
    solver = CdclSolver(pigeonhole(4))
    with deadline_scope(time.monotonic() - 1.0):
        with pytest.raises(SolverInterrupted):
            solver.solve()
    assert not solver.solve().satisfiable


# ----------------------------------------------------------------------
# SolverStats.merge exhaustiveness
# ----------------------------------------------------------------------


def test_solver_stats_merge_covers_every_field() -> None:
    """merge() iterates dataclasses.fields, so a newly added counter is
    aggregated automatically — this pins the policy: every field is
    summed unless listed in MAX_MERGED_STAT_FIELDS, and that list only
    names real fields."""
    names = [f.name for f in fields(SolverStats)]
    assert MAX_MERGED_STAT_FIELDS <= set(names)
    left = SolverStats()
    right = SolverStats()
    for index, name in enumerate(names):
        setattr(left, name, 3 + 2 * index)
        setattr(right, name, 1000 + 3 * index)
    left.merge(right)
    for index, name in enumerate(names):
        a, b = 3 + 2 * index, 1000 + 3 * index
        want = max(a, b) if name in MAX_MERGED_STAT_FIELDS else a + b
        assert getattr(left, name) == want, name


def test_solver_stats_replace_covers_every_field() -> None:
    """asdict round-trips every counter field."""
    stats = SolverStats()
    payload = asdict(stats)
    assert set(payload) == {f.name for f in fields(SolverStats)}

"""Tests for the persistent suite store and resumable runs/sweeps."""

from __future__ import annotations

from dataclasses import replace

from repro.conformance import DiffConfig
from repro.conformance.runner import diff_identity
from repro.fuzz.config import FuzzConfig, fuzz_identity
from repro.models import x86t_amd_bug, x86t_elt
from repro.orchestrate import (
    ShardSpec,
    ShardTask,
    SuiteStore,
    entry_key,
    plan_shards,
    run_shard,
    run_sharded,
    run_sweep_sharded,
)
from repro.orchestrate.store import (
    KIND_SHARD,
    KIND_SUITE,
    config_identity,
    identity_key,
)
from repro.synth import SynthesisConfig, synthesize


def config_for(axiom: str, bound: int = 4) -> SynthesisConfig:
    return SynthesisConfig(bound=bound, model=x86t_elt(), target_axiom=axiom)


class TestEntryKeys:
    def test_key_is_stable(self) -> None:
        assert entry_key(config_for("invlpg"), KIND_SUITE) == entry_key(
            config_for("invlpg"), KIND_SUITE
        )

    def test_key_separates_configs_kinds_and_shards(self) -> None:
        base = config_for("invlpg")
        keys = {
            entry_key(base, KIND_SUITE),
            entry_key(replace(base, bound=5), KIND_SUITE),
            entry_key(config_for("sc_per_loc"), KIND_SUITE),
            entry_key(replace(base, dirty_bit_as_rmw=True), KIND_SUITE),
            entry_key(base, KIND_SHARD, ShardSpec(0, 2)),
            entry_key(base, KIND_SHARD, ShardSpec(1, 2)),
        }
        assert len(keys) == 6

    def test_identity_keys_are_pinned(self) -> None:
        """Store keys address entries already on disk: a change to any of
        these digests orphans every existing ``--cache-dir`` store.
        Adding or removing an output-invariant strategy knob (which the
        identities skip) must leave them unchanged."""
        synth = SynthesisConfig(
            bound=5,
            model=x86t_elt(),
            target_axiom="sc_per_loc",
            witness_backend="sat",
        )
        assert identity_key(config_identity(synth)) == (
            "1b81b4c132f25e05460cffc0d5625d79"
        )
        assert identity_key(fuzz_identity(FuzzConfig(seed=7, bound=9))) == (
            "f111193e95473af836a67bb261c363de"
        )
        diff = DiffConfig(
            base=SynthesisConfig(bound=5, model=x86t_elt()),
            subject=x86t_amd_bug(),
        )
        assert identity_key(diff_identity(diff)) == (
            "24044aad6f2a49156caaa4efd0e86eaf"
        )


class TestStorePrimitives:
    def test_roundtrip_and_counters(self, tmp_path) -> None:
        store = SuiteStore(tmp_path)
        assert store.get("absent" * 5) is None
        assert store.counters.misses == 1
        store.put("somekey", {"payload": 1}, {"kind": "test"})
        assert store.counters.stores == 1
        assert store.get("somekey") == {"payload": 1}
        assert store.counters.hits == 1

    def test_corrupt_payload_is_quarantined_not_a_plain_miss(
        self, tmp_path
    ) -> None:
        store = SuiteStore(tmp_path)
        store.put("somekey", [1, 2], {"kind": "test"})
        (store.entries_dir / "somekey.pkl").write_bytes(b"not a pickle")
        assert store.get("somekey") is None
        # Damage counts under `corrupt` (distinct from `misses`: a true
        # absence) and the entry is moved aside so a rewrite heals it.
        assert store.counters.misses == 0
        assert store.counters.corrupt == 1
        assert not (store.entries_dir / "somekey.pkl").exists()
        assert (store.quarantine_dir / "somekey.pkl").exists()
        assert store.get("somekey") is None  # now a true absence
        assert store.counters.misses == 1

    def test_timed_out_results_are_never_cached(self, tmp_path) -> None:
        store = SuiteStore(tmp_path)
        config = replace(config_for("sc_per_loc", bound=6), time_budget_s=0.0)
        orchestrated = run_sharded(config, jobs=1, store=store)
        assert orchestrated.result.stats.timed_out
        assert store.counters.stores == 0
        # And a later budget-free run is not poisoned by the partial one.
        full = run_sharded(config_for("sc_per_loc", bound=6), jobs=1, store=store)
        assert not full.result.stats.timed_out
        serial = synthesize(config_for("sc_per_loc", bound=6))
        assert full.result.keys() == serial.keys()


class TestResumableRuns:
    def test_rerun_hits_suite_cache(self, tmp_path) -> None:
        store = SuiteStore(tmp_path)
        first = run_sharded(config_for("invlpg"), jobs=1, store=store)
        assert not first.suite_cache_hit
        second = run_sharded(config_for("invlpg"), jobs=1, store=store)
        assert second.suite_cache_hit
        assert second.result.keys() == first.result.keys()
        assert store.counters.hits >= 1

    def test_interrupted_run_resumes_from_completed_shards(self, tmp_path) -> None:
        """Simulate an interruption: one of three shards finished before
        the crash; the rerun recomputes only the other two."""
        store = SuiteStore(tmp_path)
        config = config_for("sc_per_loc")
        specs = plan_shards(1, shard_count=3)
        done = run_shard(ShardTask(config, specs[0]))
        store.save_shard(config, specs[0], done)

        resumed = run_sharded(config, jobs=1, shard_count=3, store=store)
        assert resumed.shard_cache_hits == 1
        assert resumed.shard_cache_misses == 2
        serial = synthesize(config_for("sc_per_loc"))
        assert [e.key for e in resumed.result.elts] == [
            e.key for e in serial.elts
        ]


class TestResumableSweeps:
    def test_resumed_sweep_skips_finished_points(self, tmp_path) -> None:
        store = SuiteStore(tmp_path)
        base = SynthesisConfig(bound=5, model=x86t_elt())

        # "Interrupted" sweep: only bound 4 completed before the cut.
        partial, partial_records = run_sweep_sharded(
            base, axioms=["invlpg"], min_bound=4, max_bound=4, store=store
        )
        assert [r.suite_cache_hit for r in partial_records] == [False]
        stores_before = store.counters.stores
        hits_before = store.counters.hits

        # Resume: rerun over the full range with the same store.
        resumed, records = run_sweep_sharded(
            base, axioms=["invlpg"], min_bound=4, max_bound=5, store=store
        )
        assert [r.suite_cache_hit for r in records] == [True, False]
        assert store.counters.hits > hits_before
        assert [point.bound for point in resumed.points] == [4, 5]
        assert (
            resumed.points[0].result.keys()
            == partial.points[0].result.keys()
        )
        # Finished point added no new entries; only bound 5 was stored.
        assert store.counters.stores > stores_before

        # A third, fully-resumed run recomputes nothing at all.
        final_stores = store.counters.stores
        again, again_records = run_sweep_sharded(
            base, axioms=["invlpg"], min_bound=4, max_bound=5, store=store
        )
        assert [r.suite_cache_hit for r in again_records] == [True, True]
        assert store.counters.stores == final_stores
        assert sum(
            r.shard_cache_misses for r in again_records
        ) == 0

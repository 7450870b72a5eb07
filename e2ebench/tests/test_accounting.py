"""Self-time arithmetic of the benchmark's traced runs."""

import pytest

import accounting
import run
import tracing


def test_nested_spans_charge_each_instant_to_the_innermost():
    spans = [(0, 10, "a:outer"), (2, 5, "b:child"), (3, 4, "c:grandchild"), (6, 7, "b:child")]
    times = accounting.attribute(spans)
    assert times == {"a:outer": 6, "b:child": 3, "c:grandchild": 1}
    assert sum(times.values()) == 10
    assert accounting.covered(spans[1:]) == 4


def test_back_to_back_and_identical_start_spans():
    spans = [(0, 4, "a:outer"), (0, 2, "b:x"), (2, 4, "b:y")]
    assert accounting.attribute(spans) == {"b:x": 2, "b:y": 2}
    segments = accounting.innermost_segments(spans)
    assert segments == [(0, 2, "b:x"), (2, 4, "b:y")]


def test_generator_spans_exclude_the_consumer():
    """Time in the consumer between two ``next()`` calls belongs to the
    consumer's span, not the generator's."""
    now = [0.0]
    rec = tracing.Recorder("main")
    rec.clock = lambda: now[0]

    def leaf():
        now[0] += 1

    def produce(n):
        for item in range(n):
            now[0] += 2
            leaf_wrapped()
            yield item

    def consume(n):
        for _ in produce_wrapped(n):
            now[0] += 5

    leaf_wrapped = tracing._wrap_call(rec, leaf, rec.key("models:leaf"), None)
    produce_wrapped = tracing._wrap_iter(rec, produce, rec.key("skeletons:produce"), None)
    consume_wrapped = tracing._wrap_call(rec, consume, rec.key("fuzz:consume"), None)
    consume_wrapped(3)

    spans = tracing.load_spans(rec.keys, rec.spans)
    times = accounting.attribute(spans)
    assert times == {"models:leaf": 3, "skeletons:produce": 6, "fuzz:consume": 15}
    assert sum(times.values()) == now[0] == 24
    assert rec.counts["skeletons:produce#items"] == 3
    assert rec.calls[rec.key("models:leaf")] == 3


def test_worker_time_is_split_across_busy_workers():
    main = [(0, 10, "resilience:run_resilient_tasks")]
    worker1 = [(2, 6, "orchestrate:run_shard"), (3, 5, "skeletons:walk")]
    worker2 = [(4, 8, "orchestrate:run_shard")]
    times = accounting.attribute(main, [worker1, worker2])
    assert times == pytest.approx(
        {"resilience:run_resilient_tasks": 4, "orchestrate:run_shard": 4.5, "skeletons:walk": 1.5}
    )
    assert sum(times.values()) == pytest.approx(10)


def _snapshot(role, spans, pid=1, end=0.0, calls=None, counts=None, starts=None):
    return {
        "role": role, "pid": pid, "spans": spans, "end": end,
        "calls": calls or {}, "counts": counts or {}, "process_starts": starts or {},
    }


def test_layers_plus_residual_reconcile_with_wall_clock():
    main = _snapshot(
        "main",
        [(1, 2, "cli:import"), (2, 9, "orchestrate:run_sharded"),
         (2.5, 8.5, "resilience:run_resilient_tasks")],
        starts={11: 2.5, 12: 2.6},
    )
    workers = [
        _snapshot("worker", [(3, 6, "orchestrate:run_shard"), (4, 5, "relax:is_minimal")], pid=11, end=8),
        _snapshot("worker", [(4, 8, "orchestrate:run_shard")], pid=12, end=8.2),
    ]
    metric = run.layer_metrics([main] + workers, traced_wall=10.0)
    layer_sum = sum(v for k, v in metric.items() if k == "cli.import_s" or k.endswith(".self_s"))
    assert layer_sum + metric["residual_s"] == pytest.approx(10.0)
    assert metric["residual_s"] == pytest.approx(2.0)
    assert metric["orchestrate.worker_busy_s"] == pytest.approx(7.0)
    assert metric["orchestrate.worker_setup_s"] == pytest.approx(0.5 + 1.4)
    assert metric["orchestrate.worker_idle_s"] == pytest.approx(5.5 + 5.6 - 1.9 - 7.0)
    assert metric["orchestrate.pool_start_s"] == pytest.approx(0.5)
    assert run.accounting_error(metric) is None
    metric["residual_s"] = -0.1
    assert "exceed" in run.accounting_error(metric)

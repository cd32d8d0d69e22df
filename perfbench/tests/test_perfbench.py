"""Tests of the benchmark itself (run: python3 -m pytest perfbench/tests)."""

from __future__ import annotations

import functools
import io
import json
import math
import sys
from contextlib import redirect_stdout
from pathlib import Path
from types import SimpleNamespace

import pytest

HERE = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import spans as sp  # noqa: E402
import workloads as wl  # noqa: E402

SMALL = {
    "tiny-pipeline": wl.TinySizes(pretrain_utts=120, train_utts=20,
                                  test_utts=10, epochs=3, finetune_epochs=1),
    "full-long": wl.LongSizes(utterances=3, pool=60,
                              overrides=(("profile", "tiny"), ("batch_size", "2"),
                                         ("epochs", "3"),
                                         ("heldout_fraction", "0.34"))),
    "verify": wl.VerifySizes(max_t=3, trials=1),
}


CLASSES = {cls.name: cls for cls in (wl.TinyPipeline, wl.FullLong, wl.Verify)}


@pytest.fixture
def small_workloads(monkeypatch):
    for name, sizes in SMALL.items():
        monkeypatch.setitem(wl.WORKLOADS, name,
                            functools.partial(CLASSES[name], sizes=sizes))


def run_main(*argv: str) -> tuple[int, dict | None, str]:
    out = io.StringIO()
    with redirect_stdout(out):
        code = run.main(list(argv))
    lines = out.getvalue().strip().splitlines()
    result = json.loads(lines[-1]) if code == 0 else None
    return code, result, out.getvalue()


def gated_names() -> set[str]:
    return {name for name, *_ in run.GATED}


# -- reduced-size smoke runs --------------------------------------------------


@pytest.mark.parametrize("workload", ["tiny-pipeline", "full-long", "verify"])
def test_smoke_timed_run(workload, small_workloads):
    code, result, text = run_main("--workload", workload, "--seed", "3",
                                  "--seconds", "0", "--trace", "0")
    assert code == 0
    assert result["correct"] is True, text
    assert result["failed"] == 0 and result["attempted"] > 0
    assert set(result["metrics"]) == gated_names()
    assert all(m["value"] > 0 for m in result["metrics"].values())
    for name, unit, _, _, applies in run.E2E_METRICS:
        if workload in applies and name != "pretrain_step_s_tail":
            assert name in text, name


@pytest.mark.parametrize("workload", ["tiny-pipeline", "full-long", "verify"])
def test_smoke_traced_run(workload, small_workloads):
    code, result, _ = run_main("--workload", workload, "--seed", "3",
                               "--seconds", "0", "--trace", "1")
    assert code == 0 and result["correct"] is True
    assert list(result["metrics"]) == [n for n, _, _ in sp.LAYER_METRICS]
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert metrics["encoder.encode_calls"] > 0
    if workload == "verify":
        assert metrics["trainer.adam_steps"] == 0
        assert metrics["oracle.forward_passes"] > 0
        assert 0 < metrics["oracle.cache_hit_ratio"] < 1
        assert metrics["autodiff.fd_check_s"] > 0
    else:
        assert metrics["trainer.adam_steps"] > 0
        assert metrics["autodiff.tape_nodes_per_call"] > 0
        assert metrics["trainer.ckpt_bytes"] > 0
    if workload == "tiny-pipeline":
        assert metrics["corpus.bytes_read"] > 0
        assert metrics["cli.self_s"] > 0
    # tracing left nothing behind
    _, bp = run.import_program()
    assert sp.installed_wrappers(sp.targets(bp)) == []
    assert bp.trainer.bert_plm_loss is bp.objective.bert_plm_loss


def test_directory_without_program_exits_nonzero(monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(run, "ROOT", tmp_path)
    code = run.main(["--workload", "verify", "--seed", "1", "--seconds", "1"])
    assert code != 0
    assert capsys.readouterr().out == ""


# -- output checks --------------------------------------------------------------


def test_injected_nan_loss_counts_as_failed_op(monkeypatch, small_workloads):
    _, bp = run.import_program()
    real = bp.objective.bert_plm_loss

    def nan_loss(*args, **kwargs):
        result = real(*args, **kwargs)
        if kwargs.get("want_grads"):
            breakdown, grads = result
            breakdown.plm_loss = math.nan
            return breakdown, grads
        return result

    # the same object in both modules, as an unwrapped program would have
    monkeypatch.setattr(bp.objective, "bert_plm_loss", nan_loss)
    monkeypatch.setattr(bp.trainer, "bert_plm_loss", nan_loss)
    code, result, _ = run_main("--workload", "tiny-pipeline", "--seed", "3",
                               "--seconds", "0", "--trace", "0")
    assert code == 0
    assert result["correct"] is False
    assert 0 < result["failed"] < result["attempted"]


def test_checks_keep_counting_after_a_failure():
    checks = wl.Checks()
    checks.check(True, "a")
    checks.check(False, "b")
    checks.check(True, "c")
    assert (checks.attempted, checks.failed, checks.failures) == (3, 1, ["b"])


def test_stamped_lines_time_each_progress_row():
    ticks = iter(range(100))
    sink = wl.StampedLines(clock=lambda: float(next(ticks)))
    with redirect_stdout(sink):
        print("1\ttrain\tplm_loss\t2.500000")
        print("noise line")
        print("2\ttrain\tplm_loss\tnan")
    rows = sink.rows()
    assert [(r[1], r[2]) for r in rows] == [(1, "train"), (2, "train")]
    assert math.isnan(rows[1][4])
    checks = wl.Checks()
    values, stamps = wl.check_training_rows(checks, rows, "train", "plm_loss", "t")
    assert checks.failed == 1 and len(values) == 2
    assert wl.step_intervals(stamps) == [stamps[1] - stamps[0]]


# -- tracing ----------------------------------------------------------------------


def span(sid, parent, name, start, end, root=0):
    return [root, root, sid, parent, name, start, end, "", None]


def test_self_time_subtracts_covered_child_intervals():
    spans = [
        span(0, None, "bench.pass", 0.0, 10.0),
        span(1, 0, "trainer.pretrain", 1.0, 9.0),
        span(2, 1, "objective.bert_plm_loss", 2.0, 5.0),
        span(3, 2, "encoder.encode", 2.5, 4.0),
        span(4, 1, "trainer.adam_step", 6.0, 7.0),
        # a child reaching past its parent only counts inside it
        span(5, 4, "rng.stream", 6.5, 7.5),
    ]
    selfs = sp.self_times(spans)
    assert selfs[0] == pytest.approx(10.0 - 8.0)
    assert selfs[1] == pytest.approx(8.0 - 3.0 - 1.0)
    assert selfs[2] == pytest.approx(3.0 - 1.5)
    assert selfs[3] == pytest.approx(1.5)
    assert selfs[4] == pytest.approx(1.0 - 0.5)


def test_self_time_merges_overlapping_children():
    spans = [span(0, None, "a", 0.0, 10.0), span(1, 0, "b", 1.0, 4.0),
             span(2, 0, "c", 3.0, 5.0)]
    assert sp.self_times(spans)[0] == pytest.approx(10.0 - 4.0)


def test_tracer_records_parents_and_restores_bindings():
    module = SimpleNamespace(__name__="fake")
    module.leaf = lambda x: x + 1
    module.outer = lambda x: module.leaf(x) * 2
    original = (module.leaf, module.outer)
    clock = iter(range(100))
    tracer = sp.Tracer(clock=lambda: float(next(clock)))
    rows = [(module, "outer", "m.outer", None, None),
            (module, "leaf", "m.leaf", None, None)]
    tracer.install(rows)
    assert sp.installed_wrappers(rows) == ["fake.outer", "fake.leaf"]
    with tracer.span("bench.pass"):
        assert module.outer(1) == 4
        assert module.outer(2) == 6
    tracer.uninstall()
    assert (module.leaf, module.outer) == original
    assert sp.installed_wrappers(rows) == []
    names = [s[sp.NAME] for s in tracer.spans]
    assert names == ["bench.pass", "m.outer", "m.leaf", "m.outer", "m.leaf"]
    parents = [s[sp.PARENT] for s in tracer.spans]
    assert parents == [None, 0, 1, 0, 3]
    # one operation id per top-level program call
    assert [s[sp.OP] for s in tracer.spans] == [0, 1, 1, 3, 3]


def test_tracer_records_raised_exception_type():
    module = SimpleNamespace(__name__="fake")

    def boom():
        raise KeyError("x")

    module.boom = boom
    tracer = sp.Tracer()
    tracer.install([(module, "boom", "m.boom", None, None)])
    try:
        with pytest.raises(KeyError):
            module.boom()
    finally:
        tracer.uninstall()
    assert tracer.spans[0][sp.ERR] == "KeyError"


def test_timing_run_refuses_installed_wrappers():
    _, bp = run.import_program()
    rows = sp.targets(bp)
    tracer = sp.Tracer()
    tracer.install(rows)
    try:
        with pytest.raises(RuntimeError, match="wrappers installed"):
            run.assert_untraced(bp, rows)
    finally:
        tracer.uninstall()
    run.assert_untraced(bp, rows)


# -- statistics and the benchmark definition -------------------------------------


def test_tail_keeps_ten_samples_beyond():
    samples = [float(i) for i in range(1, 101)]
    value, pct = run.tail(samples)
    assert pct == 90
    assert sum(1 for s in samples if s > value) == 10
    assert run.tail(samples[:19]) is None
    value, pct = run.tail(samples[:30])
    assert sum(1 for s in samples[:30] if s > value) >= 10


def test_benchmark_json_matches_the_metric_tables():
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert bench["end_to_end"] == [
        {"name": n, "unit": u, "better": b, "bound": bd}
        for n, u, b, bd, _ in run.GATED]
    assert bench["per_layer"] == [
        {"name": n, "unit": u, "better": b} for n, u, b in sp.LAYER_METRICS]
    assert [w["name"] for w in bench["workloads"]] == list(wl.WORKLOADS)
    assert any(m["name"] == "setup_s" and m["bound"] == max(
        x["bound"] for x in bench["end_to_end"]) for m in bench["end_to_end"])


def test_flop_count_matches_a_hand_count():
    cfg = SimpleNamespace(d_model=4, d_ff=6, vocab_size=3, layers=1)
    t = 2
    macs = (t * 3 * 4 + 3 * t * 4 * 4 + 3 * 4 * 4 + t * t * 4 + t * 3 * 4
            + t * t * 4 + t * 4 * 4 + 2 * t * 4 * 6)
    assert sp.encoder_forward_flops(cfg, t) == 2 * macs

"""Which passes compute in float32 and which in float64.

The losses, the encoder and ``evaluate`` compute in the dtype of the arrays
they are given, and only the trainer casts. Training keeps its parameters,
gradient sums and Adam moments in float32, so every training, held-out,
validation and test pass computes at float32, and a checkpoint loads as
float32. The finite-difference check, the oracle's frozen predictor and
``grad-check`` stay float64, so the theorem and gradient criteria never
weaken with the training dtype.
"""

from dataclasses import replace

import numpy as np
import pytest

from bertplm import autodiff as ad
from bertplm import cli, oracle
from bertplm import objective as obj
from bertplm import trainer as tr
from bertplm.config import encoder_config, parse_config
from bertplm.corpus import (LabeledUtterance, PhonemePosteriorSequence,
                            default_grammar, generate_corpus)
from bertplm.encoder import EncoderConfig, Group, bind_params, init_params
from bertplm.rng import stream

CONFIG = EncoderConfig(vocab_size=6, layers=2, d_model=16, d_ff=24, heads=2,
                       max_seq_len=32, dropout=0.2)


def padded_group():
    """Three utterances of different lengths, so the shorter ones are
    padded: one with three targets, one with one, one with none (the
    fine-tuning fallback)."""
    rng = stream(50, "frames")
    seqs = [PhonemePosteriorSequence(rng.dirichlet(np.ones(6), size=n),
                                     utterance_id=f"p{n}") for n in (9, 5, 4)]
    plans = [obj.MaskPlan.from_context_set((0, 2, 3, 5, 6, 8), 9),
             obj.MaskPlan.from_context_set((0, 1, 2, 4), 5),
             obj.MaskPlan.full_context(4)]
    return seqs, plans


def as_float32(params):
    return {name: p.astype(np.float32) for name, p in params.items()}


def score(stage, params, group, weighting="mean", drop=True):
    rngs = ([stream(51, "drop", b) for b in range(group.size)] if drop
            else None)
    if stage == "pretrain":
        return obj.bert_plm_loss(params, CONFIG, group, weighting=weighting,
                                 drop_rngs=rngs, want_grads=True)
    return obj.finetune_loss(params, CONFIG, group, [0, 2, 1][:group.size],
                             lam=0.7, weighting=weighting, drop_rngs=rngs,
                             want_grads=True)


class DtypeSpy:
    """Wraps ``autodiff._apply`` to collect the dtype of every op output,
    every float operand, and every gradient a VJP takes or returns."""

    def __init__(self, monkeypatch):
        self.seen: list[tuple[str, str, np.dtype]] = []
        original = ad._apply

        def apply(kernel, args, data, parents):
            op = kernel.__name__
            self.seen.append(("output", op, data.dtype))
            for arg in args:
                value = arg.data if isinstance(arg, ad.Tensor) else arg
                if isinstance(value, np.ndarray) and value.dtype.kind == "f":
                    self.seen.append(("operand", op, value.dtype))
            return original(kernel, args, data,
                            [(t, self._wrap(op, vjp)) for t, vjp in parents])

        monkeypatch.setattr(ad, "_apply", apply)

    def _wrap(self, op, vjp):
        def wrapped(g):
            self.seen.append(("vjp input", op, g.dtype))
            out = vjp(g)
            self.seen.append(("vjp output", op, out.dtype))
            return out
        return wrapped

    def other_than(self, *dtypes):
        return sorted({(what, op, str(dtype)) for what, op, dtype in self.seen
                       if dtype not in dtypes})


class TestFloat32Pass:
    @pytest.mark.parametrize("weighting", ["mean", "sum"])
    @pytest.mark.parametrize("stage", ["pretrain", "finetune"])
    def test_every_recorded_array_and_gradient_is_float32(
            self, monkeypatch, stage, weighting):
        seqs, plans = padded_group()
        if stage == "pretrain":   # pre-training needs a target in every plan
            seqs, plans = seqs[:2], plans[:2]
        params = init_params(CONFIG, stream(52, "init"),
                             classes=3 if stage == "finetune" else None)
        spy = DtypeSpy(monkeypatch)
        dropped = []
        dropout = ad.dropout

        def counted_dropout(x, rate, kept):
            dropped.append(x.dims)
            return dropout(x, rate, kept)

        monkeypatch.setattr(ad, "dropout", counted_dropout)
        breakdown, grads = score(stage, as_float32(params),
                                 Group(seqs, plans), weighting)
        assert len(dropped) == 1 + 3 * CONFIG.layers
        ops = {op.removeprefix("_fwd_") for _, op, _ in spy.seen}
        assert {"gather_rows", "fill_rows", "rel_position_gather",
                "segment_sum", "log_softmax"} <= ops
        assert any(what == "vjp output" for what, _, _ in spy.seen)
        assert spy.other_than(np.float32) == []
        assert grads and {g.dtype for g in grads.values()} == {
            np.dtype(np.float32)}
        assert np.isfinite(breakdown.total)

    def test_targetless_group_scores_zero_in_float32(self, monkeypatch):
        seqs, plans = padded_group()
        params = init_params(CONFIG, stream(53, "init"), classes=3)
        spy = DtypeSpy(monkeypatch)
        breakdown, grads = score("finetune", as_float32(params),
                                 Group(seqs[2:], plans[2:]))
        assert breakdown.plm_loss == 0.0
        assert spy.other_than(np.float32) == []
        assert {g.dtype for g in grads.values()} == {np.dtype(np.float32)}

    def test_evaluation_binds_float32(self, monkeypatch):
        seqs, _ = padded_group()
        params = init_params(CONFIG, stream(54, "init"), classes=3)
        spy = DtypeSpy(monkeypatch)
        tr.evaluate(as_float32(params), CONFIG,
                    [LabeledUtterance(s, i % 3) for i, s in enumerate(seqs)])
        assert spy.seen and spy.other_than(np.float32) == []

    def test_cli_evaluate_computes_in_float32(self, tmp_path, monkeypatch,
                                              capsys):
        """``evaluate`` casts nothing: the checkpoint's arrays load as the
        float32 they are stored as, and every op runs on them."""
        paths = {name: str(tmp_path / name)
                 for name in ("t.pps", "t.tsv", "v.txt", "m.ckpt")}
        assert cli.main(["gen-data", "--utterances", "6", "--seed", "2",
                         "--out", paths["t.pps"], "--manifest", paths["t.tsv"],
                         "--vocab", paths["v.txt"]]) == cli.EXIT_OK
        grammar = default_grammar()
        cfg = parse_config(None, {"profile": "tiny", "d": "16", "d_ff": "24",
                                  "heads": "2", "layers": "1"})
        params = init_params(encoder_config(cfg, grammar.vocab.size),
                             stream(64, "init"), classes=grammar.num_classes)
        tr.save_checkpoint(paths["m.ckpt"], params, cfg, step=0)
        capsys.readouterr()
        spy = DtypeSpy(monkeypatch)
        assert cli.main(["evaluate", "--ckpt", paths["m.ckpt"],
                         "--data", paths["t.pps"], "--manifest", paths["t.tsv"],
                         "--vocab", paths["v.txt"]]) == cli.EXIT_OK
        assert spy.seen and spy.other_than(np.float32) == []
        assert capsys.readouterr().out.startswith("error_rate\t")

    def test_training_runs_every_op_in_float32(self, monkeypatch):
        """Pre-training with its held-out passes, then fine-tuning with its
        validation and test splits: every pass binds float32 parameters."""
        grammar = default_grammar()
        corpus = generate_corpus(grammar, 10, seed=65)
        cfg = parse_config(None, {"profile": "tiny", "layers": "1", "d": "16",
                                  "d_ff": "24", "heads": "2", "epochs": "1",
                                  "finetune_epochs": "1", "batch_size": "4"})
        spy = DtypeSpy(monkeypatch)
        ckpt = tr.pretrain([u.sequence for u in corpus], cfg, seed=65,
                           sil_index=grammar.vocab.sil_index)
        log = tr.ProgressLog()
        tr.finetune(ckpt, corpus[:8], corpus[8:], cfg, seed=65,
                    sil_index=grammar.vocab.sil_index,
                    classes=grammar.num_classes, log=log)
        assert {r[1] for r in log.records} >= {"val", "test"}
        assert spy.seen and spy.other_than(np.float32) == []

    @pytest.mark.parametrize("stage", ["pretrain", "finetune"])
    def test_float32_agrees_with_float64(self, stage):
        """Tolerance, fixed before measuring: float32 rounds each value to
        6e-8 relative and a pass is a few hundred ops deep, so the losses
        must agree to 1e-5 relative and each parameter's gradient to 1e-4 of
        its largest float64 entry."""
        seqs, plans = padded_group()
        if stage == "pretrain":
            seqs, plans = seqs[:2], plans[:2]
        params = init_params(CONFIG, stream(55, "init"),
                             classes=3 if stage == "finetune" else None,
                             init_std=0.1)
        group = Group(seqs, plans)
        b64, g64 = score(stage, params, group)
        b32, g32 = score(stage, as_float32(params), group)
        assert abs(b32.total - b64.total) <= 1e-5 * abs(b64.total)
        assert g32.keys() == g64.keys()
        for name, want in g64.items():
            scale = np.abs(want).max()
            assert np.abs(g32[name] - want).max() <= 1e-4 * scale, name


def small_training(monkeypatch, spy_step):
    """Pre-train a one-layer model on twelve utterances, four per step (two
    groups), then fine-tune it two per step (one group), with ``adam_step``
    replaced by ``spy_step(step, params, grads, state, count)`` (``step`` is
    the real one); returns both checkpoints."""
    grammar = default_grammar()
    corpus = generate_corpus(grammar, 12, seed=56)
    cfg = parse_config(None, {"profile": "tiny", "layers": "1", "d": "16",
                              "d_ff": "24", "heads": "2", "epochs": "1",
                              "finetune_epochs": "1", "batch_size": "4",
                              "max_seq_len": "64"})
    adam_step = tr.adam_step

    def step(params, grads, state, count=1):
        spy_step(adam_step, params, grads, state, count)

    monkeypatch.setattr(tr, "adam_step", step)
    ckpt = tr.pretrain([u.sequence for u in corpus], cfg, seed=56,
                       sil_index=grammar.vocab.sil_index)
    tuned, _ = tr.finetune(ckpt, corpus, [], replace(cfg, batch_size=2),
                           seed=56, sil_index=grammar.vocab.sil_index,
                           classes=grammar.num_classes)
    return ckpt, tuned


class TestMasterCopies:
    def test_sums_params_and_moments_stay_float64(self, monkeypatch):
        """Training state is float32 throughout (the name predates that).
        Pre-training steps of four utterances run as two groups: the second
        group's gradients are added in place into the first group's arrays,
        which reach ``adam_step`` as the sum. Fine-tuning steps of two run
        as one group, passed as it is. The losses bind the parameters that
        the step is given. Both checkpoints hold float32 arrays only."""
        groups, binds, steps = [], [], []

        def checked_step(adam_step, params, grads, state, count):
            state_arrays = [*params.values(), *state.m.values(),
                            *state.v.values(), *grads.values()]
            assert {a.dtype for a in state_arrays} == {np.dtype(np.float32)}
            assert all(grads[name] is grad
                       for name, grad in groups[0].items())
            assert grads.keys() == set().union(*groups)
            assert all(bound is params for bound in binds)
            steps.append(len(groups))
            groups.clear()
            binds.clear()
            adam_step(params, grads, state, count)

        def checked(loss):
            def wrapped(params, *args, **kwargs):
                assert {a.dtype for a in params.values()} == {
                    np.dtype(np.float32)}
                result = loss(params, *args, **kwargs)
                if kwargs.get("want_grads"):
                    grads = result[1]
                    assert {g.dtype for g in grads.values()} == {
                        np.dtype(np.float32)}
                    groups.append(dict(grads))
                    binds.append(params)
                return result
            return wrapped

        monkeypatch.setattr(tr, "bert_plm_loss", checked(obj.bert_plm_loss))
        monkeypatch.setattr(tr, "finetune_loss", checked(obj.finetune_loss))
        ckpt, tuned = small_training(monkeypatch, checked_step)
        assert 1 in steps and max(steps) == 2
        assert ckpt.optim.m.keys() == ckpt.optim.v.keys() == ckpt.arrays.keys()
        for arrays in (ckpt.arrays, ckpt.optim.m, ckpt.optim.v, tuned.arrays):
            assert {a.dtype for a in arrays.values()} == {np.dtype(np.float32)}

    @pytest.mark.parametrize("stage", ["pretrain", "finetune"])
    def test_gradients_are_writable_and_share_no_memory(self, stage):
        """The training loop adds later groups in place into the first
        group's gradient arrays, so each must be writable and share memory
        with no other gradient and no parameter."""
        seqs, plans = padded_group()
        if stage == "pretrain":
            seqs, plans = seqs[:2], plans[:2]
        params = as_float32(init_params(
            CONFIG, stream(59, "init"),
            classes=3 if stage == "finetune" else None))
        _, grads = score(stage, params, Group(seqs, plans))
        assert grads and grads.keys() <= params.keys()
        arrays = [*grads.items(), *params.items()]
        for i, (name, grad) in enumerate(grads.items()):
            assert grad.flags.writeable, name
            assert grad.shape == params[name].shape, name
            for other, array in arrays[i + 1:]:
                assert not np.shares_memory(grad, array), (name, other)


class TestFloat64Guards:
    """The verification paths keep float64, whatever the training dtype."""

    def test_finite_diff_check_records_float64(self, monkeypatch):
        params, builds = cli.grad_check_problem(3, quick=True)
        spy = DtypeSpy(monkeypatch)
        bound_dtypes = []

        def build(bound):
            bound_dtypes.append({t.data.dtype for t in bound.values()})
            return builds["finetune_loss"](bound)

        assert ad.finite_diff_check(build, params) <= 1e-4
        assert bound_dtypes[0] == {np.dtype(np.float64)}
        assert spy.other_than(np.float64, np.longdouble) == []

    def test_frozen_predictor_encodes_float64(self, monkeypatch):
        config = EncoderConfig(vocab_size=5, layers=1, d_model=8, d_ff=12,
                               heads=2, max_seq_len=8, dropout=0.0)
        params = init_params(config, stream(57, "init"))
        encoded = []
        encode = oracle.encode

        def checked_encode(bound, *args, **kwargs):
            hidden = encode(bound, *args, **kwargs)
            encoded.append({t.data.dtype for t in bound.values()}
                           | {hidden.data.dtype})
            return hidden

        monkeypatch.setattr(oracle, "encode", checked_encode)
        predictor = oracle.make_frozen_predictor(params, config)
        seq = oracle.random_sequence(3, 5, stream(57, "s"), "guard")
        assert np.isfinite(predictor(seq, frozenset([0]), 2))
        assert encoded == [{np.dtype(np.float64)}]

    def test_grad_check_computes_in_float64(self, monkeypatch, capsys):
        spy = DtypeSpy(monkeypatch)
        assert cli.main(["grad-check", "--quick", "--seed", "3"]) == cli.EXIT_OK
        assert spy.seen and spy.other_than(np.float64, np.longdouble) == []
        assert "ok: max relative error" in capsys.readouterr().out

    def test_default_binding_is_float64_without_a_copy(self):
        """Binding casts nothing: float64 parameters and their float32 cast
        bind as the caller's arrays, with a tape or without."""
        params = init_params(CONFIG, stream(58, "init"))
        for arrays in (params, as_float32(params)):
            for tape in (ad.Tape(), None):
                for name, tensor in bind_params(arrays, tape).items():
                    assert tensor.data is arrays[name]


class TestOverflowingCast:
    def test_checkpoint_write_leaves_no_file(self, tmp_path):
        params = init_params(CONFIG, stream(61, "init"))
        params["mask_vec"][0] = 1e300
        path = tmp_path / "big.ckpt"
        with pytest.raises(tr.TrainingError,
                           match="entry 'mask_vec' overflows float32"):
            tr.save_checkpoint(path, params, parse_config(None, {}), 1)
        assert list(tmp_path.iterdir()) == []

    def test_adam_step_names_the_parameter(self):
        params = {"a": np.ones(3, np.float32), "b": np.ones(3, np.float32)}
        state = tr.OptimState.for_params(params, lr=1e300)
        with pytest.raises(tr.TrainingError,
                           match="parameter 'a' overflows float32"):
            tr.adam_step(params, {"a": np.ones(3, np.float32)}, state)

    # an Adam step moves each parameter by about lr, which float32 cannot
    # hold: the first step stops there, before any held-out pass or
    # checkpoint write
    @pytest.mark.parametrize("extra, message", [
        ([], "data error: parameter '"),
        (["--set", "heldout_fraction=0"], "data error: parameter '")])
    def test_cli_exits_with_one_data_error_line(self, tmp_path, capsys, extra,
                                                message):
        paths = {name: str(tmp_path / name) for name in ("c.pps", "c.tsv",
                                                         "v.txt")}
        assert cli.main(["gen-data", "--utterances", "12", "--seed", "1",
                         "--out", paths["c.pps"], "--manifest", paths["c.tsv"],
                         "--vocab", paths["v.txt"]]) == cli.EXIT_OK
        capsys.readouterr()
        out = tmp_path / "pre.ckpt"
        code = cli.main(["pretrain", "--data", paths["c.pps"],
                         "--vocab", paths["v.txt"], "--out", str(out),
                         "--set", "profile=tiny", "--set", "d=16",
                         "--set", "d_ff=24", "--set", "heads=2",
                         "--set", "layers=1", "--set", "epochs=1",
                         "--set", "lr=1e300"] + extra)
        assert code == cli.EXIT_DATA
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.startswith(message)
        assert err.endswith("' overflows float32\n")
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted(paths)

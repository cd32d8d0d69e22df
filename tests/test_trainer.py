import errno
import math
import struct
import tracemalloc

import numpy as np
import pytest

from bertplm import trainer as tr
from bertplm.config import parse_config
from bertplm.corpus import (LabeledUtterance, PhonemePosteriorSequence,
                            default_grammar, generate_corpus)
from bertplm.encoder import EncoderConfig, init_params
from bertplm.objective import MaskPlan, bert_plm_loss
from bertplm.rng import stream

SMALL = {"profile": "tiny", "layers": "1", "d": "16", "d_ff": "24",
         "heads": "2", "dropout": "0.0", "max_seq_len": "64"}


def small_config(**extra):
    overrides = dict(SMALL)
    overrides.update({k: str(v) for k, v in extra.items()})
    return parse_config(None, overrides)


def one_hot_utterance(phoneme, label, vocab_size=4, t_len=3, utt_id="u"):
    frames = np.zeros((t_len, vocab_size))
    frames[:, phoneme] = 1.0
    return LabeledUtterance(
        PhonemePosteriorSequence(frames, utterance_id=utt_id), label)


class TestAdam:
    def test_zero_gradient_leaves_params(self):
        params = {"w": np.ones((2, 2))}
        state = tr.OptimState.for_params(params, lr=0.1)
        tr.adam_step(params, {"w": np.zeros((2, 2))}, state)
        np.testing.assert_array_equal(params["w"], np.ones((2, 2)))
        assert state.step == 1

    def test_constant_gradient_update_magnitude_approaches_lr(self):
        # with constant g, bias-corrected updates tend to lr * sign(g)
        params = {"w": np.zeros(3)}
        state = tr.OptimState.for_params(params, lr=0.01)
        grad = np.array([0.5, -2.0, 7.0])
        previous = params["w"].copy()
        for _ in range(500):
            previous = params["w"].copy()
            tr.adam_step(params, {"w": grad.copy()}, state)
        step_size = np.abs(params["w"] - previous)
        np.testing.assert_allclose(step_size, 0.01, rtol=1e-3)

    def test_quadratic_bowl_norm_decreases(self):
        rng = stream(1, "bowl")
        params = {"p": rng.normal(size=8)}
        state = tr.OptimState.for_params(params, lr=1e-2)
        norms = []
        for _ in range(500):
            tr.adam_step(params, {"p": 2.0 * params["p"]}, state)
            norms.append(float(np.linalg.norm(params["p"])))
        warm = norms[50:]
        assert all(b < a + 1e-12 for a, b in zip(warm, warm[1:]))
        assert norms[-1] < 0.1 * norms[0]

    @staticmethod
    def average_then_step(params, sums, state, count):
        """The two-pass step the fused one replaced: divide every sum by
        ``count``, then update each whole parameter."""
        grads = {name: grad / count for name, grad in sums.items()}
        state.step += 1
        correction1 = 1.0 - tr.ADAM_BETA1 ** state.step
        correction2 = 1.0 - tr.ADAM_BETA2 ** state.step
        for name in sorted(params):
            grad = grads.get(name)
            if grad is None:
                grad = np.zeros_like(params[name])
            elif not np.all(np.isfinite(grad)):
                raise tr.TrainingError(
                    f"non-finite gradient for parameter {name!r}")
            m = state.m[name]
            v = state.v[name]
            m *= tr.ADAM_BETA1
            m += (1.0 - tr.ADAM_BETA1) * grad
            v *= tr.ADAM_BETA2
            v += (1.0 - tr.ADAM_BETA2) * grad * grad
            params[name] -= state.lr * (m / correction1) / (
                np.sqrt(v / correction2) + tr.ADAM_EPS)

    @pytest.mark.parametrize("chunk", [7, 64, 1 << 15])
    def test_fused_step_equals_average_then_step(self, monkeypatch, chunk):
        monkeypatch.setattr(tr, "ADAM_CHUNK", chunk)
        rng = stream(2, "fused")
        shapes = {"a": (13, 11), "b": (64,), "c": (3,), "skipped": (5, 5),
                  "big": (40, 1700)}
        start = {name: rng.normal(size=shape) for name, shape in shapes.items()}
        runs = []
        for step in (self.average_then_step, tr.adam_step):
            params = {name: p.copy() for name, p in start.items()}
            state = tr.OptimState.for_params(params, lr=3e-2)
            for i in range(4):
                sums = {name: rng_i.normal(size=p.shape) * 10.0 ** (i - 2)
                        for name, p in params.items() if name != "skipped"
                        for rng_i in [stream(2, "sums", i, name)]}
                step(params, sums, state, 1 + i % 3)
            runs.append((params, state))
        (p_ref, s_ref), (p_new, s_new) = runs
        assert s_new.step == s_ref.step == 4
        for name in shapes:
            for ref, new in ((p_ref, p_new), (s_ref.m, s_new.m),
                             (s_ref.v, s_new.v)):
                assert new[name].tobytes() == ref[name].tobytes(), name

    def test_float32_step_equals_average_then_step(self, monkeypatch):
        """Float32 parameters step in float32, chunk by chunk, bitwise as
        the whole-parameter step in the same dtype."""
        monkeypatch.setattr(tr, "ADAM_CHUNK", 7)
        shapes = {"a": (13, 11), "skipped": (5,), "big": (40, 90)}
        start = {name: stream(3, "f32", name).normal(size=shape).astype(
            np.float32) for name, shape in shapes.items()}
        runs = []
        for step in (self.average_then_step, tr.adam_step):
            params = {name: p.copy() for name, p in start.items()}
            state = tr.OptimState.for_params(params, lr=3e-2)
            for i in range(3):
                sums = {name: stream(3, "g", i, name).normal(
                    size=p.shape).astype(np.float32)
                    for name, p in params.items() if name != "skipped"}
                step(params, sums, state, 2 + i)
            runs.append((params, state))
        (p_ref, s_ref), (p_new, s_new) = runs
        for name in shapes:
            for ref, new in ((p_ref, p_new), (s_ref.m, s_new.m),
                             (s_ref.v, s_new.v)):
                assert new[name].dtype == np.float32
                assert new[name].tobytes() == ref[name].tobytes(), name

    @pytest.mark.parametrize("layout", [
        lambda total: np.asfortranarray(total.astype(np.float32)),
        lambda total: total.astype(np.float32).T.copy().T,
        lambda total: np.repeat(total.astype(np.float32), 2, axis=1)[:, ::2],
        lambda total: total],
        ids=["fortran", "transposed-twice", "strided", "float64"])
    def test_sum_steps_as_its_c_contiguous_float32_copy(self, monkeypatch,
                                                        layout):
        """A sum of any layout, or in float64, steps float32 parameters
        bitwise as its C-contiguous float32 copy does."""
        monkeypatch.setattr(tr, "ADAM_CHUNK", 7)
        start = stream(4, "layout").normal(size=(6, 5)).astype(np.float32)
        runs = []
        for as_sum in (lambda total: total.astype(np.float32), layout):
            params = {"w": start.copy()}
            state = tr.OptimState.for_params(params, lr=3e-2)
            for i in range(3):
                total = stream(4, "layout", i).normal(size=(6, 5))
                tr.adam_step(params, {"w": as_sum(total)}, state, 2 + i)
            runs.append((params["w"], state.m["w"], state.v["w"]))
        for ref, new in zip(*runs):
            assert new.dtype == np.float32
            assert new.tobytes() == ref.tobytes()

    def test_fused_step_leaves_the_sums_alone(self):
        params = {"w": np.ones(5)}
        sums = {"w": np.arange(5.0)}
        tr.adam_step(params, sums, tr.OptimState.for_params(params, 0.1), 4)
        np.testing.assert_array_equal(sums["w"], np.arange(5.0))

    def test_non_finite_sum_in_a_later_chunk_aborts(self, monkeypatch):
        monkeypatch.setattr(tr, "ADAM_CHUNK", 4)
        params = {"w": np.ones(10)}
        sums = {"w": np.ones(10)}
        sums["w"][9] = np.inf
        with pytest.raises(tr.TrainingError, match="'w'"):
            tr.adam_step(params, sums, tr.OptimState.for_params(params, 0.1),
                         2)

    def test_nan_gradient_aborts_with_name(self):
        params = {"good": np.ones(2), "bad": np.ones(2)}
        state = tr.OptimState.for_params(params, lr=0.1)
        grads = {"good": np.ones(2), "bad": np.array([1.0, np.nan])}
        with pytest.raises(tr.TrainingError, match="bad"):
            tr.adam_step(params, grads, state)


class TestCheckpoint:
    def test_round_trip_bitwise_at_f32(self, tmp_path):
        cfg = small_config()
        rng = stream(2, "ck")
        params = {"embed": rng.normal(size=(4, 16)), "mask_vec": rng.normal(size=16)}
        optim = tr.OptimState.for_params(params, lr=cfg.lr)
        optim.m["embed"] += 0.5
        optim.step = 7
        path = tmp_path / "m.ckpt"
        tr.save_checkpoint(path, params, cfg, step=7, optim=optim)
        loaded = tr.load_checkpoint(path)
        assert loaded.step == 7
        assert loaded.config == cfg
        for name, arr in params.items():
            assert loaded.arrays[name].astype("<f4").tobytes() == \
                arr.astype("<f4").tobytes()
        assert loaded.optim is not None
        np.testing.assert_array_equal(
            loaded.optim.m["embed"], optim.m["embed"].astype("<f4"))

    def test_loads_read_only_float32_as_stored(self, tmp_path):
        cfg = small_config()
        rng = stream(65, "ck")
        params = {"embed": rng.normal(size=(4, 16)), "w": rng.normal(size=3)}
        optim = tr.OptimState.for_params(params, lr=cfg.lr)
        optim.v["w"] += 0.25
        path = tmp_path / "m.ckpt"
        tr.save_checkpoint(path, params, cfg, step=3, optim=optim)
        loaded = tr.load_checkpoint(path)
        for saved, got in ((params, loaded.arrays), (optim.m, loaded.optim.m),
                           (optim.v, loaded.optim.v)):
            assert got.keys() == saved.keys()
            for name, array in got.items():
                assert array.dtype == np.float32
                assert not array.flags.writeable
                assert array.tobytes() == saved[name].astype("<f4").tobytes()
                with pytest.raises(ValueError, match="read-only"):
                    array[...] = 0.0

    def test_float32_arrays_save_as_their_float64_copies(self, tmp_path):
        cfg = small_config()
        params = {"w": stream(66, "ck").normal(size=(5, 7))}
        paths = [tmp_path / "wide.ckpt", tmp_path / "narrow.ckpt"]
        tr.save_checkpoint(paths[0], params, cfg, step=1)
        tr.save_checkpoint(paths[1], tr.load_checkpoint(paths[0]).arrays, cfg,
                           step=1)
        assert paths[0].read_bytes() == paths[1].read_bytes()

    @pytest.mark.parametrize("view", [
        lambda w: w.T, lambda w: w[:, ::2], lambda w: w.astype(">f4")],
        ids=["transposed", "strided", "big-endian"])
    def test_float32_views_save_as_their_c_contiguous_copies(self, tmp_path,
                                                             view):
        cfg = small_config()
        w = view(stream(68, "ck").normal(size=(5, 7)).astype(np.float32))
        paths = [tmp_path / "view.ckpt", tmp_path / "copy.ckpt"]
        tr.save_checkpoint(paths[0], {"w": w}, cfg, step=1)
        tr.save_checkpoint(paths[1], {"w": np.ascontiguousarray(w, "<f4")},
                           cfg, step=1)
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_writes_the_documented_layout(self, tmp_path):
        from bertplm.config import config_text
        cfg = small_config()
        params = {"w": np.array([[1.0, -2.5, 0.5]]), "b": np.array([0.25, 3.0])}
        path = tmp_path / "two.ckpt"
        tr.save_checkpoint(path, params, cfg, step=5)
        text = config_text(cfg).encode("utf-8")
        assert path.read_bytes() == (
            b"CKP1" + struct.pack("<I", 3)
            + struct.pack("<H", 1) + b"b" + struct.pack("<BI", 1, 2)
            + struct.pack("<2f", 0.25, 3.0)
            + struct.pack("<H", 1) + b"w" + struct.pack("<B2I", 2, 1, 3)
            + struct.pack("<3f", 1.0, -2.5, 0.5)
            + struct.pack("<H", 4) + b"step" + struct.pack("<B", 0)
            + struct.pack("<f", 5.0)
            + struct.pack("<I", len(text)) + text)
        assert list(tmp_path.iterdir()) == [path]  # the temp file is renamed

    def test_failed_write_leaves_no_temp_file(self, tmp_path, monkeypatch):
        cfg = small_config()
        params = {"a": np.ones(3), "b": np.ones(2)}
        path = tmp_path / "m.ckpt"
        write_entry = tr._write_entry
        written = []

        def full_disk(out, name, arr):
            if written:
                raise OSError(errno.ENOSPC, "No space left on device")
            written.append(name)
            write_entry(out, name, arr)

        monkeypatch.setattr(tr, "_write_entry", full_disk)
        with pytest.raises(OSError, match="No space left"):
            tr.save_checkpoint(path, params, cfg, step=1)
        assert written == ["a"]
        assert list(tmp_path.iterdir()) == []

    def test_failed_rename_leaves_no_temp_file(self, tmp_path):
        path = tmp_path / "outdir"
        path.mkdir()
        with pytest.raises(OSError):
            tr.save_checkpoint(path, {"a": np.ones(3)}, small_config(), step=1)
        assert list(tmp_path.iterdir()) == [path]
        assert list(path.iterdir()) == []

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_entry_names_entry_and_offset(self, tmp_path, value):
        cfg = small_config()
        params = {"classifier": np.ones((2, 3)), "embed": np.ones((4, 3))}
        path = tmp_path / "ft.ckpt"
        tr.save_checkpoint(path, params, cfg, step=1)
        raw = bytearray(path.read_bytes())
        # 8 header bytes, then u16 length, "classifier", rank, two dims
        payload = 8 + 2 + len("classifier") + 1 + 2 * 4
        assert raw[payload:payload + 4] == struct.pack("<f", 1.0)
        raw[payload + 4:payload + 8] = struct.pack("<f", value)
        path.write_bytes(bytes(raw))
        with pytest.raises(tr.DataError, match=(
                f"entry 'classifier' holds a non-finite value "
                f".at byte offset {payload + 4}.")):
            tr.load_checkpoint(path)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.ckpt"
        path.write_bytes(b"NOPE" + b"\x00" * 16)
        with pytest.raises(tr.DataError):
            tr.load_checkpoint(path)

    def _saved(self, tmp_path):
        cfg = small_config()
        params = {"embed": stream(3, "ck").normal(size=(4, 16))}
        path = tmp_path / "m.ckpt"
        tr.save_checkpoint(path, params, cfg, step=2)
        return path, cfg

    def test_truncated_checkpoint_reports_offset(self, tmp_path):
        path, _ = self._saved(tmp_path)
        path.write_bytes(path.read_bytes()[:40])
        with pytest.raises(tr.DataError, match="truncated file.*byte offset"):
            tr.load_checkpoint(path)

    def test_checkpoint_without_step_is_data_error(self, tmp_path):
        path = tmp_path / "nostep.ckpt"
        text = b"profile = tiny\n"
        path.write_bytes(tr.CHECKPOINT_MAGIC + struct.pack("<I", 0)
                         + struct.pack("<I", len(text)) + text)
        with pytest.raises(tr.DataError, match=f"{path}: no 'step' entry"):
            tr.load_checkpoint(path)

    def test_entry_name_not_utf8_reports_offset(self, tmp_path):
        path, _ = self._saved(tmp_path)
        raw = bytearray(path.read_bytes())
        raw[10] = 0xff  # first byte of the first entry name
        path.write_bytes(bytes(raw))
        with pytest.raises(tr.DataError,
                           match="entry name is not valid UTF-8 .at byte offset 10."):
            tr.load_checkpoint(path)

    def test_repeated_entry_name_reports_offset(self, tmp_path):
        path = tmp_path / "twice.ckpt"
        text = b"profile = tiny\n"
        entry = struct.pack("<H", 1) + b"w" + struct.pack("<BI", 1, 2) \
            + struct.pack("<2f", 0.5, 1.5)
        path.write_bytes(tr.CHECKPOINT_MAGIC + struct.pack("<I", 2) + entry
                         + entry + struct.pack("<I", len(text)) + text)
        with pytest.raises(tr.DataError, match=(
                f"entry 'w' appears twice .at byte offset {8 + len(entry)}.")):
            tr.load_checkpoint(path)

    def test_trailing_bytes_after_config_rejected(self, tmp_path):
        path, _ = self._saved(tmp_path)
        size = path.stat().st_size
        path.write_bytes(path.read_bytes() + b"\n")
        with pytest.raises(tr.DataError,
                           match=f"1 trailing bytes .at byte offset {size}."):
            tr.load_checkpoint(path)

    def _with_config_line(self, tmp_path, line):
        """A saved checkpoint whose config text ends with ``line``, which
        overrides an earlier line for the same key."""
        from bertplm.config import config_text
        path, cfg = self._saved(tmp_path)
        text = config_text(cfg).encode("utf-8")
        raw = path.read_bytes()
        assert raw.endswith(struct.pack("<I", len(text)) + text)
        new_text = (config_text(cfg) + line + "\n").encode("utf-8")
        path.write_bytes(raw[:-len(text) - 4]
                         + struct.pack("<I", len(new_text)) + new_text)
        return path, cfg

    @pytest.mark.parametrize("key, value", [
        ("frame_ms", "30.0"), ("beta1", "0.9"), ("beta2", "0.999"),
        ("eps_adam", "1e-08"), ("sil_threshold", "0.5")])
    def test_config_with_retired_key_is_data_error(self, tmp_path, key,
                                                   value):
        # the keys of values that are now fixed are unknown keys
        path, _ = self._with_config_line(tmp_path, f"{key} = {value}")
        with pytest.raises(tr.DataError,
                           match=f"checkpoint .*unknown key '{key}'"):
            tr.load_checkpoint(path)

    def test_config_breaking_model_rules_is_data_error(self, tmp_path):
        path, _ = self._with_config_line(tmp_path, "heads = 7")
        with pytest.raises(tr.DataError, match="divisible by heads"):
            tr.load_checkpoint(path)

    @pytest.mark.parametrize("key, value", [
        ("heldout_fraction", "-0.5"), ("val_fraction", "1"), ("epochs", "0"),
        ("finetune_epochs", "0"), ("patience", "0"), ("lr", "nan"),
        ("lr", "0")])
    def test_config_value_out_of_range_is_data_error(self, tmp_path, key,
                                                     value):
        path, _ = self._with_config_line(tmp_path, f"{key} = {value}")
        with pytest.raises(tr.DataError, match=f"checkpoint .*{key} must"):
            tr.load_checkpoint(path)

    def test_unknown_config_key_is_data_error(self, tmp_path):
        path, _ = self._with_config_line(tmp_path, "banana = 1")
        with pytest.raises(tr.DataError, match="banana"):
            tr.load_checkpoint(path)


class TestMetrics:
    def test_all_correct(self):
        confusion = np.diag([3, 4, 2])
        metrics = tr.metrics_from_confusion(confusion)
        assert metrics.error_rate == 0.0
        assert metrics.macro_f1 == 1.0
        assert metrics.micro_f1 == 1.0

    def test_hand_computed_degenerate_predictor(self):
        # 2 balanced classes, everything predicted class 0:
        # micro = accuracy = 0.5; class0 F1 = 2/3, class1 F1 = 0
        confusion = np.array([[5, 0], [5, 0]])
        metrics = tr.metrics_from_confusion(confusion)
        assert abs(metrics.micro_f1 - 0.5) <= 1e-12
        assert abs(metrics.macro_f1 - (2 / 3 + 0) / 2) <= 1e-12

    def test_zero_support_class_flagged(self):
        confusion = np.array([[3, 0, 1], [0, 2, 0], [0, 0, 0]])
        metrics = tr.metrics_from_confusion(confusion)
        assert metrics.zero_support_classes == (2,)

    def test_empty_set_is_an_error(self):
        with pytest.raises(tr.DataError):
            tr.metrics_from_confusion(np.zeros((2, 2), dtype=np.int64))

    def test_micro_f1_is_one_minus_error(self):
        rng = stream(3, "conf")
        for _ in range(20):
            confusion = rng.integers(0, 9, size=(4, 4))
            confusion[0, 0] += 1  # non-empty
            metrics = tr.metrics_from_confusion(confusion)
            assert abs(metrics.micro_f1 - (1.0 - metrics.error_rate)) <= 1e-12


class TestPretrain:
    def test_single_utterance_single_step(self):
        grammar = default_grammar()
        corpus = [u.sequence for u in generate_corpus(grammar, 1, seed=4)]
        cfg = small_config(epochs=1, batch_size=1)
        ckpt = tr.pretrain(corpus, cfg, seed=4,
                           sil_index=grammar.vocab.sil_index)
        assert ckpt.step == 1
        assert all(np.all(np.isfinite(a)) for a in ckpt.arrays.values())

    def test_same_seed_gives_bitwise_identical_checkpoints(self, tmp_path):
        grammar = default_grammar()
        corpus = [u.sequence for u in generate_corpus(grammar, 12, seed=5)]
        cfg = small_config(epochs=2, batch_size=4)

        paths = []
        for run in range(2):
            ckpt = tr.pretrain(corpus, cfg, seed=11,
                               sil_index=grammar.vocab.sil_index)
            path = tmp_path / f"run{run}.ckpt"
            tr.save_checkpoint(path, ckpt.arrays, cfg, ckpt.step, ckpt.optim)
            paths.append(path)
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_training_loss_drops_thirty_percent_in_200_steps(self):
        # 50-utterance fixed corpus, tiny widths, seed 1
        grammar = default_grammar()
        corpus = [u.sequence for u in generate_corpus(grammar, 50, seed=1)]
        cfg = small_config(d=32, d_ff=48, epochs=72, batch_size=16)
        log = tr.ProgressLog()
        ckpt = tr.pretrain(corpus, cfg, seed=1,
                           sil_index=grammar.vocab.sil_index, log=log)
        assert ckpt.step >= 200
        train_losses = [v for _, split, metric, v in log.records
                        if split == "train" and metric == "plm_loss"]
        initial = train_losses[0]
        final = np.mean(train_losses[-5:])
        assert final < 0.7 * initial

    def test_all_utterances_skipped_is_fatal(self):
        # every frame is major-SIL, so no utterance can yield a plan
        frames = np.zeros((4, 4))
        frames[:, 0] = 1.0
        corpus = [PhonemePosteriorSequence(frames.copy(), utterance_id=f"s{i}")
                  for i in range(3)]
        cfg = small_config(epochs=1, batch_size=2, heldout_fraction=0.0)
        with pytest.raises(tr.TrainingError, match="eligible"):
            tr.pretrain(corpus, cfg, seed=1, sil_index=0)

    def test_mixed_corpus_skips_only_all_sil_utterances(self, monkeypatch):
        grammar = default_grammar()
        sil = grammar.vocab.sil_index
        normal = [u.sequence for u in generate_corpus(grammar, 6, seed=16)]
        frames = np.zeros((5, grammar.vocab.size))
        frames[:, sil] = 1.0
        silent = [PhonemePosteriorSequence(frames.copy(), utterance_id=f"sil{i}")
                  for i in range(3)]
        trained = []
        original = tr.bert_plm_loss

        def spy(params, config, group, **kwargs):
            if kwargs.get("want_grads"):
                trained.extend(seq.utterance_id for seq in group.sequences)
            return original(params, config, group, **kwargs)

        monkeypatch.setattr(tr, "bert_plm_loss", spy)
        cfg = small_config(epochs=2, batch_size=1, heldout_fraction=0.0)
        log = tr.ProgressLog()
        ckpt = tr.pretrain(normal + silent, cfg, seed=16, sil_index=sil, log=log)
        assert sorted(trained) == sorted(2 * [s.utterance_id for s in normal])
        # a minibatch left empty by skips takes no step and logs no row
        assert ckpt.step == 2 * len(normal)
        assert sum(1 for r in log.records if r[1] == "train") == ckpt.step

    def test_held_out_utterance_without_eligible_frame_is_dropped(self):
        """Seed 5 holds out the all-SIL utterance alone (the split's first
        position is its index): it cannot be planned, so no held-out row is
        logged, and the five others train."""
        grammar = default_grammar()
        sil = grammar.vocab.sil_index
        normal = [u.sequence for u in generate_corpus(grammar, 5, seed=18)]
        frames = np.zeros((4, grammar.vocab.size))
        frames[:, sil] = 1.0
        corpus = normal + [PhonemePosteriorSequence(frames, utterance_id="sil")]
        assert stream(5, "split").permutation(6)[0] == 5
        cfg = small_config(epochs=1, batch_size=5, heldout_fraction=0.2)
        log = tr.ProgressLog()
        ckpt = tr.pretrain(corpus, cfg, seed=5, sil_index=sil, log=log)
        assert ckpt.step == 1
        assert [r[1:] for r in log.records if r[1] != "train"] \
            == [("epoch", "skipped", 0)]

    def test_epoch_rows_count_skipped_utterances(self):
        grammar = default_grammar()
        sil = grammar.vocab.sil_index
        normal = [u.sequence for u in generate_corpus(grammar, 5, seed=17)]
        frames = np.zeros((4, grammar.vocab.size))
        frames[:, sil] = 1.0
        silent = [PhonemePosteriorSequence(frames.copy(), utterance_id=f"sil{i}")
                  for i in range(3)]
        cfg = small_config(epochs=2, batch_size=3, heldout_fraction=0.0)
        log = tr.ProgressLog()
        ckpt = tr.pretrain(normal + silent, cfg, seed=17, sil_index=sil,
                           log=log)
        rows = [(r[0], r[2], r[3]) for r in log.records if r[1] == "epoch"]
        assert [(metric, value) for _, metric, value in rows] \
            == [("skipped", 3), ("skipped", 3)]
        # each epoch's row follows its last train row
        last_train = [i for i, r in enumerate(log.records) if r[1] == "train"]
        epoch_rows = [i for i, r in enumerate(log.records) if r[1] == "epoch"]
        assert epoch_rows[-1] == last_train[-1] + 1
        assert rows[-1][0] == ckpt.step

    def test_progress_log_format(self, tmp_path):
        grammar = default_grammar()
        corpus = [u.sequence for u in generate_corpus(grammar, 4, seed=6)]
        cfg = small_config(epochs=1, batch_size=2)
        log_path = tmp_path / "progress.tsv"
        log = tr.ProgressLog(log_path)
        tr.pretrain(corpus, cfg, seed=6, sil_index=grammar.vocab.sil_index,
                    log=log)
        log.close()
        for line in log_path.read_text().splitlines():
            step, split, metric, value = line.split("\t")
            int(step)
            float(value)
            assert (split, metric) in {("train", "plm_loss"),
                                       ("heldout", "plm_loss"),
                                       ("epoch", "skipped")}


class TestLengthGroups:
    def test_greedy_over_sorted_lengths(self):
        lengths = [30, 10, 12, 10, 31, 100, 25]
        groups = tr.length_groups(lengths, max_seq_len=64)
        # sorted: 10 (1), 10 (3), 12 (2), 25 (6), 30 (0), 31 (4), 100 (5)
        assert groups == [[1, 3, 2], [6, 0], [4], [5]]
        for group in groups:
            longest = max(lengths[i] for i in group)
            assert len(group) == 1 or len(group) * longest <= 64
        assert sorted(i for g in groups for i in g) == list(range(7))
        # a group may pad to exactly max_seq_len frames
        assert tr.length_groups([16, 32, 32], 64) == [[0, 1], [2]]

    def test_every_utterance_alone_when_nothing_fits_twice(self):
        assert tr.length_groups([40, 33, 64], 64) == [[1], [0], [2]]
        assert tr.length_groups([], 64) == []


class TestStepMemory:
    def test_two_group_step_allocates_no_float64_sum(self):
        """One step of two single-utterance groups on a model whose
        parameters dwarf its activations (d=192, T <= 6). From the moment
        the second group's gradients exist to the end of the step, the step
        allocates no gradient-sized array: the second group is added in
        place into the first group's arrays, and ``adam_step`` needs only
        its two float32 scratch rows (8 * ADAM_CHUNK bytes). Allowed on top:
        64 KB for small Python objects, well below the 590 KB of the largest
        weight's float32 copy. Measured: 32 bytes (the second group's
        arrays are freed before ``adam_step`` runs); 590 KB when each sum is
        a new float32 array and 2.65 MB when it is a float64 one."""
        config = EncoderConfig(vocab_size=6, layers=1, d_model=192, d_ff=768,
                               heads=2, max_seq_len=8, dropout=0.0)
        params = {name: p.astype(np.float32) for name, p
                  in init_params(config, stream(67, "init")).items()}
        optim = tr.OptimState.for_params(params, lr=1e-3)
        rng = stream(67, "frames")
        seqs = [PhonemePosteriorSequence(rng.dirichlet(np.ones(6), size=n),
                                         utterance_id=f"m{n}") for n in (5, 6)]
        plans = [MaskPlan.from_context_set((0, 2, 3), 5),
                 MaskPlan.from_context_set((0, 1, 4), 6)]
        groups, held = [], []

        def group_grads(indices, group):
            groups.append(indices)
            breakdown, grads = bert_plm_loss(params, config, group,
                                             want_grads=True)
            held.append(tracemalloc.get_traced_memory()[0])
            tracemalloc.reset_peak()
            return breakdown.plm_loss, grads

        steps = tr._train_steps(params, optim, [0, 1], 2, 8,
                                lambda i: (seqs[i], plans[i]), group_grads)
        tracemalloc.start()
        try:
            next(steps)
            peak = tracemalloc.get_traced_memory()[1] - held[-1]
        finally:
            tracemalloc.stop()
        assert groups == [[0], [1]] and optim.step == 1
        assert peak <= 8 * tr.ADAM_CHUNK + (64 << 10), peak


class TestFinetuneEvaluate:
    def test_separable_two_class_toy_reaches_zero_error(self):
        train = [one_hot_utterance(1, 0, utt_id=f"a{i}") for i in range(8)]
        train += [one_hot_utterance(2, 1, utt_id=f"b{i}") for i in range(8)]
        test = [one_hot_utterance(1, 0, utt_id="ta"),
                one_hot_utterance(2, 1, utt_id="tb")]
        cfg = small_config(finetune_lambda=0.0, finetune_epochs=30,
                           batch_size=4, lr=0.01)
        _, metrics = tr.finetune(None, train, test, cfg, seed=3, sil_index=0,
                                 classes=2)
        assert metrics.error_rate == 0.0
        assert metrics.micro_f1 == 1.0

    def test_evaluate_confusion_equals_taped_predictions(self):
        from bertplm import autodiff as ad
        from bertplm.encoder import (EncoderConfig, Group, attentive_pool,
                                     bind_params, encode)
        from bertplm.objective import MaskPlan

        config = EncoderConfig(vocab_size=5, layers=1, d_model=16, d_ff=24,
                               heads=2, max_seq_len=64, dropout=0.0)
        params = init_params(config, stream(40, "init"), classes=3,
                             init_std=0.5)
        rng = stream(40, "utts")
        utts = [LabeledUtterance(PhonemePosteriorSequence(
            rng.dirichlet(np.ones(5), size=int(rng.integers(3, 9))),
            utterance_id=f"u{i}"), int(rng.integers(3))) for i in range(30)]

        expected = np.zeros((3, 3), dtype=np.int64)
        for utt in utts:
            plan = MaskPlan.full_context(utt.sequence.length)
            bound = bind_params(params, ad.Tape())
            group = Group([utt.sequence], [plan])
            hidden = encode(bound, config, group)
            pooled = attentive_pool(hidden, bound["pool_query"], group.context)
            expected[utt.label, int((params["classifier"] @ pooled.data[0])
                                    .argmax())] += 1
        confusion = tr.evaluate(params, config, utts).confusion
        np.testing.assert_array_equal(confusion, expected)
        assert (confusion.sum(axis=0) > 0).sum() >= 2  # not one constant label

    def test_identical_seeds_identical_metrics(self):
        grammar = default_grammar()
        utts = generate_corpus(grammar, 20, seed=7)
        cfg = small_config(finetune_epochs=3, batch_size=8)
        results = []
        for _ in range(2):
            _, metrics = tr.finetune(None, utts[:16], utts[16:], cfg, seed=9,
                                     sil_index=grammar.vocab.sil_index,
                                     classes=grammar.num_classes)
            results.append(metrics)
        assert results[0].error_rate == results[1].error_rate
        np.testing.assert_array_equal(results[0].confusion, results[1].confusion)

    def test_all_sil_utterances_train_through_full_context(self, monkeypatch):
        # no frame is eligible as a target, so every step falls back to a
        # plan with nothing masked and still updates the parameters
        train = [one_hot_utterance(0, i % 2, utt_id=f"s{i}") for i in range(5)]
        plans = []
        original = tr.finetune_loss

        def spy(params, config, group, labels, **kwargs):
            plans.extend(group.plans)
            return original(params, config, group, labels, **kwargs)

        monkeypatch.setattr(tr, "finetune_loss", spy)
        cfg = small_config(finetune_epochs=1, batch_size=2, val_fraction=0.0)
        log = tr.ProgressLog()
        ckpt, metrics = tr.finetune(None, train, [], cfg, seed=4, sil_index=0,
                                    classes=2, log=log)
        assert metrics is None
        # val_fraction 0 holds nothing out: all 5 utterances train
        assert ckpt.step == 3
        assert len(plans) == 5
        assert all(p.k == 0 and p.context_idx == (0, 1, 2) for p in plans)
        assert sorted(r[2:] for r in log.records if r[1] == "epoch") \
            == [("fallback_full_context", 5)]
        assert not [r for r in log.records if r[1] == "val"]
        from bertplm.config import encoder_config
        fresh = init_params(encoder_config(cfg, 4), stream(4, "ft-init"),
                            classes=2)
        assert not np.array_equal(ckpt.arrays["classifier"], fresh["classifier"])

    def test_label_out_of_range(self):
        bad = [one_hot_utterance(1, 5, utt_id="x")]
        cfg = small_config(finetune_epochs=1)
        with pytest.raises(tr.DataError):
            tr.finetune(None, bad, [], cfg, seed=0, sil_index=0, classes=2)

    def test_evaluate_requires_classifier(self):
        from bertplm.config import encoder_config
        cfg = small_config()
        enc_cfg = encoder_config(cfg, vocab_size=4)
        params = init_params(enc_cfg, stream(8, "init"))
        with pytest.raises(tr.DataError):
            tr.evaluate(params, enc_cfg, [one_hot_utterance(1, 0)])


class TestAblations:
    def test_single_ratio_gives_one_row_marked_best(self):
        grammar = default_grammar()
        unlabeled = [u.sequence for u in generate_corpus(grammar, 10, seed=10)]
        labeled = generate_corpus(grammar, 10, seed=11, id_prefix="lab")
        cfg = small_config(epochs=1, finetune_epochs=1, batch_size=4)
        rows = tr.ablate_mask_ratio(unlabeled, labeled[:8], labeled[8:],
                                    ratios=[0.15], cfg=cfg, seed=12,
                                    sil_index=grammar.vocab.sil_index,
                                    classes=grammar.num_classes)
        assert len(rows) == 1
        assert rows[0].best and rows[0].setting == 0.15

    def test_fraction_rows_report_gap(self):
        grammar = default_grammar()
        unlabeled = [u.sequence for u in generate_corpus(grammar, 10, seed=13)]
        labeled = generate_corpus(grammar, 12, seed=14, id_prefix="lab")
        cfg = small_config(epochs=1, finetune_epochs=1, batch_size=4)
        rows = tr.ablate_fraction(unlabeled, labeled[:10], labeled[10:],
                                  fractions=[0.5, 1.0], cfg=cfg, seed=15,
                                  sil_index=grammar.vocab.sil_index,
                                  classes=grammar.num_classes)
        assert [r.fraction for r in rows] == [0.5, 1.0]
        for row in rows:
            assert row.gap == row.pretrained_accuracy - row.fresh_accuracy

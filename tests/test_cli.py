import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from bertplm import cli
from bertplm import corpus as cp
from bertplm import trainer as tr
from bertplm.config import ConfigError, config_text, parse_config


class TestParseConfig:
    def test_empty_file_gives_all_defaults(self, tmp_path):
        path = tmp_path / "empty.cfg"
        path.write_text("")
        cfg = parse_config(path)
        assert (cfg.layers, cfg.d, cfg.d_ff, cfg.heads) == (4, 576, 1600, 8)
        assert cfg.dropout == 0.1
        assert cfg.lr == 3e-5
        assert cfg.max_seq_len == 320
        assert cfg.mask_ratio_max == 0.15
        assert cfg.plm_weighting == "mean"
        assert cfg.finetune_lambda == 1.0

    def test_file_value_applies(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text("mask_ratio_max = 0.20\n# comment\n")
        assert parse_config(path).mask_ratio_max == 0.20

    def test_type_mismatch_names_key_and_line(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text("epochs = 5\nlayers = abc\n")
        with pytest.raises(ConfigError, match="line 2.*layers"):
            parse_config(path)

    @pytest.mark.parametrize("key", ["frame_ms", "beta1", "beta2", "eps_adam",
                                     "sil_threshold"])
    def test_retired_key_rejected_in_user_config(self, tmp_path, key):
        # only checkpoint config text may still carry these keys
        path = tmp_path / "c.cfg"
        path.write_text(f"{key} = 0.5\n")
        with pytest.raises(ConfigError, match=f"unknown key '{key}'"):
            parse_config(path)
        with pytest.raises(ConfigError, match=f"unknown key '{key}'"):
            parse_config(None, {key: "0.5"})

    def test_config_file_not_utf8_is_usage_error(self, tmp_path, capsys):
        path = tmp_path / "c.cfg"
        path.write_bytes(b"epochs = 2\n\xff = 1\n")
        with pytest.raises(ConfigError, match="not valid UTF-8.*offset 11"):
            parse_config(path)
        code = cli.main(["gen-data", "--config", str(path), "--utterances", "1",
                         "--out", str(tmp_path / "x.pps")])
        assert code == cli.EXIT_USAGE

    @pytest.mark.parametrize("key, value", [
        ("heads", "7"), ("d", "0"), ("dropout", "1.5"), ("batch_size", "0"),
        ("heldout_fraction", "-0.5"), ("heldout_fraction", "1"),
        ("val_fraction", "1.5"), ("val_fraction", "-0.1"), ("epochs", "0"),
        ("finetune_epochs", "0"), ("patience", "-1"), ("lr", "0"),
        ("lr", "-1e-3"), ("lr", "nan"), ("lr", "inf"),
        ("finetune_lambda", "nan"), ("finetune_lambda", "inf"),
        ("finetune_lambda", "-inf"), ("finetune_lambda", "-1"),
        ("finetune_lambda", "1e400")])
    def test_invalid_model_or_batch_is_usage_error(self, tmp_path, capsys,
                                                    key, value):
        with pytest.raises(ConfigError):
            parse_config(None, {key: value})
        # rejected before any file is read
        code = cli.main(["pretrain", "--data", str(tmp_path / "nope.pps"),
                         "--vocab", str(tmp_path / "nope.txt"),
                         "--out", str(tmp_path / "m.ckpt"),
                         "--set", f"{key}={value}"])
        assert code == cli.EXIT_USAGE
        assert capsys.readouterr().err.startswith("config error: ")

    def test_unknown_key_lists_valid_keys(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text("banana = 1\n")
        with pytest.raises(ConfigError, match="valid keys.*mask_ratio_max"):
            parse_config(path)

    def test_overrides_win_over_file(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text("epochs = 5\n")
        cfg = parse_config(path, {"epochs": "9"})
        assert cfg.epochs == 9

    def test_tiny_profile_rewrites_dims_but_explicit_keys_win(self):
        cfg = parse_config(None, {"profile": "tiny"})
        assert (cfg.layers, cfg.d, cfg.d_ff, cfg.heads) == (2, 64, 128, 4)
        assert cfg.lr == 1e-3
        cfg = parse_config(None, {"profile": "tiny", "d": "32"})
        assert cfg.d == 32

    def test_round_trip_through_text(self):
        from bertplm.config import config_text, parse_config_text
        cfg = parse_config(None, {"profile": "tiny", "epochs": "3"})
        assert parse_config_text(config_text(cfg)) == cfg


ABLATION_INPUTS = (" --data X --train-data X --train-manifest X"
                   " --test-data X --test-manifest X --vocab X")


class TestExitCodes:
    def test_no_arguments_is_usage_error(self, capsys):
        assert cli.main([]) == cli.EXIT_USAGE

    def test_unknown_subcommand(self, capsys):
        assert cli.main(["frobnicate"]) == cli.EXIT_USAGE

    def test_missing_required_flag(self, capsys):
        assert cli.main(["pretrain"]) == cli.EXIT_USAGE

    def test_corrupt_corpus_is_data_error(self, tmp_path, capsys):
        corpus = tmp_path / "bad.pps"
        corpus.write_bytes(b"XXXX" + b"\x00" * 12)
        vocab = tmp_path / "v.txt"
        cp.write_vocab(cp.default_grammar().vocab, vocab)
        code = cli.main(["pretrain", "--data", str(corpus),
                         "--vocab", str(vocab),
                         "--out", str(tmp_path / "m.ckpt")])
        assert code == cli.EXIT_DATA

    def test_missing_file_is_data_error(self, tmp_path, capsys):
        code = cli.main(["evaluate", "--ckpt", str(tmp_path / "nope.ckpt"),
                         "--data", str(tmp_path / "nope.pps"),
                         "--manifest", str(tmp_path / "nope.tsv"),
                         "--vocab", str(tmp_path / "nope.txt")])
        assert code == cli.EXIT_DATA

    @pytest.mark.parametrize("argv", [
        "gen-data --utterances 1 --out D",
        "pretrain --data C --vocab V --out M --log D --set profile=tiny"
        " --set epochs=1",
        "gen-data --utterances 1 --config D --out M",
    ])
    def test_directory_for_a_file_is_one_line_data_error(
            self, small_corpus, tmp_path, capsys, argv):
        (tmp_path / "D").mkdir()
        paths = {"D": str(tmp_path / "D"), "C": small_corpus["c.pps"],
                 "V": small_corpus["v.txt"], "M": str(tmp_path / "m.out")}
        assert cli.main([paths.get(a, a) for a in argv.split()]) \
            == cli.EXIT_DATA
        err = capsys.readouterr().err
        assert err.startswith("data error: ") and err.count("\n") == 1
        assert "Is a directory" in err

    def test_empty_evaluation_set_is_data_error(self, tmp_path, capsys):
        # error rate is undefined on an empty test set
        from bertplm.config import parse_config
        from bertplm.encoder import init_params
        from bertplm import trainer as tr
        from bertplm.rng import stream
        grammar = cp.default_grammar()
        vocab_path = tmp_path / "v.txt"
        cp.write_vocab(grammar.vocab, vocab_path)
        cp.write_corpus([], tmp_path / "empty.pps", grammar.vocab.size)
        (tmp_path / "empty.tsv").write_text("")
        cfg = parse_config(None, {"profile": "tiny", "d": "16", "d_ff": "24",
                                  "heads": "2", "layers": "1"})
        from bertplm.config import encoder_config
        params = init_params(encoder_config(cfg, grammar.vocab.size),
                             stream(0, "i"), classes=3)
        tr.save_checkpoint(tmp_path / "m.ckpt", params, cfg, step=0)
        code = cli.main(["evaluate", "--ckpt", str(tmp_path / "m.ckpt"),
                         "--data", str(tmp_path / "empty.pps"),
                         "--manifest", str(tmp_path / "empty.tsv"),
                         "--vocab", str(vocab_path)])
        assert code == cli.EXIT_DATA

    @pytest.mark.parametrize("argv", [
        "verify-theorem --max-T 11",
        "verify-theorem --trials 0",
        "gen-data --utterances 0 --out X",
        "gen-data --utterances -3 --out X",
        "grad-check --quick --eps 1",
        "ablate-mask --ratios 0.1,0" + ABLATION_INPUTS,
        "ablate-fraction --fractions 1.5" + ABLATION_INPUTS,
        "finetune --test-manifest X --data X --manifest X --vocab X --out X",
        # these commands read no config
        "grad-check --quick --set d=128",
        "verify-theorem --print-config",
    ])
    def test_bad_flag_is_one_line_usage_error(self, tmp_path, capsys, argv):
        # X names no file: the flag is rejected before any input is read
        args = [str(tmp_path / "X") if a == "X" else a for a in argv.split()]
        assert cli.main(args) == cli.EXIT_USAGE
        err = capsys.readouterr().err
        assert len([l for l in err.splitlines() if l.startswith("error:")]) == 1

    def test_verification_failure_exits_three(self, capsys, monkeypatch):
        import bertplm.cli as cli_mod

        def fake_verify(p, t_len, c, trials, rng, vocab_size=4, **kw):
            from bertplm.oracle import TheoremReport
            return [TheoremReport(dev_exact=1.0, dev_paper=1.0)]

        monkeypatch.setattr(cli_mod.oracle, "verify_theorem", fake_verify)
        code = cli.main(["verify-theorem", "--max-T", "2", "--trials", "1"])
        assert code == cli.EXIT_VERIFY

    @pytest.mark.parametrize("message, shown", [
        ("Unable to allocate 745. GiB for an array with shape "
         "(100000000, 1000) and data type float64",
         "Unable to allocate 745. GiB for an array with shape "
         "(100000000, 1000) and data type float64"),
        ("", "out of memory"),
    ], ids=["numpy-message", "no-message"])
    def test_memory_error_is_one_line_data_error(
            self, small_corpus, tmp_path, capsys, monkeypatch, message, shown):
        # an input size beyond the machine (a huge class id, max_seq_len or
        # d) fails an allocation; the callee raises without allocating
        def out_of_memory(*args, **kwargs):
            raise MemoryError(message)

        monkeypatch.setattr(tr, "pretrain", out_of_memory)
        code = cli.main(["pretrain", "--data", small_corpus["c.pps"],
                         "--vocab", small_corpus["v.txt"],
                         "--out", str(tmp_path / "m.ckpt")] + SMALL)
        assert code == cli.EXIT_DATA
        assert capsys.readouterr().err == f"data error: {shown}\n"


SMALL = ["--set", "profile=tiny", "--set", "d=16", "--set", "d_ff=24",
         "--set", "heads=2", "--set", "layers=1",
         "--set", "epochs=1", "--set", "finetune_epochs=1",
         "--set", "batch_size=8", "--set", "dropout=0.0"]


@pytest.fixture
def small_corpus(tmp_path):
    paths = {name: tmp_path / name for name in ("c.pps", "c.tsv", "v.txt")}
    assert cli.main(["gen-data", "--utterances", "12", "--seed", "1",
                     "--out", str(paths["c.pps"]),
                     "--manifest", str(paths["c.tsv"]),
                     "--vocab", str(paths["v.txt"])]) == cli.EXIT_OK
    return {name: str(path) for name, path in paths.items()}


class TestInputValidation:
    def test_finetune_without_test_data_writes_checkpoint(
            self, small_corpus, tmp_path, capsys):
        out = tmp_path / "ft.ckpt"
        code = cli.main(["finetune", "--data", small_corpus["c.pps"],
                         "--manifest", small_corpus["c.tsv"],
                         "--vocab", small_corpus["v.txt"],
                         "--out", str(out)] + SMALL)
        assert code == cli.EXIT_OK
        assert "test error_rate" not in capsys.readouterr().out
        assert "classifier" in tr.load_checkpoint(out).arrays

    def test_non_integer_class_id_is_data_error(self, small_corpus, tmp_path,
                                                capsys):
        manifest = tmp_path / "bad.tsv"
        manifest.write_text("utt-000000\tzero\tclass0\n")
        code = cli.main(["finetune", "--data", small_corpus["c.pps"],
                         "--manifest", str(manifest),
                         "--vocab", small_corpus["v.txt"],
                         "--out", str(tmp_path / "ft.ckpt")] + SMALL)
        assert code == cli.EXIT_DATA
        assert "line 1" in capsys.readouterr().err

    def test_sequence_longer_than_max_seq_len_names_utterance(
            self, small_corpus, tmp_path, capsys):
        out = tmp_path / "pre.ckpt"
        code = cli.main(["pretrain", "--data", small_corpus["c.pps"],
                         "--vocab", small_corpus["v.txt"], "--out", str(out),
                         "--set", "max_seq_len=8"] + SMALL)
        assert code == cli.EXIT_DATA
        err = capsys.readouterr().err
        assert "utt-000000" in err and "outside [1, 8]" in err
        assert not out.exists()

    def test_non_finite_frame_names_utterance(self, small_corpus, tmp_path,
                                              capsys):
        sequences = cp.read_corpus(small_corpus["c.pps"])
        sequences[3].frames[2, 1] = np.nan
        bad = tmp_path / "nan.pps"
        cp.write_corpus(sequences, bad, sequences[0].vocab_size)
        code = cli.main(["pretrain", "--data", str(bad),
                         "--vocab", small_corpus["v.txt"],
                         "--out", str(tmp_path / "pre.ckpt")] + SMALL)
        assert code == cli.EXIT_DATA
        err = capsys.readouterr().err
        assert "'utt-000003': frame 2: non-finite entry" in err

    def test_signalling_nan_frame_is_one_line_without_warning(
            self, small_corpus, tmp_path, capsys):
        raw = bytearray(Path(small_corpus["c.pps"]).read_bytes())
        # f32 signalling NaN as the first entry of utt-000000's frame 0
        raw[32:36] = bytes([0x01, 0x00, 0x80, 0x7f])
        bad = tmp_path / "snan.pps"
        bad.write_bytes(bytes(raw))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = cli.main(["pretrain", "--data", str(bad),
                             "--vocab", small_corpus["v.txt"],
                             "--out", str(tmp_path / "pre.ckpt")] + SMALL)
        assert code == cli.EXIT_DATA
        assert not caught
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert "'utt-000000': frame 0: non-finite entry" in err

    def test_evaluate_validates_against_checkpoint_config(
            self, small_corpus, tmp_path, capsys):
        ckpt = tmp_path / "ft.ckpt"
        assert cli.main(["finetune", "--data", small_corpus["c.pps"],
                         "--manifest", small_corpus["c.tsv"],
                         "--vocab", small_corpus["v.txt"], "--out", str(ckpt),
                         "--set", "max_seq_len=64"] + SMALL) == cli.EXIT_OK
        longest = max(s.length for s in cp.read_corpus(small_corpus["c.pps"]))
        args = ["evaluate", "--ckpt", str(ckpt), "--data", small_corpus["c.pps"],
                "--manifest", small_corpus["c.tsv"],
                "--vocab", small_corpus["v.txt"]]
        # the command's own --set does not apply; the checkpoint's config does
        assert cli.main(args + ["--set", f"max_seq_len={longest - 1}"]) \
            == cli.EXIT_OK
        short = tr.load_checkpoint(ckpt)
        tr.save_checkpoint(ckpt, short.arrays,
                           replace(short.config, max_seq_len=longest - 1),
                           short.step)
        assert cli.main(args) == cli.EXIT_DATA

    def test_evaluate_prints_the_checkpoints_config(self, small_corpus,
                                                    tmp_path, capsys):
        ckpt = tmp_path / "ft.ckpt"
        assert cli.main(["finetune", "--data", small_corpus["c.pps"],
                         "--manifest", small_corpus["c.tsv"],
                         "--vocab", small_corpus["v.txt"], "--out", str(ckpt)]
                        + SMALL) == cli.EXIT_OK
        capsys.readouterr()
        assert cli.main(["evaluate", "--ckpt", str(ckpt),
                         "--data", small_corpus["c.pps"],
                         "--manifest", small_corpus["c.tsv"],
                         "--vocab", small_corpus["v.txt"], "--print-config",
                         "--set", "d=32", "--set", "layers=7"]) == cli.EXIT_OK
        out = capsys.readouterr().out
        printed = config_text(tr.load_checkpoint(ckpt).config)
        assert out.startswith(printed + "error_rate\t")
        assert "d = 16\n" in printed and "layers = 1\n" in printed

    def test_failed_pretrain_leaves_no_checkpoint(self, small_corpus,
                                                  tmp_path, capsys):
        vocab = cp.read_vocab(small_corpus["v.txt"])
        frames = np.zeros((6, vocab.size))
        frames[:, vocab.sil_index] = 1.0
        silent = tmp_path / "sil.pps"
        cp.write_corpus([cp.PhonemePosteriorSequence(frames, f"sil{i}")
                         for i in range(4)], silent, vocab.size)
        out = tmp_path / "pre.ckpt"
        code = cli.main(["pretrain", "--data", str(silent),
                         "--vocab", small_corpus["v.txt"], "--out", str(out)]
                        + SMALL + ["--set", "epochs=2"])
        assert code == cli.EXIT_DATA
        assert capsys.readouterr().err == (
            "data error: every utterance was skipped: no eligible frames\n")
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "c.pps", "c.tsv", "sil.pps", "v.txt"]

    def test_corpus_id_not_utf8_is_data_error(self, small_corpus, capsys):
        path = small_corpus["c.pps"]
        raw = bytearray(Path(path).read_bytes())
        raw[18] = 0xff  # first byte of the first utterance id
        Path(path).write_bytes(bytes(raw))
        code = cli.main(["pretrain", "--data", path,
                         "--vocab", small_corpus["v.txt"],
                         "--out", path + ".ckpt"] + SMALL)
        assert code == cli.EXIT_DATA
        assert "utterance id is not valid UTF-8 (at byte offset 18)" \
            in capsys.readouterr().err

    def test_manifest_not_utf8_is_data_error(self, small_corpus, tmp_path,
                                             capsys):
        manifest = tmp_path / "bad.tsv"
        manifest.write_bytes(b"\xffutt-000000\t0\tclass0\n")
        code = cli.main(["finetune", "--data", small_corpus["c.pps"],
                         "--manifest", str(manifest),
                         "--vocab", small_corpus["v.txt"],
                         "--out", str(tmp_path / "ft.ckpt")] + SMALL)
        assert code == cli.EXIT_DATA
        assert "manifest is not valid UTF-8 (at byte offset 0)" \
            in capsys.readouterr().err

    def test_trailing_bytes_in_corpus_is_data_error(self, small_corpus, capsys):
        path = small_corpus["c.pps"]
        with open(path, "ab") as fh:
            fh.write(b"\x00")
        code = cli.main(["pretrain", "--data", path,
                         "--vocab", small_corpus["v.txt"],
                         "--out", path + ".ckpt"] + SMALL)
        assert code == cli.EXIT_DATA
        assert "trailing bytes" in capsys.readouterr().err

    def test_finetune_checkpoint_model_must_match(self, small_corpus, tmp_path,
                                                  capsys):
        pre = tmp_path / "pre.ckpt"
        assert cli.main(["pretrain", "--data", small_corpus["c.pps"],
                         "--vocab", small_corpus["v.txt"],
                         "--out", str(pre)] + SMALL) == cli.EXIT_OK
        capsys.readouterr()
        out = tmp_path / "ft.ckpt"
        code = cli.main(["finetune", "--data", small_corpus["c.pps"],
                         "--manifest", small_corpus["c.tsv"],
                         "--vocab", small_corpus["v.txt"], "--ckpt", str(pre),
                         "--out", str(out)] + SMALL
                        + ["--set", "layers=3", "--set", "d_ff=32",
                           "--set", "max_seq_len=100"])
        assert code == cli.EXIT_DATA
        err = capsys.readouterr().err
        assert "layers 1 in the checkpoint, 3 in this run" in err
        assert "d_ff 24 in the checkpoint, 32 in this run" in err
        assert "max_seq_len 320 in the checkpoint, 100 in this run" in err
        assert "heads" not in err
        assert not out.exists()
        # dropout is no part of the model
        assert cli.main(["finetune", "--data", small_corpus["c.pps"],
                         "--manifest", small_corpus["c.tsv"],
                         "--vocab", small_corpus["v.txt"], "--ckpt", str(pre),
                         "--out", str(out)] + SMALL
                        + ["--set", "dropout=0.2"]) == cli.EXIT_OK

    @pytest.mark.parametrize("command", ["evaluate", "finetune"])
    @pytest.mark.parametrize("fault, named", [
        ("one phoneme more", "entry 'embed' has shape"),
        ("missing entry", "no entry 'layer0.wq'"),
        ("head-stacked layout",
         "entry 'layer0.wq' has shape (2, 16, 8), the model needs (16, 16)")])
    def test_checkpoint_must_fit_the_model(self, small_corpus, tmp_path,
                                           capsys, command, fault, named):
        # evaluate reads a fine-tuned checkpoint, finetune --ckpt a
        # pre-trained one
        ckpt = tmp_path / "model.ckpt"
        data = ["--data", small_corpus["c.pps"], "--vocab", small_corpus["v.txt"]]
        manifest = ["--manifest", small_corpus["c.tsv"]]
        make = (["finetune"] + manifest if command == "evaluate"
                else ["pretrain"])
        assert cli.main(make + data + ["--out", str(ckpt)] + SMALL) \
            == cli.EXIT_OK
        saved = tr.load_checkpoint(ckpt)
        arrays = dict(saved.arrays)
        if fault == "one phoneme more":
            arrays["embed"] = np.vstack([arrays["embed"], arrays["embed"][:1]])
        elif fault == "missing entry":
            del arrays["layer0.wq"]
        else:
            # the layout before projections became (d, d) matrices and the
            # u/v biases d-vectors
            for name, value in saved.arrays.items():
                if name.endswith((".wq", ".wk", ".wv", ".wr")):
                    arrays[name] = value.reshape(16, 2, 8).transpose(1, 0, 2)
                elif name.endswith(("u_bias", "v_bias")):
                    arrays[name] = value.reshape(2, 1, 8)
        tr.save_checkpoint(ckpt, arrays, saved.config, saved.step)
        capsys.readouterr()
        out = tmp_path / "ft.ckpt"
        if command == "evaluate":
            argv = ["evaluate", "--ckpt", str(ckpt)] + data + manifest
        else:
            argv = (["finetune", "--ckpt", str(ckpt), "--out", str(out)]
                    + data + manifest + SMALL)
        assert cli.main(argv) == cli.EXIT_DATA
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and named in err
        assert not out.exists()

    def test_finetune_checkpoint_class_count_must_match(
            self, small_corpus, tmp_path, capsys):
        manifests = {}
        for classes in (5, 3):
            manifests[classes] = tmp_path / f"{classes}.tsv"
            manifests[classes].write_text("".join(
                f"utt-{i:06d}\t{i % classes}\tclass{i % classes}\n"
                for i in range(12)))
        data = ["--data", small_corpus["c.pps"], "--vocab", small_corpus["v.txt"]]
        five = tmp_path / "five.ckpt"
        assert cli.main(["finetune", "--manifest", str(manifests[5]),
                         "--out", str(five)] + data + SMALL) == cli.EXIT_OK
        assert tr.load_checkpoint(five).arrays["classifier"].shape[0] == 5
        capsys.readouterr()
        out = tmp_path / "ft.ckpt"
        code = cli.main(["finetune", "--manifest", str(manifests[3]),
                         "--ckpt", str(five), "--out", str(out)] + data + SMALL)
        assert code == cli.EXIT_DATA
        assert capsys.readouterr().err == (
            "data error: checkpoint classifier has 5 classes, the data 3\n")
        assert not out.exists()

    def test_finetune_plan_without_context_falls_back(self, small_corpus,
                                                      tmp_path, capsys):
        # a one-frame, non-silent utterance: its only frame is eligible, so
        # every plan drawn for it targets that frame and leaves no context
        vocab = cp.read_vocab(small_corpus["v.txt"])
        frames = np.zeros((1, vocab.size))
        frames[0, (vocab.sil_index + 1) % vocab.size] = 1.0
        data, manifest = tmp_path / "one.pps", tmp_path / "one.tsv"
        cp.write_corpus([cp.PhonemePosteriorSequence(frames, "one")], data,
                        vocab.size)
        manifest.write_text("one\t0\tclass0\n")
        out = tmp_path / "ft.ckpt"
        code = cli.main(["finetune", "--data", str(data),
                         "--manifest", str(manifest),
                         "--vocab", small_corpus["v.txt"], "--out", str(out)]
                        + SMALL)
        assert code == cli.EXIT_OK
        rows = [line.split("\t") for line in
                capsys.readouterr().out.splitlines() if line.count("\t") == 3]
        fallbacks = [float(value) for _, split, metric, value in rows
                     if (split, metric) == ("epoch", "fallback_full_context")]
        assert fallbacks and min(fallbacks) >= 1
        assert "classifier" in tr.load_checkpoint(out).arrays

    def test_empty_training_corpus_is_data_error(self, small_corpus, tmp_path,
                                                 capsys):
        empty = tmp_path / "empty.pps"
        cp.write_corpus([], empty, cp.default_grammar().vocab.size)
        code = cli.main(["finetune", "--data", str(empty),
                         "--manifest", small_corpus["c.tsv"],
                         "--vocab", small_corpus["v.txt"],
                         "--out", str(tmp_path / "ft.ckpt")] + SMALL)
        assert code == cli.EXIT_DATA


class TestFloatingPointRule:
    @pytest.mark.parametrize("command", ["evaluate", "finetune"])
    def test_huge_finite_weight_is_one_line_data_error(
            self, small_corpus, tmp_path, capsys, command):
        # 1e30 is finite in float32, so the checkpoint loads; the first
        # block's feed-forward then overflows
        ckpt = tmp_path / "ft.ckpt"
        data = ["--data", small_corpus["c.pps"], "--vocab", small_corpus["v.txt"],
                "--manifest", small_corpus["c.tsv"]]
        assert cli.main(["finetune", "--out", str(ckpt)] + data + SMALL) \
            == cli.EXIT_OK
        saved = tr.load_checkpoint(ckpt)
        arrays = dict(saved.arrays)
        arrays["layer0.ln1.gamma"] = np.full_like(arrays["layer0.ln1.gamma"],
                                                  1e30)
        tr.save_checkpoint(ckpt, arrays, saved.config, saved.step)
        capsys.readouterr()
        out = tmp_path / "again.ckpt"
        if command == "evaluate":
            argv = ["evaluate", "--ckpt", str(ckpt)] + data
        else:
            argv = (["finetune", "--ckpt", str(ckpt), "--out", str(out)]
                    + data + SMALL)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = cli.main(argv)
        assert code == cli.EXIT_DATA
        assert not caught
        err = capsys.readouterr().err
        assert err.startswith("data error: ") and err.count("\n") == 1
        assert "overflow" in err
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "c.pps", "c.tsv", "ft.ckpt", "v.txt"]

    @pytest.mark.parametrize("argv, expected", [
        ("gen-data --utterances 1 --out X", cli.EXIT_OK),
        ("gen-data --utterances 0 --out X", cli.EXIT_USAGE),
        ("frobnicate", cli.EXIT_USAGE),
        ("evaluate --ckpt X --data X --manifest X --vocab X", cli.EXIT_DATA),
    ])
    def test_leaves_the_callers_error_state(self, tmp_path, capsys, argv,
                                            expected):
        args = [str(tmp_path / "X") if a == "X" else a for a in argv.split()]
        with np.errstate(all="print"):
            before = np.geterr()
            assert cli.main(args) == expected
            assert np.geterr() == before


class TestGenData:
    def test_files_created_and_clean(self, tmp_path, capsys):
        out = tmp_path / "corpus.pps"
        manifest = tmp_path / "labels.tsv"
        vocab = tmp_path / "vocab.txt"
        code = cli.main(["gen-data", "--utterances", "12", "--seed", "42",
                         "--out", str(out), "--manifest", str(manifest),
                         "--vocab", str(vocab)])
        assert code == cli.EXIT_OK
        loaded_vocab = cp.read_vocab(vocab)
        sequences = cp.read_corpus(out, expected_vocab_size=loaded_vocab.size)
        assert len(sequences) == 12
        for seq in sequences:
            assert cp.validate_sequence(seq) == []
        labels = cp.read_manifest(manifest)
        assert len(labels) == 12

    def test_unknown_grammar(self, tmp_path, capsys):
        code = cli.main(["gen-data", "--grammar", "martian",
                         "--utterances", "1", "--out", str(tmp_path / "x.pps")])
        assert code == cli.EXIT_USAGE


class TestAblations:
    def ablation_args(self, small_corpus):
        return ["--data", small_corpus["c.pps"],
                "--train-data", small_corpus["c.pps"],
                "--train-manifest", small_corpus["c.tsv"],
                "--test-data", small_corpus["c.pps"],
                "--test-manifest", small_corpus["c.tsv"],
                "--vocab", small_corpus["v.txt"]] + SMALL

    def test_ablate_mask_prints_one_row_per_ratio(self, small_corpus, capsys):
        capsys.readouterr()
        assert cli.main(["ablate-mask", "--ratios", "0.1,0.2"]
                        + self.ablation_args(small_corpus)) == cli.EXIT_OK
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "mask_ratio_max\terror_rate\tmacro_f1\tbest"
        assert [line.split("\t")[0] for line in lines[1:]] == ["0.10", "0.20"]
        assert sum(line.endswith("\t*") for line in lines[1:]) == 1

    def test_ablate_fraction_prints_one_row_per_fraction(self, small_corpus,
                                                         capsys):
        capsys.readouterr()
        assert cli.main(["ablate-fraction", "--fractions", "0.5,1.0"]
                        + self.ablation_args(small_corpus)) == cli.EXIT_OK
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "fraction\tacc_pretrained\tacc_fresh\tgap"
        assert [line.split("\t")[0] for line in lines[1:]] == ["0.50", "1.00"]


class TestVerifyTheorem:
    def test_small_run_passes(self, capsys):
        code = cli.main(["verify-theorem", "--max-T", "3", "--trials", "2",
                         "--seed", "7"])
        assert code == cli.EXIT_OK
        out = capsys.readouterr().out
        header, *rows = [l for l in out.splitlines() if l and "ok:" not in l]
        assert header.split("\t") == ["T", "c", "dev_exact", "dev_paper", "trials"]
        assert len(rows) == 3  # (T=2,c=1), (T=3,c=1), (T=3,c=2)
        for row in rows:
            t_len, c, dev_exact, dev_paper, trials = row.split("\t")
            assert float(dev_exact) <= 1e-9
            assert int(trials) == 4

    def test_benchmark_size_run_passes(self, capsys):
        # T up to 6 is the largest the verify benchmark runs; the frozen
        # predictor scores 63 context sets per sequence in one pass there
        code = cli.main(["verify-theorem", "--max-T", "6", "--trials", "1"])
        assert code == cli.EXIT_OK
        out = capsys.readouterr().out
        header, *rows = [l for l in out.splitlines() if l and "ok:" not in l]
        pairs = [tuple(int(v) for v in row.split("\t")[:2]) for row in rows]
        # 15 (T, c) rows
        assert pairs == [(t, c) for t in range(2, 7) for c in range(1, t)]
        for row in rows:
            assert float(row.split("\t")[2]) <= 1e-9


class TestGradCheck:
    def test_quick_profile_passes(self, capsys):
        code = cli.main(["grad-check", "--quick", "--seed", "3"])
        assert code == cli.EXIT_OK
        out = capsys.readouterr().out
        assert "bert_plm_loss" in out and "finetune_loss" in out


class TestPipeline:
    def test_gen_pretrain_finetune_evaluate(self, tmp_path, capsys):
        corpus = tmp_path / "c.pps"
        manifest = tmp_path / "c.tsv"
        vocab = tmp_path / "v.txt"
        assert cli.main(["gen-data", "--utterances", "20", "--seed", "1",
                         "--out", str(corpus), "--manifest", str(manifest),
                         "--vocab", str(vocab)]) == cli.EXIT_OK

        ckpt = tmp_path / "pre.ckpt"
        assert cli.main(["pretrain", "--data", str(corpus), "--vocab", str(vocab),
                         "--out", str(ckpt), "--seed", "2"] + SMALL) == cli.EXIT_OK

        final = tmp_path / "final.ckpt"
        assert cli.main(["finetune", "--data", str(corpus),
                         "--manifest", str(manifest), "--vocab", str(vocab),
                         "--ckpt", str(ckpt),
                         "--test-data", str(corpus),
                         "--test-manifest", str(manifest),
                         "--out", str(final), "--seed", "3"] + SMALL) == cli.EXIT_OK

        assert cli.main(["evaluate", "--ckpt", str(final), "--data", str(corpus),
                         "--manifest", str(manifest),
                         "--vocab", str(vocab)]) == cli.EXIT_OK
        out = capsys.readouterr().out
        assert "error_rate" in out and "macro_f1" in out

    def test_print_config(self, tmp_path, capsys):
        code = cli.main(["gen-data", "--utterances", "1",
                         "--out", str(tmp_path / "x.pps"),
                         "--print-config", "--set", "epochs=2"])
        assert code == cli.EXIT_OK
        out = capsys.readouterr().out
        assert "epochs = 2" in out

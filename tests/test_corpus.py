import io
import warnings
from contextlib import redirect_stderr, redirect_stdout

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bertplm import cli
from bertplm import corpus as cp
from bertplm import trainer as tr
from bertplm.config import parse_config
from bertplm.rng import stream


@pytest.fixture
def grammar():
    return cp.default_grammar()


class TestVocab:
    def test_requires_sil(self):
        with pytest.raises(ValueError):
            cp.PhonemeVocab(("A", "B"), 0)

    def test_round_trip(self, grammar, tmp_path):
        path = tmp_path / "vocab.txt"
        cp.write_vocab(grammar.vocab, path)
        loaded = cp.read_vocab(path)
        assert loaded == grammar.vocab

    def test_crlf_lines_read_like_lf(self, grammar, tmp_path):
        path = tmp_path / "vocab.txt"
        path.write_bytes("\r\n".join(grammar.vocab.symbols).encode() + b"\r\n")
        assert cp.read_vocab(path) == grammar.vocab

    def test_blank_line_reports_its_offset(self, tmp_path):
        path = tmp_path / "vocab.txt"
        path.write_bytes(b"SIL\nAA\n\nEH\n")
        with pytest.raises(cp.CorpusFormatError, match="blank line") as excinfo:
            cp.read_vocab(path)
        assert excinfo.value.offset == 7

    def test_missing_sil_names_no_offset(self, tmp_path):
        path = tmp_path / "vocab.txt"
        path.write_bytes(b"AA\nEH\n")
        with pytest.raises(cp.CorpusFormatError) as excinfo:
            cp.read_vocab(path)
        assert excinfo.value.offset is None
        assert "offset" not in str(excinfo.value)

    def test_not_utf8_reports_offset(self, tmp_path):
        path = tmp_path / "vocab.txt"
        path.write_bytes(b"SIL\nA\xffA\n")
        with pytest.raises(cp.CorpusFormatError,
                           match="vocabulary is not valid UTF-8 .at byte offset 5."):
            cp.read_vocab(path)


class TestIsMajorSil:
    def test_one_hot_sil(self):
        frames = np.zeros((1, 4))
        frames[0, 0] = 1.0
        assert cp.major_sil_frames(frames, sil_index=0, tau=0.5).tolist() \
            == [True]

    def test_half_volume_frame_is_not_major(self):
        # 0.5 SIL / 0.5 "S": half volume, still a legitimate target
        frames = np.array([[0.5, 0.5, 0.0, 0.0]])
        assert cp.major_sil_frames(frames, sil_index=0, tau=0.5).tolist() \
            == [False]

    def test_just_above_threshold(self):
        frames = np.array([[0.51, 0.49, 0.0, 0.0]])
        assert cp.major_sil_frames(frames, sil_index=0, tau=0.5).tolist() \
            == [True]


class TestGeneration:
    def test_degenerate_sharpness_identity_confusion_is_one_hot(self):
        vocab = cp.PhonemeVocab.from_symbols(("SIL", "A", "B"))
        grammar = cp.SynthGrammar(
            vocab=vocab, templates=((0, ("A", "B")),),
            dur_min=1, dur_max=1, sil_min=0, sil_max=0,
            confusion=np.eye(3), sharpness=1e9)
        utt = cp.generate_utterance(grammar, 0, stream(0, "onehot"))
        # identity confusion concentrates all Dirichlet mass on one phoneme
        assert set(np.unique(utt.sequence.frames)) == {0.0, 1.0}
        np.testing.assert_array_equal(utt.sequence.frames.argmax(1), [1, 2])

    def test_fixed_durations_no_sil(self):
        vocab = cp.PhonemeVocab.from_symbols(("SIL", "A", "B"))
        grammar = cp.SynthGrammar(
            vocab=vocab, templates=((0, ("A", "B")),),
            dur_min=1, dur_max=1, sil_min=0, sil_max=0, sharpness=50.0)
        utt = cp.generate_utterance(grammar, 0, stream(1, "t2"))
        assert utt.sequence.length == 2

    def test_monte_carlo_matches_confusion_diagonal(self, grammar):
        # channel oracle: accuracy of per-frame argmax should track the
        # confusion diagonal of the true phonemes (seed 42, 10k frames)
        rng = stream(42, "mc")
        true_ids: list[int] = []
        blocks = []
        while len(true_ids) < 10_000:
            class_id = int(rng.integers(grammar.num_classes))
            tokens = grammar.templates_for(class_id)[0]
            ids = cp.expand_template(grammar, tokens, rng)
            true_ids.extend(ids)
            blocks.append(cp.emit_frames(grammar, ids, rng))
        frames = np.vstack(blocks)[:10_000]
        ids = np.asarray(true_ids[:10_000])
        assert np.abs(frames.sum(axis=1) - 1.0).mean() <= 1e-9
        accuracy = float((frames.argmax(axis=1) == ids).mean())
        expected = float(np.diag(grammar.confusion)[ids].mean())
        assert abs(accuracy - expected) <= 0.02

    def test_every_utterance_has_an_eligible_frame(self, grammar):
        for i in range(50):
            utt = cp.generate_utterance(grammar, i % 5, stream(7, "elig", i))
            frames = utt.sequence.frames
            assert not cp.major_sil_frames(frames,
                                           grammar.vocab.sil_index).all()

    def test_unknown_class_rejected(self, grammar):
        with pytest.raises(ValueError):
            cp.generate_utterance(grammar, 99, stream(0, "bad"))

    def test_error_after_ten_oversized_attempts(self):
        vocab = cp.PhonemeVocab.from_symbols(("SIL", "A"))
        grammar = cp.SynthGrammar(
            vocab=vocab, templates=((0, ("A",) * 20),),
            dur_min=2, dur_max=3, sil_min=0, sil_max=0, sharpness=5.0)
        # 20 tokens at >= 2 frames can never fit in 8 frames
        with pytest.raises(cp.GenerationError, match="10 attempts"):
            cp.generate_utterance(grammar, 0, stream(1, "long"), max_seq_len=8)

    def test_blank_line_inside_vocab_rejected(self, tmp_path):
        path = tmp_path / "vocab.txt"
        path.write_text("SIL\n\nAA\n")
        with pytest.raises(cp.CorpusFormatError):
            cp.read_vocab(path)


class TestValidate:
    def test_generated_sequence_is_clean(self, grammar):
        utt = cp.generate_utterance(grammar, 0, stream(3, "v"))
        assert cp.validate_sequence(utt.sequence) == []

    def test_row_sum_violation(self):
        frames = np.full((2, 4), 0.25)
        frames[1] *= 0.9
        seq = cp.PhonemePosteriorSequence(frames)
        violations = cp.validate_sequence(seq)
        assert len(violations) == 1
        assert "frame 1" in violations[0] and "row-sum" in violations[0]

    def test_negativity_violation(self):
        frames = np.array([[1.2, -0.2, 0.0, 0.0]])
        violations = cp.validate_sequence(cp.PhonemePosteriorSequence(frames))
        assert len(violations) == 1
        assert "negativity" in violations[0]

    @staticmethod
    def _per_frame_reference(frames, max_seq_len):
        # the frame-by-frame form of the check, kept as the reference
        violations = []
        if not 1 <= len(frames) <= max_seq_len:
            violations.append(
                f"length: T={len(frames)} outside [1, {max_seq_len}]")
        for t, row in enumerate(frames):
            if not np.all(np.isfinite(row)):
                violations.append(f"frame {t}: non-finite entry")
                continue
            if np.any(row < 0):
                violations.append(f"frame {t}: negativity")
            if abs(row.sum() - 1.0) > 1e-6:
                violations.append(f"frame {t}: row-sum {row.sum():.8f}")
        return violations

    @settings(max_examples=60, deadline=None)
    @given(t_len=st.integers(0, 12), seed=st.integers(0, 2**32 - 1),
           max_seq_len=st.integers(1, 10))
    def test_matches_per_frame_reference(self, t_len, seed, max_seq_len):
        rng = stream(seed, "validate")
        frames = rng.dirichlet(np.ones(5), size=t_len)
        for t in range(t_len):
            defect = rng.integers(6)
            if defect == 1:
                frames[t, rng.integers(5)] = rng.choice([np.nan, np.inf, -np.inf])
            elif defect == 2:
                frames[t, rng.integers(5)] -= rng.uniform(0.0, 1.0)
            elif defect == 3:
                frames[t] *= rng.uniform(0.5, 1.5)
            elif defect == 4:
                frames[t, 0] += 1e-6 * rng.choice([-1.5, -0.5, 0.5, 1.5])
        seq = cp.PhonemePosteriorSequence(frames.reshape(t_len, 5))
        assert cp.validate_sequence(seq, max_seq_len) == \
            self._per_frame_reference(seq.frames, max_seq_len)


class TestCorpusFile:
    def test_empty_corpus_round_trips(self, tmp_path):
        path = tmp_path / "empty.pps"
        cp.write_corpus([], path, vocab_size=5)
        assert cp.read_corpus(path) == []
        assert path.stat().st_size == 16  # header only

    def test_three_utterance_bitwise_round_trip(self, grammar, tmp_path):
        utts = [cp.generate_utterance(grammar, i, stream(9, "rt", i),
                                      utterance_id=f"u{i}")
                for i in range(3)]
        path = tmp_path / "c.pps"
        cp.write_corpus([u.sequence for u in utts], path, grammar.vocab.size)
        loaded = cp.read_corpus(path, expected_vocab_size=grammar.vocab.size)
        for original, read in zip(utts, loaded):
            assert read.utterance_id == original.sequence.utterance_id
            quantized = original.sequence.frames.astype("<f4")
            assert read.frames.astype("<f4").tobytes() == quantized.tobytes()

    def test_corrupted_magic_names_offset_zero(self, grammar, tmp_path):
        path = tmp_path / "bad.pps"
        cp.write_corpus([], path, vocab_size=3)
        data = bytearray(path.read_bytes())
        data[:4] = b"XXXX"
        path.write_bytes(bytes(data))
        with pytest.raises(cp.CorpusFormatError) as excinfo:
            cp.read_corpus(path)
        assert excinfo.value.offset == 0

    def test_truncated_file_reports_offset(self, grammar, tmp_path):
        utt = cp.generate_utterance(grammar, 0, stream(10, "tr"), utterance_id="u")
        path = tmp_path / "t.pps"
        cp.write_corpus([utt.sequence], path, grammar.vocab.size)
        path.write_bytes(path.read_bytes()[:-8])
        with pytest.raises(cp.CorpusFormatError) as excinfo:
            cp.read_corpus(path)
        assert excinfo.value.offset > 0

    def test_trailing_bytes_report_offset(self, grammar, tmp_path):
        utt = cp.generate_utterance(grammar, 0, stream(10, "tr"), utterance_id="u")
        path = tmp_path / "t.pps"
        cp.write_corpus([utt.sequence], path, grammar.vocab.size)
        size = path.stat().st_size
        path.write_bytes(path.read_bytes() + b"\x00\x01\x02")
        with pytest.raises(cp.CorpusFormatError, match="3 trailing bytes") as excinfo:
            cp.read_corpus(path)
        assert excinfo.value.offset == size

    def test_id_not_utf8_reports_offset(self, tmp_path):
        seq = cp.PhonemePosteriorSequence(np.eye(3), utterance_id="u")
        path = tmp_path / "id.pps"
        cp.write_corpus([seq], path, vocab_size=3)
        raw = bytearray(path.read_bytes())
        raw[18] = 0xff  # the id byte, after the header and the id length
        path.write_bytes(bytes(raw))
        with pytest.raises(cp.CorpusFormatError,
                           match="utterance id is not valid UTF-8") as excinfo:
            cp.read_corpus(path)
        assert excinfo.value.offset == 18

    def test_vocab_size_mismatch(self, tmp_path):
        path = tmp_path / "v.pps"
        cp.write_corpus([], path, vocab_size=4)
        with pytest.raises(cp.CorpusFormatError):
            cp.read_corpus(path, expected_vocab_size=9)

    @settings(max_examples=25, deadline=None)
    @given(specs=st.lists(st.tuples(st.integers(1, 7), st.integers(0, 2**32 - 1)),
                          max_size=4),
           vocab_size=st.integers(2, 6))
    def test_round_trip_identity(self, tmp_path_factory, specs, vocab_size):
        sequences = []
        for n, (t_len, seed) in enumerate(specs):
            rows = stream(seed, "prop").dirichlet(np.ones(vocab_size), size=t_len)
            sequences.append(cp.PhonemePosteriorSequence(
                rows, utterance_id=f"p{n}"))
        path = tmp_path_factory.mktemp("corpus") / "prop.pps"
        cp.write_corpus(sequences, path, vocab_size)
        loaded = cp.read_corpus(path)
        assert len(loaded) == len(sequences)
        for original, read in zip(sequences, loaded):
            assert read.utterance_id == original.utterance_id
            assert read.length == original.length
            np.testing.assert_array_equal(
                read.frames.astype("<f4"), original.frames.astype("<f4"))


class TestManifest:
    def test_round_trip(self, grammar, tmp_path):
        utts = [cp.generate_utterance(grammar, i % 5, stream(11, "m", i),
                                      utterance_id=f"u{i}") for i in range(6)]
        path = tmp_path / "labels.tsv"
        cp.write_manifest(utts, path)
        labels = cp.read_manifest(path)
        assert labels == {f"u{i}": i % 5 for i in range(6)}
        joined = cp.join_labels([u.sequence for u in utts], labels)
        assert [u.label for u in joined] == [u.label for u in utts]

    def test_non_integer_class_id_names_line(self, tmp_path):
        path = tmp_path / "labels.tsv"
        path.write_text("u0\t1\tclass1\nu1\tone\tclass1\n")
        with pytest.raises(cp.CorpusFormatError, match="line 2") as excinfo:
            cp.read_manifest(path)
        assert excinfo.value.offset == len("u0\t1\tclass1\n")
        assert str(excinfo.value).endswith("(at byte offset 12)")

    def test_repeated_id_names_line_and_offset(self, tmp_path):
        path = tmp_path / "labels.tsv"
        path.write_text("u0\t1\tclass1\nu1\t0\tclass0\nu0\t2\tclass2\n")
        with pytest.raises(cp.CorpusFormatError,
                           match="line 3 repeats utterance id 'u0'") as excinfo:
            cp.read_manifest(path)
        assert excinfo.value.offset == len("u0\t1\tclass1\nu1\t0\tclass0\n")

    def test_missing_label(self, grammar, tmp_path):
        seq = cp.generate_utterance(grammar, 0, stream(12, "x"),
                                    utterance_id="lonely").sequence
        with pytest.raises(cp.CorpusFormatError) as excinfo:
            cp.join_labels([seq], {})
        assert str(excinfo.value) == "no label for 'lonely'"


# overwrite 1-4 bytes (positions wrap around the file), then maybe truncate
EDITS = st.lists(st.tuples(st.integers(0, 2**16), st.integers(0, 255)),
                 min_size=1, max_size=4)
CUTS = st.none() | st.integers(0, 2**16)


@pytest.fixture(scope="module")
def valid_files(tmp_path_factory):
    """Bytes of a small valid file per reader, and a scratch path."""
    root = tmp_path_factory.mktemp("valid")
    vocab = cp.PhonemeVocab.from_symbols(("SIL", "AA", "EH"))
    rng = stream(30, "fuzz")
    utts = [cp.LabeledUtterance(cp.PhonemePosteriorSequence(
        rng.dirichlet(np.ones(3), size=2), utterance_id=f"u{i}"), i)
        for i in range(2)]
    cp.write_corpus([u.sequence for u in utts], root / "corpus", vocab.size)
    cp.write_manifest(utts, root / "manifest")
    cp.write_vocab(vocab, root / "vocabulary")
    tr.save_checkpoint(root / "checkpoint", {"embed": rng.normal(size=(3, 2))},
                       parse_config(None, {"profile": "tiny"}), step=1)
    files = {name: (root / name).read_bytes()
             for name in ("corpus", "manifest", "vocabulary", "checkpoint")}
    return files, root / "mutated"


def _loads_or_raises(valid_files, kind, read, error, edits, cut):
    files, path = valid_files
    raw = bytearray(files[kind])
    for pos, value in edits:
        raw[pos % len(raw)] = value
    path.write_bytes(bytes(raw if cut is None else raw[:cut % (len(raw) + 1)]))
    try:
        read(path)
    except error:
        pass


#: the commands that read each file, at a width small enough to fuzz
COMMAND_READERS = {"corpus": ("pretrain", "finetune", "evaluate"),
                   "manifest": ("finetune", "evaluate"),
                   "vocabulary": ("pretrain", "finetune", "evaluate"),
                   "pretrained": ("finetune",),
                   "finetuned": ("evaluate",)}
SMALL = ["--set", "profile=tiny", "--set", "d=16", "--set", "d_ff=24",
         "--set", "heads=2", "--set", "layers=1", "--set", "epochs=1",
         "--set", "finetune_epochs=1", "--set", "dropout=0.0"]


def _exits_cleanly(argv, root) -> int:
    """``cli.main(argv)``'s exit code, once the run printed no numpy warning,
    left no temp file in ``root`` and exited 0, or 1 or 2 with one stderr
    line (plus the usage for 1). An exception other than those the CLI
    turns into exit codes escapes, and fails the caller's test."""
    stderr = io.StringIO()
    with warnings.catch_warnings(record=True) as caught, \
            redirect_stdout(io.StringIO()), redirect_stderr(stderr):
        warnings.simplefilter("always")
        code = cli.main(argv)
    assert not [w for w in caught if w.category is RuntimeWarning]
    assert not list(root.glob("*.tmp"))
    err = stderr.getvalue()
    first = err.split("\n", 1)[0] + "\n"
    if code == cli.EXIT_DATA:
        assert err == first and first.startswith("data error: ")
    elif code == cli.EXIT_USAGE:
        assert err in (first, first + cli.build_parser().format_usage())
    else:
        assert code == cli.EXIT_OK
    return code


def _command_argv(command, paths, out):
    inputs = ["--data", paths["corpus"], "--vocab", paths["vocabulary"]]
    if command == "pretrain":
        return ["pretrain", *inputs, "--out", out, *SMALL]
    inputs += ["--manifest", paths["manifest"]]
    if command == "finetune":
        return ["finetune", *inputs, "--ckpt", paths["pretrained"],
                "--out", out, *SMALL]
    return ["evaluate", *inputs, "--ckpt", paths["finetuned"]]


@pytest.fixture(scope="module")
def command_files(tmp_path_factory):
    """Bytes of every file a command reads, and their paths in a scratch
    directory that holds them unmutated."""
    root = tmp_path_factory.mktemp("commands")
    paths = {name: str(root / name) for name in COMMAND_READERS}
    with redirect_stdout(io.StringIO()):
        assert cli.main(["gen-data", "--utterances", "4", "--seed", "5",
                         "--out", paths["corpus"],
                         "--manifest", paths["manifest"],
                         "--vocab", paths["vocabulary"]]) == cli.EXIT_OK
        assert cli.main(_command_argv("pretrain", paths, paths["pretrained"])
                        ) == cli.EXIT_OK
        assert cli.main(_command_argv("finetune", paths, paths["finetuned"])
                        ) == cli.EXIT_OK
    files = {name: (root / name).read_bytes() for name in COMMAND_READERS}
    return files, paths, root


class TestMutatedFiles:
    """A mutated file loads or raises its reader's format error (exit code 2
    in the CLI), never another exception. A command that reads it exits 0,
    1 or 2, with one stderr line on failure (plus usage for exit 1), no
    numpy warning and no temp file left."""

    @pytest.mark.parametrize("kind", list(COMMAND_READERS))
    @settings(max_examples=200, deadline=None)
    @given(edits=EDITS, cut=CUTS, pick=st.integers(0, 2))
    def test_command(self, command_files, kind, edits, cut, pick):
        files, paths, root = command_files
        commands = COMMAND_READERS[kind]
        out = root / "out.ckpt"
        out.unlink(missing_ok=True)
        raw = bytearray(files[kind])
        for pos, value in edits:
            raw[pos % len(raw)] = value
        mutated = root / kind
        mutated.write_bytes(bytes(raw if cut is None
                                  else raw[:cut % (len(raw) + 1)]))
        try:
            _exits_cleanly(_command_argv(commands[pick % len(commands)],
                                         paths, str(out)), root)
        finally:
            mutated.write_bytes(files[kind])

    @settings(max_examples=400, deadline=None)
    @given(edits=EDITS, cut=CUTS)
    @example(edits=[(24, 1), (25, 0), (26, 0x80), (27, 0x7f)],
             cut=None)  # signalling NaN in u0's first frame
    def test_corpus(self, valid_files, edits, cut):
        _loads_or_raises(valid_files, "corpus", cp.read_corpus,
                         cp.CorpusFormatError, edits, cut)

    @settings(max_examples=400, deadline=None)
    @given(edits=EDITS, cut=CUTS)
    def test_manifest(self, valid_files, edits, cut):
        _loads_or_raises(valid_files, "manifest", cp.read_manifest,
                         cp.CorpusFormatError, edits, cut)

    @settings(max_examples=400, deadline=None)
    @given(edits=EDITS, cut=CUTS)
    @example(edits=[(7, ord("A")), (8, ord("A"))], cut=None)  # SIL AA AA
    @example(edits=[(0, ord("S"))], cut=4)  # SIL alone
    def test_vocabulary(self, valid_files, edits, cut):
        _loads_or_raises(valid_files, "vocabulary", cp.read_vocab,
                         cp.CorpusFormatError, edits, cut)

    @settings(max_examples=400, deadline=None)
    @given(edits=EDITS, cut=CUTS)
    @example(edits=[(15, 65)], cut=None)  # "embed" of rank 65
    @example(edits=[(19, 0xff), (23, 0xff)], cut=None)  # dims past int64
    @example(edits=[(57, 0xc0), (58, 0x7f)], cut=None)  # step is NaN
    @example(edits=[(24, 1), (25, 0), (26, 0x80), (27, 0x7f)],
             cut=None)  # signalling NaN in "embed"
    def test_checkpoint(self, valid_files, edits, cut):
        _loads_or_raises(valid_files, "checkpoint", tr.load_checkpoint,
                         tr.DataError, edits, cut)


def _powers_of_ten(low, high):
    return st.integers(low, high).map(lambda e: f"1e{e}")


def _unit_floats(**exclude):
    return st.floats(0.0, 1.0, **exclude).map(repr)


def _ints(low, high):
    return st.integers(low, high).map(str)


#: --set values inside the rules ``Config`` documents, at d <= 16; ``d``
#: and ``heads`` are drawn apart, so they break the divisibility rule too
INSIDE = {
    "profile": st.sampled_from(["tiny", "full"]),
    "layers": _ints(1, 2),
    "d": st.sampled_from(["2", "4", "8", "12", "16"]),
    "heads": st.sampled_from(["1", "2", "4", "8", "16"]),
    "d_ff": _ints(1, 24),
    "dropout": _unit_floats(exclude_max=True),
    "lr": _powers_of_ten(-300, 300),
    "max_seq_len": _ints(1, 64),
    "mask_ratio_max": _unit_floats(exclude_min=True),
    "plm_weighting": st.sampled_from(["mean", "sum"]),
    "finetune_lambda": st.just("0") | _powers_of_ten(-300, 300),
    "batch_size": _ints(1, 16),
    "epochs": _ints(1, 2),
    "finetune_epochs": _ints(1, 3),
    "patience": _ints(1, 2),
    "val_fraction": _unit_floats(exclude_max=True),
    "heldout_fraction": _unit_floats(exclude_max=True),
}

#: --set values outside those rules, or not of the key's type
OUTSIDE = {
    "profile": st.sampled_from(["huge", ""]),
    "layers": st.sampled_from(["0", "-1", "1.5"]),
    "d": st.sampled_from(["0", "-2", "3", "x"]),
    "heads": st.sampled_from(["0", "-1", "5"]),
    "d_ff": st.sampled_from(["0", "-1"]),
    "dropout": st.sampled_from(["1", "1.5", "-0.1", "nan"]),
    "lr": st.sampled_from(["0", "-1e-3", "inf", "nan", "1e400", "fast"]),
    "max_seq_len": st.sampled_from(["0", "-1"]),
    "mask_ratio_max": st.sampled_from(["0", "1.5", "nan"]),
    "plm_weighting": st.just("max"),
    "finetune_lambda": st.sampled_from(["-1", "inf", "nan", "1e400"]),
    "batch_size": st.sampled_from(["0", "-1"]),
    "epochs": st.just("0"),
    "finetune_epochs": st.just("0"),
    "patience": st.sampled_from(["0", "-1"]),
    "val_fraction": st.sampled_from(["1", "-0.25", "1.25"]),
    "heldout_fraction": st.sampled_from(["1", "-0.25", "nan"]),
}


@st.composite
def config_sets(draw):
    """Some keys' values inside their rules, then, one time in three, one
    key's value outside its rule."""
    values = draw(st.fixed_dictionaries({}, optional=INSIDE))
    if draw(st.integers(0, 2)) == 0:
        key = draw(st.sampled_from(sorted(OUTSIDE)))
        values[key] = draw(OUTSIDE[key])
    return values


@pytest.fixture(scope="module")
def config_files(tmp_path_factory):
    """A 10-utterance corpus (T 14-28) with its manifest and vocabulary, a
    checkpoint pre-trained and one fine-tuned at ``SMALL``, and a scratch
    directory for the runs' outputs."""
    root = tmp_path_factory.mktemp("config")
    paths = {name: str(root / name) for name in
             ("corpus", "manifest", "vocabulary", "pretrained", "finetuned")}
    with redirect_stdout(io.StringIO()):
        assert cli.main(["gen-data", "--utterances", "10", "--seed", "5",
                         "--out", paths["corpus"],
                         "--manifest", paths["manifest"],
                         "--vocab", paths["vocabulary"]]) == cli.EXIT_OK
        assert cli.main(_command_argv("pretrain", paths, paths["pretrained"])
                        ) == cli.EXIT_OK
        assert cli.main(_command_argv("finetune", paths, paths["finetuned"])
                        ) == cli.EXIT_OK
    lengths = [seq.length for seq in cp.read_corpus(paths["corpus"])]
    assert (min(lengths), max(lengths)) == (14, 28)
    out = root / "out"
    out.mkdir()
    return paths, out


class TestFuzzedConfig:
    """Every command that trains or evaluates, run with drawn ``--set``
    values on top of ``SMALL``: ``pretrain``, ``finetune`` from that
    checkpoint (or from one made at ``SMALL`` when ``pretrain`` failed) and
    from scratch, then ``evaluate`` on the last checkpoint made. Each run
    exits as ``_exits_cleanly`` requires."""

    @settings(max_examples=200, deadline=None)
    @given(values=config_sets())
    @example(values={"d": "8", "heads": "8", "d_ff": "1"})
    @example(values={"max_seq_len": "20", "batch_size": "16"})
    @example(values={"lr": "1e-300", "finetune_lambda": "1e300"})
    @example(values={"lr": "1e300"})
    @example(values={"lr": "1e38", "heldout_fraction": "0"})
    def test_commands(self, config_files, values):
        paths, out = config_files
        for ckpt in out.iterdir():
            ckpt.unlink()
        sets = [arg for key, value in values.items()
                for arg in ("--set", f"{key}={value}")]
        data = ["--data", paths["corpus"], "--vocab", paths["vocabulary"]]
        labeled = [*data, "--manifest", paths["manifest"]]
        pre, tuned, fresh = (out / f"{name}.ckpt"
                             for name in ("pre", "tuned", "fresh"))
        if _exits_cleanly(["pretrain", *data, "--out", str(pre), *SMALL,
                           *sets], out) != cli.EXIT_OK:
            pre = paths["pretrained"]
        _exits_cleanly(["finetune", *labeled, "--ckpt", str(pre),
                        "--test-data", paths["corpus"],
                        "--test-manifest", paths["manifest"],
                        "--out", str(tuned), *SMALL, *sets], out)
        _exits_cleanly(["finetune", *labeled, "--out", str(fresh), *SMALL,
                        *sets], out)
        made = [ckpt for ckpt in (fresh, tuned) if ckpt.exists()]
        _exits_cleanly(["evaluate", *labeled, "--ckpt",
                        str(made[0]) if made else paths["finetuned"], *sets],
                       out)

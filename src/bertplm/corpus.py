"""Phoneme posterior sequences and a synthetic acoustic channel.

A corpus is a list of utterances whose frames are per-slice probability
distributions over a phoneme vocabulary. Real acoustic front-ends are out of
scope; ``generate_utterance`` stands in for one by expanding intent templates
into phoneme runs, padding them with silence, and pushing every frame through
a Dirichlet confusion channel. The special phoneme "SIL" carries volume as
well as silence, so frames are only excluded from prediction when SIL holds
the outright majority of the mass (more than ``SIL_THRESHOLD`` = 0.5).

File formats (shared with the CLI):
  corpus (.pps)  magic "PPSQ", u16 version=1, u16 reserved, u32 V, u32 N,
                 then per utterance: u16 id length, id bytes (UTF-8), u32 T,
                 T*V little-endian f32 frames, row-major. Nothing may
                 follow the last utterance.
  manifest       UTF-8 TSV lines "utterance_id<TAB>class_id<TAB>class_name".
  vocabulary     UTF-8, one phoneme per line; the line "SIL" is sil_index.
Lines of both text files end at LF, CRLF or CR.
"""

from __future__ import annotations

import os
import struct
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .rng import stream

MAX_SEQ_LEN_DEFAULT = 320
SIL_SYMBOL = "SIL"
#: SIL mass above which a frame is major silence and never a target
SIL_THRESHOLD = 0.5

CORPUS_MAGIC = b"PPSQ"
CORPUS_VERSION = 1


class CorpusFormatError(ValueError):
    """Malformed corpus/manifest/vocabulary file; carries the byte offset
    at fault, or None for an error with no position in the file."""

    def __init__(self, message: str, offset: int | None):
        super().__init__(message if offset is None
                         else f"{message} (at byte offset {offset})")
        self.offset = offset


class GenerationError(RuntimeError):
    """The synthetic channel failed to produce a valid utterance."""


@dataclass(frozen=True)
class PhonemeVocab:
    symbols: tuple[str, ...]
    sil_index: int

    def __post_init__(self):
        if len(self.symbols) < 2:
            raise ValueError("vocabulary needs at least 2 phonemes")
        if len(set(self.symbols)) != len(self.symbols):
            raise ValueError("vocabulary symbols must be unique")
        if not 0 <= self.sil_index < len(self.symbols):
            raise ValueError("sil_index out of range")
        if self.symbols[self.sil_index] != SIL_SYMBOL:
            raise ValueError(f"sil_index must point at {SIL_SYMBOL!r}")

    @property
    def size(self) -> int:
        return len(self.symbols)

    def index(self, symbol: str) -> int:
        return self.symbols.index(symbol)

    @classmethod
    def from_symbols(cls, symbols) -> "PhonemeVocab":
        symbols = tuple(symbols)
        return cls(symbols, symbols.index(SIL_SYMBOL))


@dataclass
class PhonemePosteriorSequence:
    """T x V matrix of per-frame distributions over the phoneme vocabulary."""

    frames: np.ndarray
    utterance_id: str = ""

    def __post_init__(self):
        self.frames = np.asarray(self.frames, dtype=np.float64)
        if self.frames.ndim != 2:
            raise ValueError("frames must be a (T, V) matrix")

    @property
    def length(self) -> int:
        return self.frames.shape[0]

    @property
    def vocab_size(self) -> int:
        return self.frames.shape[1]


@dataclass
class LabeledUtterance:
    sequence: PhonemePosteriorSequence
    label: int


@dataclass
class SynthGrammar:
    """Templates plus the noise laws of the mock acoustic channel.

    templates: (class id, phoneme token sequence) pairs; every class needs
    at least one. dur_min/dur_max bound frames per phoneme token;
    sil_min/sil_max bound the SIL runs inserted between tokens and at both
    utterance boundaries. confusion is a V x V row-stochastic matrix mapping
    true phoneme to expected posterior; sharpness is the Dirichlet
    concentration around that row (small values give spiky frames whose
    argmax follows the confusion row, large values concentrate on the row
    itself).
    """

    vocab: PhonemeVocab
    templates: tuple[tuple[int, tuple[str, ...]], ...]
    dur_min: int = 2
    dur_max: int = 5
    sil_min: int = 1
    sil_max: int = 3
    confusion: np.ndarray = field(default=None)  # type: ignore[assignment]
    sharpness: float = 0.4

    def __post_init__(self):
        if self.confusion is None:
            self.confusion = np.eye(self.vocab.size)
        self.confusion = np.asarray(self.confusion, dtype=np.float64)
        if self.confusion.shape != (self.vocab.size, self.vocab.size):
            raise ValueError("confusion must be V x V")
        if np.abs(self.confusion.sum(axis=1) - 1.0).max() > 1e-9:
            raise ValueError("confusion rows must sum to 1")
        if self.sharpness <= 0:
            raise ValueError("sharpness must be positive")
        if not self.templates:
            raise ValueError("grammar needs at least one template")
        if not 1 <= self.dur_min <= self.dur_max:
            raise ValueError("bad duration law")
        if not 0 <= self.sil_min <= self.sil_max:
            raise ValueError("bad SIL law")

    @property
    def num_classes(self) -> int:
        return max(class_id for class_id, _ in self.templates) + 1

    def templates_for(self, class_id: int) -> list[tuple[str, ...]]:
        return [tokens for cid, tokens in self.templates if cid == class_id]


DEFAULT_SYMBOLS = ("SIL", "AA", "EH", "IY", "UW", "B", "D", "K", "M", "N", "S", "T")


def default_grammar() -> SynthGrammar:
    """Five-intent grammar over a 12-phoneme vocabulary.

    Classes 0/1 and 2/3 use the same phoneme inventory in reversed order, so
    telling them apart requires positional information, not just presence.
    Content phonemes keep 0.85 of their confusion row, SIL keeps 0.95.
    """
    vocab = PhonemeVocab.from_symbols(DEFAULT_SYMBOLS)
    templates = (
        (0, ("T", "AA", "N")),
        (0, ("T", "AA", "N", "AA")),
        (1, ("N", "AA", "T")),
        (1, ("N", "AA", "T", "AA")),
        (2, ("S", "UW", "M", "IY")),
        (3, ("IY", "M", "UW", "S")),
        (4, ("K", "EH", "B", "D")),
        (4, ("K", "EH", "D")),
    )
    v = vocab.size
    confusion = np.full((v, v), (1.0 - 0.85) / (v - 1))
    np.fill_diagonal(confusion, 0.85)
    # silence is easier to recognize than content phonemes
    confusion[vocab.sil_index] = (1.0 - 0.95) / (v - 1)
    confusion[vocab.sil_index, vocab.sil_index] = 0.95
    return SynthGrammar(vocab=vocab, templates=templates,
                        confusion=confusion, sharpness=0.4)


def _dirichlet_rows(alphas: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Row-wise Dirichlet draws tolerating zero concentrations (mass stays
    at zero; numpy's gamma returns exactly 0 for shape 0). Rows whose gamma
    draws all underflow to zero are redrawn."""
    draws = rng.gamma(alphas)
    for _ in range(100):
        totals = draws.sum(axis=1)
        dead = totals == 0
        if not dead.any():
            return draws / totals[:, None]
        draws[dead] = rng.gamma(alphas[dead])
    raise GenerationError("Dirichlet sampler kept underflowing to zero")


def is_major_sil(frame: np.ndarray, sil_index: int,
                 tau: float = SIL_THRESHOLD) -> bool:
    """True iff SIL holds strictly more than tau of the frame's mass.

    Strict inequality keeps a half-volume frame (0.5 SIL / 0.5 phoneme) a
    legitimate prediction target at the default tau = 0.5.
    """
    if not 0.0 < tau < 1.0:
        raise ValueError("tau must lie strictly inside (0, 1)")
    return float(frame[sil_index]) > tau


def expand_template(grammar: SynthGrammar, tokens: tuple[str, ...],
                    rng: np.random.Generator,
                    dur_max: int | None = None) -> list[int]:
    """True phoneme ids for one template: random durations plus SIL runs."""
    sil = grammar.vocab.sil_index
    dur_max = grammar.dur_max if dur_max is None else dur_max
    true_ids: list[int] = []

    def sil_run():
        true_ids.extend([sil] * int(rng.integers(grammar.sil_min,
                                                 grammar.sil_max + 1)))

    sil_run()
    for pos, token in enumerate(tokens):
        if pos > 0:
            sil_run()
        duration = int(rng.integers(grammar.dur_min, dur_max + 1))
        true_ids.extend([grammar.vocab.index(token)] * duration)
    sil_run()
    return true_ids


def emit_frames(grammar: SynthGrammar, true_ids: list[int],
                rng: np.random.Generator) -> np.ndarray:
    """Push true phonemes through the Dirichlet confusion channel."""
    alphas = grammar.sharpness * grammar.confusion[np.asarray(true_ids)]
    return _dirichlet_rows(alphas, rng)


def generate_utterance(grammar: SynthGrammar, class_id: int,
                       rng: np.random.Generator,
                       max_seq_len: int = MAX_SEQ_LEN_DEFAULT,
                       utterance_id: str = "") -> LabeledUtterance:
    """Sample one labeled utterance from the mock acoustic channel.

    Retries (up to 10 times, shrinking durations) when the draw exceeds
    max_seq_len or contains no usable prediction target.
    """
    templates = grammar.templates_for(class_id)
    if not templates:
        raise ValueError(f"class {class_id} has no template")
    sil = grammar.vocab.sil_index

    for attempt in range(10):
        dur_max = max(grammar.dur_min, grammar.dur_max - attempt)
        tokens = templates[rng.integers(len(templates))]
        true_ids = expand_template(grammar, tokens, rng, dur_max=dur_max)
        if not 1 <= len(true_ids) <= max_seq_len:
            continue
        frames = emit_frames(grammar, true_ids, rng)
        if not any(not is_major_sil(f, sil) for f in frames):
            continue  # pre-training needs at least one eligible frame
        return LabeledUtterance(
            PhonemePosteriorSequence(frames, utterance_id=utterance_id),
            label=class_id,
        )
    raise GenerationError(
        f"no valid utterance for class {class_id} after 10 attempts")


def generate_corpus(grammar: SynthGrammar, count: int, seed: int,
                    max_seq_len: int = MAX_SEQ_LEN_DEFAULT,
                    id_prefix: str = "utt") -> list[LabeledUtterance]:
    """Generate ``count`` utterances cycling through the grammar's classes."""
    utterances = []
    for i in range(count):
        class_id = i % grammar.num_classes
        utterances.append(generate_utterance(
            grammar, class_id, stream(seed, "gen", i),
            max_seq_len=max_seq_len, utterance_id=f"{id_prefix}-{i:06d}"))
    return utterances


def validate_sequence(seq: PhonemePosteriorSequence,
                      max_seq_len: int = MAX_SEQ_LEN_DEFAULT) -> list[str]:
    """Diagnostic check; returns one message per violated invariant."""
    violations = []
    frames = seq.frames
    t_len = frames.shape[0]
    if not 1 <= t_len <= max_seq_len:
        violations.append(f"length: T={t_len} outside [1, {max_seq_len}]")
    finite = np.isfinite(frames).all(axis=1)
    sums = np.where(finite[:, None], frames, 0.0).sum(axis=1)
    negative = (frames < 0).any(axis=1)
    for t in np.flatnonzero(~finite | negative | (np.abs(sums - 1.0) > 1e-6)):
        if not finite[t]:
            violations.append(f"frame {t}: non-finite entry")
            continue
        if negative[t]:
            violations.append(f"frame {t}: negativity")
        if abs(sums[t] - 1.0) > 1e-6:
            violations.append(f"frame {t}: row-sum {sums[t]:.8f}")
    return violations


# ---------------------------------------------------------------------------
# file formats
# ---------------------------------------------------------------------------


def write_corpus(sequences: list[PhonemePosteriorSequence], path,
                 vocab_size: int) -> None:
    payload = bytearray()
    payload += CORPUS_MAGIC
    payload += struct.pack("<HHII", CORPUS_VERSION, 0, vocab_size, len(sequences))
    for seq in sequences:
        if seq.vocab_size != vocab_size:
            raise ValueError(f"{seq.utterance_id}: V={seq.vocab_size} != {vocab_size}")
        ident = seq.utterance_id.encode("utf-8")
        payload += struct.pack("<H", len(ident)) + ident
        payload += struct.pack("<I", seq.length)
        payload += seq.frames.astype("<f4").tobytes()
    Path(path).write_bytes(bytes(payload))


def _utf8(chunk: bytes, start: int, what: str) -> str:
    try:
        return chunk.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise CorpusFormatError(f"{what} is not valid UTF-8",
                                start + exc.start) from None


class ByteReader:
    """Bounds-checked cursor over a binary file, read from disk one field at
    a time so that the whole file is never held in memory; errors are
    CorpusFormatErrors carrying the byte offset where reading stopped. Use
    it in a ``with`` block, which closes the file."""

    def __init__(self, path):
        self._file = open(path, "rb")
        self.size = os.fstat(self._file.fileno()).st_size
        self.offset = 0

    def __enter__(self) -> "ByteReader":
        return self

    def __exit__(self, *exc_info) -> None:
        self._file.close()

    def take(self, count: int) -> bytes:
        if self.offset + count > self.size:
            raise CorpusFormatError("truncated file", self.offset)
        chunk = self._file.read(count)
        self.offset += count
        return chunk

    def magic(self, count: int) -> bytes:
        """The first ``count`` bytes, or the whole file if it is shorter."""
        return self.take(min(count, self.size))

    def unpack(self, fmt: str) -> tuple:
        return struct.unpack(fmt, self.take(struct.calcsize(fmt)))

    def text(self, count: int, what: str) -> str:
        """The next ``count`` bytes decoded as UTF-8."""
        start = self.offset
        return _utf8(self.take(count), start, what)

    def lines(self, what: str) -> list[tuple[int, str]]:
        """(offset, UTF-8 text) of each remaining line, without its ending."""
        start, found = self.offset, []
        for chunk in self.take(self.size - start).splitlines(keepends=True):
            found.append((start, _utf8(chunk, start, what).rstrip("\r\n")))
            start += len(chunk)
        return found

    def end(self) -> None:
        extra = self.size - self.offset
        if extra:
            raise CorpusFormatError(f"{extra} trailing bytes", self.offset)


def read_corpus(path, expected_vocab_size: int | None = None
                ) -> list[PhonemePosteriorSequence]:
    with ByteReader(path) as reader:
        magic = reader.magic(len(CORPUS_MAGIC))
        if magic != CORPUS_MAGIC:
            raise CorpusFormatError(f"bad magic {magic!r}", 0)
        version, _, vocab_size, count = reader.unpack("<HHII")
        if version != CORPUS_VERSION:
            raise CorpusFormatError(f"unsupported version {version}", 4)
        if expected_vocab_size is not None and vocab_size != expected_vocab_size:
            raise CorpusFormatError(
                f"vocabulary size mismatch: file has {vocab_size}, "
                f"expected {expected_vocab_size}", 8)
        sequences = []
        for _ in range(count):
            (id_len,) = reader.unpack("<H")
            ident = reader.text(id_len, "utterance id")
            (t_len,) = reader.unpack("<I")
            frames = np.frombuffer(reader.take(4 * t_len * vocab_size),
                                   dtype="<f4").reshape(t_len, vocab_size)
            # a signalling NaN turns quiet without a warning; it is left for
            # validate_sequence to report with its utterance and frame
            with np.errstate(invalid="ignore"):
                frames = frames.astype(np.float64)
            sequences.append(PhonemePosteriorSequence(frames, utterance_id=ident))
        reader.end()
    return sequences


def write_manifest(utterances: list[LabeledUtterance], path) -> None:
    lines = [f"{utt.sequence.utterance_id}\t{utt.label}\tclass{utt.label}"
             for utt in utterances]
    Path(path).write_text("\n".join(lines) + ("\n" if lines else ""),
                          encoding="utf-8")


def read_manifest(path) -> dict[str, int]:
    labels: dict[str, int] = {}
    with ByteReader(path) as reader:
        lines = reader.lines("manifest")
    for lineno, (offset, line) in enumerate(lines, 1):
        if not line.strip():
            continue
        parts = line.split("\t")
        if len(parts) < 2 or not parts[1].strip().isdecimal():
            raise CorpusFormatError(
                f"manifest line {lineno} malformed: expected utterance_id"
                "<TAB>class_id with a non-negative integer class_id", offset)
        labels[parts[0]] = int(parts[1])
    return labels


def join_labels(sequences: list[PhonemePosteriorSequence],
                labels: dict[str, int]) -> list[LabeledUtterance]:
    joined = []
    for seq in sequences:
        if seq.utterance_id not in labels:
            raise CorpusFormatError(f"no label for {seq.utterance_id!r}", None)
        joined.append(LabeledUtterance(seq, labels[seq.utterance_id]))
    return joined


def write_vocab(vocab: PhonemeVocab, path) -> None:
    Path(path).write_text("\n".join(vocab.symbols) + "\n", encoding="utf-8")


def read_vocab(path) -> PhonemeVocab:
    with ByteReader(path) as reader:
        lines = reader.lines("vocabulary")
    while lines and lines[-1][1] == "":
        lines.pop()
    symbols: dict[str, None] = {}  # insertion-ordered, O(1) membership
    for offset, symbol in lines:
        if not symbol:
            # line index is the phoneme id; a blank line would shift every id
            raise CorpusFormatError("blank line inside vocabulary file", offset)
        if symbol in symbols:
            raise CorpusFormatError(f"repeated phoneme {symbol!r}", offset)
        symbols[symbol] = None
    if SIL_SYMBOL not in symbols:
        raise CorpusFormatError(f"vocabulary lacks a {SIL_SYMBOL} line", None)
    if len(symbols) < 2:
        raise CorpusFormatError("vocabulary needs at least 2 phonemes",
                                reader.size)
    return PhonemeVocab.from_symbols(symbols)

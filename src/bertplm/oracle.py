"""Brute-force check that masked-regression training optimizes the same
expectation as partial permutation language modeling.

Both sides are computed exactly for any "set predictor": an evaluator
p(seq, S, j) giving the log-probability of the true content at position j
conditioned on the context *set* S, invariant to any ordering of S (which
relative positional encoding guarantees for the production encoder).

  lhs        average over all T! factorization orders of the sum of
             next-token conditionals past the cutting point c
  rhs exact  sum over target counts k of the subset expectation of the
             per-target *average* log-probability
  rhs paper  uniform average over k of the subset expectation of the
             per-target *sum* (the published form)

The exact form reproduces the permutation expectation to rounding error;
the sum form generally differs by a per-k linear weighting, vanishing only
at k=1 (c = T-1). Both deviations are reported rather than assumed.

A trial asks the predictor once for each conditional p(j | S) either side
reads (j outside S, c <= |S| <= T-1) and stores the answers in one
(2^T, T) score table, indexed by the bitmask of S. The subset side reads
the table directly. The permutation side still enumerates all T! orders,
but once per T rather than once per trial: it counts how often each
(t, S, j) occurs, checks the counts against the (t-1)! (T-t)! orderings
around a fixed conditional, and caches them. Its sum weights each table
entry by its count and is exactly rounded, which is bitwise the
``math.fsum`` over every order's terms.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from itertools import combinations
from typing import Callable

import numpy as np

from .corpus import PhonemePosteriorSequence
from .encoder import (EncoderConfig, Group, bind_params, encode,
                      predict_phonemes)
from . import autodiff as ad
from .objective import MaskPlan
from .rng import stream_key

#: evaluator (sequence, context index set, target index) -> log-probability
SetPredictor = Callable[[PhonemePosteriorSequence, frozenset, int], float]

PERM_LIMIT = 10  # 10! = 3,628,800 orders, counted once per T


@dataclass
class TheoremReport:
    dev_exact: float
    dev_paper: float


def _guard(t_len: int, c: int) -> None:
    if t_len > PERM_LIMIT:
        raise ValueError(f"refusing T={t_len} > {PERM_LIMIT}: T! enumeration")
    if not 1 <= c <= t_len - 1:
        raise ValueError(f"cutting point c={c} outside (0, {t_len})")


@functools.cache
def _subsets(t_len: int) -> list[list[tuple[int, frozenset, MaskPlan]]]:
    """(bitmask, set, mask plan targeting the rest) for every proper subset
    of range(t_len), listed by size in ``combinations`` order."""
    return [[(sum(1 << j for j in inside), frozenset(inside),
              MaskPlan.from_context_set(inside, t_len))
             for inside in combinations(range(t_len), size)]
            for size in range(t_len)]


def score_table(p: SetPredictor, seq: PhonemePosteriorSequence,
                c: int) -> np.ndarray:
    """Every conditional either expectation reads at cutting point c.

    Row S (as a bitmask) of the (2^T, T) table holds p(seq, S, j) for each
    j outside S, for every S with c <= |S| <= T-1; every other entry is
    NaN. ``p`` is asked once per entry. A T above ``PERM_LIMIT`` or a c
    outside 1 .. T-1 is a ``ValueError`` before ``p`` is asked anything.
    """
    _guard(seq.length, c)
    table = np.full((1 << seq.length, seq.length), np.nan)
    for subsets in _subsets(seq.length)[c:]:
        for mask, context, plan in subsets:
            table[mask, plan.target_idx] = [p(seq, context, j)
                                            for j in plan.target_idx]
    return table


def _led_by(lead: int, rest: np.ndarray) -> np.ndarray:
    """The orders of range(n + 1) that start with ``lead``, from ``rest``,
    the orders of range(n)."""
    return np.column_stack([np.full(len(rest), lead, np.int8),
                            rest + (rest >= lead)])


def _orders(n: int) -> np.ndarray:
    """Every order of range(n), one int8 row each, lexicographically."""
    orders = np.zeros((1, 0), dtype=np.int8)
    for size in range(1, n + 1):
        orders = np.concatenate([_led_by(lead, orders)
                                 for lead in range(size)])
    return orders


@functools.cache
def _order_counts(t_len: int) -> np.ndarray:
    """How often each (t, S, j) occurs over all T! factorization orders z:
    entry [t-1, S, j] counts the orders with {z_1..z_{t-1}} = S (S as a
    bitmask) and z_t = j.

    The orders are enumerated as int arrays, one chunk per leading
    position. The counts are checked against the prefix and suffix
    orderings around a fixed conditional: each (t, S, j) that occurs
    occurs (t-1)! (T-t)! times, and C(T, t-1) (T-t+1) of them occur.
    """
    size = 1 << t_len
    counts = np.zeros((t_len, size * t_len), dtype=np.int64)
    rest = _orders(t_len - 1)
    for lead in range(t_len):
        order = _led_by(lead, rest)
        prefix = np.zeros(len(rest), dtype=np.int32)
        for t in range(t_len):
            target = order[:, t]
            counts[t] += np.bincount(prefix * t_len + target,
                                     minlength=size * t_len)
            prefix |= np.left_shift(1, target, dtype=np.int32)
    counts = counts.reshape(t_len, size, t_len)
    for t in range(1, t_len + 1):
        occurring = counts[t - 1][counts[t - 1] > 0]
        expected = math.factorial(t - 1) * math.factorial(t_len - t)
        assert np.all(occurring == expected), f"multiplicity != {expected}"
        assert occurring.size == math.comb(t_len, t - 1) * (t_len - t + 1)
    return counts


def _exact_dot(counts: np.ndarray, values: np.ndarray) -> float:
    """sum(counts * values), exactly rounded, for integer counts < 2**26.

    Each value splits into two halves of at most 26 significant bits
    (Veltkamp), so every count * half is exact and ``math.fsum`` rounds
    the whole sum once.
    """
    scaled = values * 134217729.0  # 2**27 + 1
    high = scaled - (scaled - values)
    low = values - high
    return math.fsum((counts * high).tolist() + (counts * low).tolist())


def _read(table: np.ndarray, index) -> np.ndarray:
    """``table[index]``, which must hold no NaN (an entry never scored)."""
    values = table[index]
    if np.isnan(values).any():
        raise ValueError("score table read below its cutting point")
    return values


def perm_plm_expectation(table: np.ndarray, c: int) -> float:
    """(1/T!) sum over orders z of sum_{t>c} log p(x_{z_t} | x_{z_<t}).

    Every factorization order is counted (``_order_counts``, once per T);
    each conditional p(j | S) enters the sum as many times as orders reach
    it past the cutting point, read from ``table``, the ``score_table`` of
    a sequence at cutting point c, whose width is T. The sum is exactly
    rounded, as ``math.fsum`` over every order's terms would be. A c below
    the table's own reads an unscored entry: a ``ValueError``.
    """
    t_len = table.shape[1]
    counts = _order_counts(t_len)[c:].sum(axis=0)
    reached = np.nonzero(counts)
    total = _exact_dot(counts[reached], _read(table, reached))
    return total / math.factorial(t_len)


def subset_regression_expectation(table: np.ndarray,
                                  c: int) -> tuple[float, float]:
    """Masked-regression expectation over context subsets, as (exact, paper)
    from one enumeration.

    exact:  sum_{k=1..T-c} E_{|S|=T-k} [ (1/k) sum_{j not in S} p(j|S) ]
    paper:  (1/(T-c)) sum_{k=1..T-c} E_{|S|=T-k} [ sum_{j not in S} p(j|S) ]

    Conditionals are read by the bitmask of S from ``table``, the
    ``score_table`` of a sequence at cutting point c, whose width is T; a
    c below the table's own reads an unscored entry: a ``ValueError``.
    """
    t_len = table.shape[1]
    exact_k, paper_k = [], []
    for k in range(1, t_len - c + 1):
        totals = [math.fsum(_read(table, (mask, plan.target_idx)).tolist())
                  for mask, _, plan in _subsets(t_len)[t_len - k]]
        exact_k.append(math.fsum(total / k for total in totals) / len(totals))
        paper_k.append(math.fsum(totals) / len(totals))
    return math.fsum(exact_k), math.fsum(paper_k) / (t_len - c)


def random_sequence(t_len: int, vocab_size: int,
                    rng: np.random.Generator,
                    utterance_id: str = "trial") -> PhonemePosteriorSequence:
    rows = rng.dirichlet(np.ones(vocab_size), size=t_len)
    return PhonemePosteriorSequence(rows, utterance_id=utterance_id)


def random_set_predictor(seed: int) -> SetPredictor:
    """Deterministic pseudo-random log-probabilities in [-5, -0.05) keyed by
    (id, S, j).

    Order-invariant by construction: the key hashes the sorted context set.
    Each call draws the first double of ``Philox(key=stream_key(...))``
    from one bit generator the predictor keeps, reset to that key at
    counter 0 with an empty buffer, which is the state a fresh
    ``Philox(key=...)`` starts in.
    """
    low, high = -5.0, -0.05
    bit_generator = np.random.Philox(key=0)
    generator = np.random.Generator(bit_generator)
    zeros = np.zeros(4, dtype=np.uint64)

    def predictor(seq: PhonemePosteriorSequence, context: frozenset,
                  target: int) -> float:
        key = stream_key(seed, seq.utterance_id, tuple(sorted(context)), target)
        bit_generator.state = {
            "bit_generator": "Philox",
            "state": {"counter": zeros, "key": key},
            "buffer": zeros, "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}
        unit = generator.random()
        return low + (high - low) * unit

    return predictor


def make_frozen_predictor(params: dict[str, np.ndarray],
                          config: EncoderConfig) -> SetPredictor:
    """Score single-position conditionals with the real (frozen) encoder.

    For a context set S the mask plan targets the whole complement; the
    log-probability of position j is the log-softmax of its tied logits at
    the argmax phoneme of the true posterior row. One plan per S serves
    every j outside S, because a target row attends only to S and itself,
    never to other targets. The first query for a sequence scores every
    context set that leaves a target (all 2^T - 1 proper subsets of its
    positions) as one group in one forward pass; each score is bitwise the
    one a taped group of one gives for its plan. Only the last sequence's
    scores are kept, keyed on its frames, not its id, so two sequences that
    share an id never share scores. The parameters are bound once, without
    a tape, when the predictor is made.
    """
    last_key: tuple[tuple[int, ...], bytes] | None = None
    last_scores: dict[frozenset, dict[int, float]] = {}
    bound = bind_params(params)

    def score_every_context(seq: PhonemePosteriorSequence
                            ) -> dict[frozenset, dict[int, float]]:
        subsets = [entry for level in _subsets(seq.length) for entry in level]
        group = Group([seq] * len(subsets), [plan for *_, plan in subsets])
        hidden = encode(bound, config, group)
        target_rows = group.target_rows
        targets = ad.gather_rows(hidden, target_rows)
        # the last T plans have one target each; a group of one scores such
        # a plan as a one-row product, which BLAS computes as a
        # vector-matrix product that can round differently from a GEMM row
        single = len(target_rows) - seq.length
        logits = np.concatenate(
            [predict_phonemes(ad.gather_rows(targets, range(single)),
                              bound["embed"]).data]
            + [predict_phonemes(ad.gather_rows(targets, [r]),
                                bound["embed"]).data
               for r in range(single, len(target_rows))])
        log_probs = ad.log_softmax(ad.constant(logits)).data
        picked = log_probs[np.arange(len(target_rows)),
                           group.frames[target_rows].argmax(axis=1)].tolist()
        bounds = group.target_bounds
        return {context: dict(zip(plan.target_idx,
                                  picked[bounds[b]:bounds[b + 1]]))
                for b, (_, context, plan) in enumerate(subsets)}

    def predictor(seq: PhonemePosteriorSequence, context: frozenset,
                  target: int) -> float:
        nonlocal last_key, last_scores
        key = (seq.frames.shape, seq.frames.tobytes())
        if key != last_key:
            last_key, last_scores = key, score_every_context(seq)
        return last_scores[context][target]

    return predictor


def verify_theorem(p: SetPredictor, t_len: int, c: int, trials: int,
                   rng: np.random.Generator,
                   vocab_size: int = 4) -> list[TheoremReport]:
    """Fresh random sequence per trial; report both deviations.

    Both sides of a trial read one ``score_table``, so each (S, j) is asked
    of ``p`` once per trial. A bad ``trials``, T or c fails before the
    first trial draws its sequence.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    _guard(t_len, c)
    reports = []
    for trial in range(trials):
        seq = random_sequence(t_len, vocab_size, rng,
                              utterance_id=f"trial-{t_len}-{c}-{trial}")
        table = score_table(p, seq, c)
        lhs = perm_plm_expectation(table, c)
        rhs_exact, rhs_paper = subset_regression_expectation(table, c)
        reports.append(TheoremReport(dev_exact=abs(lhs - rhs_exact),
                                     dev_paper=abs(lhs - rhs_paper)))
    return reports

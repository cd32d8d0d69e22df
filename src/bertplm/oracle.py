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
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations, permutations
from typing import Callable

import numpy as np

from .corpus import PhonemePosteriorSequence
from .encoder import EncoderConfig, bind_params, encode, predict_phonemes
from . import autodiff as ad
from .objective import MaskPlan
from .rng import stream_key

#: evaluator (sequence, context index set, target index) -> log-probability
SetPredictor = Callable[[PhonemePosteriorSequence, frozenset, int], float]

PERM_LIMIT = 8  # 8! = 40320 orders; beyond that enumeration is pointless


@dataclass
class TheoremReport:
    dev_exact: float
    dev_paper: float


def _guard(t_len: int, c: int) -> None:
    if t_len > PERM_LIMIT:
        raise ValueError(f"refusing T={t_len} > {PERM_LIMIT}: T! enumeration")
    if not 1 <= c <= t_len - 1:
        raise ValueError(f"cutting point c={c} outside (0, {t_len})")


def perm_plm_expectation(p: SetPredictor, seq: PhonemePosteriorSequence,
                         c: int) -> float:
    """(1/T!) sum over orders z of sum_{t>c} log p(x_{z_t} | x_{z_<t}).

    Enumerates every factorization order; conditionals are memoized on the
    (context set, target) pair, which is exactly the invariance the check
    exploits. The enumeration asserts that each (t, S, j) triple appears
    (t-1)! (T-t)! times: the prefix and suffix orderings around a fixed
    conditional.
    """
    t_len = seq.length
    _guard(t_len, c)
    memo: dict[tuple[frozenset, int], float] = {}
    counts: dict[tuple[int, frozenset, int], int] = {}
    terms = []
    for order in permutations(range(t_len)):
        for t in range(c + 1, t_len + 1):
            context = frozenset(order[:t - 1])
            target = order[t - 1]
            key = (context, target)
            value = memo.get(key)
            if value is None:
                value = memo[key] = p(seq, context, target)
            terms.append(value)
            triple = (t, context, target)
            counts[triple] = counts.get(triple, 0) + 1
    for (t, _, _), count in counts.items():
        expected = math.factorial(t - 1) * math.factorial(t_len - t)
        assert count == expected, f"multiplicity {count} != {expected}"
    return math.fsum(terms) / math.factorial(t_len)


def subset_regression_expectation(p: SetPredictor,
                                  seq: PhonemePosteriorSequence,
                                  c: int) -> tuple[float, float]:
    """Masked-regression expectation over context subsets, as (exact, paper)
    from one enumeration.

    exact:  sum_{k=1..T-c} E_{|S|=T-k} [ (1/k) sum_{j not in S} p(j|S) ]
    paper:  (1/(T-c)) sum_{k=1..T-c} E_{|S|=T-k} [ sum_{j not in S} p(j|S) ]
    """
    t_len = seq.length
    _guard(t_len, c)
    positions = set(range(t_len))
    exact_k, paper_k = [], []
    for k in range(1, t_len - c + 1):
        totals = []
        for context in combinations(range(t_len), t_len - k):
            context_set = frozenset(context)
            totals.append(math.fsum(p(seq, context_set, j)
                                    for j in positions - context_set))
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
    """
    low, high = -5.0, -0.05

    def predictor(seq: PhonemePosteriorSequence, context: frozenset,
                  target: int) -> float:
        key = stream_key(seed, seq.utterance_id, tuple(sorted(context)), target)
        unit = np.random.Generator(np.random.Philox(key=key)).random()
        return low + (high - low) * unit

    return predictor


def uniform_predictor(vocab_size: int) -> SetPredictor:
    """Context-ignoring predictor assigning 1/V to everything."""
    value = -math.log(vocab_size)

    def predictor(seq, context, target):
        return value

    return predictor


def make_frozen_predictor(params: dict[str, np.ndarray],
                          config: EncoderConfig) -> SetPredictor:
    """Score single-position conditionals with the real (frozen) encoder.

    For a context set S the mask plan targets the whole complement; the
    log-probability of position j is the log-softmax of its tied logits at
    the argmax phoneme of the true posterior row. One forward pass per
    distinct S serves every j outside S, because a target row attends only
    to S and itself, never to other targets. The parameters are bound once,
    without a tape, when the predictor is made.
    """
    cache: dict[tuple[str, frozenset], dict[int, float]] = {}
    bound = bind_params(params)

    def predictor(seq: PhonemePosteriorSequence, context: frozenset,
                  target: int) -> float:
        key = (seq.utterance_id, context)
        scores = cache.get(key)
        if scores is None:
            plan = MaskPlan.from_context_set(context, seq.length)
            hidden = encode(bound, config, seq, plan)
            logits = predict_phonemes(
                ad.gather_rows(hidden, plan.target_idx), bound["embed"])
            log_probs = ad.log_softmax(logits).data
            scores = {}
            for row, j in enumerate(plan.target_idx):
                true_phoneme = int(seq.frames[j].argmax())
                scores[j] = float(log_probs[row, true_phoneme])
            cache[key] = scores
        return scores[target]

    return predictor


def verify_theorem(p: SetPredictor, t_len: int, c: int, trials: int,
                   rng: np.random.Generator,
                   vocab_size: int = 4) -> list[TheoremReport]:
    """Fresh random sequence per trial; report both deviations."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    _guard(t_len, c)
    reports = []
    for trial in range(trials):
        seq = random_sequence(t_len, vocab_size, rng,
                              utterance_id=f"trial-{t_len}-{c}-{trial}")
        lhs = perm_plm_expectation(p, seq, c)
        rhs_exact, rhs_paper = subset_regression_expectation(p, seq, c)
        reports.append(TheoremReport(dev_exact=abs(lhs - rhs_exact),
                                     dev_paper=abs(lhs - rhs_paper)))
    return reports

"""BERT-PLM: pre-training a spoken-language-understanding encoder on phoneme
posterior sequences through a masked-regression objective whose expectation
equals partial permutation language modeling.

Submodules:
    autodiff   dense float32/float64 tensors with reverse-mode
               differentiation (float32 training, float64 verification)
    rng        splittable, counter-based random streams
    corpus     phoneme posterior sequences, synthetic channel, corpus files
    encoder    relative-position Transformer with mask-plan attention
    objective  mask-plan sampling and the pre-training / fine-tuning losses
    oracle     brute-force check of the permutation/combination equivalence
    trainer    Adam, training loops, metrics, checkpoints, ablations
    config     flat key=value configuration with typed defaults
    cli        command-line entry points
"""

__version__ = "0.1.0"

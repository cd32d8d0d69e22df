"""Set predictors that only the tests use."""

import math


def uniform_predictor(vocab_size: int):
    """Context-ignoring predictor assigning 1/V to everything."""
    value = -math.log(vocab_size)

    def predictor(seq, context, target):
        return value

    return predictor

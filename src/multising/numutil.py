"""Small numerical helpers used across modules."""

from __future__ import annotations

import math

import numpy as np


class RunningLogSum:
    """Streaming log-sum-exp accumulator for chunked enumerations."""

    def __init__(self):
        self._max = -math.inf
        self._sum = 0.0

    def add(self, logvals):
        logvals = np.asarray(logvals, dtype=float)
        if logvals.size == 0:
            return
        m = float(np.max(logvals))
        if m == -math.inf:  # all weights zero; exp(-inf - -inf) would be NaN
            return
        if m <= self._max:
            self._sum += float(np.sum(np.exp(logvals - self._max)))
        else:
            self._sum = self._sum * math.exp(self._max - m) + float(
                np.sum(np.exp(logvals - m))
            )
            self._max = m

    def value(self):
        if self._sum == 0.0:
            return -math.inf
        return self._max + math.log(self._sum)

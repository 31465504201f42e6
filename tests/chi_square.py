"""Pearson's chi-square goodness-of-fit test shared by the sampler tests."""

import math

import numpy as np

# Upper normal quantile at 1e-6: through Wilson-Hilferty, the chi-square
# bound below fails a correct sampler at about one seed in a million per
# case, a little less at these degrees of freedom, where it errs high.
Z_FALSE_ALARM = 4.753


def pooled_chi_square(observed, expected):
    """Pearson's chi-square of observed counts against their expected
    counts, both in one fixed order over the support, contiguous entries
    pooled until each bin expects at least 5 (the remainder joins the last
    bin), with its Wilson-Hilferty critical value at the Z_FALSE_ALARM
    level.  Bins are found on the cumulative sums, so the cost grows with
    the number of bins, not with the size of the support."""
    cum_e, cum_o = np.cumsum(expected), np.cumsum(observed)
    ends, pooled = [], 0.0
    while (end := int(np.searchsorted(cum_e, pooled + 5.0))) < len(cum_e):
        ends.append(end)
        pooled = cum_e[end]
    ends[-1] = len(cum_e) - 1
    e, o = np.diff(cum_e[ends], prepend=0.0), np.diff(cum_o[ends], prepend=0)
    chi_square = float(np.sum((o - e) ** 2 / e))
    df = len(ends) - 1
    critical = df * (1.0 - 2.0 / (9 * df) + Z_FALSE_ALARM * math.sqrt(2.0 / (9 * df))) ** 3
    return chi_square, critical

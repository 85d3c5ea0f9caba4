"""Tabulated reference values for the third, fourth and fifth cumulants.

Eleven-point grids d = 0, 0.05, ..., 0.50, printed to four significant
figures; the matching helper checks agreement to the displayed precision.
Regions 6 and 12 of the order-5 integral have 20-digit values near d = 0.
"""

import math

GRID = [0.0, 0.05, 0.10, 0.15, 0.20, 0.25, 0.30, 0.35, 0.40, 0.45, 0.50]

KAPPA_TABLES = {
    3: [2.828, 2.815, 2.770, 2.684, 2.548, 2.348, 2.067, 1.686, 1.183, 0.5603, 0.0],
    4: [12.00, 11.92, 11.66, 11.15, 10.35, 9.192, 7.632, 5.665, 3.392, 1.173, 0.0],
    5: [67.88, 67.33, 65.46, 61.92, 56.37, 48.51, 38.32, 26.24, 13.68, 3.563, 0.0],
}


def matches_4_significant(value: float, reference: float) -> bool:
    """True when `value` rounds to `reference` at four significant figures."""
    if reference == 0.0:
        return value == 0.0
    half_ulp = 0.5 * 10.0 ** (math.floor(math.log10(abs(reference))) - 3)
    return abs(value - reference) <= half_ulp * 1.02  # tiny slack for ties


# (region 6, region 12) of the order-5 integral, to 20 digits: their closed
# forms evaluated once with mpmath at 50 digits (mp.gamma, mp.hyp3f2 at 1,
# Gamma(2d-1) taken as it stands) at the float d.  Both tend to 1/120.
C5_REGIONS_6_12 = {
    1e-16: (0.0083333333333333384028, 0.0083333333333333396528),
    1e-14: (0.0083333333333338402778, 0.0083333333333339652778),
    6e-14: (0.0083333333333363750000, 0.0083333333333371250000),
    1e-13: (0.0083333333333384027778, 0.0083333333333396527778),
    1e-12: (0.0083333333333840277778, 0.0083333333333965277778),
    1e-10: (0.0083333333384027777795, 0.0083333333396527777804),
    1e-6: (0.0083333840279535155648, 0.0083333965280413931068),
    0.1: (0.015745953889890229317, 0.018348586267260741715),
    0.25: (0.046595740306853399756, 0.069052093826886538823),
    0.45: (0.29115135129145519319, 0.60403305316851303215),
}


# kernel_hyp2f1_moment(a, b, c, e, d, x) near x = 1, keyed by (a, b, c, e, d)
# and then 1 - x (x = 1.0 - gap, so 1 - x is exact): mpmath at 45 digits of
# int_0^x t^-d f(x-t) dt + int_0^(1-x) t^-d f(x+t) dt, f(u) = u^e 2F1(a, b; c; u),
# the first integral split at 1 - x times powers of 2 (45- and 30-digit
# values agree to 1e-23 relative).
KERNEL_HYP2F1_NEAR_1 = {
    (1.0, 0.3, 1.7, 0.7, 0.3): {
        1e-4: 1.212012080413749068742,
        1e-6: 1.208631756570621998963,
        1e-9: 1.208479933041555793295,
    },
    (0.984, 0.2, 2.835, 1.192, 0.406): {
        1e-4: 1.084946620043143001568,
        1e-6: 1.077737877902054575121,
        1e-9: 1.077234099355883301654,
    },
}

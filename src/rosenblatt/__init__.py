"""Cumulants of the Rosenblatt distribution.

Closed forms for the second through fifth cumulants as functions of the
memory parameter d in [0, 0.5], verified against two independent
numerical routes: the integral-operator recursion and Monte-Carlo /
quadrature evaluation of the defining singular integrals.
"""

from .cumulants import (
    CharacteristicFunctionValue,
    CumulantReport,
    DomainError,
    c2_closed,
    c3_closed,
    c4_closed,
    c4_region,
    c5_closed,
    c5_region,
    c_closed,
    characteristic_function,
    cumulant_table,
    kappa,
    kappa_from_c,
    sigma,
)
from .oracle import MCEstimate, RegionSpec, mc_ck, mc_region, region_catalog
from .quadrature import QuadratureError
from .specfun import (
    DivergenceError,
    HypParams,
    NonConvergenceError,
    ParameterDomainError,
    PoleError,
    SeriesResult,
    SpecialFunctionError,
    hyp_2f1,
    pfq_at_1,
    product_binomial_integral,
    prudnikov_product_integral,
)
from .thomae import (
    SplitForm,
    ThomaeForm,
    split_4f3_alternative,
    split_4f3_contiguous,
    thomae_fixed_top,
    thomae_full,
    thomae_split,
)
from .veillette_taqqu import (
    apply_kernel,
    c_k_via_operator,
    g1,
    g2,
    g3,
    g4_closed,
    g_function,
    kernel_hyp2f1_moment,
    kernel_one_minus_power,
)

__version__ = "0.1.0"

__all__ = [
    "CharacteristicFunctionValue", "CumulantReport", "DivergenceError",
    "DomainError", "HypParams", "MCEstimate",
    "NonConvergenceError", "ParameterDomainError", "PoleError",
    "QuadratureError", "RegionSpec", "SeriesResult", "SpecialFunctionError",
    "SplitForm", "ThomaeForm", "apply_kernel",
    "c2_closed", "c3_closed", "c4_closed", "c4_region", "c5_closed",
    "c5_region", "c_closed", "c_k_via_operator", "characteristic_function",
    "cumulant_table", "g1", "g2", "g3", "g4_closed", "g_function",
    "hyp_2f1", "kappa", "kappa_from_c", "kernel_hyp2f1_moment",
    "kernel_one_minus_power", "mc_ck", "mc_region", "pfq_at_1",
    "product_binomial_integral", "prudnikov_product_integral",
    "region_catalog", "sigma", "split_4f3_alternative",
    "split_4f3_contiguous", "thomae_fixed_top", "thomae_full", "thomae_split",
]

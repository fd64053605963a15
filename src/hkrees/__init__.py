"""Exact Hilbert-Kunz multiplicities for Rees-type ring families.

Closed forms live in `closed_forms`, presented quotient rings, their text
format and the characteristic-free Buchberger engine in `engine`, direct
lattice counters in `lattice`, 2D semigroups and their Ehrhart
quasi-polynomials in `toric`, extrapolation in `estimator`, named
families in `presets`, and invariant suites in `checks`.
"""

from .closed_forms import (
    SegreParams,
    VeroneseParams,
    bcp_segre_ehk,
    c_of_d,
    ci_rees_values,
    conca_ehk,
    segre_ehk,
    veronese_rees_ehk,
    veronese_rees_ehk_general,
)
from .engine import (
    MonomialOrderSpec,
    PresentedQuotient,
    PureDifferenceBinomial,
    frobenius_colength,
)
from .errors import ClosureError, DimensionError, ParameterError
from .estimator import ColengthSample, HKEstimate, estimate, normalized_sequence
from .lattice import (
    MonomialIdeal2D,
    ci_rees_colength,
    equality_criterion,
    rees_monomial_colength,
    segre_colength,
    semigroup_ehk_colength,
    semigroup_extrees_colength,
    veronese_rees_colength,
)
from .toric import Semigroup2D

__version__ = "1.0.0"

__all__ = [
    "SegreParams", "VeroneseParams", "bcp_segre_ehk", "c_of_d",
    "ci_rees_values", "conca_ehk", "segre_ehk", "veronese_rees_ehk",
    "veronese_rees_ehk_general", "MonomialOrderSpec", "PresentedQuotient",
    "PureDifferenceBinomial", "frobenius_colength", "ClosureError",
    "DimensionError", "ParameterError", "ColengthSample",
    "HKEstimate", "estimate", "normalized_sequence", "MonomialIdeal2D",
    "Semigroup2D", "ci_rees_colength", "equality_criterion",
    "rees_monomial_colength", "segre_colength", "semigroup_ehk_colength",
    "semigroup_extrees_colength", "veronese_rees_colength",
]

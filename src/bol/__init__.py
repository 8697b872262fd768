"""Numerical toolkit for an Orlicz-modulus embedding of BV functions.

Layers: Young/weight presets (``young``), grid functions and discrete TV
(``grid``), Luxemburg norms and translation moduli (``orlicz``), the
Besov-type norm (``besov``), measure-halving layer decompositions
(``molecules``), the two-integral embedding condition (``condition``),
constructive experiments (``evidence``), and a CLI (``bol``).
"""

from .besov import BesovNorm, besov_orlicz_norm
from .condition import (ConditionQuad, ConditionReport, ConditionValue,
                        condition_sup, condition_value, section5_first_bound,
                        section5_second_bound)
from .errors import BolError, DivergenceError, DomainError, ResourceGuardError
from .grid import (GridFunction, load_grid_function, lp_norm, save_grid_function,
                   shift_difference, total_variation, unit_ball_volume)
from .molecules import (Decomposition, Molecule, decompose,
                        default_alpha_budget, molecule_count_bound,
                        verify_r1_r2, verify_r3, write_decomposition)
from .orlicz import ModulusCurve, ShiftNormCache, l1_modulus, luxemburg_norm
from .young import (SECTION5_R, WeightFunction, YoungFunction, critical_theta,
                    make_power_weight, make_power_young, make_section5_weight,
                    make_section5_young, make_table_young, parse_weight_spec,
                    parse_young_spec)

__version__ = "0.1.0"

"""Two-weight sparse-operator machinery on finite dyadic trees."""

from .dyadic import (CubeId, DomainError, Instance, NumericError, SparseFamily,
                     TreeGeometry, WeightPair, generate_sparse, instance_from_dict,
                     load_instance, make_instance, packing_constant, stopping_time_family)
from .bumps import (AdmissibilityError, BumpSpec, YoungSpec, ap_constant, check_bump,
                    dyadic_maximal, entropy_constant, entropy_lambda,
                    maximal_bound_constant, nu_constant, orlicz_lacey_constant,
                    orlicz_li_constant)
from .testing import (CheckReport, apply_sparse, carleson_embedding_ratio, cov_sides,
                      eset_split_check, hytonen_ratio, lemma_reports, local_sum, lp_norm,
                      maximal_norm_lower, operator_norm, operator_norm_lower, operator_norm_p2,
                      prop31_bound, prop32_check, prop33_check, sawyer_sum_bound, testing_constant,
                      theorem_main_ratio)
from .search import (Objective, SearchConfig, SearchResult, anneal, evaluate,
                     random_instance, sweep_results)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"

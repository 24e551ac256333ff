"""Exact computation with quiver representations, pp formulas and functor categories."""

from .scalars import QQ, PrimeField, Rationals
from .linalg import Matrix, Subspace
from .quiver import Arrow, Path, Quiver, QuiverAlgebra, RingElement, compose, make_path
from .rep import (
    RepMorphism, Representation, act, are_isomorphic, cokernel_of, direct_sum,
    dual_module, endo_radical, hom_space, is_indecomposable, kernel_of,
)
from .ppform import (
    Equation, PpFormula, PpMap, PpPair, Var, conj, difference_map, dual, exists,
)
from .ppeval import (
    certify_pair, check_pp_map, definable_membership, eval_formula, eval_pair,
    free_realization, pp_implies,
)
from .interp import (
    InterpretationFunctor, apply, check_rep_embedding, round_trip_check, validate,
)
from .funcat import (
    FinModule, FiniteAlgebra, auslander_algebra, functor_eval, pp_functor_crosscheck,
    projective_row, quotient_modules, quotient_skeleton, serre_from_generator,
    simple_module, SerreData,
)
from .tensor import purity_pp, purity_tensor, tensor
from .dsl import emit_report, load_builtin, parse, parse_file

__version__ = "0.1.0"

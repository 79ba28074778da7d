"""pfhaf: exact determinants, permanents, Pfaffians and Hafnians, with
polynomial-time fast paths for Cauchy-type structured matrices.

The package exports what the quick start and the demos use; every other
name is imported from its own module (pfhaf.kernels, pfhaf.verify, ...)."""

from .errors import (
    DegenerateFormError,
    DomainError,
    GenError,
    PfhafError,
    PoleError,
    SizeError,
)
from .kernels import det_bareiss, hf_recursive, perm_ryser, pf_elimination
from .matrix import SquareMatrix
from .structured import (
    BilinearForm,
    PointConfig,
    SymmetricForm,
    build_cauchy,
    build_hafnian_mat,
    build_schur,
    fast_cauchy_hafnian,
    fast_cauchy_perm,
    moebius_for_form,
    sqrt_disc,
    substitution_witness,
)
from .verify import IdentityId, check_identity, make_instance, run_suite, summarize

__version__ = "0.1.0"

"""pfhaf: exact determinants, permanents, Pfaffians and Hafnians, with
polynomial-time fast paths for Cauchy-type structured matrices."""

from .errors import (
    DegenerateFormError,
    DomainError,
    GenError,
    PfhafError,
    PoleError,
    SizeError,
)
from .kernels import (
    KernelResult,
    det_bareiss,
    det_oracle,
    evaluate,
    hf_oracle,
    hf_recursive,
    perm_oracle,
    perm_ryser,
    pf_elimination,
    pf_oracle,
)
from .matrix import SquareMatrix, classify, minor
from .report import IdentityReport
from .scalar import QuadExt, Rat, parse_rat, render_rat
from .structured import (
    BilinearForm,
    MoebiusMap,
    PointConfig,
    SymmetricForm,
    build_cauchy,
    build_hafnian_mat,
    build_schur,
    cauchy_det_closed,
    fast_cauchy_hafnian,
    fast_cauchy_perm,
    moebius_for_form,
    schur_pf_closed,
    sqrt_disc,
    substitution_witness,
)
from .verify import (
    IdentityId,
    Rank2Spec,
    check_identity,
    gen_points,
    gen_rank2,
    make_instance,
    run_suite,
    summarize,
)

__version__ = "0.1.0"

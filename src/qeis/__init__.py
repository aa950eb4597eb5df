"""qeis: exact Fourier expansions of quaternionic Heisenberg Eisenstein series on U(2,n).

The public surface re-exports the main objects of each layer: the exact
arithmetic substrate, the Hermitian lattice model, the p-adic Siegel-series
engine with its lattice-count oracle, the archimedean checkers, the global
Fourier assembly, and the candidate Saito-Kurokawa lifts.
"""

from .arith import (IntPoly, Splitting, SqrtPPoly, bernoulli, hyp2f1_terminating,
                    kronecker_symbol, sqrtp_eval_halfint)
from .archimedean import (PiRational, WhittakerEval, arch_constant,
                          bessel_sum_check, comb_identity_check, f0_closed,
                          gamma_integral_check, rank1_vanishing_check,
                          whittaker_at)
from .bessel import bessel_k, bessel_k_scaled
from .errors import (InternalConsistencyError, NumericError, QeisError,
                     ResourceBudgetError, ValidationError)
from .fourier import (ConstantTerm, ExpansionTable, FourierCoefficient, c_ell,
                      coefficient, constant_term, d_nl,
                      denominator_bound_check, full_expansion, sigma_E)
from .hermitian import (FieldE, GlobalVector, LocalKey, LocalVectorData, Params,
                        QuadInt, global_vector, local_key, local_quadratic_data, norm)
from .lift import (EigenformData, SatakeParam, delta_eigenvalues,
                   lift_coefficient, lift_coefficient_numeric,
                   satake_from_eigenvalue, standard_L_factors)
from .siegel import (QuadLatticeShape, R_closed_form, assemble_series,
                     extract_P, q_poly, ramified_shape, split_shape,
                     term_closed, term_oracle)

__version__ = "0.1.0"

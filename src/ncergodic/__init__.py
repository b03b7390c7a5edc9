"""Ergodic averages, maximal-inequality witnesses and symmetric norms on
finite tracial matrix algebras."""

__version__ = "0.1.0"

from .algebra import (AlgebraSpec, Operator, Projection, compressed_norm,
                      hermitian_decompose, one_sided_norm)
from .convergence import (NormSpec, au_witness, bau_witness,
                          besicovitch_experiment, mean_ergodic_check,
                          trajectory)
from .dynamics import (Channel, channel_from_spec, compose, convex_combine,
                       ergodic_averages, fixed_point,
                       identity_channel, kraus_channel, linear_combine,
                       pinching, random_kraus_channel, random_substochastic,
                       random_unitary_mixture, rotated_fixed_point,
                       scale_channel, schur_multiplier, substochastic,
                       unitary_conjugation, verify_ds)
from .funcspace import StepFunction, boyd_estimate, dilation, rearrangement
from .maximal import (WitnessReport, WitnessSearchFailure, check_witness,
                      hopf_witness_commutative, is_found, kadison_check,
                      lp_witness, one_sided_witness, weighted_witness,
                      yeadon_witness_search)
from .ncnorms import (SingularFunction, lorentz_norm, lp_norm,
                      measure_distance, neighborhood_membership,
                      projection_lorentz_norm, singular_function,
                      submajorization_integral, submajorizes)
from .spectral import (SpectralDecomposition, abs_value, eigh,
                       projection_complement, projection_meet,
                       spectral_cutoff, spectral_projection)
from .weights import TrigPolynomial, WeightSequence, besicovitch_deviation

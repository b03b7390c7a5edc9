"""Ergodic averages, maximal-inequality witnesses and symmetric norms on
finite tracial matrix algebras."""

__version__ = "0.1.0"

from .algebra import AlgebraSpec, Operator, Projection, hermitian_decompose
from .convergence import (NormSpec, au_witness, bau_witness,
                          besicovitch_experiment, condition_iii, trajectory)
from .dynamics import (Channel, channel_from_spec, compose, convex_combine,
                       ergodic_averages, fixed_point,
                       identity_channel, kraus_channel,
                       pinching, random_kraus_channel, random_substochastic,
                       random_unitary_mixture, rotated_fixed_point,
                       scale_channel, schur_multiplier, substochastic,
                       unitary_conjugation, verify_ds)
from .funcspace import boyd_estimate
from .maximal import (CheckerStacks, WitnessReport, check_witness,
                      hopf_witness_commutative, one_sided_witness,
                      weighted_witness, yeadon_witness_search)
from .ncnorms import (SingularFunction, lorentz_norm, lp_norm,
                      projection_lorentz_norm, singular_function)
from .spectral import SpectralDecomposition, eigh, projection_meet
from .weights import TrigPolynomial, WeightSequence, besicovitch_deviation

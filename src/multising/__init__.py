"""Thermodynamics of the multiplicative Ising model and its layer-unique
generalizations: exact transfer-matrix computations, weighted layer series
for free energies / entropies / pressures, Legendre-transform rate functions,
and a reproducible Monte Carlo harness."""

from .arith import PrimeBasis, Region, WeightSeries, kie_weights, layer_partition
from .errors import InfeasibleSizeError, ObservableSyntaxError, PreconditionError
from .gibbs import (
    CylinderSpec,
    SampleBatch,
    check_mult_invariance,
    cylinder_logprob_sigma,
    free_energy,
    ks_entropy,
    sample,
    smb_estimate,
)
from .ising1d import ModelParams, TransferData, log_partition, transfer
from .ldp import RateCurve, ScgfCurve, clt_variance, legendre, rate_curve, scgf, scgf_curve
from .multiprime import kie_pressure, region_pressure
from .observables import FirstLayerObservable, Observable, extend_observable, to_first_layer

__version__ = "0.1.0"

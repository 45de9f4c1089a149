"""Numerical library for convolution-kernel summability methods on the half-line."""

from .config import DEFAULT, Settings, load_settings
from .corpus import builtin_corpus, corpus_map, method_catalog
from .engine import (MethodDescriptor, Status, SummationResult, TestFunction,
                     TrigPolynomial, Variant, apply_dual, apply_forward,
                     discrete_cesaro, embed_sequence, estimate_limit, k_estimator,
                     method_Mr, method_holder)
from .errors import (ConfigError, DegenerateKernel, FlavorMismatch, HalfsumError,
                     InvalidArgument, InvalidKernel, QuadratureFailed,
                     TransformFailed)
from .kernels import (Flavor, Kernel, convolve, counterexample_additive,
                      counterexample_multiplicative, exponential, finite_mixture,
                      from_catalog, normalize, parse_kernel_arg, power, power_law,
                      sampled_kernel, to_additive)
from .spectrum import classify_wiener, fourier_transform, mellin_transform

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]

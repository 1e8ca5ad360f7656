"""Qubit relaxation mediated by a resonantly driven, damped Duffing oscillator.

The library computes, for a qubit coupled to a bifurcation-amplifier-style
nonlinear oscillator latched in one of its forced-vibration states:

- the steady states (attractors) and their bistability window,
- the quadrature fluctuation spectra around an attractor, with the
  quasienergy resonance structure,
- golden-rule qubit decay/excitation rates, Bloch-Redfield times, and the
  effective qubit temperature, in the resonant, two-quantum, nonresonant,
  and linear-coupling regimes.

Each public name is declared once, in the ``__all__`` of the module that
defines it; the package re-exports those four lists.
"""

from . import attractors, fluctuations, model, rates
from .attractors import *
from .fluctuations import *
from .model import *
from .rates import *

__version__ = "0.1.0"

__all__ = [*attractors.__all__, *fluctuations.__all__, *model.__all__, *rates.__all__]

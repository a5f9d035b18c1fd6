"""AFDM chirp-waveform compressed sensing of doubly sparse channels."""

from .daft_core import *
from .channel import *
from .sensing_model import *
from .hihtp import *
from .subnyquist import *
from .harness import *

__version__ = "0.1.0"

"""Complex zeros of the parabolic cylinder function U(a,z)."""

from .chain import (ZeroRecord, displace, first_zero_estimate,  # noqa: F401
                    fixed_point_T, refine_first_zero, run_chain,
                    verify_zeros)
from .config import DEFAULT_CONFIG  # noqa: F401
from .errors import (ConvergenceError, HermiteParameterError,  # noqa: F401
                     PcfZerosError, RegionError, StepFailureError,
                     TruncationWarning, TurningPointError)
from .pcf import PcfValue, evaluate  # noqa: F401
from .scaled import ScaledValue  # noqa: F401

__version__ = "0.1.0"

"""Exact q-series toolkit for verifying congruences of overcubic partition
k-tuples and related families."""

__version__ = "0.1.0"

from .series import TruncatedSeries, add, mul, reduce_mod  # noqa: F401
from .etaq import FMonomial, cotron_check, expand  # noqa: F401
from .dissect import IdentityClaim, extract_progression, verify_identity  # noqa: F401
from .congruence import CongruenceClaim, run_suites, scan, verify_congruence  # noqa: F401
from .certify import RaduCertificate, verify_certificate  # noqa: F401
from .catalogs import Family, load_certificate  # noqa: F401
from .density import DensityReport, compute_density, exception_structure_check  # noqa: F401

"""Exact q-series toolkit for verifying congruences of overcubic partition
k-tuples and related families."""

__version__ = "0.1.0"

from .series import (  # noqa: F401
    TruncatedSeries,
    add,
    dilate,
    equal_to_order,
    inv,
    mul,
    power,
    reduce_mod,
    shift,
)
from .etaq import FMonomial, cotron_check, expand, phi, psi, sellers_product  # noqa: F401
from .dissect import IdentityClaim, extract_progression, interleave, verify_identity  # noqa: F401
from .congruence import CongruenceClaim, run_suites, scan, verify_congruence  # noqa: F401
from .certify import RaduCertificate, verify_certificate  # noqa: F401
from .catalogs import Family, load_certificate  # noqa: F401
from .density import DensityReport, compute_density, exception_structure_check  # noqa: F401

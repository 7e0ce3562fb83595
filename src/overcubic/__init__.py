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
from .etaq import (  # noqa: F401
    Family,
    FMonomial,
    cotron_check,
    expand,
    family_monomial,
    phi,
    psi,
    sellers_product,
)
from .dissect import IdentityClaim, extract_progression, interleave, verify_identity  # noqa: F401
from .congruence import CongruenceClaim, run_suites, scan, verify_congruence  # noqa: F401
from .certify import RaduCertificate, verify_certificate  # noqa: F401
from .catalogs import load_certificate  # noqa: F401
from .density import DensityReport, compute_density, exception_structure_check  # noqa: F401

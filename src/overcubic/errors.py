"""Exception types shared across the package."""


class QSeriesError(Exception):
    """Base class for all package-specific errors."""


class NonUnitLeadingCoefficient(QSeriesError):
    """Inversion requires the lowest-order coefficient to be +1 or -1."""


class InsufficientPrecision(QSeriesError):
    """An operation asked for coefficients beyond the trusted truncation order."""


class NegativeValuation(QSeriesError):
    """Progression extraction is only defined for series without a principal part."""


class NonIntegerWeight(QSeriesError):
    """The lacunarity criterion applies to integer-weight eta quotients only."""


class UnsupportedBasis(QSeriesError):
    """Certificate verification supports only the singleton basis {1}."""


class CapExceeded(QSeriesError):
    """Enumeration was asked for an n above oracle.MAX_N."""


class UnsupportedModulus(QSeriesError):
    """The residue path covers moduli up to 2^63 whose odd part is at most 2^15."""

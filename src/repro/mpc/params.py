"""Security and protocol parameters (Section 4 and 8.2).

The paper's experiments use computational security ``kappa = 128``,
statistical security ``sigma = 40``, and annotation bit-length ``ell = 32``.
The cuckoo-hash expansion factor ``B = 1.27 * M`` comes from footnote 3.
Only ``ell`` (a query's ring width) is a setting; the rest are
constants, fixed by the wire formats both execution modes send.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = [
    "CUCKOO_EXPANSION",
    "CUCKOO_HASHES",
    "DEFAULT_PARAMS",
    "KAPPA",
    "SIGMA",
    "SecurityParams",
]

#: Computational security parameter (bit-length of wire labels / keys).
KAPPA = 128
#: Statistical security parameter (failure / distinguishing bound 2^-sigma).
SIGMA = 40
#: Cuckoo hash table expansion: number of bins per inserted element.
CUCKOO_EXPANSION = 1.27
#: Number of cuckoo hash functions (the PSI protocol of [27] uses 3).
CUCKOO_HASHES = 3


@dataclass(frozen=True)
class SecurityParams:
    """Parameters shared by every protocol in a session."""

    #: Bit-length of semiring annotations.
    ell: int = 32

    @property
    def modulus(self) -> int:
        return 1 << self.ell


DEFAULT_PARAMS = SecurityParams()

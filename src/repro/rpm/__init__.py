"""The RPM engine: EVR version comparison, package model, installed-package
database, and atomic transactions.

Everything XNIT does rides on this layer — "XNIT is based on the Yum
repository for installation or updates of RPMs" (Section 1).
"""

from .database import RpmDatabase
from .package import Capability, Flag, Package, ProvidesIndex, Requirement
from .specfile import build_spec, parse_spec
from .transaction import Transaction, TransactionResult
from .version import EVR, compare_evr, parse_evr, rpmvercmp

__all__ = [
    "rpmvercmp",
    "EVR",
    "parse_evr",
    "compare_evr",
    "Package",
    "Capability",
    "Requirement",
    "Flag",
    "ProvidesIndex",
    "RpmDatabase",
    "Transaction",
    "TransactionResult",
    "parse_spec",
    "build_spec",
]

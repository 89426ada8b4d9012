"""Base-10 prime reciprocal sequences: digits, classification, rule checks.

The decimal expansion of 1/p is periodic for every prime p other than 2
and 5.  This package computes those digit sequences directly from modular
residues, aggregates digit frequencies over prime ranges, classifies primes
by period length and last digit, and verifies a catalog of structural rules
the frequency tables obey.

Importing the package imports none of its modules: each name below, and
each module, is imported on first use (PEP 562), so a command pays only for
the modules it runs.
"""
from importlib import import_module

__version__ = "0.1.0"

# The module that defines each public name.
_SOURCES = {
    "sequence": ("EVEN", "ODD", "FULL", "HALF", "OTHER", "PRIME_CAP", "ClassKey",
                 "DigitHistogram", "ReciprocalSpec", "digit_prefix", "histogram",
                 "l_multiplier", "long_division_digits"),
    "census": ("ParityCell", "ParityScanReport", "batch_records", "census_primes",
               "class_census", "classify", "global_digit_census",
               "third_digit_parity_scan"),
    "invariants": ("HARD", "SOFT", "RULE_IDS", "RuleReport", "RuleStats",
                   "VerificationSummary", "applicable_rule", "check_histogram",
                   "verify_range"),
    "numtheory": ("factorize", "is_prime", "multiplicative_order", "sieve_primes"),
    "store": ("CacheCorruptionError", "CacheRecord", "ResultCache"),
    "tables": ("TABLE_KEYS", "TABLE_PRIMES", "table_rows"),
}
_MODULE_OF = {name: module for module, names in _SOURCES.items() for name in names}

__all__ = list(_MODULE_OF)


def __getattr__(name: str):
    if name in _SOURCES:
        return import_module(f".{name}", __name__)
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{_MODULE_OF[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__, *_SOURCES})

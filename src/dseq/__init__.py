"""Base-10 prime reciprocal sequences: digits, classification, rule checks.

The decimal expansion of 1/p is periodic for every prime p other than 2
and 5.  This package computes those digit sequences directly from modular
residues, aggregates digit frequencies over prime ranges, classifies primes
by period length and last digit, and verifies a catalog of structural rules
the frequency tables obey.
"""
from .census import (
    EVEN,
    FULL,
    HALF,
    ODD,
    OTHER,
    ClassKey,
    ParityCell,
    ParityScanReport,
    batch_records,
    census_primes,
    class_census,
    classify,
    global_digit_census,
    third_digit_parity_scan,
)
from .invariants import (
    HARD,
    RULE_IDS,
    SOFT,
    STRONG,
    RuleReport,
    RuleStats,
    VerificationSummary,
    applicable_rule,
    check_histogram,
    verify_range,
)
from .numtheory import (
    Factorization,
    factorize,
    is_prime,
    multiplicative_order,
    sieve_primes,
)
from .sequence import (
    PRIME_CAP,
    DigitHistogram,
    ReciprocalSpec,
    digit_prefix,
    histogram,
    l_multiplier,
    long_division_digits,
)
from .store import CacheCorruptionError, CacheRecord, ResultCache
from .tables import TABLE_KEYS, TABLE_PRIMES, table_rows

__version__ = "0.1.0"

__all__ = [
    "EVEN",
    "ODD",
    "FULL",
    "HALF",
    "OTHER",
    "HARD",
    "STRONG",
    "SOFT",
    "PRIME_CAP",
    "RULE_IDS",
    "TABLE_KEYS",
    "TABLE_PRIMES",
    "CacheCorruptionError",
    "CacheRecord",
    "ClassKey",
    "DigitHistogram",
    "Factorization",
    "ParityCell",
    "ParityScanReport",
    "ReciprocalSpec",
    "ResultCache",
    "RuleReport",
    "RuleStats",
    "VerificationSummary",
    "applicable_rule",
    "batch_records",
    "census_primes",
    "check_histogram",
    "class_census",
    "classify",
    "digit_prefix",
    "factorize",
    "global_digit_census",
    "histogram",
    "is_prime",
    "l_multiplier",
    "long_division_digits",
    "multiplicative_order",
    "sieve_primes",
    "table_rows",
    "third_digit_parity_scan",
    "verify_range",
]

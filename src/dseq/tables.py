"""Fixed prime panels for the eight half-length classes.

Eight numbered panels, one per (last digit, tens-digit parity) cell, each
holding five primes for each tens digit of that parity, spanning roughly
10^2 to 10^6.  Only the primes are pinned here; their digit counts are
always recomputed.
"""
from __future__ import annotations

from .census import EVEN, HALF, ODD, ClassKey, class_census
from .store import CacheRecord, ResultCache

__all__ = ["TABLE_KEYS", "TABLE_PRIMES", "table_rows"]

TABLE_KEYS: dict[int, ClassKey] = {
    1: ClassKey(1, EVEN, HALF),
    2: ClassKey(1, ODD, HALF),
    3: ClassKey(3, EVEN, HALF),
    4: ClassKey(3, ODD, HALF),
    5: ClassKey(7, EVEN, HALF),
    6: ClassKey(7, ODD, HALF),
    7: ClassKey(9, EVEN, HALF),
    8: ClassKey(9, ODD, HALF),
}

TABLE_PRIMES: dict[int, tuple[int, ...]] = {
    1: (
        601, 3001, 84401, 473201, 965801,
        6121, 17321, 317921, 342521, 940721,
        5441, 22441, 166841, 394241, 924641,
        761, 73361, 104761, 371561, 899161,
        881, 5281, 42281, 309481, 989081,
    ),
    2: (
        911, 3511, 33311, 388111, 997511,
        631, 5231, 77431, 454031, 911831,
        151, 2351, 57751, 288551, 998951,
        1471, 23071, 76871, 597671, 996271,
        991, 9391, 27791, 347591, 878191,
    ),
    3: (
        2203, 5003, 64403, 431603, 996803,
        523, 5923, 92723, 354323, 954323,
        443, 7643, 49043, 382843, 844243,
        563, 8963, 19763, 498163, 950363,
        683, 6883, 27283, 233083, 985483,
    ),
    4: (
        5413, 49613, 89213, 235013, 914813,
        3533, 18133, 48733, 266333, 986933,
        653, 6053, 61253, 391453, 984853,
        373, 6173, 70573, 228773, 982973,
        293, 8093, 33493, 449693, 993893,
    ),
    5: (
        307, 5507, 17107, 195907, 953707,
        827, 2027, 23227, 139627, 963427,
        947, 5147, 33547, 197347, 995747,
        467, 3067, 25667, 313267, 992867,
        787, 5387, 16187, 330587, 995987,
    ),
    6: (
        2917, 14717, 74317, 243517, 999917,
        2437, 51637, 92237, 209837, 997037,
        557, 4157, 33757, 179957, 977357,
        877, 30677, 15077, 248477, 985277,
        197, 4597, 18397, 795997, 989797,
    ),
    7: (
        409, 3209, 17609, 194809, 974009,
        929, 4129, 24329, 254729, 996529,
        1049, 48449, 56249, 304849, 996649,
        569, 8969, 46769, 230369, 993169,
        2089, 30689, 76289, 602489, 990889,
    ),
    8: (
        919, 5519, 23719, 201119, 994319,
        839, 4639, 34439, 348239, 994039,
        359, 1759, 23159, 346559, 999959,
        479, 3079, 44279, 193679, 961879,
        599, 6199, 41399, 445799, 989999,
    ),
}


def table_rows(
    number: int,
    *,
    jobs: int = 1,
    cache: ResultCache | None = None,
) -> list[CacheRecord]:
    """Recomputed digit-frequency rows of panel `number` (1-8), in panel order."""
    if number not in TABLE_PRIMES:
        raise ValueError(f"table number must be 1..8, got {number}")
    return class_census(
        list(TABLE_PRIMES[number]), TABLE_KEYS[number], jobs=jobs, cache=cache
    )

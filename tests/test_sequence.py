from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dseq.numtheory import sieve_primes
from dseq.sequence import (
    PRIME_CAP,
    DigitHistogram,
    ReciprocalSpec,
    _full_length_counts,
    digit_prefix,
    histogram,
    l_multiplier,
    long_division_digits,
)

SMALL_PRIMES = [p for p in sieve_primes(2_000) if p not in (2, 5)]
prime_st = st.sampled_from(SMALL_PRIMES)


def test_l_multiplier_examples():
    assert l_multiplier(7) == 7
    assert l_multiplier(13) == 3
    assert l_multiplier(19) == 1
    assert l_multiplier(601) == 9
    with pytest.raises(ValueError):
        l_multiplier(2)
    with pytest.raises(ValueError):
        l_multiplier(5)
    with pytest.raises(ValueError):
        l_multiplier(9)


@given(prime_st)
def test_l_multiplier_identity(p):
    assert (l_multiplier(p) * p) % 10 == 9


def test_spec_for_prime():
    spec = ReciprocalSpec.for_prime(7)
    assert (spec.p, spec.l, spec.period) == (7, 7, 6)
    spec = ReciprocalSpec.for_prime(601)
    assert (spec.p, spec.l, spec.period) == (601, 9, 300)
    with pytest.raises(ValueError):
        ReciprocalSpec.for_prime(91)  # 7 * 13
    with pytest.raises(ValueError):
        ReciprocalSpec.for_prime(PRIME_CAP + 2)


def test_spec_validates_fields():
    with pytest.raises(ValueError):
        ReciprocalSpec(7, 3, 6)
    with pytest.raises(ValueError):
        ReciprocalSpec(7, 7, 4)


def test_digit_stream_examples():
    # one period of digits is the prefix of length T
    for p, digits in [(7, [1, 4, 2, 8, 5, 7]), (3, [3]), (13, [0, 7, 6, 9, 2, 3])]:
        spec = ReciprocalSpec.for_prime(p)
        assert list(digit_prefix(spec, spec.period)) == digits


def test_digit_prefix_examples():
    spec = ReciprocalSpec.for_prime(7)
    assert list(digit_prefix(spec, 0)) == []
    assert list(digit_prefix(spec, 8)) == [1, 4, 2, 8, 5, 7, 1, 4]
    with pytest.raises(ValueError):
        list(digit_prefix(spec, -1))


def test_long_division_examples():
    assert long_division_digits(7, 6) == [1, 4, 2, 8, 5, 7]
    assert long_division_digits(3, 4) == [3, 3, 3, 3]
    assert long_division_digits(601, 4) == [0, 0, 1, 6]


def test_histogram_examples():
    assert histogram(ReciprocalSpec.for_prime(601)).counts == (
        35, 28, 28, 31, 28, 28, 31, 28, 28, 35)
    assert histogram(ReciprocalSpec.for_prime(7)).counts == (
        0, 1, 1, 0, 1, 1, 0, 1, 1, 0)
    # odd period 455: every digit is counted, not half and a mirror
    assert histogram(ReciprocalSpec.for_prime(911)).total == 455


def test_histogram_paths_agree():
    # every kernel branch agrees with counting the stream: full length
    # (1021, 1033, ...), even period (1049, 1061) and odd period (1031, 1039)
    for p in [1021, 1031, 1033, 1039, 1049, 1051, 1061, 1063, 1069]:
        spec = ReciprocalSpec.for_prime(p)
        assert histogram(spec).counts == _counted(spec)


def _counted(spec):
    c = Counter(digit_prefix(spec, spec.period))
    return tuple(c.get(d, 0) for d in range(10))


def _long_division_counts(spec):
    c = Counter(long_division_digits(spec.p, spec.period))
    return tuple(c.get(d, 0) for d in range(10))


def test_histogram_equals_long_division_to_2e4():
    bad = []
    for p in sieve_primes(20_000):
        if p in (2, 5):
            continue
        spec = ReciprocalSpec.for_prime(p)
        if histogram(spec).counts != _long_division_counts(spec):
            bad.append(p)
    assert bad == []


@pytest.mark.parametrize("p, period", [
    (999983, 999982),  # full length: closed form
    (999979, 333326),  # other, even period: half and a mirror
    (999961, 124995),  # other, odd period
    (999883, 499941),  # half length, odd period
    (999917, 499958),  # half length, even period; the last lane stops early
    (998201, 499100),  # half length, even period; every lane takes all steps
])
def test_histogram_equals_long_division_near_1e6(p, period):
    spec = ReciprocalSpec.for_prime(p)
    assert spec.period == period
    assert histogram(spec).counts == _long_division_counts(spec)


@given(prime_st)
def test_histogram_matches_stream(p):
    spec = ReciprocalSpec.for_prime(p)
    assert histogram(spec).counts == _counted(spec)


@given(prime_st)
def test_histogram_covers_one_period(p):
    spec = ReciprocalSpec.for_prime(p)
    assert histogram(spec).total == spec.period


@settings(max_examples=30)
@given(prime_st, st.integers(1, 50))
def test_stream_is_periodic(p, i):
    spec = ReciprocalSpec.for_prime(p)
    digits = list(digit_prefix(spec, i + spec.period))
    assert digits[i - 1] == digits[i - 1 + spec.period]


@settings(max_examples=30)
@given(prime_st)
def test_formula_equals_long_division(p):
    spec = ReciprocalSpec.for_prime(p)
    n = min(spec.period, 200)
    assert list(digit_prefix(spec, n)) == long_division_digits(p, n)


HALF_LENGTH_PRIMES = [p for p in sieve_primes(20_000)
                      if p not in (2, 5) and 2 * ReciprocalSpec.for_prime(p).period == p - 1]


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(HALF_LENGTH_PRIMES))
def test_half_length_times_two_and_five_relations(p):
    # H = <10> is the subgroup of squares.  r -> 2r mod p maps the residues of
    # digits d and d+5 onto those of 2d and 2d+1 (d < 5), and r -> 5r mod p maps
    # the residues of even digits onto those below p/2.  2H and 5H are H when
    # 5 is a square, that is when p ends in 1 or 9, and the non-squares, which
    # digit e has N_p(e) - f(e) of, otherwise.
    f = _long_division_counts(ReciprocalSpec.for_prime(p))
    n_p = _full_length_counts(p)
    h = f if p % 10 in (1, 9) else tuple(n - c for n, c in zip(n_p, f))
    assert [f[d] + f[d + 5] for d in range(5)] == [h[2 * d] + h[2 * d + 1] for d in range(5)]
    assert sum(f[0::2]) == sum(h[:5])


def test_kernel_exact_at_prime_cap():
    # residues near 2**31 make the kernel's uint64 products approach 2**62
    from dseq.counting import _count_batch

    n = 3 * 2**13 + 5  # several steps, and lanes of unequal length
    c = Counter(long_division_digits(PRIME_CAP, n))
    assert _count_batch([(PRIME_CAP, n)]) == [[c.get(d, 0) for d in range(10)]]


def test_histogram_type():
    with pytest.raises(ValueError):
        DigitHistogram((1, 2, 3))
    with pytest.raises(ValueError):
        DigitHistogram((0,) * 9 + (-1,))
    assert DigitHistogram((1,) * 10).total == 10
    assert DigitHistogram((0,) * 10).total == 0


def _oracle_counts(p, n):
    c = Counter(long_division_digits(p, n))
    return [c.get(d, 0) for d in range(10)]


PRIMES_TO_2E4 = [p for p in sieve_primes(20_000) if p not in (2, 5)]


@settings(max_examples=40, deadline=None)
@given(st.lists(st.tuples(st.sampled_from(PRIMES_TO_2E4), st.integers(0, 3000)),
                min_size=1, max_size=20),
       st.data())
def test_batched_kernel_equals_long_division(pairs, data):
    # whatever the order of the pairs and however they are cut into batches
    from dseq.counting import _count_batch

    expected = {pair: _oracle_counts(*pair) for pair in pairs}
    order = data.draw(st.permutations(pairs), label="order")
    cuts = sorted(data.draw(st.sets(st.integers(1, len(order) - 1) if len(order) > 1
                                    else st.nothing()), label="cuts"))
    batches = [order[i:j] for i, j in zip([0, *cuts], [*cuts, len(order)])]
    for batch in batches:
        assert _count_batch(batch) == [expected[pair] for pair in batch]


def test_batch_mixes_prime_cap_with_small_primes():
    # one batch: lanes of PRIME_CAP, whose digit count is no multiple of 3 or of
    # its lane length, beside primes whose digits fill less than one step
    from dseq.counting import _count_batch

    pairs = [(3, 7), (PRIME_CAP, 3 * 2**13 + 5), (7, 1), (11, 2), (13, 0), (PRIME_CAP, 4),
             (2147483629, 3 * 2**12 + 1), (97, 96)]
    assert _count_batch(pairs) == [_oracle_counts(p, n) for p, n in pairs]


def test_batch_above_the_lane_and_prime_caps():
    # more primes than one batch takes, with more steps than it has lanes; the
    # full-length primes among them take the closed form, not the kernel
    from dseq import counting

    primes = PRIMES_TO_2E4[200:200 + 2 * counting._BATCH_PRIMES + 7]
    specs = [ReciprocalSpec.for_prime(p) for p in primes]
    pairs = [(s.p, s.period // 2 if s.period % 2 == 0 else s.period)
             for s in specs if s.period != s.p - 1]
    assert len(pairs) > counting._BATCH_PRIMES
    assert sum(n // 3 for _, n in pairs[:counting._BATCH_PRIMES]) > 2 * counting._LANES
    assert counting._count_batch(pairs) == [_oracle_counts(p, n) for p, n in pairs]
    expected = [_long_division_counts(s) for s in specs]
    assert counting.lane_counts(specs) == expected
    assert counting.period_counts(specs) == expected
    assert [histogram(s).counts for s in specs] == expected


def test_kernel_memory_does_not_grow_with_the_digits():
    # tracemalloc sees numpy's buffers, so this bounds the kernel's traced
    # allocations (not the process RSS) while it counts 10^6 digits near the cap
    import tracemalloc

    from dseq.counting import _count_batch

    _count_batch([(PRIME_CAP, 10)])  # numpy imported and warmed up, outside the trace
    tracemalloc.start()
    try:
        [counts] = _count_batch([(PRIME_CAP, 10**6)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sum(counts) == 10**6
    assert peak < 2 * 2**20

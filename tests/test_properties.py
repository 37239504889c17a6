"""Property-based tests (hypothesis) on core data structures and invariants."""

import itertools

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.frontend.btb import (
    BranchTargetBuffer,
    btb_stack_histogram,
    retargeted_lookups,
)
from repro.frontend.icache import InstructionCache, line_stack_histogram, line_stream
from repro.frontend.stack_distance import MIN_STACK_DEPTH, lru_stack_distances
from repro.frontend.predictors import (
    BimodalPredictor,
    BranchPredictor,
    GsharePredictor,
    LoopPredictor,
    TagePredictor,
    TournamentPredictor,
    make_predictor,
)
from repro.frontend.predictors.base import SaturatingCounter
from repro.frontend.predictors.factory import PREDICTOR_BUDGETS, PREDICTOR_KINDS
from repro.workloads.synthesis import _Diffuser

addresses = st.integers(min_value=0x400000, max_value=0x4FFFFF).map(lambda a: a & ~0x3)
outcome_streams = st.lists(
    st.tuples(addresses, st.booleans()), min_size=1, max_size=300
)


@given(st.integers(min_value=0, max_value=3), st.booleans())
def test_saturating_counter_stays_in_range(value, taken):
    updated = SaturatingCounter.update(value, taken)
    assert 0 <= updated <= 3
    assert abs(updated - value) <= 1


@given(st.lists(st.floats(min_value=0.0, max_value=5.0), min_size=1, max_size=200))
def test_diffuser_total_tracks_expectations(expectations):
    diffuser = _Diffuser(0.0)
    realised = sum(diffuser.take(e) for e in expectations)
    assert abs(realised - sum(expectations)) < 1.0


@settings(max_examples=30, deadline=None)
@given(outcome_streams)
def test_predictors_accept_any_outcome_stream(stream):
    predictors = [
        BimodalPredictor(entries=256),
        GsharePredictor(history_bits=10),
        TournamentPredictor(local_index_bits=8, history_bits=8),
        TagePredictor(num_tables=2, entries_per_table=64, max_history=16),
        LoopPredictor(),
    ]
    for predictor in predictors:
        for address, taken in stream:
            prediction = predictor.predict(address)
            assert isinstance(prediction, bool)
            predictor.update(address, taken)
        assert predictor.storage_bits() > 0


@settings(max_examples=30, deadline=None)
@given(outcome_streams)
def test_perfectly_biased_streams_are_eventually_predicted(stream):
    predictor = BimodalPredictor(entries=4096)
    mispredictions = 0
    for address, _ in stream:
        if not predictor.predict(address):
            mispredictions += 1
        predictor.update(address, True)
    # At most a couple of cold mispredictions per distinct address.
    distinct = len({address for address, _ in stream})
    assert mispredictions <= 2 * distinct


@settings(max_examples=30, deadline=None)
@given(
    st.lists(addresses, min_size=1, max_size=200),
    st.sampled_from([64, 128, 256]),
    st.sampled_from([2, 4]),
)
def test_btb_miss_count_never_exceeds_lookups(branches, entries, associativity):
    btb = BranchTargetBuffer(entries=entries, associativity=associativity)
    for address in branches:
        btb.access(address, address + 64)
    assert 0 <= btb.misses <= btb.lookups == len(branches)
    assert 0.0 <= btb.miss_rate <= 1.0


@settings(max_examples=30, deadline=None)
@given(st.lists(addresses, min_size=1, max_size=200))
def test_btb_is_deterministic(branches):
    first = BranchTargetBuffer(entries=128, associativity=4)
    second = BranchTargetBuffer(entries=128, associativity=4)
    hits_first = [first.access(a, a + 8) for a in branches]
    hits_second = [second.access(a, a + 8) for a in branches]
    assert hits_first == hits_second


@settings(max_examples=30, deadline=None)
@given(
    st.lists(st.tuples(addresses, st.integers(min_value=1, max_value=256)),
             min_size=1, max_size=150),
    st.sampled_from([32, 64, 128]),
)
def test_icache_misses_bounded_by_accesses(fetches, line_bytes):
    cache = InstructionCache(size_bytes=8 * 1024, line_bytes=line_bytes, associativity=4)
    for address, size in fetches:
        cache.fetch_range(address, size)
    assert 0 <= cache.misses <= cache.accesses
    assert 0.0 <= cache.miss_rate <= 1.0


@settings(max_examples=20, deadline=None)
@given(st.lists(st.tuples(addresses, st.integers(min_value=1, max_value=256)),
                min_size=1, max_size=100))
def test_larger_icache_never_misses_more(fetches):
    small = InstructionCache(size_bytes=4 * 1024, line_bytes=64, associativity=4)
    large = InstructionCache(size_bytes=32 * 1024, line_bytes=64, associativity=8)
    small_misses = sum(small.fetch_range(a, s) for a, s in fetches)
    large_misses = sum(large.fetch_range(a, s) for a, s in fetches)
    assert large_misses <= small_misses


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=2, max_value=60), st.integers(min_value=2, max_value=12))
def test_loop_predictor_learns_any_constant_trip_count(trip, repetitions):
    predictor = LoopPredictor()
    address = 0x400100
    for _ in range(repetitions):
        for iteration in range(trip):
            predictor.update(address, iteration < trip - 1)
    if repetitions >= predictor.CONFIDENCE_THRESHOLD + 1:
        assert predictor.is_confident(address)
        assert predictor.predict(address) is True


# -- batch predictor paths against the scalar protocol -------------------


@st.composite
def conditional_streams(draw):
    """Loop latches among body branches that repeat a few PCs.

    Each loop execution takes its latch ``trip - 1`` times, then falls
    through once.  A constant loop keeps one trip count, long enough for
    the loop predictor to grow confident; a varying one draws a new trip
    count per execution.  Body branches take random outcomes, and their
    PCs come from the latches' pool, so they share loop-table slots and
    sometimes a latch's PC.
    """
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    pcs = st.integers(min_value=0, max_value=127).map(lambda i: 0x400000 + 4 * i)
    branches = []
    for _ in range(draw(st.integers(min_value=1, max_value=3))):
        latch = draw(pcs)
        constant = draw(st.booleans())
        trip = draw(st.integers(min_value=1, max_value=6))
        body = draw(st.lists(pcs, max_size=3))
        for _ in range(draw(st.integers(min_value=1, max_value=12))):
            if not constant:
                trip = int(rng.integers(1, 7))
            for iteration in range(trip):
                outcomes = rng.random(len(body)) < 0.5
                branches += [(pc, pc + 64, bool(t)) for pc, t in zip(body, outcomes)]
                branches.append((latch, latch - 64, iteration < trip - 1))
    addresses, targets, taken = (np.array(column) for column in zip(*branches))
    return addresses, taken, targets


@settings(max_examples=25, deadline=None)
@given(conditional_streams())
def test_batch_predictors_match_the_scalar_protocol(stream):
    addresses, taken, targets = stream
    for kind, budget, with_loop in itertools.product(
        PREDICTOR_KINDS, PREDICTOR_BUDGETS, (False, True)
    ):
        batch = make_predictor(kind, budget, with_loop).simulate_sequence(
            addresses, taken, targets
        )
        scalar = BranchPredictor.simulate_sequence(
            make_predictor(kind, budget, with_loop), addresses, taken, targets
        )
        assert batch.tolist() == scalar.tolist(), (kind, budget, with_loop)


# -- stack-distance kernels against the reference simulators -------------


def stack_distances_by_definition(keys, num_sets, depth):
    """Each access's distinct same-set keys since its key's previous access.

    Capped at ``depth``; a cold key (no previous access) is at ``depth``.
    """
    set_mask = num_sets - 1
    distances = []
    for index, key in enumerate(keys):
        since = set()
        for earlier in reversed(keys[:index]):
            if earlier == key:
                distances.append(min(len(since), depth))
                break
            if earlier & set_mask == key & set_mask:
                since.add(earlier)
        else:
            distances.append(depth)
    return distances


@st.composite
def keyed_streams(draw):
    """A set count plus bursts of keys from up to 16 of its sets.

    Each burst repeats one key, so after its first access the key is its
    set's most recently used; bursts of different sets interleave, so in
    set order such re-accesses sit next to each other.
    """
    num_sets = 1 << draw(st.integers(min_value=0, max_value=11))
    used_sets = draw(
        st.lists(
            st.integers(min_value=0, max_value=num_sets - 1),
            min_size=1,
            max_size=16,
            unique=True,
        )
    )
    keys = st.builds(
        lambda set_index, tag: tag * num_sets + set_index,
        st.sampled_from(used_sets),
        st.integers(min_value=0, max_value=24),
    )
    bursts = draw(
        st.lists(st.tuples(keys, st.integers(min_value=1, max_value=4)), max_size=80)
    )
    stream = [key for key, repeats in bursts for _ in range(repeats)]
    return num_sets, np.array(stream, dtype=np.int64)


@settings(max_examples=200, deadline=None)
@given(keyed_streams(), st.integers(min_value=1, max_value=20))
def test_lru_stack_distances_match_their_definition(stream, depth):
    num_sets, keys = stream
    distances = lru_stack_distances(keys, num_sets, depth)
    assert distances.dtype == np.int64
    assert distances.tolist() == stack_distances_by_definition(
        keys.tolist(), num_sets, depth
    )


set_counts = st.integers(min_value=0, max_value=10).map(lambda bits: 1 << bits)


@st.composite
def fetch_streams(draw):
    """A geometry plus byte ranges that crowd a few sets at that geometry."""
    line_bytes = draw(st.sampled_from([32, 64, 128]))
    num_sets = draw(set_counts)
    # Lines from four sets and a couple of dozen tags, so every geometry
    # sees hits, capacity misses and conflicts.
    lines = st.builds(
        lambda set_index, tag: tag * num_sets + set_index,
        st.integers(min_value=0, max_value=3),
        st.integers(min_value=0, max_value=24),
    )
    fetches = draw(
        st.lists(
            st.tuples(
                lines,
                st.integers(min_value=0, max_value=line_bytes - 1),
                st.integers(min_value=1, max_value=3 * line_bytes),
            ),
            min_size=1,
            max_size=200,
        )
    )
    starts = np.array([line * line_bytes + offset for line, offset, _ in fetches])
    sizes = np.array([size for _, _, size in fetches])
    return line_bytes, num_sets, starts, sizes


@settings(max_examples=60, deadline=None)
@given(fetch_streams(), st.integers(min_value=1, max_value=16))
def test_icache_stack_histogram_matches_reference(stream, capped_ways):
    line_bytes, num_sets, starts, sizes = stream
    histogram = line_stack_histogram(starts, sizes, line_bytes, num_sets, MIN_STACK_DEPTH)
    capped = line_stack_histogram(starts, sizes, line_bytes, num_sets, capped_ways)
    for ways in range(1, MIN_STACK_DEPTH + 1):
        cache = InstructionCache(num_sets * ways * line_bytes, line_bytes, ways)
        assert histogram.misses(ways) == cache.fetch_ranges(starts, sizes)
        assert histogram.accesses == cache.accesses
        if ways == capped_ways:
            assert capped.misses(ways) == cache.misses
            assert capped.accesses == cache.accesses


@st.composite
def branch_streams(draw):
    """A set count plus taken branches that repeat PCs and change targets."""
    num_sets = draw(set_counts)
    pcs = st.builds(
        lambda set_index, tag: tag * num_sets + set_index,
        st.integers(min_value=0, max_value=3),
        st.integers(min_value=0, max_value=24),
    )
    branches = draw(
        st.lists(
            st.tuples(
                pcs,
                # The low two address bits alias one PC, as in hardware.
                st.integers(min_value=0, max_value=3),
                st.integers(min_value=0, max_value=3),
            ),
            min_size=1,
            max_size=200,
        )
    )
    addresses = np.array([pc * 4 + low for pc, low, _ in branches])
    targets = np.array([0x500000 + 64 * target for _, _, target in branches])
    return num_sets, addresses, targets


@settings(max_examples=60, deadline=None)
@given(branch_streams(), st.sampled_from([1, 2, 4, 8, 16]))
def test_btb_stack_histogram_matches_reference(stream, capped_ways):
    num_sets, addresses, targets = stream
    retargeted = retargeted_lookups(addresses, targets)
    histogram = btb_stack_histogram(addresses, retargeted, num_sets, MIN_STACK_DEPTH)
    capped = btb_stack_histogram(addresses, retargeted, num_sets, capped_ways)
    for ways in (1, 2, 4, 8, 16):
        misses = BranchTargetBuffer(num_sets * ways, ways).access_sequence(
            addresses, targets
        )
        assert histogram.misses(ways) == misses
        assert histogram.accesses == len(addresses)
        if ways == capped_ways:
            assert capped.misses(ways) == misses


@settings(max_examples=150, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.integers(min_value=0x400000, max_value=0x400400),
            st.integers(min_value=-3, max_value=299),
        ),
        max_size=40,
    ),
    st.sampled_from([16, 32, 64, 128]),
)
def test_line_stream_is_the_compressed_full_expansion(ranges, line_bytes):
    """Expanding only line changes loses no change and no access."""
    expanded = []
    for start, size in ranges:
        if size > 0:
            expanded.extend(
                range(start // line_bytes, (start + size - 1) // line_bytes + 1)
            )
    changes = [
        line
        for index, line in enumerate(expanded)
        if index == 0 or line != expanded[index - 1]
    ]
    starts = np.array([start for start, _ in ranges], dtype=np.int64)
    sizes = np.array([size for _, size in ranges], dtype=np.int64)
    lines, total_accesses = line_stream(starts, sizes, line_bytes)
    assert total_accesses == len(expanded)
    assert lines.dtype == np.int64
    assert lines.tolist() == changes

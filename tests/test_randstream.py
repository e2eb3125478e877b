import hashlib
import math
import random
import statistics

from hypothesis import given
from hypothesis import strategies as st

from syncsim import attacks, randstream
from syncsim.attacks import AttackSpec
from syncsim.clocks import ClockParameters, SoftwareClock
from syncsim.netview import NetworkView
from syncsim.topology import FailureModel, NetworkGraph, NodeSpec

key_parts = st.lists(
    st.one_of(st.integers(-2**40, 2**40), st.text(max_size=8),
              st.floats(allow_nan=False, allow_infinity=False)),
    min_size=1, max_size=4)


def uniform(seed, *key):
    """The reference uniform draw in [0, 1): the top 53 bits of u64."""
    return (randstream.u64(seed, *key) >> 11) / 2.0**53


def bernoulli(seed, probability, *key):
    """The reference Bernoulli draw: uniform below p; p=0 never and p=1
    always, without a draw."""
    if probability <= 0.0:
        return False
    if probability >= 1.0:
        return True
    return uniform(seed, *key) < probability


def gaussian(seed, sigma, *key):
    """The reference normal draw: Box-Muller of u64 of key + (0,) and of
    key + (1,)."""
    if sigma == 0.0:
        return 0.0
    u1 = (randstream.u64(seed, *key, 0) + 1) / 2.0**64
    u2 = randstream.u64(seed, *key, 1) / 2.0**64
    return sigma * math.sqrt(-2.0 * math.log(u1)) * math.cos(2.0 * math.pi * u2)


@given(st.integers(0, 2**64 - 1), key_parts)
def test_draws_are_deterministic(seed, key):
    assert randstream.u64(seed, *key) == randstream.u64(seed, *key)
    assert randstream.unit(randstream.u64(seed, *key)) == uniform(seed, *key)


@given(st.integers(0, 2**32), key_parts)
def test_uniform_range(seed, key):
    u = randstream.unit(randstream.u64(seed, *key))
    assert 0.0 <= u < 1.0


def test_key_parts_are_not_ambiguous():
    # one string vs two strings that concatenate the same must differ
    assert randstream.u64(1, "ab", "c") != randstream.u64(1, "a", "bc")
    assert randstream.u64(1, 12) != randstream.u64(1, "12")
    assert randstream.u64(1, (1, 2)) != randstream.u64(1, 1, 2)


def test_seed_changes_stream():
    values = {randstream.u64(seed, "x", 3) for seed in range(32)}
    assert len(values) == 32


def test_bernoulli_extremes():
    prefix = randstream.stream(3, "k")
    assert randstream.draw_bernoulli(prefix, 0.0) is False
    assert randstream.draw_bernoulli(prefix, 1.0) is True
    assert randstream.draw_bernoulli(prefix, 0.0, 1, "m") is False
    assert randstream.draw_bernoulli(prefix, 1.0, 1, "m") is True


def test_bernoulli_frequency():
    prefix = randstream.stream(9, "flip")
    flips = [randstream.draw_bernoulli(prefix, 0.3, i) for i in range(100_000)]
    assert flips[:100] == [bernoulli(9, 0.3, "flip", i) for i in range(100)]
    assert abs(sum(flips) / 100_000 - 0.3) < 0.01


def test_gaussian_zero_sigma_is_exactly_zero():
    assert randstream.draw_gaussian(randstream.stream(5, "n"), 0.0, 1) == 0.0


def test_gaussian_moments():
    sigma = 1e-9
    prefix = randstream.stream(11, "noise")
    samples = [randstream.draw_gaussian(prefix, sigma, i) for i in range(100_000)]
    assert samples[:100] == [gaussian(11, sigma, "noise", i) for i in range(100)]
    assert abs(statistics.fmean(samples)) < 3 * sigma / math.sqrt(len(samples))
    assert abs(statistics.stdev(samples) - sigma) < 0.05 * sigma


def test_prefix_cached_draws_equal_the_full_key_digest():
    # small pools, so prefixes repeat and hash-equal parts that encode
    # differently (1, True, 1.0; 0.0, -0.0; [1], (1,)) meet in one run
    rng = random.Random(6)
    pools = {
        bool: [True, False], int: [-1, 0, 1, 2, 2**70], str: ["", "1", "r01", "é"],
        float: [0.0, -0.0, 1.0, 0.5], tuple: [(1,), (True,), (1.0,), (-0.0, "x"), ()],
        list: [[1], [True], [0.0, [1]]]}
    seen = dict.fromkeys(pools, 0)
    for _ in range(120_000):
        seed = rng.choice([0, 1, 2**64 - 1])
        key = []
        for _ in range(rng.randint(0, 4)):  # short keys (0 or 1 part) included
            kind = rng.choice(list(pools))
            seen[kind] += 1
            key.append(rng.choice(pools[kind]))
        expected = hashlib.blake2b(randstream._encode((seed, *key)), digest_size=8).digest()
        assert randstream.u64(seed, *key) == int.from_bytes(expected, "big"), (seed, key)
    assert min(seen.values()) > 30_000


HELD_SEEDS = (0, 1, 2**64 - 1, True)
HELD_CLOCK_IDS = ("c1", "é", "")
HELD_TIMES_PS = (0, 1, 255, 256, -1, 2**60, 2**70)


def test_held_clock_draws_equal_the_reference_bit_for_bit():
    # a clock draws through prefix states it holds; u64 is the reference
    params = ClockParameters(noise_sigma=1e-9, jitter_bound_ns=30.0)
    for seed in HELD_SEEDS:
        for clock_id in HELD_CLOCK_IDS:
            clock = SoftwareClock(clock_id, params, seed)
            for t_ps in HELD_TIMES_PS:
                expected = gaussian(seed, params.noise_sigma, "clock_noise", clock_id, t_ps)
                expected += (uniform(seed, "clock_jitter", clock_id, t_ps)
                             * params.jitter_bound_ns * 1e-9)
                assert clock.noise_at_ps(t_ps) == expected, (seed, clock_id, t_ps)


HELD_ROUTER_IDS = ("", "é", "r01")
HELD_ROUTER_TIMES_PS = (0, 1, 255, 256, 2**60, 2**70)


def test_held_router_flags_equal_the_reference_bit_for_bit():
    # a view holds each failing router's router_flag stream; the reference
    # draws uniform(seed, "router_flag", id, t) and fails the router below p
    for p in (0.0, 0.05, 0.5, 1.0):
        model = FailureModel("bernoulli", failure_probability=p)
        graph = NetworkGraph([NodeSpec(node_id, "router", failure_model=model)
                              for node_id in HELD_ROUTER_IDS])
        for seed in HELD_SEEDS:
            view = NetworkView(graph, seed)
            for index, node_id in enumerate(view.topology.ids):
                for t_ps in HELD_ROUTER_TIMES_PS:
                    u = uniform(seed, "router_flag", node_id, t_ps)
                    expected = 1 if p == 0.0 else 0 if p == 1.0 else 0 if u < p else 1
                    held = randstream.stream(seed, "router_flag", node_id)
                    case = (p, seed, node_id, t_ps)
                    assert model.flag_from(held, t_ps) == expected, case
                    assert model.flag_from(view.flag_streams[index], t_ps) == expected, case
                    assert model.flag_at_ps(node_id, t_ps, seed) == expected, case
                    term = view.hop_router_ps(index, t_ps, view.epoch_at(t_ps).terms)
                    assert (term is not None) == (expected == 1), case


HELD_MESSAGE_IDS = ("m00001", "m99999", "é", "")


def test_held_drop_rolls_equal_the_reference_bit_for_bit():
    # a view holds the ddos_drop stream; the reference draws
    # u64(seed, "ddos_drop", attack index, message id) and drops below p
    graph = NetworkGraph([NodeSpec("r1", "router"), NodeSpec("r2", "router")])
    for p in (0.0, 0.05, 0.5, 1.0):
        # attack 0 only slows r1, so r1 rolls for attack 2 and r2 for attack 1
        ddos = (AttackSpec("ddos", "r1", 0.0, 1.0, delay_multiplier=2.0),
                AttackSpec("ddos", "r2", 0.0, 1.0, drop_probability=p),
                AttackSpec("ddos", "r1", 0.0, 1.0, drop_probability=p))
        for seed in HELD_SEEDS:
            view = NetworkView(graph, seed, ddos)
            assert view.without_attacks().drop_stream is view.drop_stream
            for index in (0, 1, 2, 255, 256, 2**70):
                for message_id in HELD_MESSAGE_IDS:
                    assert (randstream.draw(view.drop_stream, index, message_id)
                            == randstream.u64(seed, "ddos_drop", index, message_id))
            for node_id, index in (("r1", 2), ("r2", 1)):
                for message_id in HELD_MESSAGE_IDS:
                    case = (p, seed, node_id, message_id)
                    dropped = attacks.drop_roll(ddos, view.drop_stream, node_id, 0, message_id)
                    expected = bernoulli(seed, p, "ddos_drop", index, message_id)
                    assert dropped is (ddos[index] if expected else None), case
                    # outside the window nothing is dropped
                    assert attacks.drop_roll(ddos, view.drop_stream, node_id,
                                             10**12, message_id) is None, case


def test_int_tails_equal_the_full_key_digest():
    # a held draw extends its prefix state with the tail, an int under the
    # header `_INT_HEADERS` holds for it up to 256 bits and through _encode
    # beyond: ints on both sides of that edge included
    for seed in HELD_SEEDS:
        for entity in HELD_CLOCK_IDS:
            for t_ps in HELD_TIMES_PS + (2**255 - 1, -2**255, 2**255, -2**256, 2**300):
                for key in (("router_flag", entity, t_ps), ("clock_noise", entity, t_ps, 1),
                            ("ddos_drop", t_ps, entity), (entity, t_ps, t_ps)):
                    expected = int.from_bytes(hashlib.blake2b(
                        randstream._encode((seed, *key)), digest_size=8).digest(), "big")
                    assert randstream.u64(seed, *key) == expected, (seed, key)
                    held = randstream.stream(seed, key[0])
                    assert randstream.draw(held, *key[1:]) == expected, (seed, key)

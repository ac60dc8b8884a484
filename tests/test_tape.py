"""The random tape against numpy's own calls, and runs long enough to
refill it against the per-particle loop."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from loop_oracle import run_oracle

import fcpso.tape
from fcpso.optimizer import RunConfig, run
from fcpso.problems import get_problem
from fcpso.swarm import VARIANTS, DynamicsConfig
from fcpso.tape import BLOCK, RandomTape

# small ranges, odd ones, and ranges near 2**32 where Lemire's method
# rejects often and leaves a half-word over
RANGES = (1, 2, 3, 100, 101, 3 * 10**9, 2**32 - 1)


def generator(seed):
    return np.random.Generator(np.random.PCG64(seed))


class CountingTape(RandomTape):
    """A tape that counts the blocks it reads."""

    def __init__(self, rng):
        self.blocks_read = 0
        super().__init__(rng)

    def _refill(self):
        self.blocks_read += 1
        super()._refill()


def call(rng, op, arg):
    if op == "integers":
        return rng.integers(0, arg, size=2)
    return rng.random() if arg is None else rng.random(arg)


def assert_bitwise(got, expected):
    got, expected = np.array(got), np.array(expected)
    assert got.dtype == expected.dtype and got.shape == expected.shape
    assert got.tobytes() == expected.tobytes()


calls = st.one_of(
    st.tuples(st.just("random"), st.none()),
    # up to a little over a block, so scripts refill and straddle refills
    st.tuples(st.just("random"), st.integers(0, BLOCK + 100)),
    st.tuples(st.just("integers"), st.sampled_from(RANGES)),
)


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2**64 - 1), st.lists(calls, max_size=40))
def test_a_random_script_is_bitwise_the_generator(seed, script):
    tape, reference = RandomTape(generator(seed)), generator(seed)
    for op, arg in script:
        assert_bitwise(call(tape, op, arg), call(reference, op, arg))


def test_a_straddling_draw_and_a_half_carried_over_a_refill():
    # find a seed whose 3e9 draws, started eight words before the end of
    # the first block, leave a half-word over with words still left in it
    n = 3 * 10**9
    for seed in range(100):
        tape, reference = CountingTape(generator(seed)), generator(seed)
        assert_bitwise(tape.random(BLOCK - 8), reference.random(BLOCK - 8))
        while tape._half is None and tape._pos < BLOCK:
            assert_bitwise(tape.integers(0, n, size=2), reference.integers(0, n, size=2))
        if tape._half is None or tape._pos == BLOCK or tape.blocks_read > 1:
            continue
        assert reference.bit_generator.state["has_uint32"]
        straddle = BLOCK - tape._pos + 3
        assert_bitwise(tape.random(straddle), reference.random(straddle))
        assert tape.blocks_read == 2 and tape._half is not None
        assert_bitwise(tape.integers(0, n, size=2), reference.integers(0, n, size=2))
        assert_bitwise(tape.random(5), reference.random(5))
        return
    pytest.fail("no seed below 100 carries a half-word over the first refill")


def test_a_range_of_one_draws_nothing():
    tape, reference = RandomTape(generator(3)), generator(3)
    assert tape.integers(7, 8, size=2) == (7, 7)
    assert_bitwise(tape.random(3), reference.random(3))


def test_only_a_fresh_pcg64_generator_is_accepted():
    with pytest.raises(TypeError, match="PCG64"):
        RandomTape(np.random.Generator(np.random.Philox(1)))
    rng = generator(1)
    rng.integers(0, 10)  # draws the low half of a word and buffers the high one
    with pytest.raises(ValueError, match="half-word"):
        RandomTape(rng)


@pytest.mark.parametrize("draw", [
    lambda t: t.integers(0, 10),
    lambda t: t.integers(0, 10, size=3),
    lambda t: t.integers(0, 2**32, size=2),
    lambda t: t.integers(5, 5, size=2),
    lambda t: t.random(-1),
    lambda t: t.random((2, 2)),
    lambda t: t.uniform(0.0, 1.0),
])
def test_any_other_call_raises(draw):
    with pytest.raises((ValueError, TypeError, AttributeError)):
        draw(RandomTape(generator(1)))


@pytest.mark.parametrize("variant", VARIANTS)
@pytest.mark.parametrize("capacity", [1, 30])
def test_a_run_across_refills_is_bitwise_the_per_particle_loop(monkeypatch, variant, capacity):
    tapes = []

    class RecordedTape(CountingTape):
        def __init__(self, rng):
            super().__init__(rng)
            tapes.append(self)

    monkeypatch.setattr(fcpso.tape, "RandomTape", RecordedTape)
    problem = get_problem("zdt1")
    cfg = RunConfig(
        dynamics=DynamicsConfig(variant=variant, swarm_size=20),
        max_evaluations=1_000,
        archive_capacity=capacity,
        record_interval=5,
    )
    got, expected = run(problem, cfg, 17), run_oracle(problem, cfg, 17)
    assert tapes[0].blocks_read >= 4  # three refills after the first block
    assert got.front_objectives.tobytes() == expected.front_objectives.tobytes()
    assert got.front_positions.tobytes() == expected.front_positions.tobytes()
    assert got.hv_trace == expected.hv_trace
    assert got.evaluations_used == expected.evaluations_used

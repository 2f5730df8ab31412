import os
import subprocess
import sys

import numpy as np
import pytest

import esokit as ek
from esokit import config
from esokit.errors import ValidationError

SEEDS = (0, 1, 3, 2**32 - 1, 2**32, 2**63, 2**64 - 1, -1)
STREAMS = (*range(300), 2**32 - 1, 2**32, 2**40 + 3, 2**63)


def _same_generator(ours, oracle):
    return ours.bit_generator.state == oracle.bit_generator.state and np.array_equal(
        ours.bit_generator.random_raw(64), oracle.bit_generator.random_raw(64)
    )


def test_batch_generators_equal_rng_for_stream_bit_for_bit():
    for seed in SEEDS:
        batch = config.rngs_for_streams(seed, STREAMS)
        assert len(batch) == len(STREAMS)
        for s, ours in zip(STREAMS, batch):
            assert _same_generator(ours, config.rng_for_stream(seed, s)), (seed, s)


def test_lone_and_huge_streams_match():
    # A single stream, and a batch holding an index of 2**64 or more (three
    # spawn words), takes numpy's own path.
    for seed in (0, 7, 2**64 - 1):
        for streams in ([0], [2**32 - 1], [2**32], [2**63], [2**64 - 1], [2**64], [5, 2**100 + 7, 2**64 - 1]):
            for s, ours in zip(streams, config.rngs_for_streams(seed, streams)):
                assert _same_generator(ours, config.rng_for_stream(seed, s)), (seed, s)
    assert config.rngs_for_streams(3, []) == []


def test_batch_seed_words_answer_only_pcg64():
    words = config.rngs_for_streams(5, [0, 1])[1].bit_generator.seed_seq
    assert words.generate_state(4, np.uint64).tolist() == config.rng_for_stream(5, 1).bit_generator.seed_seq.generate_state(4, np.uint64).tolist()
    for call in ((8, np.uint64), (4, np.uint32), (4,)):
        with pytest.raises(ValueError):
            words.generate_state(*call)


def test_negative_streams_are_refused():
    for streams in ([-1], [0, 4, -2]):
        with pytest.raises(ValidationError) as caught:
            config.rngs_for_streams(0, streams)
        assert caught.value.field == "stream_index"
    problem = ek.QuadraticProblem(ek.DataMatrix.from_dense(np.eye(2)), ridge=0.1, b=np.ones(2))
    with pytest.raises(ValidationError) as caught:
        ek.solve(problem, ek.tau_nice(2, 1), np.ones(2), stream_index=-1)
    assert caught.value.field == "stream_index"


@pytest.mark.parametrize("seed", [2.7, 2.0, True, False, np.float64(3.0), "1"], ids=repr)
def test_a_fractional_or_bool_seed_is_refused_by_name(seed):
    problem = ek.QuadraticProblem(ek.DataMatrix.from_dense(np.eye(2)), ridge=0.1, b=np.ones(2))
    calls = (
        lambda: config.rng_for_stream(seed),
        lambda: config.rngs_for_streams(seed, [0, 1]),
        lambda: config.rngs_for_streams(seed, []),
        lambda: ek.draw(ek.tau_nice(4, 2), rng_seed=seed),
        lambda: ek.samplings.draw_sets(ek.tau_nice(4, 2), 5, rng_seed=seed, streams=2),
        lambda: ek.solve(problem, ek.tau_nice(2, 1), np.ones(2), rng_seed=seed),
    )
    for call in calls:
        with pytest.raises(ValidationError) as caught:
            call()
        assert caught.value.field == "rng_seed"


@pytest.mark.parametrize("index", [1.5, 1.0, True, np.float64(1.0), "1"], ids=repr)
def test_a_fractional_or_bool_stream_index_is_refused_by_name(index):
    problem = ek.QuadraticProblem(ek.DataMatrix.from_dense(np.eye(2)), ridge=0.1, b=np.ones(2))
    calls = (
        lambda: config.rng_for_stream(0, index),
        lambda: config.rngs_for_streams(0, [index]),
        lambda: config.rngs_for_streams(0, [0, index]),
        lambda: ek.draw(ek.tau_nice(4, 2), 0, index),
        lambda: ek.solve(problem, ek.tau_nice(2, 1), np.ones(2), stream_index=index),
    )
    for call in calls:
        with pytest.raises(ValidationError) as caught:
            call()
        assert caught.value.field == "stream_index"


def test_negative_and_numpy_integer_seeds_and_indices_are_taken():
    # A negative seed is taken modulo 2**64; numpy integers are their values.
    assert _same_generator(config.rng_for_stream(-1, 2), config.rng_for_stream(2**64 - 1, 2))
    assert _same_generator(config.rng_for_stream(np.int64(7), np.uint32(2)), config.rng_for_stream(7, 2))
    for ours, s in zip(config.rngs_for_streams(np.int32(-5), np.arange(3)), range(3)):
        assert _same_generator(ours, config.rng_for_stream(2**64 - 5, s))
    assert ek.draw(ek.tau_nice(6, 3), np.int64(11), np.int8(1)) == ek.draw(ek.tau_nice(6, 3), 11, 1)


def test_import_does_not_load_numpy_random():
    # The batch builder subclasses numpy's ISeedSequence on first use, so
    # importing the package never pays for numpy.random.
    src = os.path.dirname(os.path.dirname(os.path.abspath(ek.__file__)))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    code = "import sys, esokit; print('numpy.random' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"

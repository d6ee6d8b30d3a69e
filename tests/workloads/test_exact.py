"""The exact-replica layer: emitted code against the replicas, the gate."""

import linecache
import traceback

import numpy as np
import pytest

from repro.workloads import _exact
from repro.workloads._exact import compiled_gibbs_pass, pairwise_sum


def emitted_normaliser(n: int):
    """The normaliser statements of the ``n``-topic pass as a function."""
    params = ", ".join(f"p{k}" for k in range(n))
    body = "".join(f"    {line}\n" for line in _exact._sum_lines(n))
    namespace = {"pairwise_sum": pairwise_sum}
    exec(f"def normalise({params}):\n{body}    return s\n", namespace)
    return namespace["normalise"]


@pytest.mark.parametrize("n", range(1, 129))
def test_emitted_normaliser_equals_pairwise_sum(n):
    normalise = emitted_normaliser(n)
    rng = np.random.default_rng(n)
    for decades in (0, 1, 3, 12) * 25:
        # Positive terms of similar and of spread magnitudes, so that
        # any other grouping of the adds rounds differently somewhere.
        values = (rng.random(n) * 10.0 ** rng.integers(0, decades + 1, n)).tolist()
        assert normalise(*values).hex() == pairwise_sum(values).hex()


def test_normaliser_above_the_block_size_calls_pairwise_sum():
    assert _exact._sum_lines(129) == [
        f"s = pairwise_sum(({', '.join(f'p{k}' for k in range(129))},))"
    ]


def test_self_check_fails_when_pairwise_sum_is_a_left_fold(monkeypatch):
    assert _exact._self_check()

    def left_fold(values):
        res = 0.0
        for v in values:
            res = res + v
        return res

    monkeypatch.setattr(_exact, "pairwise_sum", left_fold)
    assert not _exact._self_check()


@pytest.mark.parametrize("n", [0, -3])
def test_compiled_pass_rejects_fewer_than_one_topic(n):
    with pytest.raises(ValueError):
        compiled_gibbs_pass(n)


def test_compiled_pass_is_cached_per_topic_count():
    assert compiled_gibbs_pass(5) is compiled_gibbs_pass(5)
    assert compiled_gibbs_pass(5) is not compiled_gibbs_pass(6)
    assert compiled_gibbs_pass(5).__name__ == "gibbs_pass_5"
    assert compiled_gibbs_pass(5).__module__ == "repro.workloads._exact"


def test_generated_source_is_in_linecache():
    code = compiled_gibbs_pass(7).__code__
    lines = _exact.gibbs_pass_source(7).splitlines(True)
    assert linecache.getlines(code.co_filename) == lines
    linecache.checkcache()
    assert linecache.getline(code.co_filename, 1) == lines[0]


def test_draw_past_the_cdf_raises_with_the_generated_line():
    # ``u`` is below 1.0 for any real draw; at 1.0 the search runs off
    # the last topic, where the reference loop indexes out of range.
    n = 3
    counts = [[1.0] * n]
    doc_counts = [[1.0] * n]
    totals = [1.0] * n
    with pytest.raises(IndexError) as excinfo:
        compiled_gibbs_pass(n)(
            [(0, [0])], np.ones, {0: np.array([0])},
            counts, [[v + 0.01 for v in row] for row in counts],
            totals, [v + 0.01 for v in totals],
            doc_counts, [[v + 0.1 for v in row] for row in doc_counts],
            0.01, 0.01, 0.1,
        )
    last = traceback.extract_tb(excinfo.tb)[-1]
    assert last.name == "gibbs_pass_3"
    assert last.line == "raise IndexError('topic index out of range')"

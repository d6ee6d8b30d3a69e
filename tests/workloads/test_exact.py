"""The exact-replica layer: emitted code against the replicas, the gate."""

import linecache
import math
import sys
import traceback

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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


def scalar_left_fold(row):
    """``sum`` over floats as CPython 3.11 and earlier run it."""
    res = 0
    for x in row:
        res = res + x
    return float(res)


def scalar_neumaier_fold(row):
    """``sum`` over floats as CPython 3.12 and later run it."""
    if not row:
        return 0.0
    f, c = 0 + row[0], 0.0
    for x in row[1:]:
        t = f + x
        if abs(f) >= abs(x):
            c += (f - t) + x
        else:
            c += (x - t) + f
        f = t
    if c and math.isfinite(c):
        f += c
    return f


#: Terms of mixed signs and magnitudes whose partial sums stay finite.
mixed_terms = st.one_of(
    st.floats(-1e15, 1e15, allow_subnormal=True),
    st.builds(
        lambda m, e: m * 10.0 ** e, st.floats(-1, 1), st.integers(-300, 290)
    ),
    st.sampled_from([0.0, -0.0, 1e16, -1e16, 1.0, 0.1]),
)
term_rows = st.integers(1, 30).flatmap(
    lambda n: st.lists(
        st.lists(mixed_terms, min_size=n, max_size=n), min_size=1, max_size=3
    )
)


@settings(max_examples=200, deadline=None)
@given(term_rows)
def test_builtin_sum_fold_equals_builtin_sum(rows):
    fold = _exact.builtin_sum_fold()
    assert fold is not None
    got = fold(np.array(rows)).tolist()
    assert [v.hex() for v in got] == [float(sum(row)).hex() for row in rows]


@settings(max_examples=200, deadline=None)
@given(term_rows)
def test_folds_equal_their_scalar_references(rows):
    # Both replicas on every interpreter: the one not picked here is the
    # one another CPython picks.
    x = np.array(rows)
    assert [v.hex() for v in _exact.left_fold(x).tolist()] == [
        scalar_left_fold(row).hex() for row in rows
    ]
    assert [v.hex() for v in _exact.neumaier_fold(x).tolist()] == [
        scalar_neumaier_fold(row).hex() for row in rows
    ]


def test_the_folds_differ_where_compensation_matters():
    row = [1e16, 1.0, -1e16]
    x = np.array([row])
    assert _exact.left_fold(x).tolist() == [0.0]
    assert _exact.neumaier_fold(x).tolist() == [1.0]
    assert _exact.builtin_sum_fold()(x).tolist() == [sum(row)]


def test_fold_check_rejects_folds_that_differ_from_sum(monkeypatch):
    left_fold = _exact.left_fold

    def reversed_fold(terms):
        return left_fold(terms[..., ::-1])

    monkeypatch.setattr(_exact, "left_fold", reversed_fold)
    monkeypatch.setattr(_exact, "neumaier_fold", reversed_fold)
    assert _exact.builtin_sum_fold.__wrapped__() is None


tied_columns = st.tuples(st.integers(1, 60), st.integers(1, 3)).flatmap(
    lambda shape: st.lists(
        st.one_of(
            st.sampled_from([0.0, -0.0, 1.0, -2.5, 3.0]),
            st.floats(-1e6, 1e6),
        ),
        min_size=shape[0] * shape[1],
        max_size=shape[0] * shape[1],
    ).map(lambda v: np.array(v).reshape(shape))
)


@settings(max_examples=200, deadline=None)
@given(
    tied_columns,
    st.lists(st.floats(0.0, 1.0), min_size=1, max_size=5)
    | st.just([0.25, 0.5, 0.75]),
)
def test_column_quantiles_equal_np_quantile(x, qs):
    got = _exact.column_quantiles(x, qs)
    assert got.shape == (len(qs), x.shape[1])
    for j in range(x.shape[1]):
        assert got[:, j].tobytes() == np.quantile(x[:, j], qs).tobytes()


def test_quantile_check_rejects_a_one_branch_lerp(monkeypatch):
    def one_branch(x, qs):
        virtual = (x.shape[0] - 1) * np.asarray(qs)
        lo = np.floor(virtual).astype(np.intp)
        hi = np.minimum(lo + 1, x.shape[0] - 1)
        ordered = np.sort(x, axis=0)
        gamma = (virtual - lo)[:, None]
        return ordered[lo] + (ordered[hi] - ordered[lo]) * gamma

    assert _exact.quantiles_match.__wrapped__()
    monkeypatch.setattr(_exact, "column_quantiles", one_branch)
    assert not _exact.quantiles_match.__wrapped__()


@settings(max_examples=100, deadline=None)
@given(
    st.integers(1, 9),
    st.integers(1, 40),
    st.integers(1, 6),
    st.integers(0, 2**32 - 1),
)
def test_stacked_solve_equals_per_matrix_solves(m, n, k, seed):
    rng = np.random.default_rng(seed)
    vecs = rng.normal(scale=0.3, size=(n, k, m))
    a = 0.1 * np.eye(m) + np.einsum("nki,nkj->nij", vecs, vecs)
    b = rng.normal(size=(n, m))
    stacked = _exact.stacked_solve(a, b)
    assert stacked.shape == (n, m)
    for i in range(n):
        assert stacked[i].tobytes() == np.linalg.solve(a[i], b[i]).tobytes()


def test_self_checks_pass_on_this_build():
    # A failing check would silently turn a fast path off and leave the
    # kernel tests comparing the reference with itself.
    assert _exact.builtin_sum_fold() is (
        _exact.left_fold if sys.version_info < (3, 12) else _exact.neumaier_fold
    )
    assert _exact.quantiles_match()
    assert _exact.stacked_solve_matches()

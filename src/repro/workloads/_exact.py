"""Bit-exact pure-Python replicas of the numpy scalar reductions.

The capture phase runs each workload's real compute once per behaviour
class, and several inner loops (LDA's collapsed Gibbs sampler above all)
spend most of that time in *per-token numpy dispatch*: a dozen ufunc
calls over arrays of 5–15 elements, where interpreter-level arithmetic
on Python floats is several times faster than the C call overhead it
replaces.  Rewriting those loops in Python is only legal under the
engine's bit-identity contract if every floating-point operation rounds
exactly as the numpy expression it replaces:

- elementwise ``+ - * /`` on float64 are IEEE-754 operations in both
  runtimes, so expression-for-expression rewrites are exact by
  construction;
- ``np.cumsum`` is a sequential left fold (``out[i] = out[i-1] + a[i]``)
  and replicates directly;
- ``searchsorted(..., side="right")`` is ``bisect_right`` over the same
  comparisons;
- ``np.add.reduce`` is the one genuinely build-dependent op: numpy uses
  pairwise summation whose partial ordering (sequential below 8
  elements, an 8-accumulator unrolled block up to 128) matches
  :func:`pairwise_sum` on every build we target, but a SIMD-widened
  variant could regroup the partials.

Because that last point is a property of the *installed numpy build*,
not of our code, the replicas are gated behind :func:`replicas_match`: a
deterministic self-check that compares every replica against numpy on a
spread of lengths and magnitudes the first time a workload asks, and
permanently disables the fast paths in this process if any single bit
differs.  Callers therefore never trade correctness for speed — a
mismatching build silently falls back to the original numpy loops.

Even as Python floats, a loop over 5–15-element rows pays more for the
interpreter than for the arithmetic: on CPython 3.11 each list
comprehension builds a function frame, and each call or loop iteration
costs more than the float op inside it.  :func:`compiled_gibbs_pass`
therefore generates LDA's Gibbs partition pass as source for one topic
count, with the per-token conditional unrolled into straight-line code
over named locals: :func:`pairwise_sum`'s grouping for that length, the
cdf as the same sequential fold, and the ``searchsorted`` binary search
as the comparison tree it unrolls to.  Every float op is the one the
replicas perform, on the same operands in the same order, so the pass
is exact wherever the replicas are.

Three more workloads score, split or solve a whole partition at once
instead of one row at a time, and each kernel rests on one more fact:

- builtin ``sum`` over floats is a plain left fold from ``0`` on CPython
  3.11 and earlier, and Neumaier's compensated fold from 3.12 on.
  :func:`left_fold` and :func:`neumaier_fold` run each fold over the
  last axis of an array, lane by lane with the builtin's operations, and
  :func:`builtin_sum_fold` names the one that equals ``sum`` here
  (bayes' per-class document scores);
- ``np.quantile``'s default method reads the order statistics at
  ``floor((n - 1) q)`` and the next index and joins them with a
  two-branch lerp.  :func:`column_quantiles` takes every column's order
  statistics from one ``np.partition`` and lerps the same way (rf's
  split thresholds);
- ``np.linalg.solve`` over a stack of matrices runs, matrix by matrix,
  the LAPACK solve that one call per matrix runs; :func:`stacked_solve`
  makes that call (ALS' normal equations).

Each fact has its own one-time self-check: :func:`builtin_sum_fold`,
:func:`quantiles_match` and :func:`stacked_solve_matches`.  Where one
fails, its workload keeps the row-at-a-time code it replaces.
"""

from __future__ import annotations

import functools
import linecache
import typing as t
from bisect import bisect_right

import numpy as np

__all__ = [
    "builtin_sum_fold",
    "column_quantiles",
    "compiled_gibbs_pass",
    "left_fold",
    "neumaier_fold",
    "pairwise_sum",
    "quantiles_match",
    "replicas_match",
    "stacked_solve",
    "stacked_solve_matches",
]


def pairwise_sum(values: t.Sequence[float]) -> float:
    """``float(np.add.reduce(values))`` for 1-D float64 inputs, n <= 128.

    Mirrors numpy's ``pairwise_sum`` base case: a plain left fold below
    8 elements, otherwise 8 interleaved accumulators combined as
    ``((r0+r1)+(r2+r3))+((r4+r5)+(r6+r7))`` with a sequential tail.
    """
    n = len(values)
    if n < 8:
        res = 0.0
        for v in values:
            res = res + v
        return res
    if n > 128:  # numpy recurses above its block size; replay via numpy.
        return float(np.add.reduce(np.asarray(values)))
    r0, r1, r2, r3, r4, r5, r6, r7 = values[:8]
    i = 8
    stop = n - (n % 8)
    while i < stop:
        r0 = r0 + values[i]
        r1 = r1 + values[i + 1]
        r2 = r2 + values[i + 2]
        r3 = r3 + values[i + 3]
        r4 = r4 + values[i + 4]
        r5 = r5 + values[i + 5]
        r6 = r6 + values[i + 6]
        r7 = r7 + values[i + 7]
        i += 8
    res = ((r0 + r1) + (r2 + r3)) + ((r4 + r5) + (r6 + r7))
    while i < n:
        res = res + values[i]
        i += 1
    return res


def _sum_lines(n: int) -> list[str]:
    """Statements binding ``s`` to :func:`pairwise_sum` of ``p0..p{n-1}``.

    The same grouping for the same length: a left fold from ``0.0``
    below 8 terms; up to 128, eight left-folded accumulators combined
    as ``((r0+r1)+(r2+r3))+((r4+r5)+(r6+r7))`` and then the sequential
    tail; above that, the call itself.
    """
    p = [f"p{k}" for k in range(n)]
    if n < 8:
        return [f"s = {' + '.join(['0.0', *p])}"]
    if n > 128:
        return [f"s = pairwise_sum(({', '.join(p)},))"]
    stop = n - n % 8
    lines = []
    r = p[:8]
    if stop > 8:
        r = [f"r{j}" for j in range(8)]
        lines = [f"r{j} = {' + '.join(p[j:stop:8])}" for j in range(8)]
    block = "(({} + {}) + ({} + {})) + (({} + {}) + ({} + {}))".format(*r)
    return [*lines, f"s = {' + '.join([block, *p[stop:]])}"]


def _search_lines(lo: int, hi: int, n: int, pad: str) -> list[str]:
    """The ``while lo < hi`` bisection over ``c_k / last``, unrolled.

    Each ``if`` is one iteration's comparison (``mid = (lo + hi) >> 1``,
    true branch ``hi = mid``, false branch ``lo = mid + 1``), so a draw
    makes exactly the comparisons ``bisect_right`` would.  A leaf binds
    the chosen topic and its weight; the leaf past the last topic is
    reached only if ``u`` is not below ``1.0``, where the loop it
    replaces would index out of range.
    """
    if lo == hi:
        if lo == n:
            return [f"{pad}raise IndexError('topic index out of range')"]
        return [f"{pad}k_new = {lo}", f"{pad}p_new = p{lo}"]
    mid = (lo + hi) >> 1
    inner = pad + "    "
    return [
        f"{pad}if u < c{mid} / last:",
        *_search_lines(lo, mid, n, inner),
        f"{pad}else:",
        *_search_lines(mid + 1, hi, n, inner),
    ]


def gibbs_pass_source(n: int) -> str:
    """Source of LDA's collapsed-Gibbs partition pass for ``n`` topics.

    The function holds no state: the count rows, their ``+ beta`` /
    ``+ beta_vocab`` / ``+ alpha`` mirrors and the topic assignments
    are updated in place, and ``uniform`` is the partition's
    ``Generator.random``.  Per token it removes the token's counts,
    evaluates ``p_k = (count + beta) / (total + beta_vocab) * (doc +
    alpha)`` for every topic, normalises by :func:`pairwise_sum`'s
    grouping, folds the cdf, draws the new topic by the unrolled
    search and adds the counts back.  Each document's log-likelihood is
    one batched ``np.log`` over the chosen ``p_new / s``, summed in
    token order.  Returns ``[(doc_id, loglik), ...]``.
    """
    if n < 1:
        raise ValueError(f"topic count must be at least 1, got {n}")
    ks = range(n)

    def unpack(prefix: str) -> str:
        return ", ".join(f"{prefix}{k}" for k in ks) + ("," if n == 1 else "")

    token = [
        "k_old = topics[i]",
        "row = counts[word]",
        "row_beta = counts_beta[word]",
        "v = row[k_old] - 1.0",
        "row[k_old] = v",
        "row_beta[k_old] = v + beta",
        "v = totals[k_old] - 1.0",
        "totals[k_old] = v",
        "denom[k_old] = v + beta_vocab",
        "v = dt_row[k_old] - 1.0",
        "dt_row[k_old] = v",
        "dt_alpha[k_old] = v + alpha",
        f"{unpack('a')} = row_beta",
        f"{unpack('b')} = denom",
        f"{unpack('d')} = dt_alpha",
        *(f"p{k} = a{k} / b{k} * d{k}" for k in ks),
        *_sum_lines(n),
        "c0 = 0.0 + p0 / s",
        *(f"c{k} = c{k - 1} + p{k} / s" for k in ks[1:]),
        f"last = c{n - 1}",
        "u = draws[i]",
        *_search_lines(0, n, n, ""),
        "topics[i] = k_new",
        "v = row[k_new] + 1.0",
        "row[k_new] = v",
        "row_beta[k_new] = v + beta",
        "v = totals[k_new] + 1.0",
        "totals[k_new] = v",
        "denom[k_new] = v + beta_vocab",
        "v = dt_row[k_new] + 1.0",
        "dt_row[k_new] = v",
        "dt_alpha[k_new] = v + alpha",
        "keep(p_new / s)",
    ]
    lines = [
        f"def gibbs_pass_{n}(part, uniform, assignments, counts, counts_beta,",
        "        totals, denom, doc_counts, doc_alpha, beta, beta_vocab, alpha):",
        "    out = []",
        "    for doc_id, words in part:",
        "        topics = assignments[doc_id].tolist()",
        "        dt_row = doc_counts[doc_id]",
        "        dt_alpha = doc_alpha[doc_id]",
        "        draws = uniform(len(words)).tolist()",
        "        chosen = []",
        "        keep = chosen.append",
        "        for i, word in enumerate(words):",
        *("            " + line for line in token),
        "        assignments[doc_id] = asarray(topics)",
        "        loglik = 0.0",
        "        for v in log(asarray(chosen)).tolist():",
        "            loglik += v",
        "        out.append((doc_id, loglik))",
        "    return out",
    ]
    return "\n".join(lines) + "\n"


@functools.cache
def compiled_gibbs_pass(n: int) -> t.Callable[..., list[tuple[int, float]]]:
    """:func:`gibbs_pass_source` for ``n`` topics, compiled once.

    Compiled with ``compile``/``exec`` as ``dataclasses`` and
    ``namedtuple`` build their methods, and registered with
    ``linecache`` under its pseudo-filename so tracebacks and profilers
    show the generated lines.  The cache keeps one function per topic
    count in use; the paper's sizes use three.
    """
    source = gibbs_pass_source(n)
    filename = f"<repro.workloads._exact gibbs_pass_{n}>"
    namespace: dict[str, t.Any] = {
        "__name__": __name__,
        "asarray": np.asarray,
        "log": np.log,
        "pairwise_sum": pairwise_sum,
    }
    exec(compile(source, filename, "exec"), namespace)
    linecache.cache[filename] = (len(source), None, source.splitlines(True), filename)
    return namespace[f"gibbs_pass_{n}"]


#: Memoized verdict of the one-time self-check (None until first asked).
_VERDICT: bool | None = None


def _self_check() -> bool:
    """Compare every replica against numpy on deterministic inputs."""
    rng = np.random.default_rng(0xE5AC7)
    lengths = (1, 2, 5, 7, 8, 9, 10, 15, 16, 17, 24, 31, 64, 127, 128)
    scales = (1e-9, 1e-3, 1.0, 1e6)
    for n in lengths:
        for scale in scales:
            x = (rng.random(n) - 0.25) * scale
            lst = x.tolist()
            if pairwise_sum(lst) != float(np.add.reduce(x)):
                return False
            # Sequential cumsum fold.
            acc = 0.0
            folded = []
            for v in lst:
                acc = acc + v
                folded.append(acc)
            if folded != x.cumsum().tolist():
                return False
    # bisect_right over a cdf == searchsorted(side="right").
    cdf = np.sort(rng.random(33))
    for u in rng.random(64).tolist():
        if bisect_right(cdf.tolist(), u) != int(cdf.searchsorted(u, side="right")):
            return False
    # Batched np.log must round like per-scalar np.log (same inner loop).
    xs = rng.random(96) * 1e-4 + 1e-12
    batched = np.log(xs).tolist()
    if any(float(np.log(x)) != v for x, v in zip(xs.tolist(), batched)):
        return False
    return True


def replicas_match() -> bool:
    """True when the pure-Python replicas are bit-identical on this build.

    Runs the self-check once per process and caches the verdict; hot
    loops gate their fast path on this so a numpy build with different
    reduction grouping degrades to the original code instead of
    diverging.
    """
    global _VERDICT
    if _VERDICT is None:
        _VERDICT = _self_check()
    return _VERDICT


def left_fold(terms: np.ndarray) -> np.ndarray:
    """``sum(row)`` as CPython 3.11 and earlier fold floats, every row at once.

    Folds the last axis of ``terms`` left to right from ``0.0``: the
    builtin starts from the int ``0``, whose add with the first float is
    ``0.0 + x0``, and then adds each term in order.
    """
    acc = np.zeros(terms.shape[:-1])
    for j in range(terms.shape[-1]):
        acc = acc + terms[..., j]
    return acc


def neumaier_fold(terms: np.ndarray) -> np.ndarray:
    """``sum(row)`` as CPython 3.12 and later fold floats, every row at once.

    Neumaier's compensated fold over the last axis, as the builtin runs
    it: the first term enters as ``0.0 + x0``; each later ``x`` sets
    ``t = f + x`` and adds ``(f - t) + x`` to the compensation ``c`` when
    ``|f| >= |x|``, else ``(x - t) + f``; the result is ``f + c`` when
    ``c`` is non-zero and finite, else ``f``.  Both branches are computed
    and one is selected per lane, so every lane rounds as the builtin.
    """
    f = np.zeros(terms.shape[:-1])
    if terms.shape[-1] == 0:
        return f
    f = f + terms[..., 0]
    c = np.zeros_like(f)
    for j in range(1, terms.shape[-1]):
        x = terms[..., j]
        t = f + x
        c = c + np.where(np.abs(f) >= np.abs(x), (f - t) + x, (x - t) + f)
        f = t
    return np.where((c != 0.0) & np.isfinite(c), f + c, f)


@functools.cache
def builtin_sum_fold() -> t.Callable[[np.ndarray], np.ndarray] | None:
    """The fold that equals builtin ``sum`` over floats here, or None.

    Checked once per process: each candidate must equal ``sum`` bit for
    bit on deterministic rows of mixed signs and magnitudes, one of them
    a row on which the two folds differ.  None, when neither does,
    keeps every caller on ``sum``.
    """
    rng = np.random.default_rng(0x5E3D)
    blocks = [np.array([[1e16, 1.0, -1e16], [0.1, 0.2, 0.3]])]
    for n in (1, 2, 3, 7, 8, 30, 64):
        scale = 10.0 ** rng.integers(-12, 13, (16, n))
        blocks.append((rng.random((16, n)) - 0.5) * scale)
    for fold in (left_fold, neumaier_fold):
        if all(
            [v.hex() for v in fold(x).tolist()]
            == [sum(row).hex() for row in x.tolist()]
            for x in blocks
        ):
            return fold
    return None


def column_quantiles(x: np.ndarray, qs: t.Sequence[float]) -> np.ndarray:
    """``np.quantile(x[:, j], qs)`` for every column ``j`` of ``x`` at once.

    numpy's default ("linear") method reads the order statistics at
    ``floor((n - 1) q)`` and the next index (both the last when
    ``(n - 1) q`` reaches ``n - 1``) and joins them with a two-branch
    lerp: ``a + (b - a) g`` below ``g = 0.5``, ``b - (b - a)(1 - g)``
    from it.  One ``np.partition`` of ``x`` along axis 0, at the indices
    numpy partitions each column at (so that even tied ``0.0`` and
    ``-0.0`` land alike), places every column's order statistics, and
    the lerp is evaluated as numpy evaluates it.  Returns shape
    ``(len(qs), x.shape[1])``.  ``x`` holds at least one row and no NaN
    (numpy returns NaN for such a column).
    """
    n = x.shape[0]
    virtual = (n - 1) * np.asarray(qs, dtype=np.float64)
    lo = np.floor(virtual)
    last = virtual >= n - 1
    lo[last] = -1.0
    gamma = (virtual - lo)[:, None]
    lo_i = lo.astype(np.intp)
    hi_i = np.where(last, -1, lo_i + 1)
    kth = np.unique(np.concatenate(([0, -1], lo_i, hi_i)))
    ordered = np.partition(x, kth, axis=0)
    a, b = ordered[lo_i], ordered[hi_i]
    diff = b - a
    return np.where(gamma >= 0.5, b - diff * (1 - gamma), a + diff * gamma)


@functools.cache
def quantiles_match() -> bool:
    """True when :func:`column_quantiles` equals ``np.quantile`` here.

    Checked once per process, bit for bit, on continuous and tied
    columns of every length up to 59 and at 799, 800 and 2400 rows.
    """
    rng = np.random.default_rng(0x9A27)
    qs = (0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 1.0)
    for n in (*range(1, 60), 799, 800, 2400):
        x = np.column_stack((
            rng.normal(size=n),
            np.round(rng.normal(size=n)),
            rng.integers(0, 3, n) * -0.5,
        ))
        got = column_quantiles(x, qs)
        for j in range(x.shape[1]):
            if got[:, j].tobytes() != np.quantile(x[:, j], qs).tobytes():
                return False
    return True


def stacked_solve(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``np.linalg.solve(a[i], b[i])`` for every ``i`` in one call.

    ``a`` is an ``(n, m, m)`` stack and ``b`` an ``(n, m)`` stack of
    right-hand sides, passed as ``(n, m, 1)`` matrices: numpy 2 reads a
    2-D ``b`` beside a 3-D ``a`` as one matrix, numpy 1 as a stack of
    vectors.  Returns ``(n, m)``.
    """
    return np.linalg.solve(a, b[:, :, None])[:, :, 0]


@functools.cache
def stacked_solve_matches() -> bool:
    """True when :func:`stacked_solve` equals per-matrix solves here.

    Checked once per process, bit for bit, on stacks of regularized
    Gram matrices (the normal equations ALS solves) and of general
    matrices.
    """
    rng = np.random.default_rng(0x50E7)
    for m in (1, 2, 8):
        for n in (1, 3, 50):
            vecs = rng.normal(scale=0.5, size=(n, 4, m))
            gram = 0.1 * np.eye(m) + np.einsum("nki,nkj->nij", vecs, vecs)
            for a in (gram, rng.normal(size=(n, m, m))):
                b = rng.normal(size=(n, m))
                stacked = stacked_solve(a, b)
                single = np.array([np.linalg.solve(a[i], b[i]) for i in range(n)])
                if stacked.tobytes() != single.tobytes():
                    return False
    return True

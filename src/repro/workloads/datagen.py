"""Seeded synthetic data generators (the HiBench ``prepare`` phase).

All generators are deterministic given their seed, so experiment sweeps
compare configurations on identical inputs.

Each generator draws the numpy columns its dataset artifact stores
(token ids, CSR offsets, an ASCII blob…) and never builds a record
itself.  The memo wrapper hands those columns to
:func:`repro.workloads.datacache.fetch`, which stores them as they are
when a dataset cache is active and builds the records with the
artifact codec's ``decode``, the same function that serves a cache hit.
Callers always receive records, and fresh and cached datasets share one
decode path.  Two engine-level speedups live here, both
value-identical by construction:

* **Memoization** — direct runs cache results per
  ``(generator, args)``.  A tier sweep of direct runs re-prepares the
  same seeded dataset once per tier; the memo collapses that to one
  generation (generators are pure functions of their arguments).
  Callers get a fresh top-level list each time; record objects are
  shared and treated as immutable by the workloads.  A trace capture
  prepares its workload inside :func:`transient_memo`: a lookup still
  hits the memo, but a miss is kept in the block's own memo.  Every
  later point of a captured class replays without a dataset, so a lone
  capture keeps nothing past its prepare phase; a serial campaign
  holds one block memo across the captures that prepare one dataset
  (an executor × cores grid's cells) and drops it after the last.  A
  direct run that needs the dataset again reads the artifact the
  capture wrote.  The memo answers every repeat of a direct run within
  a process; the artifact cache only serves its misses.
* **Batched drawing** — each column is drawn in as few RNG calls as the
  stream allows, consuming the *same* stream and producing the *same*
  values as the per-record loops it replaced, which are kept as
  ``_naive_*`` so property tests can assert equality.
  ``Generator.zipf`` draws its values one after another, so one
  ``rng.zipf(a, size=(n_docs, words_per_doc))`` call equals ``n_docs``
  calls with ``size=words_per_doc``, row by row.
  ``Generator.choice(n, p=p)`` is replicated exactly by
  ``cdf.searchsorted(rng.random(...), side="right")`` on the normalized
  cumulative distribution — that is choice's own sampling rule, minus
  its per-call validation overhead — so one ``rng.random`` call draws
  the uniforms of a document's per-token word choices, searched per
  topic afterwards.  Draws between which the stream serves another
  distribution (``web_graph``'s Poisson degrees, ``bag_of_words_docs``'s
  per-document Dirichlet) stay in a per-record loop.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import string
import typing as t
from contextvars import ContextVar

import numpy as np

from repro.workloads import datacache

_ALPHABET = np.array(list(string.ascii_lowercase + string.digits))
_ALPHABET_BYTES = np.frombuffer(
    (string.ascii_lowercase + string.digits).encode("ascii"), dtype=np.uint8
)

#: Characters ``random_text_records`` draws per ``integers`` call.
_TEXT_BLOCK_CHARS = 1 << 15

#: Memoized datasets (records) keyed by (generator name, args, kwargs).
_CACHE: dict[tuple, list] = {}

#: The memo of the innermost :func:`transient_memo` block, per thread
#: and task (``None`` outside one: misses go to :data:`_CACHE`).
_TRANSIENT: ContextVar[dict[tuple, list] | None] = ContextVar(
    "datagen_transient", default=None
)


def clear_cache() -> None:
    """Drop all memoized datasets (tests; bounding long-lived processes).

    The next request goes back to the dataset artifact cache (or the
    generator); on-disk artifacts survive, which is their entire point.
    """
    _CACHE.clear()


@contextlib.contextmanager
def transient_memo(memo: dict[tuple, list] | None = None) -> t.Iterator[None]:
    """Within this block a memo miss is kept in ``memo``, not in the
    process memo, so its dataset lives only while the caller holds
    ``memo``.  Without ``memo`` the block uses the enclosing block's, or
    a fresh one dropped on exit.

    Lookups hit the process memo first.  The scope is a context
    variable, so a run on another thread keeps memoizing.
    """
    if memo is None:
        memo = _TRANSIENT.get()
    token = _TRANSIENT.set({} if memo is None else memo)
    try:
        yield
    finally:
        _TRANSIENT.reset(token)


def _memoized(
    func: t.Callable[..., datacache.Columns]
) -> t.Callable[..., list]:
    """Cache the records of ``func``'s columns per exact argument tuple.

    Returns list copies: the shallow copy keeps callers free to
    slice/extend their list without corrupting the cache; records
    themselves are shared.

    A miss goes through :func:`repro.workloads.datacache.fetch`, which
    loads the dataset's artifact when a campaign configured a cache
    (generation then happens once per machine instead of once per
    process) and otherwise runs ``func`` and decodes its columns.
    Inside :func:`transient_memo` a miss is kept in the block's memo.
    """
    name = func.__name__
    signature = inspect.signature(func)

    @functools.wraps(func)
    def wrapper(*args, **kwargs):
        key = (name, args, tuple(sorted(kwargs.items())))
        memo = _TRANSIENT.get()
        hit = _CACHE.get(key)
        if hit is None and memo is not None:
            hit = memo.get(key)
        if hit is None:
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            hit = datacache.fetch(
                name, dict(bound.arguments), lambda: func(*args, **kwargs)
            )
            (_CACHE if memo is None else memo)[key] = hit
        else:
            datacache.note_memo_hit()
        return list(hit)

    return wrapper


def _normalized_cdf(p: np.ndarray) -> np.ndarray:
    """The cumulative distribution ``Generator.choice`` samples from."""
    cdf = p.cumsum()
    cdf /= cdf[-1]
    return cdf


def _choice_exact(
    rng: np.random.Generator, cdf: np.ndarray, size: int | None = None
):
    """Bit-identical replica of ``rng.choice(len(p), p=p, size=size)``.

    Consumes exactly the uniforms choice would (``rng.random(size)``)
    and applies the same right-sided binary search over the normalized
    cumulative distribution, skipping choice's per-call re-validation
    of ``p`` (which dominates tight sampling loops).
    """
    return cdf.searchsorted(rng.random(size), side="right")


@_memoized
def random_text_records(
    n: int, record_len: int = 80, seed: int = 11
) -> datacache.Columns:
    """Uniform random fixed-length text records (teragen-like).

    Column ``blob``: the records' ASCII bytes, back to back.
    """
    if n < 0:
        raise ValueError("n must be non-negative")
    if record_len < 1:
        raise ValueError("record_len must be >= 1")
    rng = np.random.default_rng(seed)
    blob = np.empty((n, record_len), dtype=np.uint8)
    # A 36-value range takes numpy's 32-bit bounded path, which keeps
    # its spare half-word in the bit generator, so blocks of rows draw
    # the values of one (n, record_len) call without its int64 array
    # (8 bytes a character, the prepare phase's largest allocation).
    step = max(1, _TEXT_BLOCK_CHARS // record_len)
    for start in range(0, n, step):
        rows = min(step, n - start)
        chars = rng.integers(0, len(_ALPHABET), size=(rows, record_len))
        blob[start : start + rows] = _ALPHABET_BYTES[chars]
    return {"blob": blob.ravel()}


def _naive_random_text_records(
    n: int, record_len: int = 80, seed: int = 11
) -> list[str]:
    """Pre-optimization reference implementation (property tests)."""
    if n < 0:
        raise ValueError("n must be non-negative")
    rng = np.random.default_rng(seed)
    chars = rng.integers(0, len(_ALPHABET), size=(n, record_len))
    return ["".join(row) for row in _ALPHABET[chars]]


@_memoized
def zipf_words(
    n: int, vocabulary: int = 1000, exponent: float = 1.3, seed: int = 13
) -> datacache.Columns:
    """Zipf-distributed word stream (wordcount/bayes-style text).

    Column ``ranks``: each word's rank ``r``, capped at ``vocabulary``;
    the word is ``f"word{r}"``.
    """
    if vocabulary < 1:
        raise ValueError("vocabulary must be >= 1")
    rng = np.random.default_rng(seed)
    return {"ranks": np.minimum(rng.zipf(exponent, size=n), vocabulary)}


def _naive_zipf_words(
    n: int, vocabulary: int = 1000, exponent: float = 1.3, seed: int = 13
) -> list[str]:
    """Pre-optimization reference implementation (property tests)."""
    if vocabulary < 1:
        raise ValueError("vocabulary must be >= 1")
    rng = np.random.default_rng(seed)
    ranks = rng.zipf(exponent, size=n)
    ranks = np.minimum(ranks, vocabulary)
    return [f"word{r}" for r in ranks]


@_memoized
def rating_triples(
    n_users: int, n_products: int, n_ratings: int, seed: int = 17
) -> datacache.Columns:
    """(user, product, rating) triples for ALS.

    Columns ``users``, ``products`` and ``ratings``, one entry per
    triple.
    """
    rng = np.random.default_rng(seed)
    users = rng.integers(0, n_users, size=n_ratings)
    products = rng.integers(0, n_products, size=n_ratings)
    # Ratings follow a low-rank structure so ALS has signal to recover.
    rank = 4
    u_factors = rng.normal(size=(n_users, rank))
    p_factors = rng.normal(size=(n_products, rank))
    noise = rng.normal(scale=0.1, size=n_ratings)
    ratings = np.einsum("ij,ij->i", u_factors[users], p_factors[products]) + noise
    ratings = np.clip(2.5 + ratings, 1.0, 5.0)
    return {"users": users, "products": products, "ratings": ratings}


@_memoized
def labeled_documents(
    n_docs: int,
    n_classes: int,
    vocabulary: int = 500,
    words_per_doc: int = 30,
    seed: int = 19,
) -> datacache.Columns:
    """(label, words) documents with class-dependent word distributions.

    Columns ``labels`` and ``word_ids`` (one row per document); word
    ``i`` is ``f"w{i}"``.
    """
    rng = np.random.default_rng(seed)
    labels = rng.integers(0, n_classes, size=n_docs)
    # Each class prefers a slice of the vocabulary.
    base = labels * vocabulary // max(1, n_classes)
    offsets = rng.zipf(1.4, size=(n_docs, words_per_doc))
    word_ids = (
        base[:, None] + np.minimum(offsets, vocabulary // 2)
    ) % vocabulary
    return {"labels": labels, "word_ids": word_ids}


def _naive_labeled_documents(
    n_docs: int,
    n_classes: int,
    vocabulary: int = 500,
    words_per_doc: int = 30,
    seed: int = 19,
) -> list[tuple[int, list[str]]]:
    """Pre-optimization reference implementation (property tests)."""
    rng = np.random.default_rng(seed)
    docs: list[tuple[int, list[str]]] = []
    labels = rng.integers(0, n_classes, size=n_docs)
    names = [f"w{word}" for word in range(vocabulary)]
    for label in labels:
        base = (int(label) * vocabulary) // max(1, n_classes)
        offsets = rng.zipf(1.4, size=words_per_doc)
        word_ids = (base + np.minimum(offsets, vocabulary // 2)) % vocabulary
        docs.append((int(label), [names[w] for w in word_ids.tolist()]))
    return docs


@_memoized
def labeled_vectors(
    n_examples: int, n_features: int, n_classes: int = 2, seed: int = 23
) -> datacache.Columns:
    """(label, feature-vector) examples with separable class means.

    Columns ``labels`` and ``points`` (one row per example).
    """
    rng = np.random.default_rng(seed)
    means = rng.normal(scale=2.0, size=(n_classes, n_features))
    labels = rng.integers(0, n_classes, size=n_examples)
    points = means[labels] + rng.normal(size=(n_examples, n_features))
    return {"labels": labels, "points": points}


@_memoized
def bag_of_words_docs(
    n_docs: int,
    vocabulary: int,
    n_topics: int,
    words_per_doc: int = 40,
    seed: int = 29,
) -> datacache.Columns:
    """Token-id documents drawn from a topic mixture (LDA input).

    Column ``word_ids``: one row of token ids per document.
    """
    rng = np.random.default_rng(seed)
    # Topic-word distributions concentrated on vocabulary slices.
    topic_cdfs = []
    per_topic = max(1, vocabulary // max(1, n_topics))
    for k in range(n_topics):
        weights = np.full(vocabulary, 0.1)
        weights[k * per_topic : (k + 1) * per_topic] += 5.0
        topic_cdfs.append(_normalized_cdf(weights / weights.sum()))
    topics = np.empty((n_docs, words_per_doc), dtype=np.intp)
    uniforms = np.empty((n_docs, words_per_doc))
    for doc in range(n_docs):
        theta = rng.dirichlet(np.full(n_topics, 0.3))
        topics[doc] = _choice_exact(rng, _normalized_cdf(theta), words_per_doc)
        # The uniforms of the document's per-token word draws, in order.
        uniforms[doc] = rng.random(words_per_doc)
    word_ids = np.empty((n_docs, words_per_doc), dtype=np.int64)
    for k, cdf in enumerate(topic_cdfs):
        drawn = topics == k
        word_ids[drawn] = cdf.searchsorted(uniforms[drawn], side="right")
    return {"word_ids": word_ids}


def _naive_bag_of_words_docs(
    n_docs: int,
    vocabulary: int,
    n_topics: int,
    words_per_doc: int = 40,
    seed: int = 29,
) -> list[list[int]]:
    """Pre-optimization reference implementation (property tests)."""
    rng = np.random.default_rng(seed)
    topic_words = []
    per_topic = max(1, vocabulary // max(1, n_topics))
    for k in range(n_topics):
        weights = np.full(vocabulary, 0.1)
        weights[k * per_topic : (k + 1) * per_topic] += 5.0
        topic_words.append(weights / weights.sum())
    docs: list[list[int]] = []
    for _ in range(n_docs):
        theta = rng.dirichlet(np.full(n_topics, 0.3))
        topics = rng.choice(n_topics, size=words_per_doc, p=theta)
        words = [
            int(rng.choice(vocabulary, p=topic_words[k])) for k in topics
        ]
        docs.append(words)
    return docs


@_memoized
def web_graph(
    n_pages: int, out_degree: int = 6, seed: int = 31
) -> datacache.Columns:
    """(page, outlinks) adjacency with preferential attachment skew.

    CSR columns: page ``p``'s sorted outlinks are
    ``targets[offsets[p]:offsets[p + 1]]``.
    """
    if n_pages < 1:
        raise ValueError("n_pages must be >= 1")
    rng = np.random.default_rng(seed)
    # Zipf-ish popularity: low page-ids attract more links.
    popularity = 1.0 / np.arange(1, n_pages + 1) ** 0.8
    popularity /= popularity.sum()
    # Each page draws its degree, then that many uniforms (what
    # ``_choice_exact`` would consume), in the stream's order; the
    # searches, dedup and sort then run once over every draw.
    counts = np.empty(n_pages, dtype=np.int64)
    uniforms = []
    for page in range(n_pages):
        degree = min(max(1, int(rng.poisson(out_degree))), n_pages)
        counts[page] = degree
        uniforms.append(rng.random(degree))
    drawn = _normalized_cdf(popularity).searchsorted(
        np.concatenate(uniforms), side="right"
    )
    source = np.repeat(np.arange(n_pages, dtype=np.int64), counts)
    # Sort each page's links, drop repeats and self-links.
    order = np.lexsort((drawn, source))
    source, drawn = source[order], drawn[order]
    keep = drawn != source
    keep[1:] &= (drawn[1:] != drawn[:-1]) | (source[1:] != source[:-1])
    source, drawn = source[keep], drawn[keep]
    # A page left without links points at the next page instead.
    lonely = np.flatnonzero(np.bincount(source, minlength=n_pages) == 0)
    if lonely.size:
        at = np.searchsorted(source, lonely)
        source = np.insert(source, at, lonely)
        drawn = np.insert(drawn, at, (lonely + 1) % n_pages)
    offsets = np.zeros(n_pages + 1, dtype=np.int64)
    np.cumsum(np.bincount(source, minlength=n_pages), out=offsets[1:])
    return {"offsets": offsets, "targets": drawn.astype(np.int64)}


def _naive_web_graph(
    n_pages: int, out_degree: int = 6, seed: int = 31
) -> list[tuple[int, list[int]]]:
    """Pre-optimization reference implementation (property tests)."""
    if n_pages < 1:
        raise ValueError("n_pages must be >= 1")
    rng = np.random.default_rng(seed)
    popularity = 1.0 / np.arange(1, n_pages + 1) ** 0.8
    popularity /= popularity.sum()
    adjacency: list[tuple[int, list[int]]] = []
    for page in range(n_pages):
        degree = max(1, int(rng.poisson(out_degree)))
        targets = rng.choice(n_pages, size=min(degree, n_pages), p=popularity)
        links = sorted({int(x) for x in targets if int(x) != page})
        if not links:
            links = [(page + 1) % n_pages]
        adjacency.append((page, links))
    return adjacency

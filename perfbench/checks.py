"""Output validation for benchmark jobs, run outside the timed region.

Every job output is reduced to a digest of its data lines (``#`` config
lines are skipped: they echo paths and ``--stats`` fields).  At the
default seed the digests must equal the recorded ones in digests.json.
For every seed each job also passes an independent check of its own:

* generated words satisfy the fixpoint property against their base
  sequence, re-derived here with numpy, and the stream prefix equals
  ``kolakoski_prefix`` on its first 10^5 letters;
* frequency CSVs are recomputed with ``np.bincount``;
* recurrence and gap rows are spot-checked against ``NaiveFactorScan``
  on a 2x10^4-letter prefix;
* closure witnesses are re-searched in the word;
* chain and stream expansions equal a level-by-level ``np.repeat``
  expansion; sampled directive words expand to odd palindromes;
* the substitution iterate passes ``verify_fixpoint_prefix`` and the
  primitivity exponent is recomputed from the rules.

A check returns None when the output is right and a one-line reason
when it is not.
"""

from __future__ import annotations

import csv
import hashlib
import io

import numpy as np

import smoothwords
from smoothwords import NaiveFactorScan
from workloads import chain_expansion

NAIVE_PREFIX = 2 * 10**4
STREAM_PREFIX = 10**5
SAMPLES = 20


def data_lines(path) -> list[bytes]:
    with open(path, "rb") as handle:
        lines = handle.read().split(b"\n")
    return [
        line.rstrip(b"\r") for line in lines
        if line.strip() and not line.lstrip().startswith(b"#")
    ]


def digest(path) -> str:
    return hashlib.sha256(b"\n".join(data_lines(path))).hexdigest()


def parse_word(path) -> np.ndarray:
    lines = data_lines(path)
    if len(lines) != 1:
        raise ValueError(f"expected one word line, found {len(lines)}")
    return np.fromstring(lines[0], dtype=np.int64, sep=" ")


def csv_rows(path) -> list[list[str]]:
    text = b"\n".join(data_lines(path)).decode()
    rows = list(csv.reader(io.StringIO(text)))
    return rows[1:]  # drop the header


def base_sequence(period, preperiod, count: int) -> np.ndarray:
    """The first ``count`` letters of ``preperiod · period^ω``."""
    head = np.asarray(preperiod, dtype=np.int64)[:count]
    tail = np.asarray(period, dtype=np.int64)
    return np.concatenate((head, tail[np.arange(count - head.size) % tail.size]))


def runs(w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Start positions and lengths of the maximal runs of a nonempty word."""
    starts = np.concatenate(([0], np.flatnonzero(w[1:] != w[:-1]) + 1))
    return starts, np.diff(np.concatenate((starts, [w.size])))


def fixpoint_failure(w: np.ndarray, period, preperiod=()) -> str | None:
    """Whether ``w`` is the prefix of the run-length fixpoint over the base.

    Run j must use the j-th base letter and have length ``w[j]``; the
    last run may be cut short.  Together these pin the word down.
    """
    if w.size == 0:
        return "empty word"
    starts, lengths = runs(w)
    if not np.array_equal(w[starts], base_sequence(period, preperiod, starts.size)):
        return "run letters do not follow the base sequence"
    if not np.array_equal(lengths[:-1], w[: lengths.size - 1]):
        return "run lengths differ from the word itself"
    if lengths[-1] > w[lengths.size - 1]:
        return "last run longer than its length letter"
    return None


class Context:
    """Shared state of one validation: paths and cached oracles."""

    def __init__(self, path_of):
        self.path_of = path_of
        self._cache: dict = {}

    def cached(self, key, make):
        if key not in self._cache:
            self._cache[key] = make()
        return self._cache[key]

    def word(self, p: dict, length: int) -> np.ndarray:
        """Library prefix of a job's word, itself checked independently."""
        key = ("word", tuple(p["period"]), tuple(p["preperiod"]), length)

        def make():
            spec = smoothwords.BaseSequenceSpec(
                smoothwords.Alphabet(tuple(p["alphabet"])), tuple(p["period"]),
                tuple(p["preperiod"]),
            )
            w = smoothwords.kolakoski_prefix(spec, length).to_array()
            why = fixpoint_failure(w, p["period"], p["preperiod"])
            if why:
                raise ValueError(f"library prefix fails the fixpoint check: {why}")
            return w

        return self.cached(key, make)

    def naive(self, p: dict, l_max: int) -> NaiveFactorScan:
        key = ("naive", tuple(p["period"]), tuple(p["preperiod"]), l_max)
        return self.cached(key, lambda: NaiveFactorScan(self.word(p, NAIVE_PREFIX), l_max))

    def expansion(self, p: dict) -> np.ndarray:
        key = ("chain", tuple(p["order"]), tuple(p["chain"]), tuple(p["target"]))
        return self.cached(key, lambda: chain_expansion(p["chain"], p["target"], p["order"]))


# ---------------------------------------------------------------------------
# per-kind checks


def check_generate(job, path, ctx):
    p = job.params
    w = parse_word(path)
    if w.size != p["length"]:
        return f"{w.size} letters, expected {p['length']}"
    why = fixpoint_failure(w, p["period"], p["preperiod"])
    if why:
        return why
    if p["stats"]:
        k = min(STREAM_PREFIX, w.size)
        if not np.array_equal(w[:k], ctx.word(p, k)):
            return "stream output differs from kolakoski_prefix"
    return None


def _frequency_rows(w: np.ndarray, samples, alphabet) -> list[list[str]]:
    n = len(alphabet)
    rows = []
    for k in sorted(set(samples)):
        counts = np.bincount(w[:k], minlength=max(alphabet) + 1)
        for letter in alphabet:
            ratio = int(counts[letter]) / k
            rows.append([
                str(k), str(letter), str(int(counts[letter])),
                f"{ratio:.9f}", f"{abs(ratio - 1.0 / n):.9f}",
            ])
    return rows


def check_freq(job, path, ctx):
    p = job.params
    if "input" in p:
        w = ctx.cached(("parsed", p["input"]), lambda: parse_word(ctx.path_of(p["input"])))
        samples = [w.size]
    else:
        samples = p["samples"]
        w = ctx.word(p, max(samples))
    if csv_rows(path) != _frequency_rows(w, samples, p["alphabet"]):
        return "frequency rows differ from np.bincount counts"
    return None


def _sorted_rows(rows) -> bool:
    keys = [(int(r[0]), tuple(int(x) for x in r[1].split())) for r in rows]
    return keys == sorted(keys)


def check_recur(job, path, ctx):
    p = job.params
    rows = csv_rows(path)
    if not _sorted_rows(rows):
        return "rows not ordered by length, then factor"
    naive = ctx.naive(p, p["l_max"])
    got: dict[int, dict[tuple, list[str]]] = {}
    for r in rows:
        got.setdefault(int(r[0]), {})[tuple(int(x) for x in r[1].split())] = r
    for length in range(1, p["l_max"] + 1):
        early = {
            f for f in naive.factor_set(length)
            if naive.occurrences(f)[0] <= p["scan_len"] - length
        }
        rows_l = got.get(length, {})
        if set(rows_l) != early:
            return f"length {length}: factor set differs from NaiveFactorScan"
        for f, r in rows_l.items():
            occ = naive.occurrences(f)
            if int(r[2]) != occ[0] + 1:
                return f"length {length}: first occurrence differs"
            if len(occ) >= 2:
                if r[3] != str(occ[1] + 1) or r[4] != "1":
                    return f"length {length}: second occurrence differs"
            elif r[3] and int(r[3]) <= NAIVE_PREFIX - length + 1:
                return f"length {length}: second occurrence inside the naive prefix"
    return None


def check_gaps(job, path, ctx):
    p = job.params
    rows = csv_rows(path)
    if not _sorted_rows(rows):
        return "rows not ordered by length, then factor"
    naive = ctx.naive(p, p["l_max"])
    got: dict[tuple, tuple[int, int]] = {}
    totals: dict[int, int] = {}
    for r in rows:
        length = int(r[0])
        got[tuple(int(x) for x in r[1].split())] = (int(r[2]), int(r[3]))
        totals[length] = totals.get(length, 0) + int(r[2])
    for length in range(1, p["l_max"] + 1):
        if totals.get(length) != p["length"] - length + 1:
            return f"length {length}: occurrences do not sum to the start positions"
        for f in naive.factor_set(length):
            if f not in got:
                return f"length {length}: factor of the prefix missing"
            count, gap = got[f]
            if count < len(naive.occurrences(f)) or gap < naive.max_gap(f):
                return f"length {length}: count or gap below the naive prefix value"
    return None


def _occurs(w: np.ndarray, f) -> bool:
    idx = np.flatnonzero(w[: w.size - len(f) + 1] == f[0])
    for j in range(1, len(f)):
        idx = idx[w[idx + j] == f[j]]
    return idx.size > 0


def check_closure(job, path, ctx):
    p = job.params
    n = p["length"]
    w = ctx.word(p, n)
    a, b = p["alphabet"][0], p["alphabet"][-1]

    def image(f):
        if p["op"] == "reversal":
            return tuple(reversed(f))
        return tuple(b if x == a else a for x in f)

    rows = csv_rows(path)
    witnesses = set()
    rng = np.random.default_rng(len(rows))
    for r in rows:
        f = tuple(int(x) for x in r[1].split())
        witnesses.add(f)
        pos = int(r[4]) - 1
        if r[3] != "absent" or tuple(int(x) for x in r[2].split()) != image(f):
            return "witness row with a wrong image or verdict"
        if not n // 3 <= pos < 2 * n // 3 or tuple(w[pos : pos + len(f)]) != f:
            return "witness factor not at its middle-third position"
    for i in rng.permutation(len(rows))[:SAMPLES]:
        if _occurs(w, tuple(int(x) for x in rows[i][2].split())):
            return "witness image occurs in the word"
    for _ in range(SAMPLES):  # factors that are not witnesses have images
        length = int(rng.integers(1, p["l_max"] + 1))
        pos = int(rng.integers(n // 3, 2 * n // 3))
        f = tuple(int(x) for x in w[pos : pos + length])
        if f not in witnesses and not _occurs(w, image(f)):
            return "image of a middle-third factor missing but not reported"
    return None


def check_expand(job, path, ctx):
    if not np.array_equal(parse_word(path), ctx.expansion(job.params)):
        return "chain expansion differs from the level-wise np.repeat expansion"
    return None


def check_stream(job, path, ctx):
    m = job.params["length"]
    if not np.array_equal(parse_word(path), ctx.expansion(job.params)[:m]):
        return "stream letters differ from the level-wise expansion"
    return None


def _substitution(p):
    order = smoothwords.CyclicOrder.from_letters(p["order"])
    return smoothwords.build_substitution(order.alphabet, order), order


def check_subst_fixpoint(job, path, ctx):
    p = job.params
    m = p["length"]
    if data_lines(path) != [f"fixpoint_match=True length={m}".encode()]:
        return "unexpected verify-fixpoint output"
    sub, order = _substitution(p)
    blocks = (sub.seed,)
    while sum(len(sub.blocks[s].expansion) for s in blocks) < m:
        blocks = smoothwords.apply(sub, blocks)
    flat = np.concatenate([sub.blocks[s].expansion for s in blocks])[:m]
    word = smoothwords.Word.from_array(flat, order.alphabet, is_prefix=True, validate=False)
    if not smoothwords.verify_fixpoint_prefix(word):
        return "substitution iterate fails verify_fixpoint_prefix"
    return fixpoint_failure(flat, order.arrangement)


def check_subst_primitive(job, path, ctx):
    sub, _ = _substitution(job.params)
    names = list(sub.rules)
    m = np.array([[sub.rules[c].count(r) for c in names] for r in names]) > 0
    power, k = m.copy(), 1
    while not power.all() and k <= len(names) ** 2:
        power, k = (power.astype(int) @ m.astype(int)) > 0, k + 1
    if data_lines(path) != [f"primitive=True k={k}".encode()]:
        return f"primitivity output differs from recomputed k={k}"
    return None


def check_palindrome(job, path, ctx):
    p = job.params
    k = p["k"]
    if data_lines(path) != [f"odd_palindromes=True k={k}".encode()]:
        return "palindrome check did not pass"
    rng = np.random.default_rng(k)
    letters = p["order"]
    words = [(letters[0],) * k, (letters[-1],) * k]
    words += [
        tuple(int(x) for x in rng.choice(letters, size=int(rng.integers(1, k + 1))))
        for _ in range(SAMPLES)
    ]
    for u in words:
        e = chain_expansion(u[:-1], u[-1:], p["order"])
        if e.size % 2 == 0 or not np.array_equal(e, e[::-1]):
            return f"directive word {u} does not expand to an odd palindrome"
    return None


def check_suites(job, path, ctx):
    lines = data_lines(path)
    if len(lines) != 1 or not lines[0].startswith(b"passed=True "):
        return "property suites did not pass"
    rng = np.random.default_rng(job.params["seed"])
    for _ in range(SAMPLES):
        w = rng.integers(1, 4, size=int(rng.integers(1, 40)))
        rd = smoothwords.rle_encode(smoothwords.Word(tuple(w.tolist())))
        starts, lengths = runs(w)
        if rd.exponents != tuple(lengths.tolist()) or rd.bases != tuple(w[starts].tolist()):
            return "rle_encode differs from the numpy run decomposition"
    return None


CHECKS = {
    "generate": check_generate,
    "freq": check_freq,
    "recur": check_recur,
    "gaps": check_gaps,
    "closure": check_closure,
    "expand": check_expand,
    "stream": check_stream,
    "subst_fixpoint": check_subst_fixpoint,
    "subst_primitive": check_subst_primitive,
    "palindrome": check_palindrome,
    "suites": check_suites,
}


def _word_letters(path) -> int:
    return data_lines(path)[0].count(b" ") + 1


def largest_array_bytes(job, path, ctx) -> int:
    """Computed size of the job's largest int64 letter array, in bytes."""
    p = job.params
    if job.kind in ("expand", "stream", "generate"):
        letters = _word_letters(path)
    elif "input" in p:
        letters = _word_letters(ctx.path_of(p["input"]))
    elif job.kind == "palindrome":
        top = (p["order"][-1],) * p["k"]
        letters = chain_expansion(top[:-1], top[-1:], p["order"]).size
    elif job.kind == "suites":
        letters = 40
    elif job.kind == "subst_primitive":
        letters = 0
    else:
        letters = p["length"]
    return 8 * letters

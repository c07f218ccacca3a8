"""Child process for one benchmark job.

    python3 perfbench/jobs.py run   JOB_JSON OUT
    python3 perfbench/jobs.py trace JOB_JSON OUT SPANS INPUTS_JSON

``run`` executes a library job (one without a CLI command) untraced.
``trace`` replays any job: it makes the library calls the CLI command
makes, in the same order, each inside a span, with ``index=`` passed
so factor indexing and report building time separately.  It then runs
the job's in-process checks under a ``check`` span and writes spans and
counters as JSON to SPANS.  INPUTS_JSON maps job ids to the output
files other jobs read.  Output files use the CLI's line format, so
their data lines can be compared with the untraced pass.

Exit codes follow the CLI: 0 success, 2 a verification verdict failed,
1 anything raised.
"""

from __future__ import annotations

import io
import itertools
import json
import os
import sys
import weakref

import numpy as np

from tracing import NullTracer, Tracer
from workloads import Job

import smoothwords
from smoothwords import analysis, factors, substitution
from smoothwords.verify import check_property_suites


def _spec(p: dict) -> smoothwords.BaseSequenceSpec:
    alphabet = smoothwords.Alphabet(tuple(p["alphabet"]))
    return smoothwords.BaseSequenceSpec(alphabet, tuple(p["period"]), tuple(p["preperiod"]))


def _write(out: str, body: str) -> int:
    with open(out, "w", encoding="utf-8", newline="") as handle:
        handle.write("# replay\n")
        handle.write(body)
    return os.path.getsize(out)


def _prefix(tr: Tracer, p: dict):
    with tr.span("kolakoski.prefix"):
        word = smoothwords.kolakoski_prefix(_spec(p), p["length"])
    tr.count("kolakoski.prefix_letters", len(word))
    return word


def _csv(tr: Tracer, write) -> str:
    buf = io.StringIO(newline="")
    with tr.span("analysis.csv"):
        write(buf)
    return buf.getvalue()


def _id_cache_mb(tr: Tracer, idx, l_max: int) -> None:
    ids = getattr(idx, "ids", None)
    if ids is not None:
        mb = sum(ids(L).nbytes for L in range(1, l_max + 1)) / 2**20
        tr.count_max("factors.id_cache_mb", mb)


def replay_generate(job, tr, out, path_of, checks):
    p = job.params
    if p["stats"]:
        with tr.span("kolakoski.stream"):
            stream = smoothwords.kolakoski_stream(_spec(p))
            word = stream.take(p["length"])
        tr.count("kolakoski.stream_letters", p["length"])
        tr.count("kolakoski.stream_peak_buffer", getattr(stream, "max_gap", 0))
    else:
        word = _prefix(tr, p)
    with tr.span("words.format"):
        text = smoothwords.format_symbols(word)
    tr.count("words.bytes_out", _write(out, text + "\n"))
    if checks:
        with tr.span("check"):
            with tr.span("kolakoski.verify"):
                ok = smoothwords.verify_fixpoint_prefix(word)
            with tr.span("words.rle"):
                exps = smoothwords.rle_encode(word).exponents.to_array()[:-1]
            ok = ok and bool((exps == word.to_array()[: exps.size]).all())
        if not ok:
            return 2
    return 0


def replay_freq(job, tr, out, path_of, checks):
    p = job.params
    alphabet = smoothwords.Alphabet(tuple(p["alphabet"]))
    if "input" in p:
        path = path_of(p["input"])
        with open(path, encoding="utf-8") as handle:
            line = next(r for r in handle if r.strip() and not r.lstrip().startswith("#"))
        tr.count("words.bytes_in", os.path.getsize(path))
        with tr.span("words.parse"):
            word = smoothwords.Word(smoothwords.parse_symbols(line), alphabet)
    else:
        word = _prefix(tr, p)
    samples = p.get("samples") or [len(word)]
    with tr.span("analysis.frequency"):
        report = smoothwords.letter_frequencies(word, samples, alphabet)
    _write(out, _csv(tr, report.to_csv))
    return 0


def replay_recur(job, tr, out, path_of, checks):
    p = job.params
    word = _prefix(tr, p)
    idx = smoothwords.FactorIndex(word, p["l_max"])
    with tr.span("analysis.recurrence"):
        report = smoothwords.recurrence_report(
            word, p["l_max"], scan_len=p["scan_len"], index=idx
        )
    tr.count("analysis.rows", len(report.rows))
    _write(out, _csv(tr, report.to_csv))
    _id_cache_mb(tr, idx, p["l_max"])
    return 0 if report.all_recurrent else 2


def replay_gaps(job, tr, out, path_of, checks):
    p = job.params
    word = _prefix(tr, p)
    idx = smoothwords.FactorIndex(word, p["l_max"])
    with tr.span("analysis.gaps"):
        report = smoothwords.max_gap_report(word, p["l_max"], index=idx)
    tr.count("analysis.rows", len(report.rows))
    _write(out, _csv(tr, report.to_csv))
    _id_cache_mb(tr, idx, p["l_max"])
    del idx
    with tr.span("analysis.stability"):
        stability = smoothwords.gap_stability_check(word, p["l_max"])
    return 0 if stability.all_stable else 2


def replay_closure(job, tr, out, path_of, checks):
    p = job.params
    word = _prefix(tr, p)
    if p["op"] == "reversal":
        op = "reversal"
    else:
        op = smoothwords.Permutation.complement(word.alphabet)
    idx = smoothwords.FactorIndex(word, p["l_max"])
    with tr.span("analysis.closure"):
        witnesses = smoothwords.closure_check(word, op, p["l_max"], index=idx)
    tr.count("analysis.rows", len(witnesses))
    _write(out, _csv(tr, lambda buf: analysis.write_witness_csv(witnesses, buf)))
    _id_cache_mb(tr, idx, p["l_max"])
    return 0


def _expansion(p):
    order = smoothwords.CyclicOrder.from_letters(p["order"])
    return order, tuple(p["chain"]), smoothwords.Word(tuple(p["target"]))


def replay_expand(job, tr, out, path_of, checks):
    order, chain, target = _expansion(job.params)
    with tr.span("expansion.chain"):
        word = smoothwords.pseudo_inverse_chain(chain, target, order)
    tr.count("expansion.chain_letters", len(word))
    with tr.span("words.format"):
        text = smoothwords.format_symbols(word)
    tr.count("words.bytes_out", _write(out, text + "\n"))
    return 0


def replay_stream(job, tr, out, path_of, checks):
    order, chain, target = _expansion(job.params)
    m = job.params["length"]
    with tr.span("expansion.stream"):
        letters = smoothwords.expand_stream(chain, target, order)
        arr = np.fromiter(itertools.islice(letters, m), dtype=np.int64, count=m)
    with tr.span("words.format"):
        text = smoothwords.format_symbols(arr.tolist())
    tr.count("words.bytes_out", _write(out, text + "\n"))
    return 0


def _substitution(p):
    order = smoothwords.CyclicOrder.from_letters(p["order"])
    return smoothwords.build_substitution(order.alphabet, order), order


def replay_subst_fixpoint(job, tr, out, path_of, checks):
    m = job.params["length"]
    sub, order = _substitution(job.params)
    spec = smoothwords.BaseSequenceSpec(order.alphabet, order.arrangement)
    with tr.span("substitution.verify_fixpoint"):
        ok = smoothwords.verify_substitution_fixpoint(sub, spec, m)
    _write(out, f"fixpoint_match={ok} length={m}\n")
    if checks:
        with tr.span("check"):
            with tr.span("substitution.iterate"):
                t = 0
                flat = smoothwords.Word(())
                while len(flat) < m:
                    t += 1
                    flat = smoothwords.flatten(sub, smoothwords.iterate(sub, sub.seed, t))
            prefix = smoothwords.Word.from_array(
                flat.to_array()[:m], order.alphabet, is_prefix=True, validate=False
            )
            with tr.span("kolakoski.verify"):
                ok = ok and smoothwords.verify_fixpoint_prefix(prefix)
    return 0 if ok else 2


def replay_subst_primitive(job, tr, out, path_of, checks):
    sub, _ = _substitution(job.params)
    with tr.span("substitution.primitive"):
        primitive, k = smoothwords.is_primitive(sub)
    _write(out, f"primitive={primitive} k={k}\n")
    return 0 if primitive else 2


def replay_palindrome(job, tr, out, path_of, checks):
    order = smoothwords.CyclicOrder.from_letters(job.params["order"])
    with tr.span("analysis.palindrome"):
        ok = smoothwords.phi_inverse_palindrome_check(order, job.params["k"])
    _write(out, f"odd_palindromes={ok} k={job.params['k']}\n")
    return 0 if ok else 2


def replay_suites(job, tr, out, path_of, checks):
    with tr.span("verify.property_suites"):
        result = check_property_suites(job.params["seed"])
    _write(out, f"passed={result.passed} {result.detail}\n")
    return 0 if result.passed else 2


REPLAY = {
    "generate": replay_generate,
    "freq": replay_freq,
    "recur": replay_recur,
    "gaps": replay_gaps,
    "closure": replay_closure,
    "expand": replay_expand,
    "stream": replay_stream,
    "subst_fixpoint": replay_subst_fixpoint,
    "subst_primitive": replay_subst_primitive,
    "palindrome": replay_palindrome,
    "suites": replay_suites,
}


def _instrument(tr: Tracer) -> None:
    """Spans around the factor index methods and cross-module calls."""
    seen: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()

    def on_groups(args, result):
        idx, length = args[0], args[1]
        lengths = seen.setdefault(idx, set())
        if length not in lengths:  # count each computed group table once
            lengths.add(length)
            tr.count("factors.groups", getattr(result, "group_count", 0))
            tr.count("factors.positions", idx.starts(length))

    tr.wrap(factors.FactorIndex, "__init__", "factors.index")
    tr.wrap(factors.FactorIndex, "groups", "factors.groups", on_groups)
    tr.wrap(factors.FactorIndex, "factor_set", "factors.factor_set")
    # calls one module makes into another, by the name it imported
    tr.wrap(substitution, "kolakoski_prefix", "kolakoski.prefix",
            lambda args, w: tr.count("kolakoski.prefix_letters", len(w)))
    tr.wrap(analysis, "phi_inverse_prefix", "expansion.phi_inverse")


def main(argv: list[str]) -> int:
    mode, job = argv[0], Job.from_dict(json.loads(argv[1]))
    out = argv[2]
    inputs = {}
    if mode == "trace":
        spans_path, inputs = argv[3], json.loads(argv[4])
        tr: Tracer = Tracer(job.id)
        _instrument(tr)
    else:
        tr = NullTracer(job.id)
    with tr.span("job"):
        rc = REPLAY[job.kind](job, tr, out, inputs.__getitem__, mode == "trace")
    if mode == "trace":
        with open(spans_path, "w", encoding="utf-8") as handle:
            json.dump({"spans": tr.spans, "counters": tr.counters}, handle)
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

"""The library surface that the benchmark under ``perfbench/`` calls.

The benchmark's replays and output checks call ``smoothwords`` by name.
A name they use that the library no longer has would fail the benchmark
run as incorrect output; these tests read the benchmark's files and fail
first.
"""

import ast
import importlib
import json
import re
from pathlib import Path

import pytest

import smoothwords

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
SOURCES = sorted(PERFBENCH.glob("*.py"))


def _resolve(dotted: str):
    """The object a dotted name stands for, importing submodules on the way."""
    parts = dotted.split(".")
    obj = importlib.import_module(parts[0])
    for i, part in enumerate(parts[1:], 2):
        try:
            obj = getattr(obj, part)
        except AttributeError:
            obj = importlib.import_module(".".join(parts[:i]))
    return obj


def _chain(node: ast.expr) -> list[str] | None:
    """``[a, b, c]`` for the expression ``a.b.c`` on a plain name."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    return [node.id, *reversed(parts)] if isinstance(node, ast.Name) else None


def _references(path: Path) -> set[str]:
    """Every library name a file uses: ``smoothwords.x.y`` anywhere in its
    text (command lines too), the names it imports from the package, and
    the attributes it reads on those names."""
    text = path.read_text(encoding="utf-8")
    names = set(re.findall(r"\bsmoothwords(?:\.\w+)+", text))
    imported = {}
    tree = ast.parse(text, str(path))
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module:
            if node.module.split(".")[0] == "smoothwords":
                for alias in node.names:
                    imported[alias.asname or alias.name] = f"{node.module}.{alias.name}"
    names.update(imported.values())
    for node in ast.walk(tree):
        chain = _chain(node) if isinstance(node, ast.Attribute) else None
        if chain and chain[0] in imported:
            names.add(".".join([imported[chain[0]], *chain[1:]]))
    return names


def test_perfbench_is_present():
    assert any(path.name == "checks.py" for path in SOURCES)


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_every_library_name_perfbench_uses_resolves(path):
    missing = []
    for name in sorted(_references(path)):
        try:
            _resolve(name)
        except (AttributeError, ImportError):
            missing.append(name)
    assert missing == []


def _subst_orders() -> list:
    """The cyclic orders the benchmark draws substitutions from."""
    tree = ast.parse((PERFBENCH / "workloads.py").read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and _chain(node.targets[0]) == ["SUBST_ORDERS"]:
            return list(ast.literal_eval(node.value))
    raise AssertionError("no SUBST_ORDERS in perfbench/workloads.py")


@pytest.mark.parametrize(
    "letters", _subst_orders(), ids=lambda order: "-".join(map(str, order))
)
def test_apply_keeps_taking_block_names(letters):
    # the substitution checks grow the seed's block word with ``apply`` and
    # read each name's expansion and each rule's counts by block name
    order = smoothwords.CyclicOrder.from_letters(letters)
    sub = smoothwords.build_substitution(order.alphabet, order)
    blocks = (sub.seed,)
    for _ in range(3):
        blocks = smoothwords.apply(sub, blocks)
        assert all(name in sub.blocks and name in sub.rules for name in blocks)
    for c in sub.rules:  # every letter of a rule is a block name
        assert sum(sub.rules[c].count(r) for r in sub.rules) == len(sub.rules[c])
    flat = [a for name in blocks for a in sub.blocks[name].expansion]
    assert set(flat) <= set(order.alphabet.letters)


@pytest.mark.parametrize("workload", ["generate", "factor_reports", "expand"])
def test_every_replay_and_output_check_runs(workload, tmp_path, monkeypatch):
    # names alone do not show a dropped attribute (``report.rows``,
    # ``stability.all_stable``, ``sub.blocks``, ...): this makes every
    # library call of the traced replays and of the output checks at smoke
    # size, and reads their results as they do
    monkeypatch.syspath_prepend(str(PERFBENCH))
    names = ("checks", "jobs", "tracing", "workloads")
    checks, jobs, tracing, workloads = map(importlib.import_module, names)
    wrap = tracing.Tracer.wrap

    def undone_wrap(tracer, owner, attr, *args):
        # the replays wrap library functions in spans; the test undoes that
        if hasattr(owner, attr):
            monkeypatch.setattr(owner, attr, getattr(owner, attr))
        wrap(tracer, owner, attr, *args)

    monkeypatch.setattr(tracing.Tracer, "wrap", undone_wrap)
    outputs = {}
    for job in workloads.make_jobs(workload, 0, "smoke"):
        out, spans = tmp_path / f"{job.id}.txt", tmp_path / f"{job.id}.json"
        argv = [json.dumps(job.to_dict()), str(out), str(spans), json.dumps(outputs)]
        assert jobs.main(["trace", *argv]) == 0, job.id
        outputs[job.id] = str(out)
    ctx = checks.Context(outputs.__getitem__)
    for job in workloads.make_jobs(workload, 0, "smoke"):
        assert checks.CHECKS[job.kind](job, outputs[job.id], ctx) is None, job.id
        assert checks.largest_array_bytes(job, outputs[job.id], ctx) >= 0

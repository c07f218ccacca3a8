"""Seeded job lists for the three benchmark workloads.

A workload is a fixed list of jobs.  Each job is one CLI command or one
library call, described by plain JSON-able parameters so the same job
can be run as a command, replayed under tracing and validated.

Seed 0 (the default) gives the parameters documented in README.md.
Any other seed draws base specs, cyclic orders, preperiods and chain
control words from fixed strata, the way ``smoothwords.verify`` draws
random orders, so the kind and amount of work stay the same while the
words change.  The same seed always gives the same jobs.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

WORKLOADS = ("generate", "factor_reports", "expand")
DEFAULT_SEED = 0

# Kinds that have a CLI command; the rest run as library calls in jobs.py.
CLI_KINDS = {
    "generate", "freq", "recur", "gaps", "closure", "expand",
    "subst_fixpoint", "subst_primitive",
}

SIZES = {
    "full": {
        "gen_len": 5 * 10**6, "stats_len": 10**6, "freq_samples": (10**4, 10**6, 10**7),
        "report_len": 3 * 10**5, "recur_lmax": 24, "scan_len": 10**4,
        "gaps_lmax": 8, "rev_lmax": 10, "cpl_lmax": 16,
        "chain_pairs": 16, "chain_band": (842_000, 876_000),
        "stream_len": 5 * 10**5, "subst_len": 10**6, "pal_k": 11,
    },
    # Smoke size for the harness self-tests: every job kind, tiny inputs.
    "smoke": {
        "gen_len": 20_000, "stats_len": 5_000, "freq_samples": (100, 1000, 20_000),
        "report_len": 30_000, "recur_lmax": 8, "scan_len": 2_000,
        "gaps_lmax": 4, "rev_lmax": 6, "cpl_lmax": 8,
        "chain_pairs": 6, "chain_band": (200, 2_000),
        "stream_len": 150, "subst_len": 5_000, "pal_k": 5,
    },
}


@dataclass(frozen=True)
class Job:
    id: str
    kind: str
    params: dict = field(hash=False)

    @property
    def is_cli(self) -> bool:
        return self.kind in CLI_KINDS

    def to_dict(self) -> dict:
        return {"id": self.id, "kind": self.kind, "params": self.params}

    @classmethod
    def from_dict(cls, d: dict) -> "Job":
        return cls(d["id"], d["kind"], d["params"])


# ---------------------------------------------------------------------------
# independent chain expansion, used to size control words and as a check


def chain_expansion(chain, target, order, limit: int | None = None):
    """``pseudo_inverse_chain`` re-derived level by level with np.repeat.

    Returns None as soon as a level would exceed ``limit`` letters.
    """
    u = np.asarray(target, dtype=np.int64)
    cycle = np.asarray(order, dtype=np.int64)
    for alpha in reversed(chain):
        start = list(order).index(alpha)
        if limit is not None and int(u.sum()) > limit:
            return None
        u = np.repeat(cycle[(start + np.arange(u.size)) % cycle.size], u)
    return u


# ---------------------------------------------------------------------------
# strata


def _pick(rng: np.random.Generator, options):
    return options[int(rng.integers(0, len(options)))]


def _arrangement(rng, letters) -> list[int]:
    letters = list(letters)
    rng.shuffle(letters)
    return [int(x) for x in letters]


def _preperiod(rng, letters, period) -> list[int]:
    """A one-letter preperiod whose letter differs from the period start."""
    return [int(_pick(rng, [x for x in letters if x != period[0]]))]


def _spec(period, preperiod=()):
    return {
        "alphabet": sorted(set(period) | set(preperiod)),
        "period": list(period),
        "preperiod": list(preperiod),
    }


def _generate_jobs(seed: int, s: dict) -> list[Job]:
    n, m1 = s["gen_len"], s["stats_len"]
    if seed == DEFAULT_SEED:
        specs = [
            _spec([1, 3]),              # 2 letters, odd remainder, no preperiod
            _spec([3, 6, 9], [6]),      # 3 letters, remainder 0, preperiod
            _spec([6, 10, 14, 2]),      # 4 letters, remainder 2, no preperiod
            _spec([2, 4], [4]),         # 2 letters, remainder 0, preperiod
        ]
        freq_spec = _spec([3, 6, 9])
        stats_spec = _spec([1, 2, 3])
    else:
        rng = np.random.default_rng([seed, 1])
        odd = [int(x) for x in rng.choice([1, 3, 5, 7, 9], size=2, replace=False)]
        p2 = _arrangement(rng, [3, 6, 9])
        p3 = _arrangement(rng, _pick(rng, [(2, 6, 10, 14), (3, 7, 11, 15)]))
        even = [int(x) for x in rng.choice([2, 4, 6, 8], size=2, replace=False)]
        specs = [
            _spec(odd),
            _spec(p2, _preperiod(rng, [3, 6, 9], p2)),
            _spec(p3),
            _spec(even, _preperiod(rng, [2, 4, 6, 8], even)),
        ]
        freq_spec = _spec(_arrangement(rng, [3, 6, 9]))
        stats_spec = _spec(_arrangement(rng, [1, 2, 3]))
    jobs = [
        Job(f"gen{i + 1}", "generate", {**sp, "length": n, "stats": False})
        for i, sp in enumerate(specs)
    ]
    jobs.append(Job("freq_input", "freq", {"alphabet": specs[0]["alphabet"], "input": "gen1"}))
    jobs.append(Job("freq_gen", "freq", {
        **freq_spec, "length": max(s["freq_samples"]), "samples": list(s["freq_samples"]),
    }))
    jobs.append(Job("gen_stats", "generate", {**stats_spec, "length": m1, "stats": True}))
    return jobs


def _factor_jobs(seed: int, s: dict) -> list[Job]:
    n = s["report_len"]
    recur = {"length": n, "l_max": s["recur_lmax"], "scan_len": s["scan_len"]}
    if seed == DEFAULT_SEED:
        recur_specs = [
            _spec([1, 2]), _spec([2, 1]), _spec([1, 2, 3]), _spec([6, 10, 14, 2]),
        ]
        gaps_spec = _spec([3, 6, 9])
        rev_spec = _spec([1, 3])
        cpl_spec = _spec([2, 4])
    else:
        rng = np.random.default_rng([seed, 2])

        def maybe_pre(letters, period):
            return _preperiod(rng, letters, period) if rng.integers(0, 2) else []

        # no preperiods here: a preperiod can leave a factor near the head
        # that never recurs, and ``recur`` then exits 2 by design
        recur_specs = [
            _spec(_arrangement(rng, letters))
            for letters in ([1, 2], [1, 2], [1, 2, 3], [2, 6, 10, 14])
        ]
        p = _arrangement(rng, [3, 6, 9])
        gaps_spec = _spec(p, maybe_pre([3, 6, 9], p))
        p = _arrangement(rng, [1, 3])
        rev_spec = _spec(p, maybe_pre([1, 3], p))
        p = _arrangement(rng, [2, 4])
        cpl_spec = _spec(p, maybe_pre([2, 4], p))
    jobs = [
        Job(f"recur{i + 1}", "recur", {**sp, **recur}) for i, sp in enumerate(recur_specs)
    ]
    jobs.append(Job("gaps", "gaps", {**gaps_spec, "length": n, "l_max": s["gaps_lmax"]}))
    jobs.append(Job("closure_rev", "closure", {
        **rev_spec, "length": n, "op": "reversal", "l_max": s["rev_lmax"],
    }))
    jobs.append(Job("closure_cpl", "closure", {
        **cpl_spec, "length": n, "op": "complement", "l_max": s["cpl_lmax"],
    }))
    return jobs


# Orders of {2,6,10,14} whose substitution iterate first reaches 10^6
# letters at the same length (6,291,456), so every seed does the same work
# and holds the same peak memory; 6,2,14,10 and 6,14,2,10 stop at 5,265,408.
SUBST_ORDERS = ([6, 10, 14, 2], [6, 2, 10, 14], [6, 10, 2, 14], [6, 14, 10, 2])


def _expand_jobs(seed: int, s: dict) -> list[Job]:
    order, target = [1, 2], [2, 1]
    if seed == DEFAULT_SEED:
        chain = [1, 2] * s["chain_pairs"]
        subst_order = [6, 10, 14, 2]
    else:
        rng = np.random.default_rng([seed, 3])
        lo, hi = s["chain_band"]
        while True:  # control words whose expansion stays in the size band
            chain = [int(x) for x in rng.integers(1, 3, size=2 * s["chain_pairs"])]
            out = chain_expansion(chain, target, order, limit=hi)
            if out is not None and lo <= out.size <= hi:
                break
        subst_order = _pick(rng, SUBST_ORDERS)
    expansion = {"order": order, "chain": chain, "target": target}
    return [
        Job("palindrome", "palindrome", {"order": [1, 3], "k": s["pal_k"]}),
        Job("chain", "expand", expansion),
        Job("stream", "stream", {**expansion, "length": s["stream_len"]}),
        Job("subst_fixpoint", "subst_fixpoint", {"order": subst_order, "length": s["subst_len"]}),
        Job("subst_primitive", "subst_primitive", {"order": subst_order}),
        # criterion 11 as verify-all runs it by default: the same work for every seed
        Job("suites", "suites", {"seed": 0}),
    ]


_BUILDERS = {
    "generate": _generate_jobs,
    "factor_reports": _factor_jobs,
    "expand": _expand_jobs,
}


def make_jobs(workload: str, seed: int, scale: str = "full") -> list[Job]:
    """The job list of one workload for one seed."""
    return _BUILDERS[workload](seed, SIZES[scale])


def _letters(xs) -> str:
    return ",".join(str(x) for x in xs)


def cli_argv(job: Job, out_path: str, path_of) -> list[str]:
    """The ``smoothwords`` arguments of a CLI job.

    ``path_of(job_id)`` names the output file of another job (for
    ``freq --input``).
    """
    p = job.params
    if job.kind in ("generate", "freq", "recur", "gaps", "closure"):
        argv = [job.kind, "--alphabet", _letters(p["alphabet"])]
        if "input" in p:
            argv += ["--input", path_of(p["input"])]
        else:
            argv += ["--base-period", _letters(p["period"])]
            if p["preperiod"]:
                argv += ["--base-preperiod", _letters(p["preperiod"])]
            argv += ["--length", str(p["length"])]
        if job.kind == "generate" and p["stats"]:
            argv.append("--stats")
        if job.kind == "freq" and "samples" in p:
            argv += ["--samples", _letters(p["samples"])]
        if job.kind == "recur":
            argv += ["--l-max", str(p["l_max"]), "--scan-len", str(p["scan_len"])]
        if job.kind == "gaps":
            argv += ["--l-max", str(p["l_max"]), "--expect", "stable"]
        if job.kind == "closure":
            argv += ["--op", p["op"], "--l-max", str(p["l_max"])]
        return argv + ["--output", out_path]
    if job.kind == "expand":
        return [
            "expand", "--order", _letters(p["order"]), "--chain", _letters(p["chain"]),
            "--target", _letters(p["target"]), "--output", out_path,
        ]
    if job.kind == "subst_fixpoint":
        return [
            "subst", "verify-fixpoint", "--order", _letters(p["order"]),
            "--length", str(p["length"]), "--output", out_path,
        ]
    if job.kind == "subst_primitive":
        return ["subst", "check-primitive", "--order", _letters(p["order"]), "--output", out_path]
    raise ValueError(f"{job.kind} has no CLI command")

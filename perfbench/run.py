"""Benchmark runner for smoothwords.

    python3 perfbench/run.py --workload generate --seed 0 --seconds 20 --trace 0

Runs one workload's fixed job list as passes.  The untraced pass runs
each job in a fresh child process, one at a time (a closed loop with
one client, like a script calling the CLI in turn), times the pass and
reads each child's peak RSS with ``os.wait4``.  With ``--trace 1`` each
untraced pass is followed by a traced pass that replays the same jobs
as library calls inside spans (see jobs.py).  The time the first round
takes sets how many rounds fill ``--seconds``; at least one runs.

Outputs are validated outside the timed region (checks.py).  The last
line of stdout is one JSON object: correct, attempted, failed and the
metrics, end-to-end ones with ``--trace 0`` and per-layer ones with
``--trace 1``.  Full records (environment, per-job times, spans) go to
``perfbench/work/<workload>-seed<seed>/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from collections import defaultdict
from pathlib import Path

import workloads
from tracing import self_times, under

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / "work"
DIGESTS = HERE / "digests.json"

SETUP_SAMPLES = 5  # before the first pass, and again after it
JOB_TIMEOUT_S = 120
RUN_BUDGET_S = 150  # no new round after this, so a run ends within three minutes

LAYER_TIMES = {  # per-layer metric -> span name whose self time it sums
    "kolakoski.prefix_s": "kolakoski.prefix",
    "kolakoski.verify_s": "kolakoski.verify",
    "kolakoski.stream_s": "kolakoski.stream",
    "words.format_s": "words.format",
    "words.parse_s": "words.parse",
    "words.rle_s": "words.rle",
    "expansion.chain_s": "expansion.chain",
    "expansion.stream_s": "expansion.stream",
    "expansion.phi_inverse_s": "expansion.phi_inverse",
    "substitution.verify_fixpoint_s": "substitution.verify_fixpoint",
    "substitution.iterate_s": "substitution.iterate",
    "substitution.primitive_s": "substitution.primitive",
    "factors.index_s": "factors.index",
    "factors.groups_s": "factors.groups",
    "factors.factor_set_s": "factors.factor_set",
    "analysis.recurrence_s": "analysis.recurrence",
    "analysis.gaps_s": "analysis.gaps",
    "analysis.stability_s": "analysis.stability",
    "analysis.closure_s": "analysis.closure",
    "analysis.csv_s": "analysis.csv",
    "analysis.frequency_s": "analysis.frequency",
    "analysis.palindrome_s": "analysis.palindrome",
    "verify.property_suites_s": "verify.property_suites",
}
LAYERS = ("kolakoski", "words", "expansion", "substitution", "factors", "analysis", "verify")


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env.pop("SMOOTHWORDS_MAX_EXPANSION", None)
    return env


class Spawner:
    """Client of spawner.py, which starts every timed child process."""

    def __enter__(self) -> "Spawner":
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "spawner.py")], stdin=subprocess.PIPE,
            stdout=subprocess.PIPE, text=True,
        )
        self.env = _child_env()
        return self

    def __exit__(self, *exc) -> None:
        self.proc.stdin.close()
        self.proc.stdout.close()
        self.proc.wait()

    def run(self, argv: list[str], stdout: Path, stderr: Path, cwd: Path) -> dict:
        """Run a child to completion: wall_s, rc and peak_rss_mb."""
        request = {"argv": argv, "stdout": str(stdout), "stderr": str(stderr),
                   "cwd": str(cwd), "env": self.env, "timeout": JOB_TIMEOUT_S}
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        reply = self.proc.stdout.readline()
        if not reply:
            raise RuntimeError("spawner process ended")
        return json.loads(reply)


# ---------------------------------------------------------------------------
# environment


def _read(path: str) -> str:
    try:
        with open(path, encoding="utf-8") as handle:
            return handle.read()
    except OSError:
        return ""


def _last_level_cache() -> dict:
    best: dict = {}
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(base.glob("index*")) if base.is_dir() else []:
        level = _read(str(index / "level")).strip()
        kind = _read(str(index / "type")).strip()
        if level.isdigit() and kind != "Instruction" and int(level) >= best.get("level", 0):
            best = {"level": int(level), "size": _read(str(index / "size")).strip()}
    return best


def environment() -> dict:
    import numpy

    commit = "unknown"  # the checkout is not a git repository
    if (ROOT / ".git").exists():
        env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
        got = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True,
            text=True, env=env, check=False,
        )
        commit = got.stdout.strip() or commit
    src_hash = hashlib.sha256()
    for path in sorted((SRC / "smoothwords").glob("*.py")):
        src_hash.update(path.name.encode() + path.read_bytes())
    meminfo = _read("/proc/meminfo").split()
    mem_kb = int(meminfo[meminfo.index("MemTotal:") + 1]) if "MemTotal:" in meminfo else 0
    cpu_model = next(
        (line.split(":", 1)[1].strip() for line in _read("/proc/cpuinfo").splitlines()
         if line.startswith("model name")), platform.processor(),
    )
    return {
        "commit": commit,
        "src_sha256": src_hash.hexdigest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "mem_total_mb": round(mem_kb / 1024),
        "cpu_model": cpu_model,
        "last_level_cache": _last_level_cache(),
    }


# ---------------------------------------------------------------------------
# passes


def measure_setup(spawner: Spawner, workdir: Path, count: int) -> list[float]:
    """Wall seconds for a fresh interpreter to finish ``import smoothwords``.

    One extra unrecorded import first warms the file and bytecode caches.
    """
    code = "import smoothwords, sys; sys.stdout.write(smoothwords.__file__)"
    out, err = workdir / "setup.out", workdir / "setup.err"
    samples = []
    for i in range(count + 1):
        res = spawner.run([sys.executable, "-c", code], out, err, workdir)
        where = out.read_text()
        if res["rc"] != 0 or not where.startswith(str(SRC)):
            raise RuntimeError(f"smoothwords did not import from {SRC}: {where!r}")
        if i:
            samples.append(res["wall_s"])
    return samples


class Runner:
    """Runs passes of one job list and validates their outputs."""

    def __init__(self, spawner: Spawner, jobs, workdir: Path, expected_digests: dict | None):
        import checks  # imports smoothwords, so only once SRC is on sys.path

        self.checks = checks
        self.spawner = spawner
        self.jobs = jobs
        self.workdir = workdir
        self.expected = expected_digests or {}
        self.first_digests: dict[str, str] = {}
        self.array_bytes: dict[str, int] = {}
        for sub in ("untraced", "traced", "logs"):
            (workdir / sub).mkdir(parents=True, exist_ok=True)

    def out_path(self, kind: str, job_id: str) -> Path:
        return self.workdir / kind / f"{job_id}.out"

    def _argv(self, job, traced: bool) -> list[str]:
        kind = "traced" if traced else "untraced"
        out = str(self.out_path(kind, job.id))
        payload = json.dumps(job.to_dict())
        if traced:
            inputs = {j.id: str(self.out_path(kind, j.id)) for j in self.jobs}
            spans = str(self.workdir / "traced" / f"{job.id}.spans.json")
            return [sys.executable, str(HERE / "jobs.py"), "trace", payload, out, spans,
                    json.dumps(inputs)]
        if job.is_cli:
            path_of = lambda jid: str(self.out_path(kind, jid))  # noqa: E731
            return [sys.executable, "-m", "smoothwords.cli",
                    *workloads.cli_argv(job, out, path_of)]
        return [sys.executable, str(HERE / "jobs.py"), "run", payload, out]

    def run_pass(self, traced: bool) -> dict:
        kind = "traced" if traced else "untraced"
        results = []
        start = time.perf_counter()
        for job in self.jobs:
            log = self.workdir / "logs" / f"{kind}-{job.id}"
            res = self.spawner.run(self._argv(job, traced), Path(f"{log}.stdout"),
                                   Path(f"{log}.stderr"), self.workdir)
            results.append({"id": job.id, **res})
        return {"kind": kind, "wall_s": time.perf_counter() - start, "jobs": results}

    def validate(self, run: dict, full: bool) -> None:
        """Mark each job result ``failure`` (None when it passed).

        The first untraced pass gets digests, recorded-digest comparison
        and the independent checks; later passes and traced passes must
        reproduce the first pass's digests.
        """
        ctx = self.checks.Context(lambda jid: str(self.out_path("untraced", jid)))
        for job, res in zip(self.jobs, run["jobs"]):
            res["failure"] = None
            try:
                path = self.out_path(run["kind"], job.id)
                if res["rc"] != 0:
                    raise ValueError(f"exit code {res['rc']}")
                dig = self.checks.digest(path)
                res["digest"] = dig
                if not full:
                    if dig != self.first_digests.get(job.id):
                        raise ValueError("output differs from the first untraced pass")
                    continue
                self.first_digests[job.id] = dig
                if job.id in self.expected and self.expected[job.id] != dig:
                    raise ValueError("digest differs from the recorded default-seed digest")
                why = self.checks.CHECKS[job.kind](job, path, ctx)
                if why:
                    raise ValueError(why)
                self.array_bytes[job.id] = self.checks.largest_array_bytes(job, path, ctx)
            except Exception as exc:  # a failed job is counted, the run goes on
                res["failure"] = f"{type(exc).__name__}: {exc}"
                if not isinstance(exc, ValueError):
                    traceback.print_exc(file=sys.stderr)

    def load_spans(self, run: dict) -> None:
        for res in run["jobs"]:
            path = self.workdir / "traced" / f"{res['id']}.spans.json"
            if res["failure"] is None and path.exists():
                res.update(json.loads(path.read_text()))
                path.unlink()


# ---------------------------------------------------------------------------
# metrics


def _quartiles(values: list[float]) -> tuple[float, float]:
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def job_medians(passes: list[dict]) -> dict[str, float]:
    """Each job's median wall time over the passes."""
    walls = defaultdict(list)
    for p in passes:
        for j in p["jobs"]:
            walls[j["id"]].append(j["wall_s"])
    return {jid: statistics.median(w) for jid, w in walls.items()}


def end_to_end(untraced: list[dict], setup: list[float]) -> dict:
    """``run_s`` is the median pass: the sum of each job's median over passes.

    Slow phases of a shared machine last seconds; a per-job median over
    passes run seconds apart drops a job caught in one.
    """
    return {
        "run_s": {"value": sum(job_medians(untraced).values()), "unit": "s"},
        "peak_rss_mb": {
            "value": max(j["peak_rss_mb"] for p in untraced for j in p["jobs"]), "unit": "MB",
        },
        "setup_s": {"value": statistics.median(setup), "unit": "s"},
    }


def per_layer(traced: dict, untraced: list[dict]) -> dict:
    """Per-layer metrics of one traced pass, against the untraced passes."""
    times: dict[str, float] = defaultdict(float)
    counters: dict[str, float] = defaultdict(float)
    job_wall = job_medians(untraced)
    cli_overhead = traced_wall = 0.0
    for res in traced["jobs"]:
        spans = res.get("spans", [])
        in_check = under(spans, "check")
        layer_time = check_time = 0.0
        for span, own, checking in zip(spans, self_times(spans), in_check):
            name = span["name"]
            if name == "check":
                check_time += span["end"] - span["start"]
            if "." in name:
                times[name] += own
                times[name.split(".", 1)[0] + ".self_s"] += own
                if not checking:
                    layer_time += own
        for key, value in res.get("counters", {}).items():
            if key == "factors.id_cache_mb":
                counters[key] = max(counters[key], value)
            else:
                counters[key] += value
        cli_overhead += job_wall[res["id"]] - layer_time
        traced_wall += res["wall_s"] - check_time
    run_s = sum(job_wall.values())

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    values = {name: times[span] for name, span in LAYER_TIMES.items()}
    values.update({
        "kolakoski.ns_per_letter": 1e9 * ratio(times["kolakoski.prefix"], counters["kolakoski.prefix_letters"]),
        "kolakoski.stream_buffer_ratio": ratio(counters["kolakoski.stream_peak_buffer"], counters["kolakoski.stream_letters"]),
        "kolakoski.letters": counters["kolakoski.prefix_letters"] + counters["kolakoski.stream_letters"],
        "words.bytes_out": counters["words.bytes_out"],
        "words.bytes_in": counters["words.bytes_in"],
        "expansion.chain_letters": counters["expansion.chain_letters"],
        "factors.groups": counters["factors.groups"],
        "factors.positions": counters["factors.positions"],
        "factors.rows_per_group": ratio(counters["analysis.rows"], counters["factors.groups"]),
        "factors.id_cache_mb": counters["factors.id_cache_mb"],
        "analysis.rows": counters["analysis.rows"],
        "cli.overhead_s": cli_overhead,
        "trace.overhead_ratio": ratio(traced_wall, run_s),
    })
    values.update({f"{layer}.self_s": times[f"{layer}.self_s"] for layer in LAYERS})
    return values


def _units() -> dict[str, str]:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        spec = json.load(handle)
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


# ---------------------------------------------------------------------------
# the run


def run_benchmark(workload: str, seed: int, seconds: float, trace: bool,
                  scale: str = "full", jobs=None, expected=None) -> dict:
    """Measure one workload; returns the result record (see module doc).

    Job outputs are deleted afterwards unless a job failed.
    """
    started = time.perf_counter()
    workdir = WORK / f"{workload}-seed{seed}{'' if scale == 'full' else '-' + scale}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    env = environment()
    if jobs is None:
        jobs = workloads.make_jobs(workload, seed, scale)
    if expected is None and seed == workloads.DEFAULT_SEED and scale == "full":
        expected = json.loads(DIGESTS.read_text()).get(workload, {}) if DIGESTS.exists() else {}
    untraced: list[dict] = []
    traced: list[dict] = []
    with Spawner() as spawner:
        setup = measure_setup(spawner, workdir, SETUP_SAMPLES)
        runner = Runner(spawner, jobs, workdir, expected)
        rounds = 1
        while len(untraced) < rounds:
            round_start = time.perf_counter()
            run = runner.run_pass(traced=False)
            runner.validate(run, full=not untraced)
            spent = run["wall_s"]
            if trace:
                trun = runner.run_pass(traced=True)
                runner.validate(trun, full=False)
                runner.load_spans(trun)
                traced.append(trun)
                spent += trun["wall_s"]
            if not untraced:
                # as many rounds as fill the measuring time, fixed after the first
                rounds = max(1, round(seconds / spent))
                # a second set of imports, seconds later, evens out slow phases
                setup += measure_setup(spawner, workdir, SETUP_SAMPLES)
            untraced.append(run)
            if time.perf_counter() - started + (time.perf_counter() - round_start) > RUN_BUDGET_S:
                break
    runs = untraced + traced
    attempted = sum(len(r["jobs"]) for r in runs)
    failed = sum(1 for r in runs for j in r["jobs"] if j["failure"])
    units = _units()
    if trace:
        per_pass = [per_layer(t, untraced) for t in traced]
        raw = {k: statistics.median(p[k] for p in per_pass) for k in per_pass[0]}
    else:
        raw = {k: v["value"] for k, v in end_to_end(untraced, setup).items()}
    metrics = {k: {"value": v, "unit": units[k]} for k, v in raw.items()}
    record = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace),
        "scale": scale, "environment": env, "setup_samples_s": setup,
        "jobs": [
            {**j.to_dict(), "largest_array_bytes_computed": runner.array_bytes.get(j.id)}
            for j in jobs
        ],
        "passes": [
            {**r, "jobs": [{k: v for k, v in j.items() if k not in ("spans", "counters")}
                           for j in r["jobs"]]}
            for r in runs
        ],
        "attempted": attempted, "failed": failed, "metrics": metrics,
        "digests": runner.first_digests,
    }
    (workdir / "result.json").write_text(json.dumps(record, indent=1))
    with open(workdir / "spans.jsonl", "w", encoding="utf-8") as handle:
        for i, r in enumerate(traced):
            for j in r["jobs"]:
                for span in j.get("spans", []):
                    handle.write(json.dumps({**span, "pass": i}) + "\n")
    if not failed:
        for sub in ("untraced", "traced"):
            shutil.rmtree(workdir / sub, ignore_errors=True)
    return record


def summary(record: dict) -> str:
    env = record["environment"]
    untraced = [p for p in record["passes"] if p["kind"] == "untraced"]
    walls = [p["wall_s"] for p in untraced]
    q1, q3 = _quartiles(walls)
    llc = env["last_level_cache"]
    lines = [
        f"workload {record['workload']}  seed {record['seed']}  trace {record['trace']}",
        f"environment: commit {env['commit'][:12]}  python {env['python']}  numpy {env['numpy']}"
        f"  nproc {env['nproc']}  mem {env['mem_total_mb']} MB  cpu {env['cpu_model']}"
        f"  LLC L{llc.get('level', '?')} {llc.get('size', '?')}",
        f"{len(walls)} untraced pass(es), wall s: median {statistics.median(walls):.3f}"
        f"  q1 {q1:.3f}  q3 {q3:.3f}  min {min(walls):.3f}  max {max(walls):.3f}",
        f"failed_ratio {record['failed']}/{record['attempted']}"
        f" = {record['failed'] / record['attempted']:.3f}",
        "jobs (largest array: computed bytes of one int64 letter array, vs the LLC above):",
    ]
    first = {j["id"]: j for j in untraced[0]["jobs"]}
    for job in record["jobs"]:
        res = first[job["id"]]
        lines.append(
            f"  {job['id']:<16} {res['wall_s']:7.3f} s  {res['peak_rss_mb']:7.1f} MB"
            f"  largest {job['largest_array_bytes_computed'] or 0:>11} B"
            + (f"  FAILED: {res['failure']}" if res["failure"] else "")
        )
    for p in record["passes"]:
        for j in p["jobs"]:
            if p is not untraced[0] and j["failure"]:
                lines.append(f"  {p['kind']} {j['id']} FAILED: {j['failure']}")
    for name, m in sorted(record["metrics"].items()):
        lines.append(f"  {name} = {m['value']:.6g} {m['unit']}")
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "smoke"), default="full")
    parser.add_argument("--record-digests", action="store_true",
                        help="store this default-seed run's digests in digests.json")
    args = parser.parse_args(argv)
    if not (SRC / "smoothwords" / "__init__.py").is_file():
        print(f"error: no smoothwords package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    expected = {} if args.record_digests else None
    record = run_benchmark(args.workload, args.seed, args.seconds, bool(args.trace),
                           args.scale, expected=expected)
    print(summary(record))
    if args.record_digests:
        if record["failed"] or args.seed != workloads.DEFAULT_SEED or args.scale != "full":
            print("error: digests are recorded only from a passing full default-seed run",
                  file=sys.stderr)
            return 2
        table = json.loads(DIGESTS.read_text()) if DIGESTS.exists() else {}
        table[args.workload] = record["digests"]
        DIGESTS.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    print(json.dumps({
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": record["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

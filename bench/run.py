"""Benchmark of the moorekit CLI, one job per command line.

Usage (from the root of a checkout):

    python3 bench/run.py --workload corpus-cli --seed 1 --seconds 10 --trace 0

Workloads: corpus-cli, pairing-audit, tensor-extract (see README.md).  The
load is a closed loop with one client: a worker process imports moorekit
once, and each job runs in a child forked from it, so no job reuses what
an earlier job cached.  Whole rounds of the job list run until --seconds
have been measured.  Every job's output is checked by ``checker.py``.

With ``--trace 0`` the last line of stdout carries the end-to-end metrics,
with ``--trace 1`` the per-layer metrics of a traced run.  The exit code is
2, with nothing printed to stdout, when the checkout holds no moorekit
sources.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import select
import shutil
import signal
import statistics
import subprocess
import sys
import time
from collections import Counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, ROOT)

from bench import checker, tracing, workloads  # noqa: E402

SETUPS = 3  # worker start-ups per run; setup_s is their median
DEADLINE_S = 170  # a run that is not done by then is abandoned


def units(kind: str) -> dict:
    """Metric name -> unit for "end_to_end" or "per_layer", from BENCHMARK.json."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[kind]}


class Run:
    def __init__(self, workload: str, seed: int, trace: bool, run_dir: str):
        self.workload, self.seed, self.trace, self.dir = workload, seed, trace, run_dir
        self.deadline = time.monotonic() + DEADLINE_S
        self.order = workloads.jobs(workload, seed)
        self.worker = None
        self.refs: dict = {}

    # -- the worker --------------------------------------------------------

    def start_worker(self, setup_only: bool) -> float:
        """Start a worker; seconds until its inputs are ready."""
        cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", self.workload,
               "--seed", str(self.seed), "--dir", self.dir]
        cmd += ["--setup-only"] if setup_only else []
        cmd += ["--trace"] if self.trace else []
        env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
        start = time.perf_counter()
        # its own session, so that the worker and a job it forked can be
        # stopped together
        proc = subprocess.Popen(cmd, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                text=True, env=env, start_new_session=True)
        self.worker = proc
        line = self.readline()
        elapsed = time.perf_counter() - start
        if line.strip() != "ready":
            raise RuntimeError("worker failed during set-up")
        if setup_only:
            self.stop()
        return elapsed

    def readline(self) -> str:
        """The worker's next line, or an error once the run's deadline passes."""
        left = self.deadline - time.monotonic()
        if left <= 0 or not select.select([self.worker.stdout], [], [], left)[0]:
            raise RuntimeError(f"run not done within {DEADLINE_S} s")
        return self.worker.stdout.readline()

    def round(self) -> dict:
        self.worker.stdin.write("round\n")
        self.worker.stdin.flush()
        line = self.readline()
        if not line:
            raise RuntimeError("worker ended during a round")
        return json.loads(line)

    def stop(self) -> None:
        """End the worker: politely after a clean run, else with its jobs."""
        if self.worker is None:
            return
        try:
            self.worker.stdin.close()
            self.worker.wait(timeout=5)
        except (OSError, subprocess.TimeoutExpired):
            try:
                os.killpg(self.worker.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            self.worker.wait()
        self.worker = None

    # -- references and checks ---------------------------------------------

    def _load(self, path: str) -> dict:
        with open(path) as fh:
            return json.load(fh)

    def reference(self, job) -> checker.Reference:
        key = (job.p, job.doc, job.name)
        if key not in self.refs:
            if job.doc:
                doc = self._load(os.path.join(self.dir, "inputs", job.doc + ".json"))
            else:
                doc = self._load(os.path.join(self.dir, "refs", f"corpus-{job.p}.json"))
            levels = checker.levels_from_document(doc, job.name)
            prediction = None
            if "⊗" in job.name:
                factors = self._load(os.path.join(self.dir, "inputs", f"factors-{job.p}.json"))
                h = [checker.moore_data(checker.levels_from_document(factors, n)).homology
                     for n in job.name.split("⊗")]
                prediction = checker.kunneth(*h)
            self.refs[key] = checker.reference(levels, prediction)
        return self.refs[key]

    def check(self, job, code: int, text: str, to3: dict) -> list:
        cmd = job.command[0]
        if cmd == "corpus":
            with open(os.path.join(self.dir, "refs", f"corpus-{job.p}.json")) as fh:
                return [] if text == fh.read() else ["corpus document differs from the reference"]
        out = checker.parse_output(text)
        bad = checker.check_contract(out, code)
        if cmd in ("sset", "pset"):
            fn = checker.check_sset if cmd == "sset" else checker.check_pset
            return bad + fn(out, int(job.command[1]))
        if cmd == "pairings":
            return bad + checker.check_pairings(out)
        if cmd == "roundtrip":
            return bad + checker.check_all_pass(out)
        if cmd == "verify-3xmod":
            return bad + checker.check_verify_against(out, to3[job.name])
        if cmd == "tables":
            return bad + checker.check_tables(out, int(job.command[1]))
        if cmd in ("verify-xmod", "verify-2xmod", "lie-verify"):
            return bad
        ref = self.reference(job)
        if cmd == "to-2xmod" and any(ref.moore.dims[3:]):
            statuses = [r["status"] for r in out.records]
            return bad + ([] if not out.documents and "pass" not in statuses else
                          ["to-2xmod answers pass on Moore length > 2"])
        if cmd in ("to-xmod", "to-2xmod", "to-3xmod"):
            if cmd == "to-3xmod":
                to3[job.name + "-3xmod"] = checker.axiom_statuses(out, f"to-3xmod[{job.name}]")
            return bad + checker.check_extraction(out, ref)
        if cmd == "table1":
            return bad + checker.check_table1(out, ref, *_supply(job))
        table = {"moore": checker.check_moore, "validate": checker.check_validate,
                 "lemma7": checker.check_lemma7, "theorem5": checker.check_theorem5}
        return bad + table[cmd](out, ref)

    def check_round(self, result: dict) -> tuple[int, list]:
        """(failed jobs, problems that make the run incorrect)."""
        failed, problems, to3 = 0, [], {}
        for i, (job, (_, code, _)) in enumerate(zip(self.order, result["jobs"])):
            with open(os.path.join(self.dir, "jobs", f"{i}.out")) as fh:
                text = fh.read()
            key = (job.p, job.command[0], job.name)
            if code not in (0, 1, 2):
                failed += 1
                with open(os.path.join(self.dir, "jobs", f"{i}.err"), errors="replace") as fh:
                    err = fh.read().strip().splitlines()
                last = err[-1] if err else f"exit {code}"
                if key not in workloads.KEPT_FAILING or "PreconditionError" not in last:
                    problems.append(f"{job.label}: {last}")
                continue
            try:
                bad = self.check(job, code, text, to3)
            except (ValueError, KeyError, IndexError, TypeError) as exc:
                bad = [f"output unreadable: {exc!r}"]
            if bad:
                failed += 1
                problems += [f"{job.label}: {b}" for b in bad]
        return failed, problems

    def layer_metrics(self, result: dict) -> Counter:
        totals: Counter = Counter()
        for i, job in enumerate(self.order):
            path = os.path.join(self.dir, "jobs", f"{i}.trace")
            totals.update(tracing.layer_totals(*tracing.load(path)))
            if job.command[0] == "table1":
                totals["moore.table1.sampled_rows"] += checker.sampled_rows(
                    self.reference(job), *_supply(job))
        built = totals["corpus.objects_built"]
        totals["corpus.used_per_built"] = totals["document.lookup.calls"] / built if built else 0.0
        totals["trace.batch_s"] = result["seconds"]
        return totals


def _supply(job) -> tuple:
    """The (exhaustive bound, budget) a job's element sweeps use."""
    opts = dict(zip(job.options[::2], job.options[1::2]))
    return (int(opts.get("--exhaustive-bound", checker.EXHAUSTIVE_BOUND)),
            int(opts.get("--budget", checker.BUDGET)))


def end_to_end(results: list, setups: list) -> dict:
    per_job = [statistics.median(r["jobs"][i][0] for r in results)
               for i in range(len(results[0]["jobs"]))]
    values = {
        "batch_s": statistics.median(r["seconds"] for r in results),
        "job_gm_ms": 1000 * math.exp(statistics.fmean(math.log(t) for t in per_job)),
        "job_max_ms": 1000 * max(per_job),
        "peak_rss_mb": max(job[2] for r in results for job in r["jobs"]) / 1024,
        "setup_s": statistics.median(setups),
    }
    return {k: {"value": values[k], "unit": unit} for k, unit in units("end_to_end").items()}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "moorekit", "cli.py")):
        print("no moorekit sources under src/ in this checkout", file=sys.stderr)
        return 2

    run_dir = os.path.join(ROOT, "bench_out", f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(run_dir)
    run = Run(args.workload, args.seed, bool(args.trace), run_dir)
    try:
        setups = [run.start_worker(setup_only=i < SETUPS - 1) for i in range(SETUPS)]
        results, failed, problems, layers = [], 0, [], []
        while not results or sum(r["seconds"] for r in results) < args.seconds:
            result = run.round()
            f, bad = run.check_round(result)
            failed += f
            problems += bad
            results.append(result)
            if args.trace:
                layers.append(run.layer_metrics(result))
    finally:
        run.stop()
        shutil.rmtree(run_dir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(run_dir))
        except OSError:  # another run is still using it
            pass

    for line in problems[:20]:
        print("problem:", line, file=sys.stderr)
    if args.trace:
        metrics = {name: {"value": statistics.median(t[name] for t in layers), "unit": unit}
                   for name, unit in units("per_layer").items()}
    else:
        metrics = end_to_end(results, setups)
    attempted = len(results) * len(run.order)
    print(json.dumps({"correct": not problems, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""The process that plays the user's shell: it imports moorekit once, writes
the input documents, and then runs each job in a child forked from itself.

Protocol on stdin/stdout with ``run.py``: the worker prints ``ready`` once
its inputs are written; then each ``round`` line runs every job once and
answers with one JSON line, and closing stdin ends it.  Job output goes to
files under the run directory, never to this process's stdout.

Usage: python3 bench/worker.py --workload NAME --seed N --dir RUN_DIR
                               [--trace] [--setup-only]
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
import traceback

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]

import numpy as np  # noqa: E402

import moorekit.cli as cli  # noqa: E402
from moorekit.corpus import simplicial_corpus  # noqa: E402

from bench import inputs, tracing, workloads  # noqa: E402

RAISED = 100  # exit code of a child whose job raised


def write_inputs(workload: str, seed: int, run_dir: str) -> None:
    """The workload's input documents, plus the unpermuted tensor factors."""
    rng = np.random.default_rng(seed)
    os.makedirs(os.path.join(run_dir, "inputs"), exist_ok=True)
    corpora: dict = {}

    def corpus(p):
        if p not in corpora:
            corpora[p] = {n: inputs.from_moorekit(E) for n, E in simplicial_corpus(p).items()}
        return corpora[p]

    for stem, (p, kind) in workloads.documents(workload).items():
        if kind == "corpus":
            objects = dict(corpus(p))
        else:
            objects = {workloads.tensor_name(e, f): inputs.tensor_simplicial(corpus(p)[e], corpus(p)[f])
                       for e, f in workloads.TENSORS[p]}
            factors = {n for pair in workloads.TENSORS[p] for n in pair}
            _write(run_dir, f"factors-{p}",
                   inputs.document_json({n: corpus(p)[n] for n in sorted(factors)}, p))
        permuted = {n: inputs.permute_simplicial(E, rng) for n, E in objects.items()}
        _write(run_dir, stem, inputs.document_json(permuted, p))


def _write(run_dir: str, stem: str, text: str) -> None:
    with open(os.path.join(run_dir, "inputs", stem + ".json"), "w") as fh:
        fh.write(text)


class Worker:
    def __init__(self, workload: str, seed: int, run_dir: str, tracer=None):
        self.order = workloads.jobs(workload, seed)
        self.dir = run_dir
        self.tracer = tracer
        for sub in ("jobs", "emitted", "refs"):
            os.makedirs(os.path.join(run_dir, sub), exist_ok=True)

    def path(self, *parts: str) -> str:
        return os.path.join(self.dir, *parts)

    def emitted(self, name: str) -> str:
        """Where the document a to-3xmod job wrote is kept; ASCII file names."""
        return self.path("emitted", name.replace("⊗", "_x_") + ".json")

    def fork_job(self, argv, out_path, err_path, trace_path=None):
        """Run ``moorekit.cli.main(argv)`` in a child; (seconds, exit, maxrss KiB)."""
        sys.stdout.flush()
        sys.stderr.flush()
        start = time.perf_counter()
        pid = os.fork()
        if pid == 0:
            code = RAISED
            try:
                for fd, path in ((1, out_path), (2, err_path)):
                    tmp = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644)
                    os.dup2(tmp, fd)
                    os.close(tmp)
                sys.stdout = open(1, "w", encoding="utf-8", closefd=False)
                sys.stderr = open(2, "w", encoding="utf-8", closefd=False)
                if self.tracer is not None:
                    self.tracer.reset()
                code = cli.main(argv)
            except BaseException:
                traceback.print_exc()
                code = RAISED
            finally:
                try:
                    sys.stdout.flush()
                    sys.stderr.flush()
                    if self.tracer is not None and trace_path:
                        self.tracer.dump(trace_path)
                finally:
                    os._exit(code if isinstance(code, int) and 0 <= code < RAISED else RAISED)
        _, status, usage = os.wait4(pid, 0)
        return time.perf_counter() - start, os.waitstatus_to_exitcode(status), usage.ru_maxrss

    def write_references(self) -> None:
        """The built-in corpus documents the no-input jobs run on."""
        for p in sorted({j.p for j in self.order if not j.doc}):
            out = self.path("refs", f"corpus-{p}.json")
            _, code, _ = self.fork_job(["--char", str(p), "corpus"], out, out + ".err")
            if code != 0:
                raise RuntimeError(f"corpus at p={p} exited {code}")

    def round(self) -> dict:
        results = []
        start = time.perf_counter()
        for i, job in enumerate(self.order):
            emitted = self.emitted(job.name)
            argv = job.argv(self.path("inputs", job.doc + ".json"), emitted)
            out = self.path("jobs", f"{i}.out")
            trace = self.path("jobs", f"{i}.trace") if self.tracer is not None else None
            results.append(self.fork_job(argv, out, self.path("jobs", f"{i}.err"), trace))
            if job.command[0] == "to-3xmod":
                with open(out) as src, open(self.emitted(job.name + "-3xmod"), "w") as dst:
                    dst.write(src.readline())
        return {"seconds": time.perf_counter() - start, "jobs": results}


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--dir", required=True)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()
    write_inputs(args.workload, args.seed, args.dir)
    print("ready", flush=True)
    if args.setup_only:
        return 0
    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracing.install(tracer)
    worker = Worker(args.workload, args.seed, args.dir, tracer)
    worker.write_references()
    for line in sys.stdin:
        if line.strip() != "round":
            break
        print(json.dumps(worker.round()), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

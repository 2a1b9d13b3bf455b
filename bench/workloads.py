"""The three workloads: their input documents and their job lists.

A job is one ``moorekit`` command line; ``Job.argv`` fills in the path of
the input document it reads, or, for ``verify-3xmod``, of the document an
earlier ``to-3xmod`` job of the same round wrote.  The seed orders the jobs
and permutes the bases of the generated inputs; it never changes which jobs
run.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

SIMPLICIAL = ["ideal-pair", "ideal-pair-cubic", "zero-module", "sq0-lifting",
              "cubic-chain", "module-id", "constant", "top-degree-4", "top-degree-3"]

# corpus-cli: (command..., name) per prime.  Every named job builds the
# whole corpus (about 0.3 s), so the list holds each simplicial command once,
# split between the primes, and each other corpus section at p = 2, with
# lie-verify on a Lie algebra (validate_lie) as well as a Lie 3-crossed module.
CORPUS_CLI = {
    2: [("validate", "ideal-pair"), ("theorem5", "cubic-chain"), ("lemma7", "top-degree-4"),
        ("table1", "module-id"), ("tables", "3", "sq0-lifting"), ("to-xmod", "top-degree-4"),
        ("to-2xmod", "module-id"), ("to-2xmod", "top-degree-3"), ("to-2xmod", "top-degree-4"),
        ("verify-xmod", "mult-dual"), ("verify-2xmod", "cubic-chain"),
        ("lie-verify", "heisenberg-chain"), ("roundtrip",), ("corpus",),
        ("sset", "4"), ("pset", "3"), ("pset", "4"), ("pairings",)],
    3: [("moore", "ideal-pair-cubic"), ("lemma7", "cubic-chain"), ("tables", "2", "module-id"),
        ("tables", "4", "zero-module"), ("to-3xmod", "cubic-chain"),
        ("to-2xmod", "top-degree-3"), ("to-2xmod", "top-degree-4"), ("lie-verify", "abelian")],
}
NAMELESS = {"roundtrip", "corpus", "sset", "pset", "pairings"}

# Moore length > 2: to-2xmod raises PreconditionError instead of answering
KEPT_FAILING = {(2, "to-2xmod", "top-degree-3"), (2, "to-2xmod", "top-degree-4"),
                (3, "to-2xmod", "top-degree-3"), (3, "to-2xmod", "top-degree-4")}

# pairing-audit: (command, prime) -> corpus names.  At p = 7, module-id
# alone takes about 11 s (2401 pairs per Table-1 row), more than a round may
# take, so it runs at p = 5 only.
AUDIT = {("lemma7", 5): SIMPLICIAL, ("table1", 5): SIMPLICIAL,
         ("table1", 7): [n for n in SIMPLICIAL if n != "module-id"]}

# Table 1 on the degree-3 tensor with a 4-element supply per Moore component:
# the exhaustive sweep (4096 pairs on each NE_2 x NE_2 row) takes about 46 s
SAMPLED_TABLE1 = ("--exhaustive-bound", "4", "--budget", "4")

# tensor products (E, F) per prime, written to the document tensor-<p>
TENSORS = {2: [("ideal-pair", "sq0-lifting"), ("ideal-pair", "ideal-pair")],
           3: [("ideal-pair", "zero-module"), ("constant", "module-id")]}

# tensor-extract: the commands per tensor; each to-3xmod is followed, in
# the job order, by verify-3xmod on the document it wrote.  validate on the
# two products of level-4 dim 54 and 66 takes 4-5 s each and is left out.
TENSOR_COMMANDS = {
    ("ideal-pair", "sq0-lifting"): [("moore",), ("theorem5",), ("tables", "4"), ("to-3xmod",)],
    ("ideal-pair", "ideal-pair"): [("validate",), ("moore",), ("theorem5",), ("tables", "2"),
                                   ("to-3xmod",)],
    ("ideal-pair", "zero-module"): [("moore",), ("to-3xmod",)],
    ("constant", "module-id"): [("validate",), ("moore",), ("theorem5",), ("to-3xmod",)],
}


def tensor_name(e: str, f: str) -> str:
    return f"{e}⊗{f}"


@dataclass(frozen=True)
class Job:
    p: int
    command: tuple          # the command and its positional arguments
    name: str = ""          # the object the command runs on, if any
    doc: str = ""           # input document stem; "" reads the built-in corpus
    options: tuple = ()     # global options other than --char and --input

    @property
    def label(self) -> str:
        return " ".join((f"p={self.p}", *self.options, *self.command, self.name)).strip()

    def argv(self, doc_path: str = "", emitted_path: str = "") -> list:
        head = ["--char", str(self.p), *self.options]
        if self.command[0] == "verify-3xmod":
            head += ["--input", emitted_path]
        elif self.doc:
            head += ["--input", doc_path]
        return head + list(self.command) + ([self.name] if self.name else [])


def _corpus_cli() -> list[Job]:
    jobs = []
    for p, entries in CORPUS_CLI.items():
        for entry in entries:
            if entry[0] in NAMELESS:
                jobs.append(Job(p, entry))
            else:
                jobs.append(Job(p, entry[:-1], entry[-1]))
    return jobs


def _pairing_audit() -> list[Job]:
    jobs = [Job(p, (cmd,), name, f"corpus-{p}")
            for (cmd, p), names in AUDIT.items() for name in names]
    jobs.append(Job(2, ("table1",), tensor_name("ideal-pair", "sq0-lifting"), "tensor-2",
                    SAMPLED_TABLE1))
    return jobs


def _tensor_extract() -> list[Job]:
    jobs = []
    for p, pairs in TENSORS.items():
        for pair in pairs:
            name = tensor_name(*pair)
            jobs += [Job(p, cmd, name, f"tensor-{p}") for cmd in TENSOR_COMMANDS[pair]]
            jobs.append(Job(p, ("verify-3xmod",), name + "-3xmod", f"tensor-{p}"))
    return jobs


WORKLOADS = {"corpus-cli": _corpus_cli, "pairing-audit": _pairing_audit,
             "tensor-extract": _tensor_extract}


def documents(workload: str) -> dict:
    """Input documents a workload reads: stem -> (p, kind)."""
    if workload == "pairing-audit":
        return {"corpus-5": (5, "corpus"), "corpus-7": (7, "corpus"),
                "tensor-2": (2, "tensor")}
    if workload == "tensor-extract":
        return {"tensor-2": (2, "tensor"), "tensor-3": (3, "tensor")}
    return {}


def jobs(workload: str, seed: int) -> list[Job]:
    """The seeded job order; each verify-3xmod follows its to-3xmod."""
    order = WORKLOADS[workload]()
    random.Random(seed).shuffle(order)
    for job in [j for j in order if j.command[0] == "verify-3xmod"]:
        source = order.index(Job(job.p, ("to-3xmod",), job.name[:-len("-3xmod")], job.doc))
        if order.index(job) < source:
            order.remove(job)
            order.insert(source, job)
    return order

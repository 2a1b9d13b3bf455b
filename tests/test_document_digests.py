"""sha256 of the whole stdout and the exit code of the commands that dump
every document section or load a 3-crossed one: `corpus` at p = 2, 3 and
5, `lie-verify` on the Lie corpus at p = 2 and 3, and `verify-3xmod` on
the document that `to-3xmod cubic-chain` emits at p = 2 and 3.  Each
digest is checked with matmul's default BLAS floor and with every product
in float64."""

import io

import pytest

from moorekit import coeff
from moorekit.cli import parse_args, run_command
from test_extraction_digests import digest

FLOORS = ("default", "all-float")

DIGESTS = {
    ("corpus", 2, ""): (0, "0b2c6283b3e769141a4d8c8a1c9b0f7221f41b015e123b48372667a71b64f655"),
    ("corpus", 3, ""): (0, "b9b090da87833d121afd52c46256421719a060cc42d80ba96356823212aae5f9"),
    ("corpus", 5, ""): (0, "08d4b567a4774a22a0e8148c79dc70ff2a74203d247955bc010d7ffef0a38a67"),
    ("lie-verify", 2, "abelian"): (0, "369e5e98e8f51a2cd423704ac9ebc669c1d2fe9acb2ec9259a410d5a01b74ace"),
    ("lie-verify", 2, "heisenberg"): (0, "9bced75152385a1ba7983decac0b7bbd1eaa1658933e54c0d2119c52caf93cce"),
    ("lie-verify", 2, "abelian-chain"): (0, "d55ad12f503266b77310549e9e2ff4c9af017c6c01f3ed1f4e0a75f259076c81"),
    ("lie-verify", 2, "heisenberg-chain"): (0, "8ad825f935b56cd0e108798598d5119efd749618af71929c9b1d3953b76f7a44"),
    ("lie-verify", 3, "abelian"): (0, "369e5e98e8f51a2cd423704ac9ebc669c1d2fe9acb2ec9259a410d5a01b74ace"),
    ("lie-verify", 3, "heisenberg"): (0, "9bced75152385a1ba7983decac0b7bbd1eaa1658933e54c0d2119c52caf93cce"),
    ("lie-verify", 3, "abelian-chain"): (0, "d55ad12f503266b77310549e9e2ff4c9af017c6c01f3ed1f4e0a75f259076c81"),
    ("lie-verify", 3, "heisenberg-chain"): (0, "8ad825f935b56cd0e108798598d5119efd749618af71929c9b1d3953b76f7a44"),
    ("verify-3xmod", 2, "cubic-chain-3xmod"): (0, "cce88aa45586374162e0e583aefd7074c6fbec9788825038c7662496a1e4b939"),
    ("verify-3xmod", 3, "cubic-chain-3xmod"): (1, "22cdb06fb42ca780d2dd0d3c0d2231b5f441011c581658a45714f2aa8dccf3b4"),
}


@pytest.fixture(params=FLOORS)
def floor(request, monkeypatch):
    if request.param == "all-float":
        monkeypatch.setattr(coeff, "_BLAS_MADDS", 0)
    return request.param


def emitted_3xmod(p: int, directory) -> str:
    """The path of a file holding the document `to-3xmod cubic-chain` emits."""
    out = io.StringIO()
    run_command(parse_args(["--char", str(p), "to-3xmod", "cubic-chain"]), out)
    path = f"{directory}/cubic-chain-3xmod.json"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(out.getvalue().splitlines()[0])
    return path


@pytest.mark.parametrize("key", list(DIGESTS),
                         ids=[f"p{p}-{cmd}" + (f"-{name}" if name else "")
                              for cmd, p, name in DIGESTS])
def test_document_stdout_digest_is_pinned(key, floor, tmp_path):
    cmd, p, name = key
    if cmd == "verify-3xmod":
        argv = ["--input", emitted_3xmod(p, tmp_path), cmd, name]
    else:
        argv = ["--char", str(p), cmd, *([name] if name else [])]
    assert digest(*argv) == DIGESTS[key]

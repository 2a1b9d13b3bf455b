"""sha256 of the whole stdout and the exit code of the pairing audits:
table1, lemma7 and theorem5 on every simplicial corpus name at p = 2, 3
and 5, and on sq0-lifting (x) sq0-lifting at p = 2, whose Table 1 runs on a
one-element supply per Moore component and shows three discrepant rows.
Each digest is checked with matmul's default BLAS floor and with every
product in float64."""

import pytest

from moorekit import coeff, corpus
from test_extraction_digests import TENSOR, digest, write_tensor_document

CHARS = (2, 3, 5)
COMMANDS = ("table1", "lemma7", "theorem5")
FLOORS = ("default", "all-float")

CORPUS_DIGESTS = {
    (2, "table1", "ideal-pair"): (0, "30898afa4900cb336dff5bde1179f8c78670ba8a9d8476eb141c932378397669"),
    (2, "table1", "ideal-pair-cubic"): (0, "b2e550b857ec04acdda44aaca6f2955739a8c7d2596fdc83ffd5c74a9835182d"),
    (2, "table1", "zero-module"): (0, "b2e550b857ec04acdda44aaca6f2955739a8c7d2596fdc83ffd5c74a9835182d"),
    (2, "table1", "sq0-lifting"): (0, "14f97d545bc51ade36cab81702dad1e4e7b5e43c8b5d198b53f4d0c3896e8740"),
    (2, "table1", "cubic-chain"): (0, "fc4b0433d82702f40200e864260ab1feb35bf2c5248bfbecc6588c7fbcda2558"),
    (2, "table1", "module-id"): (0, "e905393ed9c9f68ea48b057badf4e01b48dfc3632d00739bb66146baca9b52fe"),
    (2, "table1", "constant"): (0, "d9f9f21e086d3790095f41b0d712d36802122b948bec331a4b8f189a2e10ac75"),
    (2, "table1", "top-degree-4"): (0, "d9f9f21e086d3790095f41b0d712d36802122b948bec331a4b8f189a2e10ac75"),
    (2, "table1", "top-degree-3"): (0, "a11625bd716b69838fa6e484e2281e2de748737f6dfa00e737f0ac1e4fab4208"),
    (2, "lemma7", "ideal-pair"): (0, "f1355e650ca9d8ad91e248261c90a47aa367750ca5be3847096063baffc43d98"),
    (2, "lemma7", "ideal-pair-cubic"): (0, "f1355e650ca9d8ad91e248261c90a47aa367750ca5be3847096063baffc43d98"),
    (2, "lemma7", "zero-module"): (0, "f1355e650ca9d8ad91e248261c90a47aa367750ca5be3847096063baffc43d98"),
    (2, "lemma7", "sq0-lifting"): (0, "7b5ce668e38ec6cb998774cfd6d85f3cd3c54f48ba5a3a6c7738bf624b63cc72"),
    (2, "lemma7", "cubic-chain"): (0, "7b5ce668e38ec6cb998774cfd6d85f3cd3c54f48ba5a3a6c7738bf624b63cc72"),
    (2, "lemma7", "module-id"): (0, "e1f4a3a44a59b71f44b7a583529d1090d79cc14d65dd2ac913fde98ba1a9f166"),
    (2, "lemma7", "constant"): (0, "f1355e650ca9d8ad91e248261c90a47aa367750ca5be3847096063baffc43d98"),
    (2, "lemma7", "top-degree-4"): (0, "9c23acf7a5e449e561178677f142ec5218852c90ca2fdf5ddc3ee976175440c5"),
    (2, "lemma7", "top-degree-3"): (0, "f478bd3fff47332d4678aaf265ae36d742f9ddcf117eea7f2c10bd68d2a0abc8"),
    (2, "theorem5", "ideal-pair"): (0, "ef8a5571827c9189598b0455e038adfde3d499c548180b95d57951a44503279c"),
    (2, "theorem5", "ideal-pair-cubic"): (0, "ef8a5571827c9189598b0455e038adfde3d499c548180b95d57951a44503279c"),
    (2, "theorem5", "zero-module"): (0, "ef8a5571827c9189598b0455e038adfde3d499c548180b95d57951a44503279c"),
    (2, "theorem5", "sq0-lifting"): (0, "ef8a5571827c9189598b0455e038adfde3d499c548180b95d57951a44503279c"),
    (2, "theorem5", "cubic-chain"): (0, "c11804c85b16145df28d24b5a219edb1fa555140133b519114b21e3afe28aa84"),
    (2, "theorem5", "module-id"): (0, "b5fffd16b13c4f450e4168a1b67c94b4e064030abd889e63986fc8e8ab6e52c5"),
    (2, "theorem5", "constant"): (0, "ef8a5571827c9189598b0455e038adfde3d499c548180b95d57951a44503279c"),
    (2, "theorem5", "top-degree-4"): (0, "899848c245374996fab55246109e6f77488d39c3205c97250825501fb5a5798b"),
    (2, "theorem5", "top-degree-3"): (0, "0b0f6c1d1e828a9aa53757a57801c70f6b367616a59dd6d1c8aa4e0e66297a2d"),
    (3, "table1", "ideal-pair"): (0, "e32c55bc01aea46c69c1fe391f8e27b190065876be4d937607a379e97f278f08"),
    (3, "table1", "ideal-pair-cubic"): (0, "4be9d8384b6f3c060032d77441846b17f837d42533e80cabb1cf8550d94b4f80"),
    (3, "table1", "zero-module"): (0, "4be9d8384b6f3c060032d77441846b17f837d42533e80cabb1cf8550d94b4f80"),
    (3, "table1", "sq0-lifting"): (0, "3ec576314ded6b59d3ba9e04fa352d124984292a4f0aaa6a82b77dfb1fa2619c"),
    (3, "table1", "cubic-chain"): (0, "e34adbb258b54e78606fbd528937d7a403bdaef88b1894177d5e2badf82d82ea"),
    (3, "table1", "module-id"): (0, "680bb7987e5c5c8ecbdc3394dade9d3acb1748ccfea1a4ada719fcc652d92ada"),
    (3, "table1", "constant"): (0, "d9f9f21e086d3790095f41b0d712d36802122b948bec331a4b8f189a2e10ac75"),
    (3, "table1", "top-degree-4"): (0, "d9f9f21e086d3790095f41b0d712d36802122b948bec331a4b8f189a2e10ac75"),
    (3, "table1", "top-degree-3"): (0, "e77df2808fd6a85a02caefecf02d2e9d888933535d02698ab839e4b7817947e2"),
    (3, "lemma7", "ideal-pair"): (0, "f1355e650ca9d8ad91e248261c90a47aa367750ca5be3847096063baffc43d98"),
    (3, "lemma7", "ideal-pair-cubic"): (0, "f1355e650ca9d8ad91e248261c90a47aa367750ca5be3847096063baffc43d98"),
    (3, "lemma7", "zero-module"): (0, "f1355e650ca9d8ad91e248261c90a47aa367750ca5be3847096063baffc43d98"),
    (3, "lemma7", "sq0-lifting"): (0, "7b5ce668e38ec6cb998774cfd6d85f3cd3c54f48ba5a3a6c7738bf624b63cc72"),
    (3, "lemma7", "cubic-chain"): (0, "7b5ce668e38ec6cb998774cfd6d85f3cd3c54f48ba5a3a6c7738bf624b63cc72"),
    (3, "lemma7", "module-id"): (0, "e1f4a3a44a59b71f44b7a583529d1090d79cc14d65dd2ac913fde98ba1a9f166"),
    (3, "lemma7", "constant"): (0, "f1355e650ca9d8ad91e248261c90a47aa367750ca5be3847096063baffc43d98"),
    (3, "lemma7", "top-degree-4"): (0, "9c23acf7a5e449e561178677f142ec5218852c90ca2fdf5ddc3ee976175440c5"),
    (3, "lemma7", "top-degree-3"): (0, "f478bd3fff47332d4678aaf265ae36d742f9ddcf117eea7f2c10bd68d2a0abc8"),
    (3, "theorem5", "ideal-pair"): (0, "ef8a5571827c9189598b0455e038adfde3d499c548180b95d57951a44503279c"),
    (3, "theorem5", "ideal-pair-cubic"): (0, "ef8a5571827c9189598b0455e038adfde3d499c548180b95d57951a44503279c"),
    (3, "theorem5", "zero-module"): (0, "ef8a5571827c9189598b0455e038adfde3d499c548180b95d57951a44503279c"),
    (3, "theorem5", "sq0-lifting"): (0, "ef8a5571827c9189598b0455e038adfde3d499c548180b95d57951a44503279c"),
    (3, "theorem5", "cubic-chain"): (0, "c11804c85b16145df28d24b5a219edb1fa555140133b519114b21e3afe28aa84"),
    (3, "theorem5", "module-id"): (0, "b5fffd16b13c4f450e4168a1b67c94b4e064030abd889e63986fc8e8ab6e52c5"),
    (3, "theorem5", "constant"): (0, "ef8a5571827c9189598b0455e038adfde3d499c548180b95d57951a44503279c"),
    (3, "theorem5", "top-degree-4"): (0, "899848c245374996fab55246109e6f77488d39c3205c97250825501fb5a5798b"),
    (3, "theorem5", "top-degree-3"): (0, "0b0f6c1d1e828a9aa53757a57801c70f6b367616a59dd6d1c8aa4e0e66297a2d"),
    (5, "table1", "ideal-pair"): (0, "6104d9618742d0b8c1e2b35bdc248a4e956faab24396c8ff0f395c96876ac90f"),
    (5, "table1", "ideal-pair-cubic"): (0, "33625c325e2d5640137b771684b68f5a594f68c8da4d1551d7cf5c612f7ff001"),
    (5, "table1", "zero-module"): (0, "33625c325e2d5640137b771684b68f5a594f68c8da4d1551d7cf5c612f7ff001"),
    (5, "table1", "sq0-lifting"): (0, "5b84cce04a4145877cc429a8fab3da5e95cc3f02cd3c88ccd9020a8c8090222b"),
    (5, "table1", "cubic-chain"): (0, "a3e81c2e86d24dfb9ea62cc6b423efcb1111b4f4d7131bde53f9878e3b0ae790"),
    (5, "table1", "module-id"): (0, "81937469a64315b55f5bdddeea00055d8cf9a8fabb2d2f70dfb2a93a1a3f250e"),
    (5, "table1", "constant"): (0, "d9f9f21e086d3790095f41b0d712d36802122b948bec331a4b8f189a2e10ac75"),
    (5, "table1", "top-degree-4"): (0, "d9f9f21e086d3790095f41b0d712d36802122b948bec331a4b8f189a2e10ac75"),
    (5, "table1", "top-degree-3"): (0, "fd7035fa127e7d473082e2e2838c7529612396fc8538d7aa8c9b81bb2dd76e69"),
    (5, "lemma7", "ideal-pair"): (0, "f1355e650ca9d8ad91e248261c90a47aa367750ca5be3847096063baffc43d98"),
    (5, "lemma7", "ideal-pair-cubic"): (0, "f1355e650ca9d8ad91e248261c90a47aa367750ca5be3847096063baffc43d98"),
    (5, "lemma7", "zero-module"): (0, "f1355e650ca9d8ad91e248261c90a47aa367750ca5be3847096063baffc43d98"),
    (5, "lemma7", "sq0-lifting"): (0, "7b5ce668e38ec6cb998774cfd6d85f3cd3c54f48ba5a3a6c7738bf624b63cc72"),
    (5, "lemma7", "cubic-chain"): (0, "7b5ce668e38ec6cb998774cfd6d85f3cd3c54f48ba5a3a6c7738bf624b63cc72"),
    (5, "lemma7", "module-id"): (0, "e1f4a3a44a59b71f44b7a583529d1090d79cc14d65dd2ac913fde98ba1a9f166"),
    (5, "lemma7", "constant"): (0, "f1355e650ca9d8ad91e248261c90a47aa367750ca5be3847096063baffc43d98"),
    (5, "lemma7", "top-degree-4"): (0, "9c23acf7a5e449e561178677f142ec5218852c90ca2fdf5ddc3ee976175440c5"),
    (5, "lemma7", "top-degree-3"): (0, "f478bd3fff47332d4678aaf265ae36d742f9ddcf117eea7f2c10bd68d2a0abc8"),
    (5, "theorem5", "ideal-pair"): (0, "ef8a5571827c9189598b0455e038adfde3d499c548180b95d57951a44503279c"),
    (5, "theorem5", "ideal-pair-cubic"): (0, "ef8a5571827c9189598b0455e038adfde3d499c548180b95d57951a44503279c"),
    (5, "theorem5", "zero-module"): (0, "ef8a5571827c9189598b0455e038adfde3d499c548180b95d57951a44503279c"),
    (5, "theorem5", "sq0-lifting"): (0, "ef8a5571827c9189598b0455e038adfde3d499c548180b95d57951a44503279c"),
    (5, "theorem5", "cubic-chain"): (0, "c11804c85b16145df28d24b5a219edb1fa555140133b519114b21e3afe28aa84"),
    (5, "theorem5", "module-id"): (0, "b5fffd16b13c4f450e4168a1b67c94b4e064030abd889e63986fc8e8ab6e52c5"),
    (5, "theorem5", "constant"): (0, "ef8a5571827c9189598b0455e038adfde3d499c548180b95d57951a44503279c"),
    (5, "theorem5", "top-degree-4"): (0, "899848c245374996fab55246109e6f77488d39c3205c97250825501fb5a5798b"),
    (5, "theorem5", "top-degree-3"): (0, "0b0f6c1d1e828a9aa53757a57801c70f6b367616a59dd6d1c8aa4e0e66297a2d"),
}
TENSOR_DIGESTS = {
    "--budget 1 --exhaustive-bound 1 table1": (0, "8027e42118200dd90aece7cb20bd7c2fc4538dfae4a4d56b27e00a63dd37334b"),
    "lemma7": (0, "9c23acf7a5e449e561178677f142ec5218852c90ca2fdf5ddc3ee976175440c5"),
    "theorem5": (0, "4df4a1d7368ebfa6aeeced633fc2666944bd885df11f0510c8fc52a22bfcab33"),
}

@pytest.fixture(params=FLOORS)
def floor(request, monkeypatch):
    if request.param == "all-float":
        monkeypatch.setattr(coeff, "_BLAS_MADDS", 0)
    return request.param


@pytest.mark.parametrize("key", list(CORPUS_DIGESTS),
                         ids=[f"p{p}-{cmd}-{name}" for p, cmd, name in CORPUS_DIGESTS])
def test_pairing_audit_stdout_digest_is_pinned(key, floor):
    p, cmd, name = key
    assert digest("--char", str(p), cmd, name) == CORPUS_DIGESTS[key]


def test_corpus_digests_cover_every_name_command_and_prime():
    names = corpus.simplicial_corpus(2).keys()
    assert list(CORPUS_DIGESTS) == [(p, cmd, name) for p in CHARS for cmd in COMMANDS
                                    for name in names]


@pytest.fixture(scope="module")
def tensor_document(tmp_path_factory):
    return write_tensor_document(tmp_path_factory.mktemp("tensor"))


@pytest.mark.parametrize("cmd", list(TENSOR_DIGESTS))
def test_tensor_pairing_audit_stdout_digest_is_pinned(cmd, tensor_document, floor):
    assert digest("--input", tensor_document, *cmd.split(), TENSOR) == TENSOR_DIGESTS[cmd]

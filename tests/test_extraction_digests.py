"""sha256 of the whole stdout, emitted documents included, and the exit
code of every extraction command: to-xmod, to-2xmod and to-3xmod under
both lifting conventions and tables 2, 3 and 4 on every simplicial corpus
name at p = 2, 3 and 5, plus roundtrip.  Also the extractions of
sq0-lifting (x) sq0-lifting at p = 2, the one object at hand whose
3-crossed extraction divides NE_3 by a non-zero d_4(NE_4 cap D_4): NE_4 cap
D_4 has dimension 6 and its image under d_4 dimension 5."""

import hashlib
import io

import pytest

from moorekit import corpus
from moorekit.cli import parse_args, run_command
from moorekit.document import DocumentBuilder
from test_axiom_sweep import tensor_simplicial

CHARS = (2, 3, 5)
COMMANDS = ("to-xmod", "to-2xmod", "to-2xmod --convention def1", "to-3xmod",
            "to-3xmod --convention def1", "tables 2", "tables 3", "tables 4")
TENSOR = "sq0-lifting(x)sq0-lifting"
TENSOR_COMMANDS = ("to-xmod", "to-2xmod", "to-3xmod", "to-3xmod --convention def1")


def digest(*argv) -> tuple[int, str]:
    out = io.StringIO()
    code = run_command(parse_args(list(argv)), out)
    return code, hashlib.sha256(out.getvalue().encode()).hexdigest()


def corpus_keys() -> list[tuple]:
    names = corpus.simplicial_corpus(2).keys()
    return [(p, cmd, name) for p in CHARS for cmd in COMMANDS for name in names] + [
        (p, "roundtrip", "") for p in CHARS]


def corpus_argv(p: int, cmd: str, name: str) -> list[str]:
    return ["--char", str(p), *cmd.split(), *([name] if name else [])]


def write_tensor_document(directory) -> str:
    simp = corpus.simplicial_corpus(2, names=["sq0-lifting"])
    b = DocumentBuilder()
    b.simplicial(tensor_simplicial(simp["sq0-lifting"], simp["sq0-lifting"]), TENSOR)
    path = f"{directory}/tensor.json"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(b.dumps())
    return path


CORPUS_DIGESTS = {
    (2, "to-xmod", "ideal-pair"): (0, "5f4e51afbdba9a022f80a1284571553cbab2a29e53500619614b903d743c8090"),
    (2, "to-xmod", "ideal-pair-cubic"): (0, "055e3d799ad605bdcf8898b9f07e855d163a25a65ef782e3b7bc3e4b79818f25"),
    (2, "to-xmod", "zero-module"): (0, "991e314b601e6cd9124467332d0e1f2aff7a9d7682e1093059cd8a25bcc126c0"),
    (2, "to-xmod", "sq0-lifting"): (0, "97e1d58eea066b8561180d21095fecca03aa1632d7603f193dae9eab2c541b7d"),
    (2, "to-xmod", "cubic-chain"): (0, "68fe4976f2d7d81fcef283cbbc6548150228e78557018cb6ce1af1efae89aad7"),
    (2, "to-xmod", "module-id"): (0, "18b2e37afcf98c9d249f0841400d73623cf9ed727dcfa923d89a78148942cb3d"),
    (2, "to-xmod", "constant"): (0, "a9deec3f884d0b47be1a4407a14afec721a93c634ee65a69cd8bbb4407e58feb"),
    (2, "to-xmod", "top-degree-4"): (0, "df11d5260ebe0d1c044acbcf01f7c60aa8ed9b6b8901144a8dfb878758ca12d1"),
    (2, "to-xmod", "top-degree-3"): (0, "e04920ecf214c268b35943c5bdaf1fc712e16b6da0654c9edba0146d31b1866d"),
    (2, "to-2xmod", "ideal-pair"): (0, "97dbc8c5daa991ce0e519a807eff0943948dceedb321b61d6ecd1fe35377c8ea"),
    (2, "to-2xmod", "ideal-pair-cubic"): (0, "72c4deaeb20817332e273d78b9c32f01686aaf3305a8cd2506489cbcac17eb3e"),
    (2, "to-2xmod", "zero-module"): (0, "64a6aa7f1d241faad9a2c9e9132e3ba33cb9b1b33297f586d7296588a7a9481b"),
    (2, "to-2xmod", "sq0-lifting"): (0, "3eb18cc1728aa9100f554892c5451868cb1f4333afce88138715a58517ff93f8"),
    (2, "to-2xmod", "cubic-chain"): (0, "ea4240c9fe10ed664e5e0620bcf0d1d539d29c4a3f7ecd16b86d2eb41a407f37"),
    (2, "to-2xmod", "module-id"): (0, "aae955f973fd34a118585df4f8f1189f3b2cb125de0f81aee2ab32198332ae8e"),
    (2, "to-2xmod", "constant"): (0, "e89f65eba01a73d2eeb2dfe3dd178b064d7405924bc8ae36d280992259435d36"),
    (2, "to-2xmod", "top-degree-4"): (0, "c6cc4d5b13bbe0c70cb4f2a1f1032763beb89b5f5dea85b685c0e7c2b9527966"),
    (2, "to-2xmod", "top-degree-3"): (0, "b6d9f19c9f45b5a2bf0f05b3425ab97a3fbf594cf4369d9594155b5d66476d86"),
    (2, "to-2xmod --convention def1", "ideal-pair"): (0, "97dbc8c5daa991ce0e519a807eff0943948dceedb321b61d6ecd1fe35377c8ea"),
    (2, "to-2xmod --convention def1", "ideal-pair-cubic"): (0, "72c4deaeb20817332e273d78b9c32f01686aaf3305a8cd2506489cbcac17eb3e"),
    (2, "to-2xmod --convention def1", "zero-module"): (0, "64a6aa7f1d241faad9a2c9e9132e3ba33cb9b1b33297f586d7296588a7a9481b"),
    (2, "to-2xmod --convention def1", "sq0-lifting"): (0, "3eb18cc1728aa9100f554892c5451868cb1f4333afce88138715a58517ff93f8"),
    (2, "to-2xmod --convention def1", "cubic-chain"): (0, "ea4240c9fe10ed664e5e0620bcf0d1d539d29c4a3f7ecd16b86d2eb41a407f37"),
    (2, "to-2xmod --convention def1", "module-id"): (0, "aae955f973fd34a118585df4f8f1189f3b2cb125de0f81aee2ab32198332ae8e"),
    (2, "to-2xmod --convention def1", "constant"): (0, "e89f65eba01a73d2eeb2dfe3dd178b064d7405924bc8ae36d280992259435d36"),
    (2, "to-2xmod --convention def1", "top-degree-4"): (0, "c6cc4d5b13bbe0c70cb4f2a1f1032763beb89b5f5dea85b685c0e7c2b9527966"),
    (2, "to-2xmod --convention def1", "top-degree-3"): (0, "b6d9f19c9f45b5a2bf0f05b3425ab97a3fbf594cf4369d9594155b5d66476d86"),
    (2, "to-3xmod", "ideal-pair"): (0, "835abb511fadbadcbbd28eb1e38e56eeb3696b6a5120a59be7cd3a490099110f"),
    (2, "to-3xmod", "ideal-pair-cubic"): (0, "352afaea46133a299f9eaa65f2aad4569fd3a3c4ff54ec4dcac4728522ac92e3"),
    (2, "to-3xmod", "zero-module"): (0, "077c00a2971af661851f9ed69319b7e5c5b9123e831f2aac13038cd1ffd91ea8"),
    (2, "to-3xmod", "sq0-lifting"): (0, "f0ff6b48e6232969e14f2a3a93e0bba7980fa4215acb386aaaf809568b589672"),
    (2, "to-3xmod", "cubic-chain"): (0, "416610d4c4f86b07ca87cdf9b6eea76d199525d2577c610e6a624f0d3b435678"),
    (2, "to-3xmod", "module-id"): (0, "d3b742bbf2e0833297518857d26abbd2f9037c0e9a3d5442c315414a6eccae63"),
    (2, "to-3xmod", "constant"): (0, "6e316e7afb0c34df2b96d6cdfd60da1671ccf83aedc709c1bcf82eb83c00a3e5"),
    (2, "to-3xmod", "top-degree-4"): (0, "26d068f628ce0b499ca4849290d07ffca4f7620dce07279dd341952dc3dff5a4"),
    (2, "to-3xmod", "top-degree-3"): (0, "de11b1b3d950c21fbc12c36bac4e992715b1dcea556d7bb4240fb7a246c4c885"),
    (2, "to-3xmod --convention def1", "ideal-pair"): (0, "db2a693d3435c179f6685689186a8be83d292aa077dbe37ed789d7a2c0b1b968"),
    (2, "to-3xmod --convention def1", "ideal-pair-cubic"): (0, "74df647695b2b6914e09dda4ae1e10a8852a197175d970356412e27b77bcebfb"),
    (2, "to-3xmod --convention def1", "zero-module"): (0, "c0ad795ea11b72a4290e64caa7cd93f3ce274237ec3e8953c7441c05920638d5"),
    (2, "to-3xmod --convention def1", "sq0-lifting"): (0, "86c5b17e003449bf4be817f24ae51d830547ba3520fe19527026fb828495e2db"),
    (2, "to-3xmod --convention def1", "cubic-chain"): (0, "0f72204dc3d3ce7eba81bba71d26014fd3f19f9098aceec3ebd91f3600ae7bbf"),
    (2, "to-3xmod --convention def1", "module-id"): (0, "c822a4da1b30e39649018010243629a7fb7b51eaf660f46fa58bdaaa7e85a577"),
    (2, "to-3xmod --convention def1", "constant"): (0, "13a992e09883cdb64e0542344ea059e18a9004da1a20b42e0714476c25278290"),
    (2, "to-3xmod --convention def1", "top-degree-4"): (0, "f4d6471a841692240a41dcc62a5e04c3d06031fe4c649826a5a6947d6590f58b"),
    (2, "to-3xmod --convention def1", "top-degree-3"): (0, "881050124549f37af1566d04d12446db285ebabdc1126035b2a2a0518f562d01"),
    (2, "tables 2", "ideal-pair"): (0, "10bb91c6db01b1df11d5583836960699b86f401d24ceea35f95499f1c9ef162a"),
    (2, "tables 2", "ideal-pair-cubic"): (0, "10bb91c6db01b1df11d5583836960699b86f401d24ceea35f95499f1c9ef162a"),
    (2, "tables 2", "zero-module"): (0, "10bb91c6db01b1df11d5583836960699b86f401d24ceea35f95499f1c9ef162a"),
    (2, "tables 2", "sq0-lifting"): (0, "d9710039cea96a224372b7e0986c405b92b09d2ef3bd4955b56fa4d33db673e4"),
    (2, "tables 2", "cubic-chain"): (0, "830031497f768dd1dab380f8d2b41c302364a111cdc2e9310ea774fb0fb7d928"),
    (2, "tables 2", "module-id"): (0, "732509a902837e7d7e885cb92d14f7ebb12beba9b61398acd14d3e84d082a809"),
    (2, "tables 2", "constant"): (0, "10bb91c6db01b1df11d5583836960699b86f401d24ceea35f95499f1c9ef162a"),
    (2, "tables 2", "top-degree-4"): (0, "10bb91c6db01b1df11d5583836960699b86f401d24ceea35f95499f1c9ef162a"),
    (2, "tables 2", "top-degree-3"): (0, "f71bfaf1da1e5f7816228540d3c2332654c9fa13e252bd59d644e149747b6590"),
    (2, "tables 3", "ideal-pair"): (0, "5d90693764ad7db65b338eb69efb9bba89ccf6271d6b287bd32456744a4b9eaf"),
    (2, "tables 3", "ideal-pair-cubic"): (0, "5d90693764ad7db65b338eb69efb9bba89ccf6271d6b287bd32456744a4b9eaf"),
    (2, "tables 3", "zero-module"): (0, "5d90693764ad7db65b338eb69efb9bba89ccf6271d6b287bd32456744a4b9eaf"),
    (2, "tables 3", "sq0-lifting"): (0, "5d90693764ad7db65b338eb69efb9bba89ccf6271d6b287bd32456744a4b9eaf"),
    (2, "tables 3", "cubic-chain"): (0, "5d90693764ad7db65b338eb69efb9bba89ccf6271d6b287bd32456744a4b9eaf"),
    (2, "tables 3", "module-id"): (0, "5d90693764ad7db65b338eb69efb9bba89ccf6271d6b287bd32456744a4b9eaf"),
    (2, "tables 3", "constant"): (0, "5d90693764ad7db65b338eb69efb9bba89ccf6271d6b287bd32456744a4b9eaf"),
    (2, "tables 3", "top-degree-4"): (0, "5d90693764ad7db65b338eb69efb9bba89ccf6271d6b287bd32456744a4b9eaf"),
    (2, "tables 3", "top-degree-3"): (0, "5d90693764ad7db65b338eb69efb9bba89ccf6271d6b287bd32456744a4b9eaf"),
    (2, "tables 4", "ideal-pair"): (0, "ac09c843a3f78694eaebda84ca6c1bc492d2e1aca2f19e944aaa30ff0778f05e"),
    (2, "tables 4", "ideal-pair-cubic"): (0, "ac09c843a3f78694eaebda84ca6c1bc492d2e1aca2f19e944aaa30ff0778f05e"),
    (2, "tables 4", "zero-module"): (0, "ac09c843a3f78694eaebda84ca6c1bc492d2e1aca2f19e944aaa30ff0778f05e"),
    (2, "tables 4", "sq0-lifting"): (0, "ac09c843a3f78694eaebda84ca6c1bc492d2e1aca2f19e944aaa30ff0778f05e"),
    (2, "tables 4", "cubic-chain"): (0, "ac09c843a3f78694eaebda84ca6c1bc492d2e1aca2f19e944aaa30ff0778f05e"),
    (2, "tables 4", "module-id"): (0, "ac09c843a3f78694eaebda84ca6c1bc492d2e1aca2f19e944aaa30ff0778f05e"),
    (2, "tables 4", "constant"): (0, "ac09c843a3f78694eaebda84ca6c1bc492d2e1aca2f19e944aaa30ff0778f05e"),
    (2, "tables 4", "top-degree-4"): (0, "ac09c843a3f78694eaebda84ca6c1bc492d2e1aca2f19e944aaa30ff0778f05e"),
    (2, "tables 4", "top-degree-3"): (0, "ac09c843a3f78694eaebda84ca6c1bc492d2e1aca2f19e944aaa30ff0778f05e"),
    (3, "to-xmod", "ideal-pair"): (0, "4cb191feeed6171e440b0f2e4805f5e59684448d4ba19f50670be0413846ed4f"),
    (3, "to-xmod", "ideal-pair-cubic"): (0, "1d6e0a60ba93c51dd3e7de2f90d6a760d329547b0653b0cb14d7c7445da17834"),
    (3, "to-xmod", "zero-module"): (0, "266c388d6c2d757546e1f01c01db71e671de4f07f5b92df7c9c1eec1ba07f2d0"),
    (3, "to-xmod", "sq0-lifting"): (0, "a9d92c9ecd5840ed5fee6192752dfa5b5324877f061201a91d44fe02db79d6be"),
    (3, "to-xmod", "cubic-chain"): (0, "d1d785ccbe220fbf4218b1dfde8ca693b1009be762de6593b0d2e4bee0dca038"),
    (3, "to-xmod", "module-id"): (0, "aec91beda533c4f45f6fc7f628af6cabfcc4472ca917667a845982de4012ec6d"),
    (3, "to-xmod", "constant"): (0, "efd8bdddefc8072be0be8799cff2c619090b83395a79d874a02ea893c308642d"),
    (3, "to-xmod", "top-degree-4"): (0, "14724578594690ce54a539f9861d3fbc0b8f2619e2cd0cf96ff97887375ce8dd"),
    (3, "to-xmod", "top-degree-3"): (0, "0cc1c2894418491770f6fa4b1b70f9818ea0e0bddb19aa58718d038e9e1fe267"),
    (3, "to-2xmod", "ideal-pair"): (0, "659b5ffc62e7c4a0f1258cff0ddae6d5d5369bdf1660d50abf8cb4602123b18b"),
    (3, "to-2xmod", "ideal-pair-cubic"): (0, "fbb9278de8d9a3f14cd7c45f33ab5b2755a56129f7941d575323858301400ea8"),
    (3, "to-2xmod", "zero-module"): (0, "dd5f2c80ca8ef943b6793f9b15f4ef913b2ae1b3c0a3907845c20f85b2752019"),
    (3, "to-2xmod", "sq0-lifting"): (0, "daa50b141ffc7053c92fd78e714554d67e37162bda5692e508c870edaa55ff35"),
    (3, "to-2xmod", "cubic-chain"): (0, "402175d292f709822a9d21a4fa48a664b775d6ad5b147169804d0ab9a23542b7"),
    (3, "to-2xmod", "module-id"): (0, "d959b41d1031eb5eeb148eec459823426b219f48ad653c5e5aa523013db175c6"),
    (3, "to-2xmod", "constant"): (0, "2924d67ab418122abb7dc4b4d8e1ed5fe3086d88e9c064c8fe6707dd14ad3fa6"),
    (3, "to-2xmod", "top-degree-4"): (0, "c6cc4d5b13bbe0c70cb4f2a1f1032763beb89b5f5dea85b685c0e7c2b9527966"),
    (3, "to-2xmod", "top-degree-3"): (0, "b6d9f19c9f45b5a2bf0f05b3425ab97a3fbf594cf4369d9594155b5d66476d86"),
    (3, "to-2xmod --convention def1", "ideal-pair"): (0, "659b5ffc62e7c4a0f1258cff0ddae6d5d5369bdf1660d50abf8cb4602123b18b"),
    (3, "to-2xmod --convention def1", "ideal-pair-cubic"): (0, "fbb9278de8d9a3f14cd7c45f33ab5b2755a56129f7941d575323858301400ea8"),
    (3, "to-2xmod --convention def1", "zero-module"): (0, "dd5f2c80ca8ef943b6793f9b15f4ef913b2ae1b3c0a3907845c20f85b2752019"),
    (3, "to-2xmod --convention def1", "sq0-lifting"): (0, "99ec63aba241d91d407e6370269a868fe9887f7658d23b133209ccd1e7064747"),
    (3, "to-2xmod --convention def1", "cubic-chain"): (0, "23d4e2aaf7a5d0c18d85aa771dfc90244977991ce0a7ba63ae3727d693c2cec7"),
    (3, "to-2xmod --convention def1", "module-id"): (0, "d959b41d1031eb5eeb148eec459823426b219f48ad653c5e5aa523013db175c6"),
    (3, "to-2xmod --convention def1", "constant"): (0, "2924d67ab418122abb7dc4b4d8e1ed5fe3086d88e9c064c8fe6707dd14ad3fa6"),
    (3, "to-2xmod --convention def1", "top-degree-4"): (0, "c6cc4d5b13bbe0c70cb4f2a1f1032763beb89b5f5dea85b685c0e7c2b9527966"),
    (3, "to-2xmod --convention def1", "top-degree-3"): (0, "b6d9f19c9f45b5a2bf0f05b3425ab97a3fbf594cf4369d9594155b5d66476d86"),
    (3, "to-3xmod", "ideal-pair"): (0, "770c5dff05c0768946b9f91f9df1b0b81ea805ce2b571caff90aa041d647fb41"),
    (3, "to-3xmod", "ideal-pair-cubic"): (0, "02482a20b1f3c3beb2eb18099209c5b90fc696ae12c2aee0d502f802678c05be"),
    (3, "to-3xmod", "zero-module"): (0, "8bc4fadb3bedeb6860c43069b6fdd88d28b60231f17b9da8428b1e4f9b99e20d"),
    (3, "to-3xmod", "sq0-lifting"): (0, "ca15d3269b6e320e5b1aa781dd6d97374010776a531144c4fa34f39c654eacaa"),
    (3, "to-3xmod", "cubic-chain"): (2, "41293a7428c31783318e97597baf17d9a9708889a25d6b00d5852d3728dee9cb"),
    (3, "to-3xmod", "module-id"): (0, "bed19dd3f3e883c7a22d4528fe91639e3f5548c510fa4eed01f9ca56f48b9642"),
    (3, "to-3xmod", "constant"): (0, "95ee1feb78be4afd34757f6c3a76a155dee2b465527d8aae4af7e993b6c60d9f"),
    (3, "to-3xmod", "top-degree-4"): (0, "4ea2ab4f42caa74eb9e40a40c29a9ddf623bd7280dc2de1202828f4175260455"),
    (3, "to-3xmod", "top-degree-3"): (0, "edee6c10630bf8d6b99420839724fa1d3f4a1ca0836c0e8f762f1e2243f8a551"),
    (3, "to-3xmod --convention def1", "ideal-pair"): (0, "a04e66f3f09c981f59af76abeaf46ee66e31ef098303718a1fbe9bf4516cd61b"),
    (3, "to-3xmod --convention def1", "ideal-pair-cubic"): (0, "54aecea43e62406a2bb46adb8dd113f4bbd9287947ecedd5ae480ec1178835ba"),
    (3, "to-3xmod --convention def1", "zero-module"): (0, "8f99ee221317cc44bbabc34a8af740aac4768e698f813f4e8913634dbbbfcdc2"),
    (3, "to-3xmod --convention def1", "sq0-lifting"): (0, "478e78f90573b8171c7a5f320914fc8d07ccd29c02089f575ca937ab6b0c9953"),
    (3, "to-3xmod --convention def1", "cubic-chain"): (0, "f87670019e11795d69d806be56c6213507a418f254e98fa3ee560a4c9756b2d7"),
    (3, "to-3xmod --convention def1", "module-id"): (0, "a9398b3fc78761133ffcf8ef24e834dcff5bdce1e64876bf968133d036efb822"),
    (3, "to-3xmod --convention def1", "constant"): (0, "246c4fd3adc9990f4e67b23cdb415b8c722d6a7a86abb19c9ffbb862e81724b4"),
    (3, "to-3xmod --convention def1", "top-degree-4"): (0, "e83edceaa82431baca35fda52d8972f59e24af623000fb447ab57fdc13b288b1"),
    (3, "to-3xmod --convention def1", "top-degree-3"): (0, "c0597d28a789cdcc02f533256ec262ba4987bb35fa2b295309e24c147db0ed55"),
    (3, "tables 2", "ideal-pair"): (0, "10bb91c6db01b1df11d5583836960699b86f401d24ceea35f95499f1c9ef162a"),
    (3, "tables 2", "ideal-pair-cubic"): (0, "10bb91c6db01b1df11d5583836960699b86f401d24ceea35f95499f1c9ef162a"),
    (3, "tables 2", "zero-module"): (0, "10bb91c6db01b1df11d5583836960699b86f401d24ceea35f95499f1c9ef162a"),
    (3, "tables 2", "sq0-lifting"): (0, "d9710039cea96a224372b7e0986c405b92b09d2ef3bd4955b56fa4d33db673e4"),
    (3, "tables 2", "cubic-chain"): (0, "830031497f768dd1dab380f8d2b41c302364a111cdc2e9310ea774fb0fb7d928"),
    (3, "tables 2", "module-id"): (0, "732509a902837e7d7e885cb92d14f7ebb12beba9b61398acd14d3e84d082a809"),
    (3, "tables 2", "constant"): (0, "10bb91c6db01b1df11d5583836960699b86f401d24ceea35f95499f1c9ef162a"),
    (3, "tables 2", "top-degree-4"): (0, "10bb91c6db01b1df11d5583836960699b86f401d24ceea35f95499f1c9ef162a"),
    (3, "tables 2", "top-degree-3"): (0, "f71bfaf1da1e5f7816228540d3c2332654c9fa13e252bd59d644e149747b6590"),
    (3, "tables 3", "ideal-pair"): (0, "5d90693764ad7db65b338eb69efb9bba89ccf6271d6b287bd32456744a4b9eaf"),
    (3, "tables 3", "ideal-pair-cubic"): (0, "5d90693764ad7db65b338eb69efb9bba89ccf6271d6b287bd32456744a4b9eaf"),
    (3, "tables 3", "zero-module"): (0, "5d90693764ad7db65b338eb69efb9bba89ccf6271d6b287bd32456744a4b9eaf"),
    (3, "tables 3", "sq0-lifting"): (0, "5d90693764ad7db65b338eb69efb9bba89ccf6271d6b287bd32456744a4b9eaf"),
    (3, "tables 3", "cubic-chain"): (0, "5d90693764ad7db65b338eb69efb9bba89ccf6271d6b287bd32456744a4b9eaf"),
    (3, "tables 3", "module-id"): (0, "5d90693764ad7db65b338eb69efb9bba89ccf6271d6b287bd32456744a4b9eaf"),
    (3, "tables 3", "constant"): (0, "5d90693764ad7db65b338eb69efb9bba89ccf6271d6b287bd32456744a4b9eaf"),
    (3, "tables 3", "top-degree-4"): (0, "5d90693764ad7db65b338eb69efb9bba89ccf6271d6b287bd32456744a4b9eaf"),
    (3, "tables 3", "top-degree-3"): (0, "5d90693764ad7db65b338eb69efb9bba89ccf6271d6b287bd32456744a4b9eaf"),
    (3, "tables 4", "ideal-pair"): (0, "ac09c843a3f78694eaebda84ca6c1bc492d2e1aca2f19e944aaa30ff0778f05e"),
    (3, "tables 4", "ideal-pair-cubic"): (0, "ac09c843a3f78694eaebda84ca6c1bc492d2e1aca2f19e944aaa30ff0778f05e"),
    (3, "tables 4", "zero-module"): (0, "ac09c843a3f78694eaebda84ca6c1bc492d2e1aca2f19e944aaa30ff0778f05e"),
    (3, "tables 4", "sq0-lifting"): (0, "ac09c843a3f78694eaebda84ca6c1bc492d2e1aca2f19e944aaa30ff0778f05e"),
    (3, "tables 4", "cubic-chain"): (0, "ac09c843a3f78694eaebda84ca6c1bc492d2e1aca2f19e944aaa30ff0778f05e"),
    (3, "tables 4", "module-id"): (0, "ac09c843a3f78694eaebda84ca6c1bc492d2e1aca2f19e944aaa30ff0778f05e"),
    (3, "tables 4", "constant"): (0, "ac09c843a3f78694eaebda84ca6c1bc492d2e1aca2f19e944aaa30ff0778f05e"),
    (3, "tables 4", "top-degree-4"): (0, "ac09c843a3f78694eaebda84ca6c1bc492d2e1aca2f19e944aaa30ff0778f05e"),
    (3, "tables 4", "top-degree-3"): (0, "ac09c843a3f78694eaebda84ca6c1bc492d2e1aca2f19e944aaa30ff0778f05e"),
    (5, "to-xmod", "ideal-pair"): (0, "a02e912ecd5154915606e28bd4c3700e67d502abdb88dea47b80cde9be8c4d95"),
    (5, "to-xmod", "ideal-pair-cubic"): (0, "6256cb566fe004cdfaf884c38e1d0c0e7726f277808caf9116b42b25891dd7ea"),
    (5, "to-xmod", "zero-module"): (0, "aa472fa00eb27b8fd1d2344d672732ea11a3c862bf14c18e0dc184b82b90d9ab"),
    (5, "to-xmod", "sq0-lifting"): (0, "cc7a582a1a859a0ff34eb8c4f73171612fb09d7ad19f83e8c6ffb32dfff215ec"),
    (5, "to-xmod", "cubic-chain"): (0, "9a966853e458c94476c6d29add043d1047efff6805cca974999a90dd9a58f86b"),
    (5, "to-xmod", "module-id"): (0, "1df9118aaeca9da8a904023d4a2784a0183846e06e435731616752a13fbbd0c4"),
    (5, "to-xmod", "constant"): (0, "62718557f9646c85cd8c4dd00fcb4d079913b1ad413155138bdbdc5301f5dceb"),
    (5, "to-xmod", "top-degree-4"): (0, "1fd0ae35184a458d113d7f82c84dd193d4bf7f399643b1a69f978c76ec3639ee"),
    (5, "to-xmod", "top-degree-3"): (0, "7b4e8c1e9b41ce5c744c4358a6798b0793cabb81de1958714e3a76d095b2a3a7"),
    (5, "to-2xmod", "ideal-pair"): (0, "162f7db95c27d1b6f19bb3fa3f16bc0247f384a659706e0ec25d29b98cabf543"),
    (5, "to-2xmod", "ideal-pair-cubic"): (0, "8c27f18c5f91687e5b726480ae560590c4111e9568b7ed68223be62ab2d961d2"),
    (5, "to-2xmod", "zero-module"): (0, "20832fbfc1e36b8e63432d770458bebc1f88adbe2afbc64385cebf075cc0c8a1"),
    (5, "to-2xmod", "sq0-lifting"): (0, "f47d13521842845ecec2f05cceecd711dc5d412b428adaaee0026f6abbaaf308"),
    (5, "to-2xmod", "cubic-chain"): (0, "7f7ef360ed7775adcd49442035c613e70f6d9dedd05321337c99dea5d619736f"),
    (5, "to-2xmod", "module-id"): (0, "27c868bec955de18a908954fa7c263fee7fa15a9cca35968dd6c76f2123e4ef0"),
    (5, "to-2xmod", "constant"): (0, "543d826471a67b61cf104c8c421305129374be62b595b6c877e23b87fea2db50"),
    (5, "to-2xmod", "top-degree-4"): (0, "c6cc4d5b13bbe0c70cb4f2a1f1032763beb89b5f5dea85b685c0e7c2b9527966"),
    (5, "to-2xmod", "top-degree-3"): (0, "b6d9f19c9f45b5a2bf0f05b3425ab97a3fbf594cf4369d9594155b5d66476d86"),
    (5, "to-2xmod --convention def1", "ideal-pair"): (0, "162f7db95c27d1b6f19bb3fa3f16bc0247f384a659706e0ec25d29b98cabf543"),
    (5, "to-2xmod --convention def1", "ideal-pair-cubic"): (0, "8c27f18c5f91687e5b726480ae560590c4111e9568b7ed68223be62ab2d961d2"),
    (5, "to-2xmod --convention def1", "zero-module"): (0, "20832fbfc1e36b8e63432d770458bebc1f88adbe2afbc64385cebf075cc0c8a1"),
    (5, "to-2xmod --convention def1", "sq0-lifting"): (0, "ff3ede48e0440d5494fc2b49b8141169d05f2d6cb58102d23b812287c4e2d900"),
    (5, "to-2xmod --convention def1", "cubic-chain"): (0, "aca86e73007206a9e498672c5cbb1650ced8522ac65c55a650206a78bbdebcb6"),
    (5, "to-2xmod --convention def1", "module-id"): (0, "27c868bec955de18a908954fa7c263fee7fa15a9cca35968dd6c76f2123e4ef0"),
    (5, "to-2xmod --convention def1", "constant"): (0, "543d826471a67b61cf104c8c421305129374be62b595b6c877e23b87fea2db50"),
    (5, "to-2xmod --convention def1", "top-degree-4"): (0, "c6cc4d5b13bbe0c70cb4f2a1f1032763beb89b5f5dea85b685c0e7c2b9527966"),
    (5, "to-2xmod --convention def1", "top-degree-3"): (0, "b6d9f19c9f45b5a2bf0f05b3425ab97a3fbf594cf4369d9594155b5d66476d86"),
    (5, "to-3xmod", "ideal-pair"): (0, "c7df0c5837dd98802bb4a18a61f59adadb1ee24212d908441a93dc3ced5b7dbc"),
    (5, "to-3xmod", "ideal-pair-cubic"): (0, "ffb732dee4de9720b56c0eb9d50f1469e03424252a4daf41e427f90b1001d4c7"),
    (5, "to-3xmod", "zero-module"): (0, "35f77b7d7458f2d235a07617e4d180630e0d9965794a38588cbbdd8cebac77e8"),
    (5, "to-3xmod", "sq0-lifting"): (0, "dc7d84c6f675b1064d69c3d7641a0b087a7c9ac5774fb04df8e8bdebd01373ed"),
    (5, "to-3xmod", "cubic-chain"): (2, "a617cf5b95c8e09256da04dca7d127139d4ad82639522d7133e37523b61d7ee1"),
    (5, "to-3xmod", "module-id"): (0, "c1bad4592af5fb243e9d2493c3d23436e92a17e4374d379bf076ba4c90513ec1"),
    (5, "to-3xmod", "constant"): (0, "c26f01e4359cd24b8e818e561a2fc87f0eca8ed53544c87f2824c96763e15a78"),
    (5, "to-3xmod", "top-degree-4"): (0, "0d5f6001938de61c93fccbcf3fed5f94a9f6cb600caa8261bdf2359c7c964b28"),
    (5, "to-3xmod", "top-degree-3"): (0, "b251c1e60570df0025c2836a0d0e71b8ad20d85c95a73d6bc2c72450a9c4a941"),
    (5, "to-3xmod --convention def1", "ideal-pair"): (0, "6945f1aadc371938f34d7adc5e494c1f2aff1c364d2be5a2f817943930ec420f"),
    (5, "to-3xmod --convention def1", "ideal-pair-cubic"): (0, "26b8d70287887818e5628903773741347aeecdafda22cc0d1c28f7c59225d99e"),
    (5, "to-3xmod --convention def1", "zero-module"): (0, "6c11a3a6ce9c3fc27ef436e34f7cd04f04badd7e86e259515aeb654118c89b3d"),
    (5, "to-3xmod --convention def1", "sq0-lifting"): (0, "daa5f14fd5fd89f6bb79d76a0958fc79015f3e32254b965056085999d1646512"),
    (5, "to-3xmod --convention def1", "cubic-chain"): (0, "69e7438b3a2dbc8ba8ba3d251a2d666224e53a46c3c8ef976338cd072d8c362e"),
    (5, "to-3xmod --convention def1", "module-id"): (0, "d1fb586093e66049f6bf9203cedfbc3e8672839aab5835c9ec8fbbc5ca87cd57"),
    (5, "to-3xmod --convention def1", "constant"): (0, "29c8928055148a62e0a639bcb14057a6733e8eca04bd37324e3958a2cc9ad59e"),
    (5, "to-3xmod --convention def1", "top-degree-4"): (0, "2276bee5bf9b1731e616eda052b6b0d90f19d0ea6c6129362dfb52e17586e889"),
    (5, "to-3xmod --convention def1", "top-degree-3"): (0, "49aa2f6e5cbac7997e73dfd4229213720ddd1bdd4fa8db0848d5f99e42a40e94"),
    (5, "tables 2", "ideal-pair"): (0, "10bb91c6db01b1df11d5583836960699b86f401d24ceea35f95499f1c9ef162a"),
    (5, "tables 2", "ideal-pair-cubic"): (0, "10bb91c6db01b1df11d5583836960699b86f401d24ceea35f95499f1c9ef162a"),
    (5, "tables 2", "zero-module"): (0, "10bb91c6db01b1df11d5583836960699b86f401d24ceea35f95499f1c9ef162a"),
    (5, "tables 2", "sq0-lifting"): (0, "d9710039cea96a224372b7e0986c405b92b09d2ef3bd4955b56fa4d33db673e4"),
    (5, "tables 2", "cubic-chain"): (0, "830031497f768dd1dab380f8d2b41c302364a111cdc2e9310ea774fb0fb7d928"),
    (5, "tables 2", "module-id"): (0, "732509a902837e7d7e885cb92d14f7ebb12beba9b61398acd14d3e84d082a809"),
    (5, "tables 2", "constant"): (0, "10bb91c6db01b1df11d5583836960699b86f401d24ceea35f95499f1c9ef162a"),
    (5, "tables 2", "top-degree-4"): (0, "10bb91c6db01b1df11d5583836960699b86f401d24ceea35f95499f1c9ef162a"),
    (5, "tables 2", "top-degree-3"): (0, "f71bfaf1da1e5f7816228540d3c2332654c9fa13e252bd59d644e149747b6590"),
    (5, "tables 3", "ideal-pair"): (0, "5d90693764ad7db65b338eb69efb9bba89ccf6271d6b287bd32456744a4b9eaf"),
    (5, "tables 3", "ideal-pair-cubic"): (0, "5d90693764ad7db65b338eb69efb9bba89ccf6271d6b287bd32456744a4b9eaf"),
    (5, "tables 3", "zero-module"): (0, "5d90693764ad7db65b338eb69efb9bba89ccf6271d6b287bd32456744a4b9eaf"),
    (5, "tables 3", "sq0-lifting"): (0, "5d90693764ad7db65b338eb69efb9bba89ccf6271d6b287bd32456744a4b9eaf"),
    (5, "tables 3", "cubic-chain"): (0, "5d90693764ad7db65b338eb69efb9bba89ccf6271d6b287bd32456744a4b9eaf"),
    (5, "tables 3", "module-id"): (0, "5d90693764ad7db65b338eb69efb9bba89ccf6271d6b287bd32456744a4b9eaf"),
    (5, "tables 3", "constant"): (0, "5d90693764ad7db65b338eb69efb9bba89ccf6271d6b287bd32456744a4b9eaf"),
    (5, "tables 3", "top-degree-4"): (0, "5d90693764ad7db65b338eb69efb9bba89ccf6271d6b287bd32456744a4b9eaf"),
    (5, "tables 3", "top-degree-3"): (0, "5d90693764ad7db65b338eb69efb9bba89ccf6271d6b287bd32456744a4b9eaf"),
    (5, "tables 4", "ideal-pair"): (0, "ac09c843a3f78694eaebda84ca6c1bc492d2e1aca2f19e944aaa30ff0778f05e"),
    (5, "tables 4", "ideal-pair-cubic"): (0, "ac09c843a3f78694eaebda84ca6c1bc492d2e1aca2f19e944aaa30ff0778f05e"),
    (5, "tables 4", "zero-module"): (0, "ac09c843a3f78694eaebda84ca6c1bc492d2e1aca2f19e944aaa30ff0778f05e"),
    (5, "tables 4", "sq0-lifting"): (0, "ac09c843a3f78694eaebda84ca6c1bc492d2e1aca2f19e944aaa30ff0778f05e"),
    (5, "tables 4", "cubic-chain"): (0, "ac09c843a3f78694eaebda84ca6c1bc492d2e1aca2f19e944aaa30ff0778f05e"),
    (5, "tables 4", "module-id"): (0, "ac09c843a3f78694eaebda84ca6c1bc492d2e1aca2f19e944aaa30ff0778f05e"),
    (5, "tables 4", "constant"): (0, "ac09c843a3f78694eaebda84ca6c1bc492d2e1aca2f19e944aaa30ff0778f05e"),
    (5, "tables 4", "top-degree-4"): (0, "ac09c843a3f78694eaebda84ca6c1bc492d2e1aca2f19e944aaa30ff0778f05e"),
    (5, "tables 4", "top-degree-3"): (0, "ac09c843a3f78694eaebda84ca6c1bc492d2e1aca2f19e944aaa30ff0778f05e"),
    (2, "roundtrip", ""): (0, "3098eb5b435c1ad9e3237adad65e8593c611bfd5deabea675ea07bd2ed697706"),
    (3, "roundtrip", ""): (0, "557bae04808fb8a47bb2c36f37142c84874366b183e801b052eda0157d820b26"),
    (5, "roundtrip", ""): (0, "557bae04808fb8a47bb2c36f37142c84874366b183e801b052eda0157d820b26"),
}
TENSOR_DIGESTS = {
    "to-xmod": (0, "b9a47a7ecac12cd6181eed52b8b5c8de100d515b20263c2afbc4914b0d81d498"),
    "to-2xmod": (0, "85e602534333d63b3ac73fa0a0bf2efd6d242ae24d73cf074b88ef240285081c"),
    "to-3xmod": (1, "32598045b8d6ec1f18ab2bfea945a6a57745bae0624c2eadc546e71a1cd60f6f"),
    "to-3xmod --convention def1": (1, "ff1abf1a33fcaab1b02816ca0a848c149debda790c5441a644c1b7f2d533a13d"),
}


@pytest.mark.parametrize("key", list(CORPUS_DIGESTS),
                         ids=[f"p{p}-{cmd.replace(' --convention ', '-').replace(' ', '')}-{name}".rstrip("-")
                              for p, cmd, name in CORPUS_DIGESTS])
def test_extraction_stdout_digest_is_pinned(key):
    assert digest(*corpus_argv(*key)) == CORPUS_DIGESTS[key]


def test_corpus_digests_cover_every_name_command_and_prime():
    assert list(CORPUS_DIGESTS) == corpus_keys()


@pytest.fixture(scope="module")
def tensor_document(tmp_path_factory):
    return write_tensor_document(tmp_path_factory.mktemp("tensor"))


@pytest.mark.parametrize("cmd", TENSOR_COMMANDS)
def test_tensor_extraction_stdout_digest_is_pinned(cmd, tensor_document):
    assert digest("--input", tensor_document, *cmd.split(), TENSOR) == TENSOR_DIGESTS[cmd]

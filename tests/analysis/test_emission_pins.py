"""What the generated back end emits and what the verifier finds, pinned.

The back end and the verifier bind a template's slots through the same
functions (:func:`repro.beg.codegen.bind_rule` and
:func:`~repro.beg.codegen.bind_branch`), so neither may move when that
binding is reworked.  Per target: the verifier's obligation counts, the
sha256 of its findings as JSON, and the sha256 of the assembly the back
end generates for each example program.  A change that moves them on
purpose updates them here and says why.
"""

import hashlib
import json
import pathlib

from repro.analysis.verify import build_model, verify_spec
from repro.beg.codegen import GeneratedBackend
from repro.toyc.frontend import parse

PROGRAMS = pathlib.Path(__file__).resolve().parents[2] / "examples" / "programs"

#: target -> ((proven, sampled, obligations), sha256 of the findings,
#: sha256 of the assembly for gcd.a, collatz.a and primes.a)
PINNED = {
    "x86": (
        (26, 4, 30),
        "d9cb733446d666e2984038646b60a607217bdc18f5185d74e671b226233d74be",
        (
            "2ad84022d23e7f7657ab49b84971fd681757097703f6f703e94164cf20ad5227",
            "8c5a708ecbcae3ec3008a754d8ec93b6f9cda91b954f378f983dc69d86f39926",
            "88514cd61f710c9f4641f8dd879c68b7b74058d778d774beb149cf8e9a6267dd",
        ),
    ),
    "mips": (
        (27, 4, 31),
        "2c5e2f66437c542fbd54029a6d1c9dd37a37b71f3ab3cd5d9431677b7dc9c4e8",
        (
            "ad943078f2b75987f865c2120fedffe679ccc632fab13f7b60dc167fa9c4267d",
            "5676305dc5f97288971f0ffe76b8aa8638c405a58e91c29f52d4fb1a23e52b8b",
            "c06559a7b54fd450e5dfca22ed85e5ea01f1d7a27ee29e55077415cde6dbf611",
        ),
    ),
    "sparc": (
        (25, 6, 31),
        "cc0657238657f3a06856a4f437c0a286b8da2b782715e148f7596268a2da97e0",
        (
            "8f60d3cf4e7d53d40ac7c26fe4d7cda6f0da222f29c77fc9d13f0ef169781379",
            "9de0fd3df11a58749088e7fb712fbcae2d183512661af9d4a4e6e17968c8fb70",
            "e84e3b957c07128931337c9c41cd87ea95a0ce85c64fab9e34c13ec680fde02f",
        ),
    ),
    "alpha": (
        (27, 4, 31),
        "1475784be874823ea19e7951d55f0fd2d350510409bf30bcb283919587e48b00",
        (
            "c1ac0dc441fb4ddd2241f8db20cbb662ec11ae6fb77411ce131e72db4feb49b2",
            "5dbc719b3127533ba813a721fc5a0698139559e220013dfc8645df27936972dd",
            "755a8564a82ba8809ba0a7d4a268deff18e5e8ccc6b888683507f1e9ddaf476d",
        ),
    ),
    "vax": (
        (23, 7, 30),
        "fbd27c40233294ad6fd7c8361d10ccf1e4475de2c5af1be7aac140d2d90143cb",
        (
            "603897383204f79efc4924275ec34390a4064e42cdfbc830586477d70aba981c",
            "4caf64f771cd328b8d0fc1fa45045ef833b630aa986646e953a8ba592898289b",
            "0c01ef0a82dc1c056930aa5151d4259c170119f7f2e733382bc205c756358378",
        ),
    ),
    "m68k": (
        (27, 4, 31),
        "aefe17f14e10bd26cdba2b840379e9d8c576b88f442330b025c1cbd7a51c7e0d",
        (
            "0fd056ab0e2d1a0e1b5eb956bba7d50ed6769b223b89eabac8ef74d3493e84ee",
            "37856bf75279316023fb82bb717485f38c5b32682187d1e1482ee746ecd01d59",
            "399863cba6f40df4c83e15600c2c7a0a700a7ca2b3dd8411285bd6981ecbdeb7",
        ),
    ),
}


def _sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


def test_verifier_and_backend_output_is_pinned(report):
    counts, findings, programs = PINNED[report.target]
    result = verify_spec(report.spec, build_model(report.target))
    stats = result.stats
    assert (stats["refuted"], stats["unverifiable"]) == (0, 0), stats
    assert (stats["proven"], stats["sampled"], stats["obligations"]) == counts, stats
    diagnostics = json.dumps([d.to_dict() for d in result.diagnostics], sort_keys=True)
    assert _sha256(diagnostics) == findings
    backend = GeneratedBackend(report.spec)
    emitted = tuple(
        _sha256(backend.compile_ir(parse((PROGRAMS / f"{name}.a").read_text())))
        for name in ("gcd", "collatz", "primes")
    )
    assert emitted == programs

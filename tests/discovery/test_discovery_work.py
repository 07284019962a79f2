"""The work each target's discovery does, pinned.

Caching and sharing inside discovery must not change what it decides or
how hard it searches: each target's spec, the reverse interpreter's
interpretations and budget, and the mutation engine's counts stay at
these values for any worker and extraction-process count.  A change
that moves them on purpose updates them here and says why.
"""

from tests.discovery.conftest import WORK

#: target -> (spec sha256, interpretations tried, budget spent,
#: mutations attempted, mutations succeeded, mutation runs)
PINNED = {
    "x86": (
        "42cde1c154273b8389339b9c32e84fa07f7ea5cccde3a3d2c8bb6558f7e5a189",
        3855, 3738, 1143, 224, 1721,
    ),
    "mips": (
        "1949765ee704858322552779037f8214536a4a0b1d188433370c10644b9c3039",
        151, 60, 1148, 347, 1956,
    ),
    "sparc": (
        "cb6e424130ac3c57364ee8cde99f7f02ab190b4eb03b068241d95ab4e8bc0f2e",
        271, 182, 1602, 437, 2505,
    ),
    "alpha": (
        "aee301bd61782008de53724302ba4f0f087d24e19b87c60109885cdb89b8048c",
        167, 81, 1194, 389, 2065,
    ),
    "vax": (
        "7b3636ff01ffac6cb08a1fd83530ea88f44d240b2d0d1979fed8293914b012df",
        3072, 2990, 299, 49, 632,
    ),
    "m68k": (
        "d538d580ba151055014c8497bf38c001ed1676053cd96f3e932284273689169e",
        143, 55, 1035, 199, 1616,
    ),
}


def test_discovery_does_the_pinned_work(report):
    work = WORK[report.target]
    assert tuple(work.values()) == PINNED[report.target], work

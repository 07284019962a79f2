"""The portable codec: closed world, reference fidelity, deterministic
bytes.

These are the properties crash adoption rests on -- any worker on any
build must thaw another worker's checkpoint into the *same* object
graph, and equal graphs must freeze to equal bytes so checkpoint
checksums mean something across processes.
"""

import random

import pytest

from repro.discovery import portable
from repro.discovery.mutation import MutationEngine
from repro.discovery.portable import (
    PortableError,
    canonical_bytes,
    dumps,
    freeze,
    loads,
    thaw,
)
from repro.discovery.samples import Corpus
from repro.discovery.syntax import LoadImmTemplate
from repro.machines.machine import RemoteMachine


def round_trip(obj):
    return loads(dumps(obj))


# -- leaves and containers ----------------------------------------------


def test_primitives_round_trip():
    for value in (None, True, False, 0, -7, 3.25, "text", "uniçode"):
        assert round_trip(value) == value


def test_containers_round_trip():
    obj = {
        "list": [1, [2, 3]],
        "tuple": (1, ("a", None)),
        "set": {3, 1, 2},
        "frozenset": frozenset({"x", "y"}),
        "bytes": b"\x00\xffbinary",
        5: "int key",
        ("tuple", "key"): "composite key",
    }
    out = round_trip(obj)
    assert out == obj
    assert isinstance(out["tuple"], tuple)
    assert isinstance(out["frozenset"], frozenset)
    assert isinstance(out["bytes"], bytes)


def test_dict_insertion_order_survives():
    """Dicts are encoded as pair lists, never JSON objects: canonical
    rendering sorts *tag* keys but must never reorder *data* keys."""
    obj = {"zebra": 1, "apple": 2, "mango": 3}
    assert list(round_trip(obj)) == ["zebra", "apple", "mango"]


def test_rng_position_round_trips():
    rng = random.Random(1997)
    rng.random()  # advance mid-stream
    twin = round_trip(rng)
    assert [rng.random() for _ in range(5)] == [twin.random() for _ in range(5)]


# -- reference fidelity -------------------------------------------------


def test_shared_objects_stay_shared():
    inner = [1, 2]
    out = round_trip({"a": inner, "b": inner})
    assert out["a"] is out["b"]
    out["a"].append(3)
    assert out["b"] == [1, 2, 3]


def test_cycles_round_trip():
    loop = []
    loop.append(loop)
    out = round_trip(loop)
    assert out[0] is out

    mutual = {"name": "a"}
    mutual["other"] = {"name": "b", "back": mutual}
    out = round_trip(mutual)
    assert out["other"]["back"] is out


def test_shared_frozenset_stays_shared():
    shared = frozenset({1, 2})
    out = round_trip([shared, shared])
    assert out[0] is out[1]


# -- deterministic bytes ------------------------------------------------


def test_equal_graphs_freeze_to_equal_bytes():
    def build():
        return {
            "sets": {frozenset({"b", "a"}), frozenset({"c"})},
            "order": {"z": 1, "a": 2},
            "nested": [(1, 2), {3, 1, 2}],
        }

    assert dumps(build()) == dumps(build())


def test_set_encoding_is_order_independent():
    a = {"x", "y", "z"}
    b = {"z", "x", "y"}
    assert dumps(a) == dumps(b)


# -- the closed world ---------------------------------------------------


class NotRegistered:
    pass


def test_unregistered_class_is_a_freeze_error():
    with pytest.raises(PortableError, match="NotRegistered"):
        freeze(NotRegistered())


def test_unknown_tag_is_a_thaw_error():
    with pytest.raises(PortableError, match="unknown portable tag"):
        thaw({"!": "nope"})


def test_unknown_class_tag_is_a_thaw_error():
    with pytest.raises(PortableError, match="unknown portable class"):
        thaw({"!": "o", "t": "Forged", "i": 0, "s": {"!": "d", "i": 1, "e": []}})


def test_untagged_payload_nodes_are_rejected():
    with pytest.raises(PortableError):
        thaw({"plain": "dict"})
    with pytest.raises(PortableError):
        thaw([1, 2, 3])


def test_malformed_node_is_a_thaw_error():
    with pytest.raises(PortableError, match="malformed"):
        thaw({"!": "l", "e": [1]})  # memo id missing
    with pytest.raises(PortableError):
        portable.loads(b"not json at all \xff")


# -- registered analysis objects ----------------------------------------


def test_mutation_engine_rng_survives_mid_stream():
    """The engine's RNG position is the classic adoption hazard: a
    thawed engine must draw the same stream the dead worker would
    have."""
    machine = RemoteMachine("vax")
    corpus = Corpus(machine, syntax=None)
    engine = MutationEngine(corpus, word_bits=32, seed=7)
    engine.rng.random()  # move mid-stream
    expected = [engine.rng.random() for _ in range(3)]
    engine.rng.seed(7)
    engine.rng.random()

    twin = round_trip(engine)
    assert [twin.rng.random() for _ in range(3)] == expected
    # the corpus rode along, detached from its live connection
    assert twin.corpus.machine is None
    assert twin.corpus._init_cache == {}


def test_canonical_bytes_are_plain_json():
    blob = canonical_bytes(freeze({"k": (1, 2)}))
    assert blob.startswith(b"{")
    assert portable.from_canonical(blob) == freeze({"k": (1, 2)})


def test_thaw_drops_attributes_a_dataclass_has_retired():
    """A checkpoint written before ``LoadImmTemplate.arity`` was retired
    still carries it; the thawed template holds exactly its fields, so
    a resumed run's final checkpoint equals a fresh run's."""
    template = LoadImmTemplate("movl", 0, 1)
    payload = freeze(template)
    payload["s"]["e"].append(["arity", 2])
    thawed = thaw(payload)
    assert vars(thawed) == {"mnemonic": "movl", "imm_index": 0, "reg_index": 1}
    assert dumps(thawed) == dumps(template)

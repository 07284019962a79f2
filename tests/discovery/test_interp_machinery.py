"""Unit tests for the reverse interpreter's value domain and effects."""

import pytest

from repro.discovery.addresses import AddressMap
from repro.discovery.asmmodel import DImm, DInstr, DMem, DReg
from repro.discovery.reverse_interp import (
    Addr,
    InterpFail,
    Junk,
    MachineState,
    apply_effects,
    eval_term,
    opkey,
)


def addr_map():
    mapping = AddressMap()
    mapping.slots = {
        "a": ("paren", "sp", -4),
        "b": ("paren", "sp", -8),
        "c": ("paren", "sp", -12),
    }
    return mapping


def state(values=None):
    return MachineState(addr_map(), values or {"a": 1, "b": 313, "c": 109}, 32)


class TestValueDomain:
    def test_registers_start_as_unique_symbols(self):
        s = state()
        assert s.reg("r1") == Addr("r10", 0)
        assert s.reg("r2") == Addr("r20", 0)

    def test_mapped_slots_read_initial_values(self):
        s = state()
        assert s.load(DMem("paren", "sp", -8)) == 313

    def test_unmapped_slots_read_junk(self):
        s = state()
        assert isinstance(s.load(DMem("paren", "sp", -100)), Junk)

    def test_stack_temporaries_round_trip(self):
        s = state()
        s.store(DMem("paren", "sp", -64), 42)
        assert s.load(DMem("paren", "sp", -64)) == 42

    def test_address_plus_offset_stays_an_address(self):
        value = eval_term(
            ("add", ("const", 8), ("ireg", "sp")),
            lambda leaf: Addr("sp0", 0),
            32,
        )
        assert value == Addr("sp0", 8)

    def test_symbolic_arithmetic_collapses_to_junk(self):
        value = eval_term(
            ("mul", ("ireg", "sp"), ("const", 2)),
            lambda leaf: Addr("sp0", 0),
            32,
        )
        assert isinstance(value, Junk)

    def test_access_through_junk_base_fails(self):
        s = state()
        s.set_reg("r1", Junk("poison"))
        with pytest.raises(InterpFail):
            s.load(DMem("paren", "r1", 0))


class TestApplyEffects:
    def test_reads_happen_before_writes(self):
        s = state()
        s.set_reg("r1", 5)
        s.set_reg("r2", 7)
        # swap-like: r1 <- r2; r2 <- r1 must read the pre-state.
        instr = DInstr("swapish", [DReg("r1"), DReg("r2")])
        apply_effects(
            s,
            instr,
            ((("op", 0), ("val", 1)), (("op", 1), ("val", 0))),
        )
        assert s.reg("r1") == 7
        assert s.reg("r2") == 5

    def test_memory_write(self):
        s = state()
        instr = DInstr("st", [DReg("r1"), DMem("paren", "sp", -4)])
        s.set_reg("r1", 99)
        apply_effects(s, instr, ((("mem", 1), ("val", 0)),))
        assert s.mem[("var", "a")] == 99

    def test_implicit_register_write(self):
        s = state()
        instr = DInstr("cltdish", [])
        apply_effects(s, instr, ((("ireg", "edx"), ("const", 0)),))
        assert s.reg("edx") == 0

    def test_division_by_zero_fails_the_interpretation(self):
        s = state({"a": 1, "b": 5, "c": 0})
        instr = DInstr(
            "div", [DReg("r1"), DMem("paren", "sp", -8), DMem("paren", "sp", -12)]
        )
        with pytest.raises(InterpFail):
            apply_effects(
                s, instr, ((("op", 0), ("div", ("val", 1), ("val", 2))),)
            )


class TestOpKeys:
    def test_signature_based_identity(self):
        a = DInstr("movl", [DImm(5, "$"), DReg("%eax")])
        b = DInstr("movl", [DImm(9, "$"), DReg("%ebx")])
        assert opkey(a) == opkey(b)

    def test_memory_shape_distinguishes(self):
        a = DInstr("movl", [DMem("paren", "%ebp", -8), DReg("%eax")])
        b = DInstr("movl", [DReg("%eax"), DMem("paren", "%ebp", -8)])
        assert opkey(a) != opkey(b)

    def test_call_targets_distinguish(self):
        from repro.discovery.asmmodel import DSym

        a = DInstr("call", [DSym(".mul"), DImm(2)])
        b = DInstr("call", [DSym(".div"), DImm(2)])
        assert opkey(a) != opkey(b)

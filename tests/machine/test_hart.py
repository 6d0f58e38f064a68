"""Hart execution tests: ALU semantics, memory, control flow, traps, CSRs."""

from hypothesis import given, settings, strategies as st

from repro.machine.trap import Cause
from repro.utils.bits import MASK64, to_signed64, to_unsigned64
from tests.conftest import HALT, run_asm

word64 = st.integers(min_value=0, max_value=MASK64)


def compute(setup: str) -> int:
    """Run a snippet that leaves its result in a0."""
    machine = run_asm(f"_start:\n{setup}\n{HALT}")
    return machine.hart.regs.by_name("a0")


class TestAluSemantics:
    @given(word64, word64)
    @settings(max_examples=25, deadline=None)
    def test_add(self, a, b):
        result = compute(f"li a1, {a}\nli a2, {b}\nadd a0, a1, a2")
        assert result == (a + b) & MASK64

    @given(word64, word64)
    @settings(max_examples=25, deadline=None)
    def test_sub(self, a, b):
        result = compute(f"li a1, {a}\nli a2, {b}\nsub a0, a1, a2")
        assert result == (a - b) & MASK64

    @given(word64, word64)
    @settings(max_examples=20, deadline=None)
    def test_mul(self, a, b):
        result = compute(f"li a1, {a}\nli a2, {b}\nmul a0, a1, a2")
        assert result == (a * b) & MASK64

    @given(word64, word64)
    @settings(max_examples=20, deadline=None)
    def test_divu_including_zero(self, a, b):
        result = compute(f"li a1, {a}\nli a2, {b}\ndivu a0, a1, a2")
        assert result == (MASK64 if b == 0 else a // b)

    @given(word64, word64)
    @settings(max_examples=20, deadline=None)
    def test_div_signed(self, a, b):
        result = compute(f"li a1, {a}\nli a2, {b}\ndiv a0, a1, a2")
        sa, sb = to_signed64(a), to_signed64(b)
        if sb == 0:
            expected = MASK64
        elif sa == -(1 << 63) and sb == -1:
            expected = a
        else:
            quotient = abs(sa) // abs(sb)
            expected = to_unsigned64(-quotient if (sa < 0) != (sb < 0) else quotient)
        assert result == expected

    @given(word64, st.integers(0, 63))
    @settings(max_examples=20, deadline=None)
    def test_shifts(self, a, sh):
        assert compute(f"li a1, {a}\nslli a0, a1, {sh}") == (a << sh) & MASK64
        assert compute(f"li a1, {a}\nsrli a0, a1, {sh}") == a >> sh
        assert compute(f"li a1, {a}\nsrai a0, a1, {sh}") == to_unsigned64(
            to_signed64(a) >> sh
        )

    @given(word64, word64)
    @settings(max_examples=15, deadline=None)
    def test_sltu_slt(self, a, b):
        assert compute(f"li a1, {a}\nli a2, {b}\nsltu a0, a1, a2") == int(a < b)
        assert compute(f"li a1, {a}\nli a2, {b}\nslt a0, a1, a2") == int(
            to_signed64(a) < to_signed64(b)
        )

    def test_division_by_zero_rem(self):
        assert compute("li a1, 7\nli a2, 0\nremu a0, a1, a2") == 7
        assert compute("li a1, 7\nli a2, 0\nrem a0, a1, a2") == 7

    def test_w_instructions_sign_extend(self):
        # 0x7FFFFFFF + 1 wraps to 0x80000000, sign-extended.
        result = compute("li a1, 0x7fffffff\nli a2, 1\naddw a0, a1, a2")
        assert result == 0xFFFFFFFF80000000

    def test_mulhu(self):
        result = compute(
            "li a1, 0xffffffffffffffff\nli a2, 2\nmulhu a0, a1, a2"
        )
        assert result == 1

    def test_x0_is_hardwired(self):
        assert compute("li a0, 0\naddi zero, zero, 5\nmv a0, zero") == 0


class TestMemoryInstructions:
    def test_signed_byte_load(self):
        result = compute("""
            addi t0, sp, -16
            li t1, 0xff
            sb t1, 0(t0)
            lb a0, 0(t0)
        """)
        assert result == MASK64  # sign-extended -1

    def test_unsigned_byte_load(self):
        result = compute("""
            addi t0, sp, -16
            li t1, 0xff
            sb t1, 0(t0)
            lbu a0, 0(t0)
        """)
        assert result == 0xFF

    def test_word_load_sign_extends(self):
        result = compute("""
            addi t0, sp, -16
            li t1, 0x80000000
            sw t1, 0(t0)
            lw a0, 0(t0)
        """)
        assert result == 0xFFFFFFFF80000000

    def test_lwu_zero_extends(self):
        result = compute("""
            addi t0, sp, -16
            li t1, 0x80000000
            sw t1, 0(t0)
            lwu a0, 0(t0)
        """)
        assert result == 0x80000000


class TestControlFlow:
    def test_loop_sum(self):
        # sum 1..10 = 55
        result = compute("""
            li a0, 0
            li t0, 1
            li t1, 11
        loop:
            add a0, a0, t0
            addi t0, t0, 1
            bne t0, t1, loop
        """)
        assert result == 55

    def test_call_and_return(self):
        machine = run_asm(f"""
        _start:
            call leaf
            {HALT}
        leaf:
            li a0, 123
            ret
        """)
        assert machine.hart.regs.by_name("a0") == 123

    def test_jalr_sets_link(self):
        machine = run_asm(f"""
        _start:
            la t0, target
            jalr ra, 0(t0)
        after:
            {HALT}
        target:
            mv a0, ra
            ret
        """)
        # ra held the address of 'after'
        assert machine.hart.regs.by_name("a0") != 0


class TestTraps:
    def test_illegal_instruction_traps(self):
        machine = run_asm(f"""
        _start:
            la t0, handler
            csrw mtvec, t0
            .word 0xffffffff
            li a0, 0
            {HALT}
        handler:
            csrr a0, mcause
            {HALT}
        """)
        assert machine.hart.regs.by_name("a0") == Cause.ILLEGAL_INSTRUCTION

    def test_load_fault_traps(self):
        machine = run_asm(f"""
        _start:
            la t0, handler
            csrw mtvec, t0
            li t1, 0x70000000
            ld a0, 0(t1)
            {HALT}
        handler:
            csrr a0, mcause
            csrr a1, mtval
            {HALT}
        """)
        assert machine.hart.regs.by_name("a0") == Cause.LOAD_ACCESS_FAULT
        assert machine.hart.regs.by_name("a1") == 0x70000000

    def test_ecall_from_machine(self):
        machine = run_asm(f"""
        _start:
            la t0, handler
            csrw mtvec, t0
            ecall
            {HALT}
        handler:
            csrr a0, mcause
            {HALT}
        """)
        assert machine.hart.regs.by_name("a0") == Cause.ECALL_FROM_M

    def test_mepc_points_at_faulting_instruction(self):
        machine = run_asm(f"""
        _start:
            la t0, handler
            csrw mtvec, t0
        fault_here:
            ecall
            {HALT}
        handler:
            csrr a0, mepc
            {HALT}
        """)

        # mepc == address of the ecall == symbol fault_here
        program_symbols = machine.hart.regs.by_name("a0")
        assert program_symbols != 0

    def test_mret_resumes_after_trap(self):
        machine = run_asm(f"""
        _start:
            la t0, handler
            csrw mtvec, t0
            li a0, 0
            ecall
            addi a0, a0, 5       # resumed here
            {HALT}
        handler:
            li a0, 100
            csrr t1, mepc
            addi t1, t1, 4
            csrw mepc, t1
            mret
        """)
        assert machine.hart.regs.by_name("a0") == 105


class TestPrivilege:
    def test_mret_to_user_mode(self):
        """After mret with MPP=U, RegVault instructions trap."""
        machine = run_asm(f"""
        _start:
            la t0, handler
            csrw mtvec, t0
            # clear MPP to user
            csrr t1, mstatus
            li t2, 0x1800
            not t2, t2
            and t1, t1, t2
            csrw mstatus, t1
            la t3, user_code
            csrw mepc, t3
            mret
        user_code:
            creak a0, a0[7:0], t1     # must trap: U-mode
            {HALT}
        handler:
            csrr a0, mcause
            {HALT}
        """)
        assert machine.hart.regs.by_name("a0") == Cause.ILLEGAL_INSTRUCTION

    def test_user_mode_cannot_touch_csrs(self):
        machine = run_asm(f"""
        _start:
            la t0, handler
            csrw mtvec, t0
            csrr t1, mstatus
            li t2, 0x1800
            not t2, t2
            and t1, t1, t2
            csrw mstatus, t1
            la t3, user_code
            csrw mepc, t3
            mret
        user_code:
            csrr a0, mstatus          # must trap: M-mode CSR from U
            {HALT}
        handler:
            csrr a0, mcause
            {HALT}
        """)
        assert machine.hart.regs.by_name("a0") == Cause.ILLEGAL_INSTRUCTION

    def test_ecall_from_user(self):
        machine = run_asm(f"""
        _start:
            la t0, handler
            csrw mtvec, t0
            csrr t1, mstatus
            li t2, 0x1800
            not t2, t2
            and t1, t1, t2
            csrw mstatus, t1
            la t3, user_code
            csrw mepc, t3
            mret
        user_code:
            ecall
            {HALT}
        handler:
            csrr a0, mcause
            {HALT}
        """)
        assert machine.hart.regs.by_name("a0") == Cause.ECALL_FROM_U


class TestRegVaultInstructions:
    def test_integrity_fault_cause(self):
        machine = run_asm(f"""
        _start:
            la t0, handler
            csrw mtvec, t0
            li a1, 0xdeadbeef
            li t1, 0x1000
            creak a2, a1[3:0], t1
            xori a2, a2, 1
            crdak a3, a2, t1, [3:0]
            li a0, 0
            {HALT}
        handler:
            csrr a0, mcause
            {HALT}
        """)
        assert machine.hart.regs.by_name("a0") == Cause.REGVAULT_INTEGRITY_FAULT

    def test_key_csr_write_only(self):
        """Reading a key CSR traps (paper: kernel may write, never read)."""
        machine = run_asm(f"""
        _start:
            la t0, handler
            csrw mtvec, t0
            li t1, 0x1234
            csrw krega_lo, t1       # write is fine
            csrr a1, krega_lo       # read must trap
            li a0, 0
            {HALT}
        handler:
            csrr a0, mcause
            {HALT}
        """)
        assert machine.hart.regs.by_name("a0") == Cause.ILLEGAL_INSTRUCTION

    def test_key_csr_write_changes_ciphertext(self):
        machine = run_asm(f"""
        _start:
            li a1, 0x42
            li t1, 0x99
            creak a2, a1[7:0], t1
            li t2, 0x1111
            csrw krega_lo, t2
            creak a3, a1[7:0], t1
            xor a0, a2, a3
            {HALT}
        """)
        assert machine.hart.regs.by_name("a0") != 0

    def test_different_keys_differ(self):
        machine = run_asm(f"""
        _start:
            li a1, 0x42
            li t1, 0x99
            creak a2, a1[7:0], t1
            crebk a3, a1[7:0], t1
            xor a0, a2, a3
            {HALT}
        """)
        assert machine.hart.regs.by_name("a0") != 0

    def test_counter_csrs(self):
        machine = run_asm(f"""
        _start:
            csrr a0, cycle
            csrr a1, instret
            {HALT}
        """)
        assert machine.hart.cycles > 0
        assert machine.hart.instret > 0


class TestCostModel:
    def test_classifying_a_mnemonic_keeps_models_equal(self):
        from repro.machine.timing import CostModel

        classified, fresh = CostModel(), CostModel()
        assert classified.cost("mul") == 3
        assert classified == fresh
        assert classified.costs() == fresh.costs()
        assert "_class_cache" not in fresh.costs()

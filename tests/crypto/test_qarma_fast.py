"""QARMA host fast path: table-fused rounds, schedule cache, cipher memo.

The fast path is a pure host-side optimization — every test here pins it
against the cell-list reference implementation (`encrypt_reference` /
`decrypt_reference`) and against the architectural invariants the memo
must not disturb (CLB stats, charged cycles, integrity faults).
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.crypto import qarma as qarma_mod
from repro.crypto.engine import CryptoEngine
from repro.crypto.keys import KeySelect
from repro.crypto.memo import CipherMemo
from repro.crypto.primitives import FULL_RANGE
from repro.crypto.qarma import (
    FROZEN_VECTORS,
    Qarma64,
    SBOXES,
    clear_schedule_cache,
)

word64 = st.integers(min_value=0, max_value=(1 << 64) - 1)
key128 = st.integers(min_value=0, max_value=(1 << 128) - 1)

KEY = 0xDEADBEEFCAFEBABE0123456789ABCDEF


# -- fast path vs reference ----------------------------------------------------


class TestFastPathEquivalence:
    @given(text=word64, tweak=word64, key=key128)
    @settings(max_examples=200, deadline=None)
    def test_encrypt_matches_reference(self, text, tweak, key):
        cipher = Qarma64()
        fast = cipher.encrypt(text, tweak, key)
        assert fast == cipher.encrypt_reference(text, tweak, key)
        assert cipher.decrypt(fast, tweak, key) == text
        assert cipher.decrypt_reference(fast, tweak, key) == text

    @pytest.mark.parametrize("sbox", sorted(SBOXES))
    @pytest.mark.parametrize("rounds", [1, 4, 7])
    def test_all_sboxes_and_round_counts(self, sbox, rounds):
        cipher = Qarma64(rounds=rounds, sbox=sbox)
        for i in range(32):
            text = (0x0123456789ABCDEF * (i + 1)) & ((1 << 64) - 1)
            tweak = (0xF0F0F0F0F0F0F0F0 ^ (i * 0x1111)) & ((1 << 64) - 1)
            key = (KEY + i * 0x10001) & ((1 << 128) - 1)
            ct = cipher.encrypt(text, tweak, key)
            assert ct == cipher.encrypt_reference(text, tweak, key)
            assert cipher.decrypt(ct, tweak, key) == text
            assert cipher.decrypt_reference(ct, tweak, key) == text

    @pytest.mark.parametrize("vector", FROZEN_VECTORS)
    def test_frozen_vectors_through_both_paths(self, vector):
        cipher = Qarma64(vector.rounds, vector.sbox)
        for encrypt in (cipher.encrypt, cipher.encrypt_reference):
            assert encrypt(
                vector.plaintext, vector.tweak, vector.key128
            ) == vector.ciphertext

    def test_boundary_inputs(self):
        cipher = Qarma64()
        mask = (1 << 64) - 1
        for text in (0, mask, 1, 1 << 63):
            for tweak in (0, mask):
                for key in (0, (1 << 128) - 1, KEY):
                    ct = cipher.encrypt(text, tweak, key)
                    assert ct == cipher.encrypt_reference(text, tweak, key)
                    assert cipher.decrypt(ct, tweak, key) == text


class TestLinearTables:
    def test_tables_equal_the_brute_force_construction(self):
        """Tables built by linearity equal the reference transform run
        on all 256 values of every byte position, for all five layers."""
        cells, text = qarma_mod._text_to_cells, qarma_mod._cells_to_text
        permute, mix = qarma_mod._permute, qarma_mod._mix
        tau, tau_inv = qarma_mod.CELL_PERM, qarma_mod.CELL_PERM_INV
        transforms = (
            lambda c: mix(permute(c, tau)),
            lambda c: permute(mix(c), tau_inv),
            lambda c: permute(mix(permute(c, tau)), tau_inv),
            qarma_mod._tweak_fwd_cells,
            qarma_mod._tweak_inv_cells,
        )
        built = qarma_mod._linear_tables()
        assert len(built) == len(transforms)
        for tables, transform in zip(built, transforms):
            reference = tuple(
                tuple(text(transform(cells(value << (56 - 8 * position))))
                      for value in range(256))
                for position in range(8)
            )
            assert tables == reference


# -- key-schedule cache --------------------------------------------------------


class TestScheduleCache:
    def test_cache_populates_and_hits(self):
        clear_schedule_cache()
        cipher = Qarma64()
        assert len(qarma_mod._SCHEDULE_CACHE) == 0
        cipher.encrypt(0x1234, 0x5678, KEY)
        assert KEY in qarma_mod._SCHEDULE_CACHE
        first = qarma_mod._SCHEDULE_CACHE[KEY]
        cipher.decrypt(0x1234, 0x5678, KEY)
        # Same entry object reused, not recomputed.
        assert qarma_mod._SCHEDULE_CACHE[KEY] is first

    def test_cache_shared_across_instances(self):
        clear_schedule_cache()
        a = Qarma64(sbox=0)
        b = Qarma64(sbox=2)
        a.encrypt(1, 2, KEY)
        entry = qarma_mod._SCHEDULE_CACHE[KEY]
        b.encrypt(3, 4, KEY)
        # The schedule is sbox-independent, so both instances share it.
        assert qarma_mod._SCHEDULE_CACHE[KEY] is entry
        assert len(qarma_mod._SCHEDULE_CACHE) == 1

    def test_cache_bound_enforced(self):
        clear_schedule_cache()
        cipher = Qarma64()
        bound = qarma_mod._SCHEDULE_CACHE_BOUND
        for i in range(bound + 16):
            cipher.encrypt(0, 0, i)
        assert len(qarma_mod._SCHEDULE_CACHE) <= bound

    def test_results_stable_across_clear(self):
        cipher = Qarma64()
        before = cipher.encrypt(0xAAAA, 0xBBBB, KEY)
        clear_schedule_cache()
        assert cipher.encrypt(0xAAAA, 0xBBBB, KEY) == before


# -- cipher memo ---------------------------------------------------------------


class TestCipherMemo:
    def test_hit_after_insert_both_directions(self):
        memo = CipherMemo(capacity=8)
        memo.insert(True, KEY, 0x10, 0x20, 0x30)
        assert memo.lookup(True, KEY, 0x10, 0x20) == 0x30
        # An encryption seeds the matching decryption.
        assert memo.lookup(False, KEY, 0x10, 0x30) == 0x20
        assert memo.hits == 2 and memo.misses == 0

    def test_miss_counts(self):
        memo = CipherMemo(capacity=8)
        assert memo.lookup(True, KEY, 1, 2) is None
        assert memo.misses == 1

    def test_zero_capacity_disabled(self):
        memo = CipherMemo(capacity=0)
        assert not memo.enabled

    def test_bound_eviction_two_generations(self):
        memo = CipherMemo(capacity=4)
        # Each insert stores two entries (both directions), so 4 inserts
        # overflow a generation of 4 and rotate; 8 inserts rotate twice,
        # after which the earliest entries must be gone.
        for i in range(8):
            memo.insert(True, KEY, i, i, i + 100)
        assert len(memo) <= 2 * memo.capacity
        assert memo.lookup(True, KEY, 0, 0) is None

    def test_hot_entry_survives_rotation(self):
        memo = CipherMemo(capacity=4)
        memo.insert(True, KEY, 0, 0, 100)
        for i in range(1, 3):
            memo.insert(True, KEY, i, i, i + 100)
            # Touch the hot entry so it is promoted into the current
            # generation before each rotation can drop it.
            assert memo.lookup(True, KEY, 0, 0) == 100
        assert memo.lookup(True, KEY, 0, 0) == 100

    def test_snapshot_counters(self):
        memo = CipherMemo(capacity=8)
        memo.insert(True, KEY, 1, 2, 3)
        memo.lookup(True, KEY, 1, 2)
        memo.lookup(True, KEY, 9, 9)
        snap = memo.snapshot()
        assert snap["hits"] == 1 and snap["misses"] == 1
        assert snap["entries"] == len(memo)
        memo.clear()
        assert len(memo) == 0


# -- memo under the engine: architecturally invisible --------------------------


def _build_engine(**kwargs):
    engine = CryptoEngine(**kwargs)
    engine.key_file.set_key(KeySelect.A, KEY)
    return engine


class TestEngineMemoNeutrality:
    def test_same_results_and_stats_with_and_without_memo(self):
        ops = [((0x1000 + i) & 0xFFFF, (0x2000 + i * 7)) for i in range(64)]
        results = {}
        stats = {}
        for name, memo_entries in (("memo", 1024), ("plain", 0)):
            # clb_entries=1 forces constant CLB churn, so the memo (when
            # present) actually serves repeats the CLB forgot.
            engine = _build_engine(clb_entries=1, memo_entries=memo_entries)
            out = []
            for text, tweak in ops * 3:
                ct, cycles = engine.encrypt(KeySelect.A, text, FULL_RANGE,
                                            tweak)
                pt, cycles2 = engine.decrypt(KeySelect.A, ct, FULL_RANGE,
                                             tweak)
                out.append((ct, cycles, pt, cycles2))
            results[name] = out
            stats[name] = engine.stats.snapshot()
        assert results["memo"] == results["plain"]
        assert stats["memo"] == stats["plain"]

    def test_memo_hit_still_charges_miss_cycles(self):
        engine = _build_engine(clb_entries=0, memo_entries=64)
        _, cycles_cold = engine.encrypt(KeySelect.A, 0x42, FULL_RANGE, 0x99)
        _, cycles_warm = engine.encrypt(KeySelect.A, 0x42, FULL_RANGE, 0x99)
        assert cycles_cold == cycles_warm == engine.miss_cycles
        assert engine.memo.hits >= 1

    def test_memo_survives_key_write_clb_invalidation(self):
        engine = _build_engine(clb_entries=4, memo_entries=64)
        ct, _ = engine.encrypt(KeySelect.A, 0x55, FULL_RANGE, 0x77)
        # Rewriting the same key value invalidates dependent CLB entries
        # but the memo keys on the 128-bit key value, so it still serves.
        engine.key_file.set_key(KeySelect.A, KEY)
        before = engine.memo.hits
        ct2, cycles = engine.encrypt(KeySelect.A, 0x55, FULL_RANGE, 0x77)
        assert ct2 == ct
        assert cycles == engine.miss_cycles
        assert engine.memo.hits == before + 1

"""BootCache: boot-once-fork-per-scenario session serving."""

from __future__ import annotations

from repro.attacks.base import Attack
from repro.attacks.suite import format_table, run_suite
from repro.bench.workloads.base import make_user_module
from repro.compiler.ir import Const
from repro.kernel import BootCache, KernelConfig, KernelSession
from repro.kernel.structs import SYS_EXIT, SYS_GETPPID, SYS_SELINUX_CHECK


def _exit_module(code: int):
    def body(b, syscall):
        syscall(SYS_EXIT, Const(code))

    return Attack.user_program(body)


def _compute_module(iterations: int):
    """A user loop hot enough to cross the compile threshold."""

    def body(lb):
        acc = lb.accumulate()
        lb.loop(iterations,
                lambda inner, i: inner.add_into(acc, inner.b.xor(i, 0x5A)))
        lb.exit(lb.b.and_(acc, 0xFF))

    return make_user_module(body)


def _syscall_module(iterations: int):
    """A loop of ``getppid`` then ``selinux_check(2)``: under the full
    config the kernel paths carry cre/crd and end blocks in CSR and
    system instructions."""

    def body(lb):
        acc = lb.accumulate()

        def step(inner, i):
            inner.add_into(acc, inner.syscall(SYS_GETPPID))
            inner.add_into(acc, inner.syscall(SYS_SELINUX_CHECK, 2))

        lb.loop(iterations, step)
        lb.exit(lb.b.and_(acc, 0xFF))

    return make_user_module(body)


class TestCachedSessions:
    def test_cached_session_matches_fresh_boot(self):
        cache = BootCache()
        for config in (KernelConfig.baseline(), KernelConfig.full()):
            fresh = KernelSession(config, _exit_module(42)).run()
            cached = KernelSession(
                config, _exit_module(42), boot_cache=cache
            ).run()
            assert (fresh.halt_reason, fresh.exit_code, fresh.console,
                    fresh.cycles, fresh.instructions) == (
                cached.halt_reason, cached.exit_code, cached.console,
                cached.cycles, cached.instructions)
        assert cache.boots == 2
        assert cache.forks == 2
        assert cache.fallbacks == 0

    def test_one_boot_per_config_many_sessions(self):
        cache = BootCache()
        config = KernelConfig.full()
        codes = [
            KernelSession(
                config, _exit_module(c), boot_cache=cache
            ).run().exit_code
            for c in (3, 5, 7)
        ]
        assert codes == [3, 5, 7]
        assert cache.boots == 1
        assert cache.forks == 3

    def test_distinct_configs_get_distinct_templates(self):
        cache = BootCache()
        KernelSession(
            KernelConfig.baseline(), _exit_module(1), boot_cache=cache
        )
        KernelSession(
            KernelConfig.full(), _exit_module(1), boot_cache=cache
        )
        assert cache.boots == 2
        assert len(cache) == 2


class TestSuiteEquivalence:
    def test_suite_byte_identical_and_one_boot_per_config(self):
        cold = run_suite(use_boot_cache=False)
        cache = BootCache()
        warm = run_suite(boot_cache=cache)
        assert format_table(cold) == format_table(warm)
        assert [
            (r.attack, r.config, r.succeeded, r.outcome) for r in cold
        ] == [
            (r.attack, r.config, r.succeeded, r.outcome) for r in warm
        ]
        # One template boot per distinct kernel configuration (the
        # interrupt attack uses its own timer/thread configs).
        assert cache.boots == len(cache)
        assert cache.fallbacks == 0
        assert cache.forks == len(warm)


class TestBenchEquivalence:
    def test_bench_measurement_identical_with_cache(self):
        from repro.bench.runner import run_workload
        from repro.bench.workloads.lmbench import SUITE

        workload = SUITE[0]
        config = KernelConfig.full()
        fresh = run_workload(workload, config, scale=0.1)
        cached = run_workload(
            workload, config, scale=0.1, boot_cache=BootCache()
        )
        assert fresh == cached


class TestBoundedTemplates:
    def test_rejects_nonpositive_bound(self):
        import pytest

        with pytest.raises(ValueError):
            BootCache(max_templates=0)

    def test_evicts_least_recently_used_template(self):
        cache = BootCache(max_templates=2)
        configs = [
            KernelConfig.baseline(), KernelConfig.ra_only(),
            KernelConfig.full(),
        ]
        for config in configs:
            KernelSession(config, _exit_module(1), boot_cache=cache)
        assert len(cache) == 2
        assert cache.evictions == 1
        assert cache.boots == 3
        # The evicted (oldest) config boots again; the retained ones
        # keep serving forks from their templates.
        KernelSession(configs[2], _exit_module(2), boot_cache=cache)
        assert cache.boots == 3
        KernelSession(configs[0], _exit_module(2), boot_cache=cache)
        assert cache.boots == 4
        assert cache.evictions == 2

    def test_hit_refreshes_recency(self):
        cache = BootCache(max_templates=2)
        a, b, c = (
            KernelConfig.baseline(), KernelConfig.ra_only(),
            KernelConfig.full(),
        )
        KernelSession(a, _exit_module(1), boot_cache=cache)
        KernelSession(b, _exit_module(1), boot_cache=cache)
        KernelSession(a, _exit_module(2), boot_cache=cache)  # refresh a
        KernelSession(c, _exit_module(1), boot_cache=cache)  # evicts b
        KernelSession(a, _exit_module(3), boot_cache=cache)
        assert cache.boots == 3  # a never re-booted
        assert cache.evictions == 1

    def test_unbounded_mode_never_evicts(self):
        cache = BootCache(max_templates=None)
        for config in (
            KernelConfig.baseline(), KernelConfig.ra_only(),
            KernelConfig.fp_only(), KernelConfig.noncontrol_only(),
            KernelConfig.full(),
        ):
            KernelSession(config, _exit_module(1), boot_cache=cache)
        assert len(cache) == 5
        assert cache.evictions == 0

    def test_stats_and_metrics_gauges(self):
        from repro.telemetry.metrics import MetricsRegistry

        cache = BootCache(max_templates=1)
        KernelSession(
            KernelConfig.baseline(), _exit_module(1), boot_cache=cache
        )
        KernelSession(
            KernelConfig.full(), _exit_module(1), boot_cache=cache
        )
        stats = cache.stats()
        assert stats == {
            "templates": 1, "max_templates": 1, "boots": 2,
            "forks": 2, "fallbacks": 0, "evictions": 1,
            "shared_code_binds": 0,
        }
        registry = MetricsRegistry()
        cache.publish_metrics(registry)
        gauges = registry.to_json()["gauges"]
        assert gauges["bootcache.templates"] == 1
        assert gauges["bootcache.boots"] == 2
        assert gauges["bootcache.forks"] == 2
        assert gauges["bootcache.evictions"] == 1
        assert "bootcache.max_templates" not in gauges


class TestSharedLayouts:
    def test_forks_share_block_layouts(self):
        cache = BootCache()
        config = KernelConfig.full()
        first = KernelSession(config, _exit_module(1), boot_cache=cache)
        first.run()
        assert first.machine.hart.layout_hits == 0
        second = KernelSession(config, _exit_module(2), boot_cache=cache)
        result = second.run()
        assert result.exit_code == 2
        # The kernel-path translations were adopted, not redone.
        assert second.machine.hart.layout_hits > 0

    def test_layout_adoption_preserves_architectural_state(self):
        from repro.machine.compare import state_digest

        config = KernelConfig.full()
        digests = set()
        for use_cache in (False, True, True):
            cache = BootCache() if use_cache else None
            session = KernelSession(
                config, _exit_module(9), boot_cache=cache
            )
            if use_cache:
                # Populate layouts with a sibling first, so the tested
                # session runs through the adoption path.
                KernelSession(
                    config, _exit_module(9), boot_cache=cache
                ).run()
            session.run()
            digests.add(state_digest(session.machine))
        assert len(digests) == 1

    def test_stale_layouts_rejected_by_byte_comparison(self):
        cache = BootCache()
        config = KernelConfig.full()
        # Different user programs at the same addresses: the second
        # session must not adopt the first's user-code layouts.
        a = KernelSession(config, _exit_module(1), boot_cache=cache)
        assert a.run().exit_code == 1
        b = KernelSession(config, _exit_module(2), boot_cache=cache)
        assert b.run().exit_code == 2

    def test_layouts_survive_template_eviction(self):
        # Every template's forks share one table, so evicting a
        # template drops no layouts: the re-booted config's fork adopts
        # what its earlier fork published and serves the same session.
        cache = BootCache(max_templates=1)
        first = KernelSession(
            KernelConfig.baseline(), _exit_module(11), boot_cache=cache
        ).run()
        KernelSession(
            KernelConfig.full(), _exit_module(1), boot_cache=cache
        ).run()
        assert cache.evictions == 1
        session = KernelSession(
            KernelConfig.baseline(), _exit_module(11), boot_cache=cache
        )
        again = session.run()
        assert cache.boots == 3
        assert session.machine.hart.layout_hits > 0
        assert (first.exit_code, first.console, first.instructions) == (
            again.exit_code, again.console, again.instructions)

    def test_table_keeps_the_newest_layouts_per_key(self):
        from repro.machine.blockcache import (
            MAX_LAYOUTS_PER_KEY,
            BlockLayout,
            LayoutTable,
        )

        table = LayoutTable()
        key = (0x1000, 0, ())
        layouts = [
            BlockLayout(bytes([i]), (), 0, frozenset())
            for i in range(MAX_LAYOUTS_PER_KEY + 2)
        ]
        for layout in layouts:
            table.publish(key, layout)
        assert table[key] == layouts[::-1][:MAX_LAYOUTS_PER_KEY]


class TestSharedCode:
    def test_sibling_fork_binds_compiled_code(self):
        # The first fork compiles the hot loop and publishes it; the
        # second adopts the loop's layout and rebinds that code instead
        # of compiling, and still ends bit-identical to a fresh boot.
        from repro.machine.compare import state_digest

        config = KernelConfig.full()
        fresh = KernelSession(config, _compute_module(200))
        fresh.run()
        cache = BootCache()
        first = KernelSession(config, _compute_module(200), boot_cache=cache)
        first.run()
        assert first.machine.hart.compiled_blocks >= 1
        assert cache.stats()["shared_code_binds"] == 0
        second = KernelSession(config, _compute_module(200),
                               boot_cache=cache)
        second.run()
        assert cache.stats()["shared_code_binds"] >= 1
        assert second.machine.hart.compiled_blocks == 0
        assert state_digest(second.machine) == state_digest(fresh.machine)

    def test_sibling_fork_binds_crypto_and_csr_terminal_blocks(self):
        # Protected syscall paths compile to blocks that carry crypto
        # constants (_k<i>/_b<i>) or end in a CSR/system handler
        # (_hl/_il); a sibling must rebind every one of them.
        import re

        from repro.machine.compare import state_digest

        config = KernelConfig.full()
        fresh = KernelSession(config, _syscall_module(40))
        fresh.run()
        cache = BootCache()
        first = KernelSession(config, _syscall_module(40), boot_cache=cache)
        first.run()
        table = first.machine.hart.shared_layouts
        constants = [
            layout.consts for layouts in table.values()
            for layout in layouts if layout.code is not None
        ]
        assert constants
        second = KernelSession(config, _syscall_module(40),
                               boot_cache=cache)
        second.run()
        assert second.machine.hart.shared_layouts is table
        assert second.machine.hart.compiled_blocks == 0
        assert table.binds == len(constants)
        assert any("_il" in consts for consts in constants)
        assert any(
            re.fullmatch(r"_k\d+", name)
            for consts in constants for name in consts
        )
        assert state_digest(second.machine) == state_digest(fresh.machine)

    def test_compiled_code_follows_the_bytes(self):
        # Fork B puts different bytes at fork A's user addresses, so it
        # translates and compiles its own loop; fork C runs B's program
        # again and binds B's code instead of A's or its own.
        from repro.machine.compare import state_digest

        config = KernelConfig.full()
        fresh = KernelSession(config, _compute_module(201))
        fresh.run()
        cache = BootCache()
        KernelSession(config, _compute_module(200), boot_cache=cache).run()
        KernelSession(config, _compute_module(201), boot_cache=cache).run()
        binds = cache.stats()["shared_code_binds"]
        third = KernelSession(config, _compute_module(201), boot_cache=cache)
        third.run()
        assert third.machine.hart.compiled_blocks == 0
        assert cache.stats()["shared_code_binds"] - binds >= 1
        assert state_digest(third.machine) == state_digest(fresh.machine)

    def test_alternating_programs_keep_their_code(self):
        # Forks alternate two user programs at the same addresses; both
        # programs' layouts stay under the loop's key, so the third and
        # fourth forks adopt every block and compile nothing.
        from repro.machine.compare import state_digest

        config = KernelConfig.full()
        cache = BootCache()
        for run, iterations in enumerate((200, 201, 200, 201)):
            fresh = KernelSession(config, _compute_module(iterations))
            fresh.run()
            binds = cache.stats()["shared_code_binds"]
            session = KernelSession(
                config, _compute_module(iterations), boot_cache=cache
            )
            session.run()
            assert state_digest(session.machine) == state_digest(
                fresh.machine)
            if run >= 2:
                hart = session.machine.hart
                assert hart.compiled_blocks == 0
                assert cache.stats()["shared_code_binds"] - binds >= 1
                assert hart.layout_hits == hart.blocks.translations > 0

    def test_templates_share_user_code(self):
        # Two kernel builds with one cost model: the full build's fork
        # binds the user loop the baseline build's fork compiled.
        from repro.machine.compare import state_digest

        fresh = KernelSession(KernelConfig.full(), _compute_module(200))
        fresh.run()
        cache = BootCache()
        KernelSession(
            KernelConfig.baseline(), _compute_module(200), boot_cache=cache
        ).run()
        session = KernelSession(
            KernelConfig.full(), _compute_module(200), boot_cache=cache
        )
        session.run()
        assert session.machine.hart.compiled_blocks == 0
        assert cache.stats()["shared_code_binds"] >= 1
        assert state_digest(session.machine) == state_digest(fresh.machine)

    def test_layouts_are_shared_only_under_one_cost_key(self):
        # The ciphers charge different miss cycles, so a qarma layout's
        # cycle bound must never serve an xex or xor fork.
        import dataclasses

        from repro.machine.compare import state_digest

        cache = BootCache()
        for cipher in ("qarma", "xex", "xor"):
            config = dataclasses.replace(KernelConfig.full(), cipher=cipher)
            fresh = KernelSession(config, _syscall_module(40))
            fresh.run()
            session = KernelSession(
                config, _syscall_module(40), boot_cache=cache
            )
            session.run()
            hart = session.machine.hart
            for block in hart.blocks._blocks.values():
                assert block.cycle_bound == hart.worst_case_cycles(
                    ins for _, ins in block.ops)
            assert state_digest(session.machine) == state_digest(
                fresh.machine)

    def test_one_compile_per_code_key(self, monkeypatch):
        # The first workload of each Figure-5 suite under all five
        # builds: every block is compiled once per (pc, bytes,
        # privilege), however many templates and forks run it.
        import repro.machine.hart as hart_module
        from repro.bench.runner import measure_matrix
        from repro.bench.workloads import lmbench, spec, unixbench

        compile_block = hart_module.compile_block
        keys = []

        def counting(hart, block):
            raw = hart._code_mem.read_bytes(block.entry_pc, 4 * len(block))
            keys.append((block.entry_pc, bytes(raw), block.privilege))
            return compile_block(hart, block)

        monkeypatch.setattr(hart_module, "compile_block", counting)
        workloads = [lmbench.SUITE[0], unixbench.SUITE[0], spec.SUITE[0]]
        measure_matrix(workloads, scale=0.05, boot_cache=BootCache())
        assert keys
        assert len(keys) == len(set(keys))

    def test_bind_rejects_different_raw_bytes(self):
        # A layout whose bytes differ from memory is not adopted, so
        # the code compiled from it is not bound either.
        from repro.isa import assemble
        from repro.machine.blockcache import LayoutTable
        from tests.conftest import HALT, machine_with_keys

        def program(step: int):
            return assemble(f"""
_start:
    li s0, 0
    li s1, 40
loop:
    addi s0, s0, {step}
    blt s0, s1, loop
{HALT}
""")

        table = LayoutTable()
        programs = [program(1), program(2)]
        first, second = (machine_with_keys(p) for p in programs)
        for machine in (first, second):
            machine.hart.compile_threshold = 1
            machine.hart.shared_layouts = table
        key = (programs[0].symbols["loop"], 3)
        shared_key = key + (first.hart._cost_key,)
        first.run(100_000, fast=True)
        [published] = table[shared_key]
        assert published.code is not None
        second.run(100_000, fast=True)
        block = second.hart.blocks.peek(key)
        assert block.layout is not published
        assert block.compiled.__code__ is not published.code
        assert table[shared_key] == [block.layout, published]
        assert second.hart.regs.by_name("s0") == 40

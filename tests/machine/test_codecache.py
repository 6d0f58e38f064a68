"""Persistent code cache: round trips, invalidation seams, red paths.

Tier 4 persists compiled block sets to disk.  Its contract: a warm
machine that imports a persisted set must be bit-identical to a cold
machine that compiled everything itself, and *every* staleness seam —
self-modified text, changed configuration, different guest text, a
corrupt or torn cache directory, concurrent writers — must degrade to
a silent recompile, never to wrong execution or a crash.
"""

from __future__ import annotations

import json

from repro.isa import assemble
from repro.kernel.bootcache import program_digest
from repro.machine.codecache import (
    CodeCache,
    CodeRecorder,
    SCHEMA,
    cache_key,
    config_signature,
    validate_manifest,
)
from repro.machine.compare import architectural_state, diff_states
from tests.conftest import HALT, machine_with_keys

LOOP = f"""
_start:
    li s0, 0
    li s1, 120
    li s2, 0
loop:
    slli t0, s0, 2
    xor s2, s2, t0
    mulw t1, s0, s0
    add s2, s2, t1
    addi s0, s0, 1
    blt s0, s1, loop
{HALT}
"""

#: A second program (different text from LOOP): two chained hot blocks.
CHAIN = f"""
_start:
    li s0, 0
    li s1, 80
    li s2, 0
loop:
    addi t0, s0, 3
    xor s2, s2, t0
    j middle
middle:
    slli t1, s0, 1
    add s2, s2, t1
    addi s0, s0, 1
    blt s0, s1, loop
{HALT}
"""


def _record_run(source: str, max_steps: int = 1_000_000):
    """Run ``source`` hot (threshold 1) with a recorder attached."""
    program = assemble(source)
    machine = machine_with_keys(program)
    machine.hart.compile_threshold = 1
    recorder = CodeRecorder()
    machine.hart.code_collector = recorder
    machine.run(max_steps, fast=True)
    return program, machine, recorder


def _save(tmp_path, program, machine, recorder, **cache_kwargs):
    signature = config_signature(machine.hart)
    text = program_digest(program)
    key = cache_key(text, signature)
    cache = CodeCache(root=tmp_path / "cache", **cache_kwargs)
    cache.save(key, recorder, signature, text)
    return cache, key, signature, text


def _assert_equal(left, right) -> None:
    diffs = diff_states(
        architectural_state(left), architectural_state(right)
    )
    assert not diffs, "warm machine diverged:\n" + "\n".join(diffs)


class TestRoundTrip:
    def test_warm_machine_is_bit_identical(self, tmp_path):
        program, cold, recorder = _record_run(LOOP)
        assert len(recorder) > 0
        cache, key, signature, text = _save(tmp_path, program, cold,
                                            recorder)

        warm = machine_with_keys(assemble(LOOP))
        warm.hart.compile_threshold = 1
        loaded = cache.load(key, signature=config_signature(warm.hart),
                            text_digest=text)
        assert loaded is not None
        installed, rejected = cache.install(warm.hart, loaded)
        assert (installed, rejected) == (len(recorder), 0)
        warm.run(1_000_000, fast=True)
        _assert_equal(cold, warm)
        # The whole point: the warm hart compiled nothing itself.
        assert warm.hart.compiled_blocks == 0
        assert cold.hart.compiled_blocks > 0
        assert cache.stats()["hits"] == 1


class TestInvalidationSeams:
    def test_self_modified_text_is_rejected_then_recompiled(self,
                                                            tmp_path):
        # The program patches one instruction of its own hot loop
        # before entering it, so the recorded bytes are the *patched*
        # text — a pristine warm machine must reject that entry at
        # install (its memory still holds the original words), patch
        # itself, recompile, and still finish bit-identical.
        patch = int.from_bytes(
            assemble("_start:\n    addi a0, a0, 2\n")
            .sections[".text"].data[:4], "little",
        )
        source = f"""
_start:
    li a0, 0
    la t0, patch_site
    li t1, {patch}
    sw t1, 0(t0)
    li s0, 0
    li s1, 40
patch_site:
    addi a0, a0, 1
    addi s0, s0, 1
    blt s0, s1, patch_site
{HALT}
"""
        program, cold, recorder = _record_run(source)
        cache, key, signature, text = _save(tmp_path, program, cold,
                                            recorder)

        warm = machine_with_keys(assemble(source))
        warm.hart.compile_threshold = 1
        loaded = cache.load(key, signature=config_signature(warm.hart),
                            text_digest=text)
        installed, rejected = cache.install(warm.hart, loaded)
        assert rejected >= 1
        assert cache.stats()["rejected"] >= 1
        warm.run(1_000_000, fast=True)
        _assert_equal(cold, warm)

    def test_config_mismatch_is_a_stale_miss(self, tmp_path):
        program, cold, recorder = _record_run(LOOP)
        cache, key, signature, text = _save(tmp_path, program, cold,
                                            recorder)

        other = machine_with_keys(assemble(LOOP))
        other.hart.compile_threshold = 7
        other_signature = config_signature(other.hart)
        # A different compile threshold is a different key entirely...
        assert cache_key(text, other_signature) != key
        # ...and even a forced lookup of the old key under the new
        # signature refuses to adopt the set.
        assert cache.load(key, signature=other_signature,
                          text_digest=text) is None
        assert cache.stats()["stale"] == 1

    def test_different_text_digest_is_a_stale_miss(self, tmp_path):
        # The snapshot-restore seam: text from a different image (or a
        # restored snapshot with a different content hash) must miss.
        program, cold, recorder = _record_run(LOOP)
        cache, key, signature, text = _save(tmp_path, program, cold,
                                            recorder)
        other_text = program_digest(assemble(CHAIN))
        assert other_text != text
        assert cache.load(key, signature=signature,
                          text_digest=other_text) is None
        assert cache.stats()["stale"] == 1


class TestConcurrencyAndRedPaths:
    def test_concurrent_writers_merge_without_loss(self, tmp_path):
        program_a, machine_a, recorder_a = _record_run(LOOP)
        program_b, machine_b, recorder_b = _record_run(CHAIN)
        root = tmp_path / "cache"
        writer_a = CodeCache(root=root)
        writer_b = CodeCache(root=root)
        sig_a = config_signature(machine_a.hart)
        sig_b = config_signature(machine_b.hart)
        text_a = program_digest(program_a)
        text_b = program_digest(program_b)
        key_a = cache_key(text_a, sig_a)
        key_b = cache_key(text_b, sig_b)
        writer_a.save(key_a, recorder_a, sig_a, text_a)
        writer_b.save(key_b, recorder_b, sig_b, text_b)

        # The second save re-read and merged: both sets survive, no
        # staging files leak, and a third reader hits both.
        assert not list(root.glob("*.tmp-*"))
        reader = CodeCache(root=root)
        assert reader.load(key_a, signature=sig_a,
                           text_digest=text_a) is not None
        assert reader.load(key_b, signature=sig_b,
                           text_digest=text_b) is not None
        manifest = json.loads((root / "manifest.json").read_text())
        assert set(manifest["sets"]) == {key_a, key_b}
        assert not validate_manifest(manifest)

    def test_corrupt_manifest_is_a_miss_then_recovers(self, tmp_path):
        program, cold, recorder = _record_run(LOOP)
        cache, key, signature, text = _save(tmp_path, program, cold,
                                            recorder)
        (cache.root / "manifest.json").write_text("{not json", "utf-8")
        assert cache.load(key) is None
        assert cache.stats()["corrupt"] == 1
        # A save over the wreckage rebuilds a valid manifest.
        cache.save(key, recorder, signature, text)
        assert cache.load(key, signature=signature,
                          text_digest=text) is not None
        # A manifest written under the previous schema id misses the
        # same way.
        path = cache.root / "manifest.json"
        manifest = json.loads(path.read_text())
        manifest["schema"] = "repro.machine/codecache-1"
        path.write_text(json.dumps(manifest), "utf-8")
        assert cache.load(key, signature=signature,
                          text_digest=text) is None
        assert cache.stats()["corrupt"] == 2

    def test_corrupt_module_is_a_miss(self, tmp_path):
        program, cold, recorder = _record_run(LOOP)
        cache, key, signature, text = _save(tmp_path, program, cold,
                                            recorder)
        module = cache.root / f"mod-{key}.py"
        module.write_text("def (broken syntax", "utf-8")
        assert cache.load(key, signature=signature,
                          text_digest=text) is None
        assert cache.stats()["corrupt"] == 1

    def test_tampered_entry_bytes_are_corrupt(self, tmp_path):
        program, cold, recorder = _record_run(LOOP)
        cache, key, signature, text = _save(tmp_path, program, cold,
                                            recorder)
        path = cache.root / "manifest.json"
        manifest = json.loads(path.read_text())
        row = manifest["sets"][key]["entries"][0]
        raw = row["raw"]
        row["raw"] = (("00000000" + raw[8:])
                      if not raw.startswith("00000000")
                      else ("11111111" + raw[8:]))
        path.write_text(json.dumps(manifest), "utf-8")
        assert cache.load(key, signature=signature,
                          text_digest=text) is None
        assert cache.stats()["corrupt"] == 1

    def test_lru_eviction_unlinks_modules(self, tmp_path):
        program, cold, recorder = _record_run(LOOP)
        signature = config_signature(cold.hart)
        text = program_digest(program)
        cache = CodeCache(root=tmp_path / "cache", max_sets=2)
        keys = [f"{index:016x}" for index in range(3)]
        for key in keys:
            cache.save(key, recorder, signature, text)
        manifest = json.loads(
            (cache.root / "manifest.json").read_text()
        )
        assert set(manifest["sets"]) == set(keys[1:])
        assert cache.evictions == 1
        assert not (cache.root / f"mod-{keys[0]}.py").exists()
        assert not (cache.root / f"mod-{keys[0]}.code").exists()
        assert (cache.root / f"mod-{keys[1]}.py").exists()

    def test_manifest_cannot_name_files_outside_the_root(self, tmp_path):
        # Module paths come from the set key alone, and only
        # cache_key-shaped keys are accepted.  A planted row whose key
        # walks out of the root (or whose legacy "module" field names
        # an absolute path) must be neither imported by load() nor
        # unlinked by eviction.
        program, cold, recorder = _record_run(LOOP)
        signature = config_signature(cold.hart)
        text = program_digest(program)
        marker = tmp_path / "executed"
        sentinel = tmp_path / "sentinel.py"
        sentinel.write_text(f"open({str(marker)!r}, 'w').close()\n")
        root = tmp_path / "cache"
        (root / "mod-x").mkdir(parents=True)
        planted = "x/../../sentinel"
        assert (root / f"mod-{planted}.py").resolve() == sentinel.resolve()
        (root / "manifest.json").write_text(json.dumps({
            "schema": SCHEMA, "schema_version": 2, "clock": 1,
            "stats": {},
            "sets": {planted: {
                "module": str(sentinel), "config": signature,
                "text_digest": text, "last_used": 1, "entries": [],
            }},
        }), "utf-8")

        cache = CodeCache(root=root, max_sets=1)
        assert cache.load(planted) is None
        assert not marker.exists()
        assert cache.stats()["corrupt"] == 1

        key = cache_key(text, signature)
        cache.save(key, recorder, signature, text)
        assert sentinel.exists()
        assert cache.stats()["corrupt"] == 2
        manifest = json.loads((root / "manifest.json").read_text())
        assert set(manifest["sets"]) == {key}
        assert validate_manifest(manifest) == []


class TestManifestValidator:
    def test_real_manifest_validates(self, tmp_path):
        program, cold, recorder = _record_run(LOOP)
        cache, key, signature, text = _save(tmp_path, program, cold,
                                            recorder)
        doc = json.loads((cache.root / "manifest.json").read_text())
        assert doc["schema"] == SCHEMA
        assert validate_manifest(doc) == []

    def test_red_paths_report_problems(self, tmp_path):
        program, cold, recorder = _record_run(LOOP)
        cache, key, signature, text = _save(tmp_path, program, cold,
                                            recorder)
        doc = json.loads((cache.root / "manifest.json").read_text())

        broken = json.loads(json.dumps(doc))
        broken["schema"] = "repro.machine/bogus-9"
        assert validate_manifest(broken)

        broken = json.loads(json.dumps(doc))
        broken["sets"][key]["entries"][0]["raw"] = "not hex"
        assert validate_manifest(broken)

        broken = json.loads(json.dumps(doc))
        broken["sets"]["../escape"] = broken["sets"].pop(key)
        assert validate_manifest(broken)

        broken = json.loads(json.dumps(doc))
        del broken["sets"][key]["text_digest"]
        assert validate_manifest(broken)

        assert validate_manifest([]) != []

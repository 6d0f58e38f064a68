"""End-to-end tests for the fuzzing campaign itself.

These encode the subsystem's acceptance criteria as permanent checks:

* a campaign is a pure function of ``(seed, budget, corpus)`` — two
  runs with the same inputs produce identical reports;
* a clean interpreter produces zero divergences;
* a deliberately planted interpreter bug is caught by the differential
  oracle and minimized to a tiny (≤ 10 instruction) reproducer;
* failing cases are written out as self-contained repro files that
  load back through the normal corpus machinery.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.fuzz import (
    FuzzConfig,
    case_from_file,
    load_corpus,
    run_campaign,
    run_differential,
)

CORPUS_DIR = Path(__file__).parent / "corpus"


def _corpus():
    return load_corpus(CORPUS_DIR)


def test_campaign_is_deterministic():
    config = FuzzConfig(seed=7, budget=30, emit_dir=None)
    first = run_campaign(config, corpus=_corpus())
    second = run_campaign(config, corpus=_corpus())
    assert json.dumps(first, sort_keys=True) == json.dumps(
        second, sort_keys=True
    )


def test_clean_interpreter_has_zero_divergences():
    report = run_campaign(
        FuzzConfig(seed=3, budget=40, emit_dir=None), corpus=_corpus()
    )
    assert report["divergences"] == 0
    assert report["failures"] == []
    assert report["oracles"]["step_vs_block"]["cases"] > 0
    assert report["oracles"]["snapshot"]["cases"] > 0
    assert report["oracles"]["compiler"]["cases"] > 0
    assert report["coverage"]["instruction_pairs"] > 50


def test_different_seeds_explore_differently():
    a = run_campaign(FuzzConfig(seed=1, budget=20, emit_dir=None))
    b = run_campaign(FuzzConfig(seed=2, budget=20, emit_dir=None))
    assert a["coverage"] != b["coverage"]


def _plant_xor_bug(hart):
    """Mutation-testing hook: corrupt the fast path's xor handler."""
    original = hart._dispatch["xor"]

    def buggy(ins, pc):
        next_pc = original(ins, pc)
        if hart.regs[ins.rd] >> 63:
            hart.regs[ins.rd] ^= 1
        return next_pc

    hart._dispatch["xor"] = buggy
    hart.blocks.flush()


def test_injected_bug_is_caught_and_minimized(tmp_path):
    emit = tmp_path / "failures"
    report = run_campaign(
        FuzzConfig(seed=0, budget=120, emit_dir=str(emit)),
        corpus=_corpus(),
        mutate_hart=_plant_xor_bug,
    )
    assert report["divergences"] > 0
    exec_failures = [
        f for f in report["failures"] if f["origin"] != "compiler"
    ]
    assert exec_failures
    for failure in exec_failures:
        assert failure["minimized_len"] <= 10, failure


def test_failures_emit_loadable_repro_files(tmp_path):
    emit = tmp_path / "failures"
    report = run_campaign(
        FuzzConfig(seed=0, budget=120, emit_dir=str(emit)),
        corpus=_corpus(),
        mutate_hart=_plant_xor_bug,
    )
    paths = [f["repro"] for f in report["failures"] if f["repro"]]
    assert paths
    for raw in paths:
        path = Path(raw)
        assert path.is_file()
        payload = json.loads(path.read_text())
        if payload["schema"] == "repro.fuzz/compiler-repro-1":
            continue
        case = case_from_file(path)
        assert case.body_words
        # The repro must still fail against the same planted bug, and
        # pass against the clean interpreter.
        assert not run_differential(case, mutate_hart=_plant_xor_bug).ok
        assert run_differential(case).ok

"""Replay every checked-in regression case through the oracles.

Any ``*.json`` file dropped into ``tests/fuzz/regressions/`` — hand
written or emitted by the campaign's minimizer — is automatically
collected here and must pass both execution oracles.  This is the
fuzzer's permanent memory: once a divergence is fixed, its minimized
reproducer keeps guarding the fix.
"""

from __future__ import annotations

from pathlib import Path
from random import Random

import pytest

from repro.fuzz import (
    case_from_file,
    run_differential,
    run_snapshot,
    run_spec_convergence,
)

REGRESSIONS = Path(__file__).parent / "regressions"
CORPUS = Path(__file__).parent / "corpus"

_FILES = sorted(REGRESSIONS.glob("*.json"))

#: The hand-picked edge cases this suite must always carry.
REQUIRED = {
    "smc_in_block",
    "smc_into_chained_successor",
    "timer_mid_block",
    "timer_mid_chain",
    "ksel_invalidation",
    "misaligned_access",
    "sealed_csr",
    "spec_mispredict_smc",
    "spec_transient_trap",
    "spec_ras_underflow",
    "memory_seams",
}

#: Regression seeds that must actually open transient windows when
#: replayed under the speculative front-end (scenario → min windows).
SPEC_WINDOW_FLOOR = {
    "spec_mispredict_smc": 2,
    "spec_transient_trap": 1,
    "spec_ras_underflow": 1,
}


def test_required_regressions_present():
    present = {path.stem for path in _FILES}
    missing = REQUIRED - present
    assert not missing, f"required regression cases missing: {missing}"


@pytest.mark.parametrize(
    "path", _FILES, ids=[path.stem for path in _FILES]
)
def test_regression_differential(path):
    case = case_from_file(path)
    assert case.body_words, f"{path.stem}: empty body"
    outcome = run_differential(case)
    assert outcome.ok, (
        f"{path.stem}: {outcome.detail}\n" + "\n".join(outcome.diffs)
    )


@pytest.mark.parametrize(
    "path", _FILES, ids=[path.stem for path in _FILES]
)
def test_regression_snapshot(path):
    case = case_from_file(path)
    # Three different cut points per case, deterministically chosen.
    for salt in range(3):
        outcome = run_snapshot(case, Random(salt))
        assert outcome.ok, (
            f"{path.stem} (salt {salt}): {outcome.detail}\n"
            + "\n".join(outcome.diffs)
        )


@pytest.mark.parametrize(
    "path", _FILES, ids=[path.stem for path in _FILES]
)
def test_regression_spec_convergence(path):
    """Speculation must be invisible on every checked-in regression."""
    case = case_from_file(path)
    outcome = run_spec_convergence(case)
    assert outcome.ok, (
        f"{path.stem}: {outcome.detail}\n" + "\n".join(outcome.diffs)
    )
    floor = SPEC_WINDOW_FLOOR.get(path.stem)
    if floor is not None:
        assert outcome.windows >= floor, (
            f"{path.stem}: expected >= {floor} transient window(s), "
            f"got {outcome.windows} — the seed no longer exercises "
            "its speculation scenario"
        )


@pytest.mark.parametrize(
    "path",
    sorted(CORPUS.glob("*.json")),
    ids=[path.stem for path in sorted(CORPUS.glob("*.json"))],
)
def test_corpus_seed_is_clean(path):
    """Seed corpus entries must themselves pass the differential oracle."""
    case = case_from_file(path)
    assert case.body_words
    outcome = run_differential(case)
    assert outcome.ok, (
        f"{path.stem}: {outcome.detail}\n" + "\n".join(outcome.diffs)
    )

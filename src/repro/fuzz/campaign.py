"""Campaign orchestration: the seeded, budgeted fuzzing loop.

One :class:`Campaign` spends its case budget across the three oracles:

* most cases go to the step-vs-block differential oracle (every such
  case also feeds the coverage map, and every 4th additionally runs the
  snapshot oracle on the same body);
* a slice of the budget (1 in 40, at least one) goes to the compiler
  round-trip oracle with freshly generated IR programs.

Case generation alternates between mutating the corpus (checked-in
seeds plus bodies that earned new coverage this campaign) and
generating fresh valid-by-construction sequences.  Any divergence is
delta-debugged down to a minimal reproducer and written out as a
self-contained repro file.

Everything observable — case bodies, coverage counters, the JSON
report — is a pure function of ``(seed, budget, corpus)``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from random import Random

from repro.fuzz.corpus import write_repro
from repro.fuzz.coverage import CoverageMap
from repro.fuzz.generator import FuzzCase, Generator, mutate
from repro.fuzz.irgen import random_steps
from repro.fuzz.minimize import ddmin_list, minimize
from repro.fuzz.oracles import (
    CASE_STEP_BUDGET,
    run_compiler,
    run_differential,
    run_snapshot,
    run_spec_convergence,
)

__all__ = ["FuzzConfig", "Campaign", "run_campaign"]

REPORT_SCHEMA = "repro.fuzz/report-1"
#: Bumped whenever a key is added/renamed; consumers (BENCH_history,
#: CI artifact diffs) key off this rather than guessing from shape.
REPORT_SCHEMA_VERSION = 1


@dataclass
class FuzzConfig:
    seed: int = 0
    budget: int = 200
    max_steps: int = CASE_STEP_BUDGET
    #: Fraction of exec cases that mutate the corpus (when non-empty).
    mutation_rate: float = 0.45
    #: One in this many cases goes to the compiler oracle.
    compiler_share: int = 40
    #: One in this many exec cases also runs the snapshot oracle.
    snapshot_share: int = 4
    #: Where minimized failing cases are written (None: don't write).
    emit_dir: str | None = "fuzz-failures"
    #: Count campaign-level trace-bus events (insns observed, traps)
    #: and add a ``telemetry`` block to the report.  Off by default;
    #: enabling it changes no other report key.
    telemetry: bool = False
    #: Re-run every exec case under the speculative front-end and
    #: require bit-identical post-squash architectural state.  Off by
    #: default; enabling it adds a ``spec_convergence`` oracle block
    #: and a ``spec: true`` marker to the report, nothing else.
    spec: bool = False


@dataclass
class Failure:
    case: FuzzCase
    outcome: object
    minimized_len: int
    repro_path: str | None = None


@dataclass
class Campaign:
    config: FuzzConfig
    corpus: list = field(default_factory=list)
    #: Test hook: receives the fast-path hart of every differential
    #: case (mutation testing plants interpreter bugs through this).
    mutate_hart: object = None

    def __post_init__(self):
        self.coverage = CoverageMap()
        self.failures: list[Failure] = []
        self.stats = {
            "step_vs_block": {"cases": 0, "divergences": 0},
            "snapshot": {"cases": 0, "divergences": 0, "skipped": 0},
            "compiler": {"cases": 0, "divergences": 0, "words": 0},
        }
        if self.config.spec:
            self.stats["spec_convergence"] = {
                "cases": 0,
                "divergences": 0,
                "windows": 0,
                "transient_instructions": 0,
            }
        self._interesting = 0
        #: ``(case, new_coverage_keys)`` for every case that earned new
        #: coverage — the raw material for cross-shard corpus merging
        #: and coverage-guided scheduling in :mod:`repro.fuzz.dist`.
        self.interesting_cases: list[tuple[FuzzCase, int]] = []
        self._telemetry = None
        self._observers = None
        if self.config.telemetry:
            from repro.telemetry.events import (
                INSN_RETIRE,
                TRAP_ENTER,
                TRAP_EXIT,
            )

            counters = {
                "insns_observed": 0,
                "traps_entered": 0,
                "traps_exited": 0,
                "interrupts": 0,
            }

            def on_insn(ins, pc):
                counters["insns_observed"] += 1

            def on_trap_enter(event):
                counters["traps_entered"] += 1
                if event.data["interrupt"]:
                    counters["interrupts"] += 1

            def on_trap_exit(event):
                counters["traps_exited"] += 1

            self._telemetry = counters
            self._observers = (
                (INSN_RETIRE, on_insn),
                (TRAP_ENTER, on_trap_enter),
                (TRAP_EXIT, on_trap_exit),
            )

    # -- main loop -------------------------------------------------------------

    def run(self) -> dict:
        config = self.config
        rng = Random(config.seed)
        generator = Generator()
        pool = list(self.corpus)

        n_compiler = max(1, config.budget // config.compiler_share)
        n_exec = max(0, config.budget - n_compiler)

        for index in range(n_exec):
            case = self._next_case(rng, generator, pool, index)
            self._run_exec_case(case, rng, pool, index)

        for index in range(n_compiler):
            self._run_compiler_case(rng, index)

        return self.report()

    # -- case scheduling -------------------------------------------------------

    def _next_case(self, rng, generator, pool, index) -> FuzzCase:
        name = f"case{self.config.seed:04d}_{index:06d}"
        if pool and rng.random() < self.config.mutation_rate:
            parent = rng.choice(pool)
            return mutate(rng, parent, name, generator, donors=pool)
        return generator.generate(rng, name)

    # -- oracle runners --------------------------------------------------------

    def _run_exec_case(self, case, rng, pool, index) -> None:
        config = self.config
        before = len(self.coverage.keys())
        outcome = run_differential(
            case,
            coverage=self.coverage,
            mutate_hart=self.mutate_hart,
            max_steps=config.max_steps,
            observers=self._observers,
        )
        self.stats["step_vs_block"]["cases"] += 1
        if not outcome:
            self.stats["step_vs_block"]["divergences"] += 1
            self._record_failure(
                case, outcome,
                lambda c: not run_differential(
                    c, mutate_hart=self.mutate_hart,
                    max_steps=config.max_steps,
                ).ok,
            )
        gained = len(self.coverage.keys()) - before
        if gained > 0:
            self._interesting += 1
            pool.append(case)
            self.interesting_cases.append((case, gained))

        if config.spec:
            spec_outcome = run_spec_convergence(
                case, max_steps=config.max_steps
            )
            spec_stats = self.stats["spec_convergence"]
            spec_stats["cases"] += 1
            spec_stats["windows"] += getattr(spec_outcome, "windows", 0)
            spec_stats["transient_instructions"] += getattr(
                spec_outcome, "transient_instructions", 0
            )
            if not spec_outcome:
                spec_stats["divergences"] += 1
                self._record_failure(
                    case, spec_outcome,
                    lambda c: not run_spec_convergence(
                        c, max_steps=config.max_steps
                    ).ok,
                )

        if index % config.snapshot_share == 0:
            cut_seed = rng.getrandbits(64)
            snap_outcome = run_snapshot(
                case, Random(cut_seed), max_steps=config.max_steps
            )
            self.stats["snapshot"]["cases"] += 1
            if snap_outcome.detail.startswith("skipped"):
                self.stats["snapshot"]["skipped"] += 1
            elif not snap_outcome:
                self.stats["snapshot"]["divergences"] += 1
                self._record_failure(
                    case, snap_outcome,
                    lambda c: not run_snapshot(
                        c, Random(cut_seed), max_steps=config.max_steps
                    ).ok,
                )

    def _run_compiler_case(self, rng, index) -> None:
        steps = random_steps(rng)
        outcome = run_compiler(steps)
        self.stats["compiler"]["cases"] += 1
        self.stats["compiler"]["words"] += getattr(outcome, "words", 0)
        if outcome:
            return
        self.stats["compiler"]["divergences"] += 1
        # Minimize the IR step list (bounded evaluations).
        checks = [0]

        def fails(candidate) -> bool:
            if checks[0] >= 60:
                return False
            checks[0] += 1
            return not run_compiler(candidate).ok

        reduced = ddmin_list(list(steps), fails)
        name = f"compiler{self.config.seed:04d}_{index:06d}"
        failure = Failure(
            case=FuzzCase(name=name, body_words=(), origin="compiler"),
            outcome=outcome,
            minimized_len=len(reduced),
        )
        if self.config.emit_dir:
            import json
            from pathlib import Path

            directory = Path(self.config.emit_dir)
            directory.mkdir(parents=True, exist_ok=True)
            path = directory / f"{name}.json"
            path.write_text(json.dumps({
                "schema": "repro.fuzz/compiler-repro-1",
                "oracle": outcome.oracle,
                "detail": outcome.detail,
                "diffs": list(outcome.diffs),
                "steps": [list(s) for s in reduced],
            }, indent=2) + "\n")
            failure.repro_path = str(path)
        self.failures.append(failure)

    def _record_failure(self, case, outcome, still_fails) -> None:
        minimized, checks = minimize(case, still_fails)
        failure = Failure(
            case=minimized,
            outcome=outcome,
            minimized_len=len(minimized.body_words),
        )
        if self.config.emit_dir:
            failure.repro_path = str(write_repro(
                minimized, outcome, self.config.emit_dir,
                minimize_checks=checks,
            ))
        self.failures.append(failure)

    # -- reporting -------------------------------------------------------------

    @property
    def divergences(self) -> int:
        return (
            self.stats["step_vs_block"]["divergences"]
            + self.stats["snapshot"]["divergences"]
            + self.stats["compiler"]["divergences"]
            + self.stats.get("spec_convergence", {}).get("divergences", 0)
        )

    def report(self) -> dict:
        report = {
            "schema": REPORT_SCHEMA,
            "schema_version": REPORT_SCHEMA_VERSION,
            "seed": self.config.seed,
            "budget": self.config.budget,
            "max_steps": self.config.max_steps,
            "oracles": self.stats,
            "coverage": self.coverage.report(),
            "corpus": {
                "seeds": len(self.corpus),
                "interesting": self._interesting,
            },
            "divergences": self.divergences,
            "failures": [
                {
                    "name": f.case.name,
                    "oracle": f.outcome.oracle,
                    "detail": f.outcome.detail,
                    "origin": f.case.origin,
                    "minimized_len": f.minimized_len,
                    "repro": f.repro_path,
                }
                for f in self.failures
            ],
        }
        if self._telemetry is not None:
            report["telemetry"] = dict(self._telemetry)
        if self.config.spec:
            # Marker key so downstream consumers (perf trend baselines,
            # report diffing) can tell spec-mode campaigns apart; absent
            # entirely when speculation is off, keeping default reports
            # bit-identical.
            report["spec"] = True
        return report


def run_campaign(
    config: FuzzConfig,
    corpus=None,
    mutate_hart=None,
) -> dict:
    """Convenience wrapper: build, run, report."""
    campaign = Campaign(
        config, corpus=list(corpus or []), mutate_hart=mutate_hart
    )
    return campaign.run()

"""CLI: ``python -m repro.fuzz --seed N --budget M [--shards K] --json``.

Exit status is non-zero when any oracle reported a divergence (or, for
sharded campaigns, when a worker shard crashed or timed out), so CI can
gate on it directly.  ``--replay file.json`` re-runs a single seed or
emitted repro file through the differential and snapshot oracles.

JSON output (``--json`` / ``--output``) is canonical: sorted keys, an
explicit ``schema_version``, and — for sharded campaigns — no
wall-clock section unless ``--with-timing`` is given, so the same
campaign always serializes bit-identically.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from random import Random

from repro.fuzz.campaign import FuzzConfig, run_campaign
from repro.fuzz.corpus import case_from_file, load_corpus
from repro.fuzz.dist import (
    DistConfig,
    canonical_json,
    resolve_shards,
    run_distributed,
)
from repro.fuzz.oracles import (
    run_differential,
    run_snapshot,
    run_spec_convergence,
)

#: Default checked-in seed corpus, resolved relative to the repo root.
DEFAULT_CORPUS = Path(__file__).resolve().parents[3] / "tests/fuzz/corpus"


def _replay(path: str, max_steps: int) -> int:
    case = case_from_file(path)
    failures = 0
    for label, outcome in (
        ("step_vs_block", run_differential(case, max_steps=max_steps)),
        ("snapshot", run_snapshot(case, Random(0), max_steps=max_steps)),
        ("spec", run_spec_convergence(case, max_steps=max_steps)),
    ):
        status = "ok" if outcome.ok else "DIVERGENCE"
        print(f"{label:14s} {status}  {outcome.detail}")
        for diff in outcome.diffs:
            print(f"    {diff}")
        failures += 0 if outcome.ok else 1
    return 1 if failures else 0


def _print_oracle_summary(report: dict) -> None:
    for name, stats in report["oracles"].items():
        extra = "".join(
            f"  {k} {v}" for k, v in stats.items()
            if k not in ("cases", "divergences")
        )
        print(f"  {name:14s} cases {stats['cases']:6d}  "
              f"divergences {stats['divergences']}{extra}")
    coverage = report["coverage"]
    print(f"  coverage: {coverage['instruction_pairs']} instruction "
          f"pairs, {coverage['trap_edges']} trap edges, "
          f"{coverage['clb_events']} CLB events "
          f"({coverage['instructions_executed']} instructions, "
          f"{coverage['traps_taken']} traps)")
    if "telemetry" in report:
        print("  telemetry: " + "  ".join(
            f"{key} {value}" for key, value in report["telemetry"].items()
        ))
    for failure in report["failures"]:
        shard = (
            f" shard {failure['shard']}" if "shard" in failure else ""
        )
        print(f"  FAILURE{shard} {failure['name']} [{failure['oracle']}] "
              f"{failure['detail']} -> {failure['repro']}")


def _print_single(report: dict) -> None:
    print(f"seed {report['seed']}  budget {report['budget']}  "
          f"corpus seeds {report['corpus']['seeds']}  "
          f"interesting {report['corpus']['interesting']}")
    _print_oracle_summary(report)


def _print_dist(report: dict) -> None:
    corpus = report["corpus"]
    print(f"seed {report['seed']}  budget {report['budget']}  "
          f"shards {report['shards']}  rounds {report['rounds']}  "
          f"corpus seeds {corpus['seeds']}  "
          f"merged interesting {corpus['interesting']}  "
          f"duplicates dropped {corpus['duplicates_dropped']}")
    walls = {
        (row["round"], row["shard_id"]): row["wall_seconds"]
        for row in report["timing"]["shards"]
    }
    for row in report["shard_reports"]:
        wall = walls.get((row["round"], row["shard_id"]), 0.0)
        if row["status"] == "ok":
            detail = (f"divergences {row['divergences']}  "
                      f"+{row['new_coverage_keys']} new keys  "
                      f"interesting {row['interesting']}")
        else:
            detail = row["status"].upper()
            dump = row.get("flightrec")
            if dump is not None:
                detail += (f"  flight dump: {len(dump['events'])} events "
                           f"({dump['reason']})")
        print(f"  round {row['round']} shard {row['shard_id']}  "
              f"seed {row['shard_seed']:#018x}  budget {row['budget']:6d}  "
              f"{detail}  ({wall:.1f}s)")
    _print_oracle_summary(report)
    print(f"  shards ok {report['shards_ok']}  "
          f"failed {report['shards_failed']}  "
          f"wall {report['timing']['wall_seconds']:.1f}s")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.fuzz",
        description="Deterministic differential fuzzing campaign.",
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--budget", type=int, default=200,
                        help="total number of fuzz cases (split across "
                        "shards and rounds when --shards is given)")
    parser.add_argument("--max-steps", type=int, default=None,
                        help="per-case step budget")
    parser.add_argument("--shards", type=int, default=None, metavar="N",
                        help="run a sharded multi-process campaign with "
                        "N worker shards and merge the results; 0 "
                        "auto-detects from the CPU count (clamped to "
                        "64 shards either way)")
    parser.add_argument("--rounds", type=int, default=1,
                        help="rounds per sharded campaign; later rounds "
                        "are seeded coverage-guided from earlier ones")
    parser.add_argument("--shard-timeout", type=float, default=600.0,
                        metavar="SECONDS",
                        help="wall-clock limit per shard per round; a "
                        "late worker is terminated and merged as a "
                        "timeout (0 disables)")
    parser.add_argument("--sequential", action="store_true",
                        help="run shards in-process instead of forking "
                        "workers (identical merged results)")
    parser.add_argument("--flightrec", action="store_true",
                        help="attach a flight recorder to every worker "
                        "shard; crashed/hung shards carry their dump "
                        "in the merged report")
    parser.add_argument("--with-timing", action="store_true",
                        help="include the (non-deterministic) timing "
                        "section in JSON output")
    parser.add_argument("--json", action="store_true",
                        help="print the full JSON report to stdout")
    parser.add_argument("--output", type=Path, default=None,
                        help="also write the JSON report to this file")
    parser.add_argument("--corpus", type=Path, default=None,
                        help=f"seed corpus directory (default: "
                        f"{DEFAULT_CORPUS} when present)")
    parser.add_argument("--emit-dir", default="fuzz-failures",
                        help="directory for minimized repro files")
    parser.add_argument("--telemetry", action="store_true",
                        help="count trace-bus events campaign-wide and "
                        "add a telemetry block to the report")
    parser.add_argument("--spec", action="store_true",
                        help="run every exec case a second time under "
                        "the speculative front-end and require "
                        "bit-identical post-squash state "
                        "(spec_convergence oracle)")
    parser.add_argument("--replay", metavar="FILE", default=None,
                        help="re-run one seed/repro JSON file and exit")
    args = parser.parse_args(argv)

    max_steps = args.max_steps or FuzzConfig.max_steps

    if args.replay:
        return _replay(args.replay, max_steps)

    corpus_dir = args.corpus if args.corpus is not None else DEFAULT_CORPUS
    corpus = load_corpus(corpus_dir)

    if args.shards is not None:
        config = DistConfig(
            seed=args.seed,
            budget=args.budget,
            shards=resolve_shards(args.shards),
            rounds=args.rounds,
            max_steps=max_steps,
            emit_dir=args.emit_dir,
            telemetry=args.telemetry,
            spec=args.spec,
            shard_timeout=args.shard_timeout or None,
            parallel=not args.sequential,
            flightrec=args.flightrec,
        )
        report = run_distributed(config, corpus=corpus)
        text = canonical_json(report, include_timing=args.with_timing)
        if args.output:
            args.output.write_text(text + "\n")
        if args.json:
            print(text)
        else:
            _print_dist(report)
        if report["shards_failed"]:
            return 2
        return 1 if report["divergences"] else 0

    config = FuzzConfig(seed=args.seed, budget=args.budget,
                        max_steps=max_steps,
                        emit_dir=args.emit_dir,
                        telemetry=args.telemetry,
                        spec=args.spec)
    report = run_campaign(config, corpus=corpus)
    text = json.dumps(report, indent=2, sort_keys=True)

    if args.output:
        args.output.write_text(text + "\n")
    if args.json:
        print(text)
    else:
        _print_single(report)
    return 1 if report["divergences"] else 0


if __name__ == "__main__":
    sys.exit(main())

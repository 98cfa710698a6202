"""Command-line interface: ``repro-synth`` / ``python -m repro``.

Subcommands
-----------
``synth``     Optimize a circuit (``.bench``/``.blif``/``.pla`` file or a
              named benchmark) with one of the paper's algorithms and
              report the RRAM cost model, optionally compiling and
              functionally verifying the micro-program.
``map``       Place a compiled program onto a W×H crossbar array and
              reschedule it into row-parallel steps (never more than
              the paper's sequential S); exit code 2 when the program
              cannot be mapped onto the requested array.
``table2``    Reproduce paper Table II (optionally a subset);
              ``--crossbar WxH|auto`` appends the crossbar-mapping
              report (array geometry, utilization, parallel steps).
``table3``    Reproduce paper Table III (``--baseline bdd|aig``).
``bench-list``  List the built-in benchmark suites.
``bench``     Time the whole-set flows / packed-kernel speedups and
              append a machine-readable entry to ``BENCH_runtime.json``.
``fuzz``      Time-budgeted differential fuzzing / fault-injection
              campaign; failures are shrunk to repro bundles under
              ``results/fuzz/``.
``trace-report``  Summarize a ``--trace`` JSONL file (per-pass time,
              R/S trajectory timeline, top-N slowest spans).

Whole-set subcommands accept ``--jobs N`` to shard independent units of
work (benchmarks, fuzz cases, verification chunks) across worker
processes; results are bit-identical to ``--jobs 1`` by construction.

Observability (see ``docs/OBSERVABILITY.md``): ``synth``/``table2``/
``table3``/``fuzz``/``bench`` accept ``--trace FILE.jsonl`` (hierarchical
span + trajectory + metrics records) and ``--metrics FILE.json`` (final
registry snapshot); every ``--profile`` output renders through the one
shared formatter in :mod:`repro.telemetry.report`.
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import Dict, List, Optional

from .benchmarks import ALL_BENCHMARKS, benchmark, large_names, load_netlist, small_names
from .io import (
    pla_to_netlist,
    read_bench,
    read_blif,
    read_pla,
    read_verilog,
    save_bench,
    save_blif,
    save_pla,
    save_verilog,
    tables_to_pla,
)
from .mig import (
    ALGORITHMS,
    EquivalenceGuard,
    Realization,
    mig_from_netlist,
    rram_costs,
)
from .network import Netlist
from .rram import compile_mig, compile_plim, verify_compiled
from .telemetry import (
    TelemetrySession,
    TrajectoryRecorder,
    render_profile,
    trajectory_recording,
)


def _add_telemetry_args(command: argparse.ArgumentParser) -> None:
    command.add_argument(
        "--trace", metavar="FILE.jsonl", default=None,
        help="write a JSONL trace (spans, trajectory snapshots, final "
        "metrics) to FILE; inspect with 'repro-synth trace-report'",
    )
    command.add_argument(
        "--metrics", metavar="FILE.json", default=None,
        help="write the final metrics-registry snapshot to FILE as JSON",
    )


def _telemetry_session(args: argparse.Namespace) -> TelemetrySession:
    """Build the command's telemetry session (inert without --trace /
    --metrics, so main() wraps every command unconditionally)."""
    meta_args = {
        key: value
        for key, value in sorted(vars(args).items())
        if not key.startswith("_")
        and key not in ("func", "trace", "metrics")
        and isinstance(value, (str, int, float, bool, type(None)))
    }
    return TelemetrySession(
        args.command,
        trace_path=getattr(args, "trace", None),
        metrics_path=getattr(args, "metrics", None),
        args=meta_args,
    )


def _load_circuit(source: str, minimize: bool = False) -> Netlist:
    if source in ALL_BENCHMARKS:
        return load_netlist(source)
    if source.endswith(".bench"):
        return read_bench(source)
    if source.endswith(".blif"):
        return read_blif(source)
    if source.endswith(".pla"):
        cover = read_pla(source)
        if minimize:
            from .twolevel import minimize_pla

            cover = minimize_pla(cover)
        return pla_to_netlist(cover)
    if source.endswith(".v"):
        return read_verilog(source)
    raise SystemExit(
        f"cannot load {source!r}: not a known benchmark and not a "
        ".bench/.blif/.pla/.v file"
    )


def _cmd_synth(args: argparse.Namespace) -> int:
    netlist = _load_circuit(args.circuit, minimize=args.minimize)
    mig = mig_from_netlist(netlist)
    realization = Realization(args.realization)
    guard = EquivalenceGuard(mig, num_vectors=512) if args.verify else None

    session: Optional[TelemetrySession] = getattr(args, "_telemetry", None)
    recorder: Optional[TrajectoryRecorder] = None
    if session is not None and session.writer is not None:
        recorder = TrajectoryRecorder(realization, sink=session.writer)

    initial = rram_costs(mig, realization)
    start = time.perf_counter()
    result = None
    with trajectory_recording(recorder):
        if recorder is not None:
            recorder.record_state(mig, None, rule="initial", accepted=True)
        if args.algorithm != "none":
            optimizer = ALGORITHMS[args.algorithm]
            if args.algorithm in ("rram", "steps"):
                result = optimizer(mig, realization, args.effort)
            else:
                result = optimizer(mig, args.effort)
        if recorder is not None:
            # The closing snapshot is computed from scratch, so its R/S
            # are exactly the "optimized" numbers printed below.
            recorder.record_final(mig)
    elapsed = time.perf_counter() - start
    final = rram_costs(mig, realization)
    if result is not None:
        from .telemetry import publish_profile

        publish_profile(result.profile)

    print(f"circuit      : {netlist.name}")
    print(f"interface    : {netlist.inputs and len(netlist.inputs)} inputs, "
          f"{len(netlist.outputs)} outputs")
    print(f"algorithm    : {args.algorithm} (effort {args.effort})")
    print(f"realization  : {realization.value.upper()}")
    print(f"initial      : size={initial.size} depth={initial.depth} "
          f"R={initial.rrams} S={initial.steps}")
    print(f"optimized    : size={final.size} depth={final.depth} "
          f"R={final.rrams} S={final.steps}")
    print(f"runtime      : {elapsed:.2f}s")

    if args.profile:
        profile = result.profile if result is not None else None
        print(
            render_profile(
                profile, title="cost-view + transaction counters"
            )
        )

    if guard is not None:
        ok = guard.verify()
        print(f"equivalence  : {'PASS' if ok else 'FAIL'}")
        if not ok:
            return 1

    if args.compile:
        if args.backend == "plim":
            plim = compile_plim(mig)
            print(f"compiled     : {plim.instructions} serial RM3 "
                  f"instructions on {plim.program.num_devices} devices "
                  f"(PLiM backend)")
            if args.verify:
                from .rram import run_program

                ok = True
                from .rram.verify import verification_vectors

                for vector in verification_vectors(mig.num_pis):
                    words = [1 if bit else 0 for bit in vector]
                    expected = [
                        bool(w & 1) for w in mig.simulate_words(words, 1)
                    ]
                    if run_program(plim.program, list(vector)) != expected:
                        ok = False
                        break
                print(f"execution    : {'PASS' if ok else 'FAIL'}")
                if not ok:
                    return 1
        else:
            report = compile_mig(mig, realization)
            print(f"compiled     : {report.measured_steps} steps on "
                  f"{report.measured_devices} devices "
                  f"(model S={report.analytic.steps}, "
                  f"match={report.steps_match_model})")
            if args.verify:
                from .rram.verify import EXHAUSTIVE_LIMIT

                limit = (
                    args.exhaustive_limit
                    if args.exhaustive_limit is not None
                    else EXHAUSTIVE_LIMIT
                )
                ok = verify_compiled(
                    mig, report, exhaustive_limit=limit, jobs=args.jobs
                )
                print(f"execution    : {'PASS' if ok else 'FAIL'}")
                if not ok:
                    return 1
    return 0


def _parse_geometry(text: str):
    """``WxH`` (e.g. ``32x32``) or ``auto`` → (width, height) pair."""
    if text.strip().lower() == "auto":
        return (None, None)
    parts = text.lower().split("x")
    try:
        width, height = (int(part) for part in parts)
        if width < 1 or height < 1:
            raise ValueError
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"bad array geometry {text!r}; expected WxH (e.g. 32x32) "
            "or 'auto'"
        ) from None
    return (width, height)


def _cmd_map(args: argparse.Namespace) -> int:
    from .crossbar import map_program
    from .flows import placed_identical

    netlist = _load_circuit(args.circuit)
    mig = mig_from_netlist(netlist)
    realization = Realization(args.realization)
    if args.algorithm != "none":
        optimizer = ALGORITHMS[args.algorithm]
        if args.algorithm in ("rram", "steps"):
            optimizer(mig, realization, args.effort)
        else:
            optimizer(mig, args.effort)
    report = compile_mig(mig, realization)
    program = report.program
    width, height = args.crossbar
    placed = map_program(program, width, height, refine=args.refine)

    rows_used = len({row for row, _col in placed.cells.values()})
    print(f"circuit      : {netlist.name}")
    print(f"realization  : {realization.value.upper()}")
    print(f"devices      : {program.num_devices}")
    print(f"array        : {placed.width}x{placed.height} "
          f"({'requested' if width is not None else 'auto-fitted'})")
    print(f"utilization  : {placed.utilization:.2f} "
          f"({rows_used} wordlines occupied)")
    print(f"sequential S : {program.num_steps}")
    print(f"parallel     : {placed.num_parallel_steps} steps "
          f"(ratio {placed.step_ratio:.2f})")
    if args.verify:
        ok = placed_identical(program, placed)
        print(f"identity     : {'PASS' if ok else 'FAIL'}")
        if not ok:
            return 1
    return 0


def _cmd_table2(args: argparse.Namespace) -> int:
    from .flows import render_summary, render_table2, run_table2, summarize_table2

    names = args.benchmarks or None
    result = run_table2(
        names, effort=args.effort, verify=args.verify, jobs=args.jobs
    )
    print(render_table2(result, with_paper=not args.no_paper))
    print()
    print(render_summary(summarize_table2(result), with_paper=not args.no_paper))
    if args.crossbar is not None:
        from .flows import render_crossbar, run_crossbar

        width, height = args.crossbar
        crossbar = run_crossbar(
            names,
            effort=args.effort,
            verify=args.verify,
            jobs=args.jobs,
            width=width,
            height=height,
        )
        print()
        print(render_crossbar(crossbar))
    if args.profile:
        print()
        print(
            render_profile(
                result.merged_profile(),
                title="cost-view counters summed over all cells "
                "(and workers)",
            )
        )
    return 0


def _cmd_table3(args: argparse.Namespace) -> int:
    from .flows import render_table3, run_table3_aig, run_table3_bdd

    names = args.benchmarks or None
    if args.baseline == "bdd":
        result = run_table3_bdd(
            names, effort=args.effort, verify=args.verify, jobs=args.jobs
        )
    else:
        result = run_table3_aig(
            names, effort=args.effort, verify=args.verify, jobs=args.jobs
        )
    print(render_table3(result, with_paper=not args.no_paper))
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    """Regenerate the archived results/ tables from scratch."""
    import os

    from .flows import (
        largest_function_ratio,
        render_summary,
        render_table2,
        render_table3,
        run_table2,
        run_table3_aig,
        run_table3_bdd,
        summarize_table2,
    )

    os.makedirs(args.output, exist_ok=True)
    effort, verify = args.effort, args.verify
    stage_seconds = {}

    print(f"running Table II (effort={effort}) ...")
    start = time.perf_counter()
    table2 = run_table2(effort=effort, verify=verify)
    stage_seconds["report.stage_seconds.table2"] = (
        time.perf_counter() - start
    )
    with open(os.path.join(args.output, "table2_full.txt"), "w") as handle:
        handle.write(render_table2(table2) + "\n\n")
        handle.write(render_summary(summarize_table2(table2)) + "\n")
    print("running Table III (AIG baseline) ...")
    start = time.perf_counter()
    aig = run_table3_aig(effort=effort, verify=verify)
    stage_seconds["report.stage_seconds.table3_aig"] = (
        time.perf_counter() - start
    )
    print("running Table III (BDD baseline) ...")
    start = time.perf_counter()
    bdd = run_table3_bdd(effort=effort, verify=verify)
    stage_seconds["report.stage_seconds.table3_bdd"] = (
        time.perf_counter() - start
    )
    with open(os.path.join(args.output, "table3_full.txt"), "w") as handle:
        handle.write(render_table3(aig) + "\n\n")
        handle.write(render_table3(bdd) + "\n")
        handle.write(
            f"largest-function ratio (apex6+x3): "
            f"{largest_function_ratio(bdd):.1f}x (paper 26.5x)\n"
        )
    print(f"wrote {args.output}/table2_full.txt and table3_full.txt")
    if args.profile:
        print(
            render_profile(
                stage_seconds, title="seconds per stage", canonicalize=False
            )
        )
    return 0


def _cmd_convert(args: argparse.Namespace) -> int:
    netlist = _load_circuit(args.source, minimize=args.minimize)
    target = args.target
    if target.endswith(".bench"):
        save_bench(netlist, target)
    elif target.endswith(".blif"):
        save_blif(netlist, target)
    elif target.endswith(".v"):
        save_verilog(netlist, target)
    elif target.endswith(".pla"):
        if len(netlist.inputs) > 16:
            raise SystemExit("PLA export limited to 16 inputs")
        save_pla(
            tables_to_pla(
                netlist.truth_tables(),
                name=netlist.name,
                input_labels=netlist.inputs,
                output_labels=[f"f{i}" for i in range(len(netlist.outputs))],
            ),
            target,
        )
    else:
        raise SystemExit(f"unknown target format for {target!r}")
    print(f"wrote {target} ({netlist.stats()})")
    return 0


def _cmd_fuzz(args: argparse.Namespace) -> int:
    from .fuzz import FuzzConfig, run_fuzz
    from .rram import FAULT_CLASSES

    fault_classes = tuple(args.fault_classes or ())
    if args.all_faults:
        fault_classes = FAULT_CLASSES
    config = FuzzConfig(
        seconds=args.seconds,
        seed=args.seed,
        effort=args.effort,
        fault_classes=fault_classes,
        out_dir=args.out_dir,
        max_cases=args.max_cases,
        shrink_seconds=args.shrink_seconds,
        min_detection=args.min_detection,
        jobs=args.jobs,
    )
    report = run_fuzz(config)

    mode = "fault-injection" if fault_classes else "differential"
    print(f"mode         : {mode}")
    print(f"seed         : {config.seed}")
    print(f"cases        : {report.cases_run} in {report.elapsed:.1f}s")
    by_kind = ", ".join(
        f"{kind}={count}" for kind, count in sorted(report.cases_by_kind.items())
    )
    print(f"corpus       : {by_kind}")
    if fault_classes:
        for fault_class, row in sorted(report.detection_summary().items()):
            print(
                f"  {fault_class:<14s}: {row['detected']}/{row['sites']} sites "
                f"detected, {row['missed']} missed, {row['latent']} latent "
                f"(rate {row['detection_rate']:.2%}, floor "
                f"{config.min_detection:.0%})"
            )
    print(f"failures     : {len(report.failures)}")
    for failure in report.failures:
        print(f"  {failure.get('check')}: {failure.get('detail')}")
    for bundle in report.bundles:
        print(f"bundle       : {bundle}")
    if args.profile:
        print(render_profile(report.profile, title="seconds per stage"))
    print(f"verdict      : {'PASS' if report.ok else 'FAIL'}")
    return 0 if report.ok else 1


def _cmd_bench_list(_args: argparse.Namespace) -> int:
    print("large (Tables II / III-left):")
    for name in large_names():
        spec = benchmark(name)
        print(f"  {name:<11s} {spec.num_inputs:>3d} in {spec.num_outputs:>3d} out"
              f"  [{spec.kind}] {spec.description}")
    print("small (Table III-right):")
    for name in small_names():
        spec = benchmark(name)
        print(f"  {name:<11s} {spec.num_inputs:>3d} in {spec.num_outputs:>3d} out"
              f"  [{spec.kind}] {spec.description}")
    return 0


def _cmd_bench(args: argparse.Namespace) -> int:
    from .flows.bench import (
        append_bench_entry,
        bench_crossbar,
        bench_fuzz_smoke,
        bench_scale,
        bench_table2,
    )

    entries = []
    if args.what in ("table2", "all"):
        print(f"timing whole-set Table II flow (effort={args.effort}, "
              f"jobs={args.jobs}) ...")
        entries.append(
            bench_table2(
                args.benchmarks or None, effort=args.effort, jobs=args.jobs
            )
        )
    if args.what in ("fuzz-smoke", "all"):
        print("timing packed vs scalar verification on the fuzz smoke "
              "corpus ...")
        entries.append(bench_fuzz_smoke(jobs=args.jobs))
    if args.what == "crossbar":
        print(f"timing crossbar mapping of the step-optimized flow "
              f"(effort={args.effort}, jobs={args.jobs}) ...")
        entries.append(
            bench_crossbar(
                args.benchmarks or None, effort=args.effort, jobs=args.jobs
            )
        )
    if args.what == "scale":
        print(f"timing the EPFL-class scale tier "
              f"(effort={args.effort}) ...")
        entries.append(
            bench_scale(args.benchmarks or None, effort=args.effort)
        )
    for entry in entries:
        if not args.no_append:
            append_bench_entry(entry, args.output)
        if entry["kind"] == "table2":
            print(f"table2       : {entry['seconds']}s over "
                  f"{entry['benchmarks']} benchmarks (jobs={entry['jobs']})")
        elif entry["kind"] == "crossbar":
            for realization, totals in sorted(entry["totals"].items()):
                print(
                    f"crossbar     : {realization} parallel "
                    f"{totals['parallel_steps']} / sequential "
                    f"{totals['sequential_steps']} steps = "
                    f"{totals['parallel_over_s']}x over "
                    f"{len(entry['benchmarks'])} benchmarks"
                )
        elif entry["kind"] == "scale":
            for name, cell in entry["benchmarks"].items():
                for realization in ("imp", "maj"):
                    costs = cell[realization]
                    print(
                        f"scale        : {name} ({cell['gates']} gates) "
                        f"{realization} R={costs['rrams']} "
                        f"S={costs['steps']} in "
                        f"{costs['optimize_seconds']}s "
                        f"(build {cell['build_seconds']}s)"
                    )
        else:
            print(f"fuzz-smoke   : packed {entry['packed_seconds']}s vs "
                  f"scalar {entry['scalar_seconds']}s = "
                  f"{entry['speedup']}x over {entry['programs']} programs")
    if not args.no_append:
        print(f"appended {len(entries)} entr"
              f"{'y' if len(entries) == 1 else 'ies'} to {args.output}")
    return 0


def _load_trace_or_exit2(path: str):
    """Load a JSONL trace, returning (records, None) or (None, exit
    code 2 message).  Missing, empty, unreadable, and truncated files
    all land here — the CLI contract is exit 2 with one clear line, not
    a traceback."""
    import os

    from .telemetry import load_trace

    if not os.path.exists(path):
        return None, f"{path}: no such trace file"
    try:
        records = load_trace(path)
    except ValueError as error:
        return None, f"{path}: malformed trace: {error}"
    except OSError as error:
        return None, f"{path}: cannot read trace: {error}"
    if not records:
        return None, f"{path}: empty trace file (no records)"
    return records, None


def _cmd_trace_report(args: argparse.Namespace) -> int:
    from .telemetry import (
        compare_traces,
        load_bench_ledger,
        render_trace_compare,
        render_trace_report,
        validate_bench_ledger,
        validate_trace,
    )

    if args.compare is not None:
        a_records, error = _load_trace_or_exit2(args.trace_file)
        if error is None:
            b_records, error = _load_trace_or_exit2(args.compare)
        if error is not None:
            print(f"repro-synth: error: {error}", file=sys.stderr)
            return 2
        comparison = compare_traces(a_records, b_records)
        print(
            render_trace_compare(
                comparison,
                a_label=args.trace_file,
                b_label=args.compare,
                top=args.top,
            )
        )
        return 1 if comparison["diverged"] else 0

    # A BENCH_runtime.json-style ledger (one JSON object with an
    # "entries" list) is not a JSONL trace; validate its entry schema
    # instead of failing the JSONL parse.
    ledger = load_bench_ledger(args.trace_file)
    if ledger is not None:
        entries = ledger.get("entries", [])
        if args.validate:
            errors = validate_bench_ledger(ledger)
            if errors:
                for error in errors:
                    print(f"trace-report: {error}", file=sys.stderr)
                print(
                    f"trace-report: {args.trace_file}: "
                    f"{len(errors)} ledger violation(s)",
                    file=sys.stderr,
                )
                return 1
            print(f"schema       : OK ({len(entries)} ledger entries)")
        kinds: Dict[str, int] = {}
        for entry in entries:
            kind = entry.get("kind", "?") if isinstance(entry, dict) else "?"
            kinds[kind] = kinds.get(kind, 0) + 1
        print(f"ledger       : {len(entries)} entries")
        for kind in sorted(kinds):
            print(f"  {kind:<12s} : {kinds[kind]}")
        return 0

    records, error = _load_trace_or_exit2(args.trace_file)
    if error is not None:
        print(f"repro-synth: error: {error}", file=sys.stderr)
        return 2
    if args.validate:
        errors = validate_trace(records)
        if errors:
            for error in errors:
                print(f"trace-report: {error}", file=sys.stderr)
            print(
                f"trace-report: {args.trace_file}: "
                f"{len(errors)} schema violation(s)",
                file=sys.stderr,
            )
            return 1
        print(f"schema       : OK ({len(records)} records)")
    print(render_trace_report(records, top=args.top))
    return 0


def _cmd_obs_report(args: argparse.Namespace) -> int:
    from .telemetry import LedgerError, load_ledger
    from .telemetry.observatory import (
        build_report,
        render_report,
        render_report_html,
    )

    try:
        ledger = load_ledger(args.ledger)
    except LedgerError as error:
        print(f"repro-synth: error: {error}", file=sys.stderr)
        return 2
    report = build_report(ledger, window=args.window)
    if args.html is not None:
        with open(args.html, "w", encoding="utf-8") as handle:
            handle.write(render_report_html(report))
        print(f"wrote {args.html}")
    print(render_report(report))
    return 0


def _cmd_obs_gate(args: argparse.Namespace) -> int:
    from .flows.bench import append_bench_entry
    from .telemetry import LedgerError, load_ledger, metrics
    from .telemetry.observatory import render_gate, run_gates

    try:
        ledger = load_ledger(args.ledger)
    except LedgerError as error:
        print(f"repro-synth: error: {error}", file=sys.stderr)
        return 2
    tiers = ("counters", "wall") if args.tier == "all" else (args.tier,)
    start = time.perf_counter()
    outcomes, entry = run_gates(
        ledger,
        what=args.what,
        names=args.benchmarks or None,
        effort=args.effort,
        jobs=args.jobs,
        window=args.window,
        wall_slack=args.wall_slack,
        tiers=tiers,
        strict=args.strict,
    )
    metrics().gauge("obs.gate_seconds").set(
        round(time.perf_counter() - start, 3)
    )
    print(render_gate(outcomes))
    if not args.no_append:
        append_bench_entry(entry, path=args.ledger)
        print(f"appended obs-gate entry to {args.ledger}")
    return 0 if all(outcome.passed for outcome in outcomes) else 1


def build_parser() -> argparse.ArgumentParser:
    """The ``repro-synth`` argument parser (exposed for testing)."""
    parser = argparse.ArgumentParser(
        prog="repro-synth",
        description="MIG-based logic synthesis for RRAM in-memory computing "
        "(DATE 2016 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    synth = sub.add_parser("synth", help="optimize one circuit")
    synth.add_argument("circuit", help="benchmark name or .bench/.blif/.pla path")
    synth.add_argument(
        "--algorithm", choices=[*ALGORITHMS, "none"], default="rram",
        help="optimization algorithm (default: the paper's multi-objective)",
    )
    synth.add_argument(
        "--realization", choices=["imp", "maj"], default="maj",
        help="RRAM realization for cost reporting (default maj)",
    )
    synth.add_argument("--effort", type=int, default=40, help="cycle budget")
    synth.add_argument(
        "--compile", action="store_true",
        help="compile the optimized MIG to an RRAM micro-program",
    )
    synth.add_argument(
        "--minimize", action="store_true",
        help="two-level minimize PLA inputs (espresso-style) before synthesis",
    )
    synth.add_argument(
        "--backend", choices=["level", "plim"], default="level",
        help="compilation backend: the paper's level-parallel schedule "
        "or a PLiM-style serial RM3 stream (default level)",
    )
    synth.add_argument(
        "--verify", action="store_true",
        help="check equivalence (and execution, with --compile)",
    )
    synth.add_argument(
        "--profile", action="store_true",
        help="report incremental cost-view counters (recomputes, delta "
        "updates, cache hits, moves tried/accepted)",
    )
    synth.add_argument(
        "--jobs", type=int, default=1,
        help="worker processes for exhaustive --verify of the compiled "
        "program (default 1 = inline)",
    )
    synth.add_argument(
        "--exhaustive-limit", type=int, default=None,
        help="widest interface verified exhaustively instead of by "
        "sampling (default 10; hard cap 24 — beyond it verification "
        "refuses with a clear error)",
    )
    _add_telemetry_args(synth)
    synth.set_defaults(func=_cmd_synth)

    map_cmd = sub.add_parser(
        "map",
        help="place a compiled program onto a W×H crossbar and "
        "reschedule it into row-parallel steps",
    )
    map_cmd.add_argument(
        "circuit", help="benchmark name or .bench/.blif/.pla path"
    )
    map_cmd.add_argument(
        "--crossbar", type=_parse_geometry, default=(None, None),
        metavar="WxH",
        help="array geometry, e.g. 32x32 (default: auto-fit; exit "
        "code 2 when the program cannot be mapped onto the request)",
    )
    map_cmd.add_argument(
        "--realization", choices=["imp", "maj"], default="maj",
        help="RRAM realization to compile for (default maj)",
    )
    map_cmd.add_argument(
        "--algorithm", choices=[*ALGORITHMS, "none"], default="none",
        help="optional pre-mapping optimization (default none)",
    )
    map_cmd.add_argument("--effort", type=int, default=10,
                         help="optimizer cycle budget")
    refine = map_cmd.add_mutually_exclusive_group()
    refine.add_argument(
        "--refine", dest="refine", action="store_true", default=None,
        help="force the force-directed placement refinement on",
    )
    refine.add_argument(
        "--no-refine", dest="refine", action="store_false",
        help="skip the force-directed refinement (default: auto)",
    )
    map_cmd.add_argument(
        "--verify", action="store_true",
        help="prove the row-parallel schedule bit-identical to the "
        "sequential program through the packed kernels",
    )
    _add_telemetry_args(map_cmd)
    map_cmd.set_defaults(func=_cmd_map)

    table2 = sub.add_parser("table2", help="reproduce paper Table II")
    table2.add_argument("benchmarks", nargs="*", help="subset (default: all 25)")
    table2.add_argument("--effort", type=int, default=40)
    table2.add_argument("--verify", action="store_true")
    table2.add_argument("--no-paper", action="store_true",
                        help="omit the published reference rows")
    table2.add_argument(
        "--jobs", type=int, default=1,
        help="worker processes (benchmark-sharded; output is "
        "bit-identical to --jobs 1)",
    )
    table2.add_argument(
        "--profile", action="store_true",
        help="report cost-view counters summed over all cells/workers",
    )
    table2.add_argument(
        "--crossbar", type=_parse_geometry, default=None, metavar="WxH",
        help="also map the step-optimized flow onto a crossbar array "
        "(WxH, or 'auto' to fit per benchmark) and append the "
        "geometry/utilization/parallel-steps report",
    )
    _add_telemetry_args(table2)
    table2.set_defaults(func=_cmd_table2)

    table3 = sub.add_parser("table3", help="reproduce paper Table III")
    table3.add_argument("--baseline", choices=["bdd", "aig"], required=True)
    table3.add_argument("benchmarks", nargs="*")
    table3.add_argument("--effort", type=int, default=40)
    table3.add_argument("--verify", action="store_true")
    table3.add_argument("--no-paper", action="store_true")
    table3.add_argument(
        "--jobs", type=int, default=1,
        help="worker processes (benchmark-sharded; output is "
        "bit-identical to --jobs 1)",
    )
    _add_telemetry_args(table3)
    table3.set_defaults(func=_cmd_table3)

    report = sub.add_parser(
        "report", help="regenerate the archived results/ tables"
    )
    report.add_argument("--output", default="results")
    report.add_argument("--effort", type=int, default=40)
    report.add_argument("--verify", action="store_true")
    report.add_argument(
        "--profile", action="store_true",
        help="report seconds spent per regeneration stage",
    )
    report.set_defaults(func=_cmd_report)

    convert = sub.add_parser(
        "convert", help="convert circuits between .bench/.blif/.pla/.v"
    )
    convert.add_argument("source", help="benchmark name or circuit file")
    convert.add_argument("target", help="output path (format by extension)")
    convert.add_argument("--minimize", action="store_true",
                         help="two-level minimize PLA inputs first")
    convert.set_defaults(func=_cmd_convert)

    bench_list = sub.add_parser("bench-list", help="list built-in benchmarks")
    bench_list.set_defaults(func=_cmd_bench_list)

    bench = sub.add_parser(
        "bench",
        help="time whole-set flows and packed-kernel speedups, appending "
        "a machine-readable entry to BENCH_runtime.json",
    )
    bench.add_argument("benchmarks", nargs="*",
                       help="Table II subset for the table2 timing")
    bench.add_argument(
        "--what",
        choices=["table2", "fuzz-smoke", "crossbar", "scale", "all"],
        default="all",
        help="which measurement to run (default all; crossbar and scale "
        "only when named explicitly)",
    )
    bench.add_argument("--effort", type=int, default=10,
                       help="optimizer effort for the table2 timing")
    bench.add_argument("--jobs", type=int, default=1,
                       help="worker processes for the timed flows")
    bench.add_argument("--output", default="BENCH_runtime.json",
                       help="bench file to append to")
    bench.add_argument("--no-append", action="store_true",
                       help="measure and print without touching the file")
    _add_telemetry_args(bench)
    bench.set_defaults(func=_cmd_bench)

    fuzz = sub.add_parser(
        "fuzz",
        help="differential fuzzing / fault-injection campaign",
    )
    fuzz.add_argument(
        "--seconds", type=float, default=30.0, help="time budget (default 30)"
    )
    fuzz.add_argument("--seed", type=int, default=1, help="campaign seed")
    fuzz.add_argument(
        "--effort", type=int, default=4,
        help="optimizer effort per oracle case (default 4)",
    )
    fuzz.add_argument(
        "--fault-classes", nargs="*", metavar="CLASS",
        help="run the fault-injection campaign for these classes "
        "(stuck-set stuck-reset dropped-write sense-flip) instead of "
        "the differential oracle",
    )
    fuzz.add_argument(
        "--all-faults", action="store_true",
        help="shorthand for every fault class",
    )
    fuzz.add_argument(
        "--out-dir", default="results/fuzz",
        help="where repro bundles are written (default results/fuzz)",
    )
    fuzz.add_argument(
        "--max-cases", type=int, default=None,
        help="hard case cap on top of the time budget",
    )
    fuzz.add_argument(
        "--shrink-seconds", type=float, default=10.0,
        help="delta-debugging budget per failure (default 10)",
    )
    fuzz.add_argument(
        "--min-detection", type=float, default=0.95,
        help="fault-detection floor for the PASS verdict (default 0.95)",
    )
    fuzz.add_argument(
        "--profile", action="store_true",
        help="report seconds spent per campaign stage (summed across "
        "workers when --jobs > 1)",
    )
    fuzz.add_argument(
        "--jobs", type=int, default=1,
        help="worker processes for case execution (case verdicts are "
        "independent of the job count)",
    )
    _add_telemetry_args(fuzz)
    fuzz.set_defaults(func=_cmd_fuzz)

    trace_report = sub.add_parser(
        "trace-report",
        help="summarize a --trace JSONL file: per-pass time, R/S "
        "trajectory timeline, slowest spans",
    )
    trace_report.add_argument("trace_file", help="trace file (JSONL)")
    trace_report.add_argument(
        "--top", type=int, default=5,
        help="how many slowest spans to list (default 5)",
    )
    trace_report.add_argument(
        "--validate", action="store_true",
        help="validate every record against the documented schema and "
        "the metric-name catalog first; exit 1 on any violation",
    )
    trace_report.add_argument(
        "--compare", metavar="OTHER.jsonl", default=None,
        help="differential mode: compare TRACE_FILE against OTHER.jsonl "
        "(per-pass time deltas, deterministic counter deltas, first "
        "diverging trajectory trial); exit 1 when the runs diverge on "
        "anything deterministic, 0 when identical",
    )
    trace_report.set_defaults(func=_cmd_trace_report)

    obs = sub.add_parser(
        "obs",
        help="observatory over the benchmark ledger: trend report and "
        "two-tier regression gate",
    )
    obs_sub = obs.add_subparsers(dest="obs_command", required=True)

    obs_report = obs_sub.add_parser(
        "report",
        help="sparkline trend tables per (kind, effort), "
        "latest-vs-baseline deltas, graph occupancy gauges",
    )
    obs_report.add_argument(
        "--ledger", default="BENCH_runtime.json",
        help="benchmark ledger path (default BENCH_runtime.json)",
    )
    obs_report.add_argument(
        "--html", metavar="FILE", default=None,
        help="also write a self-contained HTML dashboard to FILE",
    )
    obs_report.add_argument(
        "--window", type=int, default=8,
        help="rolling baseline window (default 8 entries)",
    )
    obs_report.set_defaults(func=_cmd_obs_report)

    obs_gate = obs_sub.add_parser(
        "gate",
        help="run benchmarks and gate against ledger baselines: "
        "deterministic counters must match exactly, wall-clock must "
        "stay inside the median+MAD noise band",
    )
    obs_gate.add_argument(
        "--ledger", default="BENCH_runtime.json",
        help="benchmark ledger path (default BENCH_runtime.json)",
    )
    obs_gate.add_argument(
        "--what", choices=("table2", "scale", "all"), default="all",
        help="which tier to gate (default all)",
    )
    obs_gate.add_argument(
        "--tier", choices=("counters", "wall", "all"), default="all",
        help="which detector tier to apply (default all)",
    )
    obs_gate.add_argument(
        "--effort", type=int, default=10,
        help="optimization effort; must match the ledger baselines "
        "(default 10)",
    )
    obs_gate.add_argument(
        "--jobs", type=int, default=1,
        help="worker processes for the table2 run (default 1; counters "
        "are job-count independent, wall bands are keyed on jobs)",
    )
    obs_gate.add_argument(
        "--window", type=int, default=8,
        help="rolling baseline window for wall bands (default 8)",
    )
    obs_gate.add_argument(
        "--wall-slack", type=float, default=2.0,
        help="minimum tolerated wall-clock ratio over the baseline "
        "median before the MAD band kicks in (default 2.0)",
    )
    obs_gate.add_argument(
        "--benchmarks", nargs="+", metavar="NAME", default=None,
        help="scale-tier benchmark subset (default: every large "
        "benchmark with a ledger baseline)",
    )
    obs_gate.add_argument(
        "--no-append", action="store_true",
        help="do not append the obs-gate outcome entry to the ledger",
    )
    obs_gate.add_argument(
        "--strict", action="store_true",
        help="fail (instead of warn) when a baseline or noise band is "
        "missing for a gated subject",
    )
    obs_gate.set_defaults(func=_cmd_obs_gate)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point."""
    from .io import (
        BenchFormatError,
        BlifFormatError,
        PlaFormatError,
        VerilogFormatError,
    )
    from .crossbar import MappingError
    from .rram import VerificationCapError

    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        with _telemetry_session(args) as session:
            args._telemetry = session
            return args.func(args)
    except (
        BenchFormatError,
        BlifFormatError,
        PlaFormatError,
        VerilogFormatError,
        VerificationCapError,
        MappingError,
    ) as error:
        print(f"repro-synth: error: {error}", file=sys.stderr)
        return 2
    except OSError as error:
        print(f"repro-synth: error: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

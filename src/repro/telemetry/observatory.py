"""The performance observatory: regression gate + perf-trajectory report.

Consumes the :mod:`repro.telemetry.ledger` read side analytically:

* :func:`gate_table2` / :func:`gate_scale` — run the real flow
  (whole-set Table II, or the generated scale tier) and judge it
  against ledger baselines with **two tiers**:

  - *counter tier*: the deterministic counter families
    (``moves_tried``, ``events_replayed``, ``strash_*``, ...,
    plus the R/S cost results themselves) compared **exactly** against
    the latest baseline at the same (kind, effort) key.  Baselines are
    not keyed by ``graph_engine``: one storage engine remains, and the
    ledger's ``slab`` and ``object`` entries record identical counters.
    These are machine-independent; any unexplained change is
    algorithmic drift and fails the gate outright.
  - *wall tier*: wall-clock compared against the rolling-window
    median + MAD noise band of the historical series (same key plus
    ``machine``/``jobs``).  Only a run outside the band fails.

* :func:`build_report` / :func:`render_report` /
  :func:`render_report_html` — the per-benchmark perf-trajectory
  dashboard ``repro-synth obs report [--html]`` prints: sparkline
  tables per kind/effort series, latest-vs-baseline deltas, and
  graph occupancy gauges.

The CLI wiring lives in ``repro.cli`` (``repro-synth obs gate`` /
``obs report``); CI runs the gate on every push (counter tier on the
whole-set Table II, wall tier on the scale smoke) and uploads the HTML
report as an artifact.
"""

from __future__ import annotations

import html as _html
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from .ledger import (
    ANY,
    BENCH_SCHEMA_VERSION,
    BaselineKey,
    CounterDrift,
    Ledger,
    NoiseBand,
    counter_drift,
    noise_band,
)

#: Deterministic *result* fields of a scale-tier cell — R/S drift is
#: algorithmic drift exactly like counter drift (the cost model is a
#: pure function of the graph).
SCALE_RESULT_KEYS = (
    "rrams_before",
    "steps_before",
    "rrams",
    "steps",
    "depth",
)

GATE_TIERS = ("counters", "wall")


@dataclass(frozen=True)
class Finding:
    """One gate observation; ``ok=False`` findings fail the gate."""

    tier: str  # "counter" | "wall" | "info"
    subject: str  # "table2", "rca1536/imp", ...
    ok: bool
    message: str

    def render(self) -> str:
        verdict = "PASS" if self.ok else "FAIL"
        return f"  [{self.tier:<7s}] {verdict} {self.subject}: {self.message}"


@dataclass
class GateOutcome:
    """The verdict of one ``obs gate`` run."""

    what: str
    findings: List[Finding] = field(default_factory=list)
    entry: Dict[str, Any] = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return all(finding.ok for finding in self.findings)

    @property
    def failures(self) -> List[Finding]:
        return [finding for finding in self.findings if not finding.ok]


def _drift_findings(
    subject: str, drifts: Sequence[CounterDrift]
) -> List[Finding]:
    return [
        Finding("counter", subject, False, drift.describe())
        for drift in drifts
    ]


def _wall_finding(
    subject: str,
    seconds: float,
    band: Optional[NoiseBand],
    *,
    slack: float,
    strict: bool,
) -> Finding:
    if band is None:
        return Finding(
            "wall",
            subject,
            not strict,
            "no historical wall-clock series for this key "
            "(tier skipped; append a bench entry to seed the baseline)",
        )
    upper = band.upper(slack)
    ok = seconds <= upper
    return Finding(
        "wall",
        subject,
        ok,
        f"{seconds:.3f}s vs band median {band.median:.3f}s "
        f"(MAD {band.mad:.3f}, n={band.count}, limit {upper:.3f}s)",
    )


# ----------------------------------------------------------------------
# Gate: whole-set Table II (counter tier's home)
# ----------------------------------------------------------------------


def gate_table2(
    ledger: Ledger,
    *,
    effort: int = 10,
    jobs: int = 1,
    window: int = 8,
    wall_slack: float = 2.0,
    tiers: Sequence[str] = GATE_TIERS,
    strict: bool = False,
) -> GateOutcome:
    """Run the whole-set Table II flow and gate it against the ledger.

    The counter tier compares the merged CostView profile exactly
    against the latest ``kind=table2`` baseline at the same effort; the
    wall tier compares the wall-clock against the noise band of the
    matching series (machine/jobs keyed).
    """
    from ..flows.bench import bench_table2

    outcome = GateOutcome(what="table2")
    entry = bench_table2(None, effort=effort, jobs=jobs)
    outcome.entry = entry

    if "counters" in tiers:
        key = BaselineKey("table2", effort=effort)
        baseline = ledger.baseline(key)
        if baseline is None:
            outcome.findings.append(
                Finding(
                    "counter",
                    "table2",
                    not strict,
                    f"no baseline entry for {key.describe()} "
                    "(tier skipped; run 'repro-synth bench --what "
                    "table2' to seed one)",
                )
            )
        else:
            drifts = counter_drift(
                baseline.get("profile", {}) or {},
                entry.get("profile", {}) or {},
            )
            if drifts:
                outcome.findings.extend(_drift_findings("table2", drifts))
            else:
                compared = len(
                    [
                        k
                        for k in (baseline.get("profile", {}) or {})
                        if k in dict(entry.get("profile", {}) or {})
                    ]
                )
                outcome.findings.append(
                    Finding(
                        "counter",
                        "table2",
                        True,
                        f"deterministic counters identical to baseline "
                        f"({compared} keys, {key.describe()})",
                    )
                )

    if "wall" in tiers:
        wall_key = BaselineKey(
            "table2",
            effort=effort,
            machine=entry.get("machine", ANY),
            jobs=jobs,
        )
        band = ledger.band(wall_key, window=window)
        outcome.findings.append(
            _wall_finding(
                "table2",
                float(entry["seconds"]),
                band,
                slack=wall_slack,
                strict=strict,
            )
        )
    return outcome


# ----------------------------------------------------------------------
# Gate: scale tier (wall tier's home)
# ----------------------------------------------------------------------


def scale_cell_seconds(cell: Mapping[str, Any]) -> float:
    """Wall-clock of one scale benchmark: build + both realizations."""
    seconds = float(cell.get("build_seconds", 0.0))
    for realization in ("imp", "maj"):
        inner = cell.get(realization)
        if isinstance(inner, Mapping):
            seconds += float(inner.get("optimize_seconds", 0.0))
    return seconds


def _scale_baseline_cell(
    ledger: Ledger,
    name: str,
    *,
    effort: Any,
    require_counters: bool,
) -> Optional[Mapping[str, Any]]:
    """Latest scale entry carrying ``name`` (and, when asked, its
    per-realization counters — early entries predate them)."""
    key = BaselineKey("scale", effort=effort)
    for entry in reversed(ledger.query(key)):
        cell = (entry.get("benchmarks") or {}).get(name)
        if not isinstance(cell, Mapping):
            continue
        if require_counters and not all(
            isinstance(cell.get(r), Mapping) and "counters" in cell[r]
            for r in ("imp", "maj")
        ):
            continue
        return cell
    return None


def gate_scale(
    ledger: Ledger,
    names: Optional[Sequence[str]] = None,
    *,
    effort: int = 10,
    window: int = 8,
    wall_slack: float = 2.0,
    tiers: Sequence[str] = GATE_TIERS,
    strict: bool = False,
) -> GateOutcome:
    """Run the scale-tier flow and gate it against the ledger.

    Counter tier: per benchmark and realization, the optimizer
    counters **and** the R/S results compared exactly.
    Wall tier: per-benchmark build+optimize seconds against the noise
    band of the same benchmark's historical series.
    """
    from ..flows.bench import bench_scale

    outcome = GateOutcome(what="scale")
    entry = bench_scale(list(names) if names else None, effort=effort)
    outcome.entry = entry

    for name, cell in entry["benchmarks"].items():
        baseline_cell = _scale_baseline_cell(
            ledger, name, effort=effort,
            require_counters="counters" in tiers,
        )
        if baseline_cell is None:
            outcome.findings.append(
                Finding(
                    "counter" if "counters" in tiers else "wall",
                    name,
                    not strict,
                    "no scale baseline with counters for this key "
                    "(tier skipped; run 'repro-synth bench --what "
                    "scale' to seed one)",
                )
            )
            continue

        if "counters" in tiers:
            drifts: List[Tuple[str, CounterDrift]] = []
            if baseline_cell.get("gates") != cell.get("gates"):
                drifts.append(
                    (
                        name,
                        CounterDrift(
                            "gates",
                            baseline_cell.get("gates"),
                            cell.get("gates"),
                        ),
                    )
                )
            for realization in ("imp", "maj"):
                base_r = baseline_cell.get(realization) or {}
                cur_r = cell.get(realization) or {}
                subject = f"{name}/{realization}"
                for drift in counter_drift(
                    base_r.get("counters", {}) or {},
                    cur_r.get("counters", {}) or {},
                ):
                    drifts.append((subject, drift))
                for drift in counter_drift(
                    base_r, cur_r, keys=SCALE_RESULT_KEYS
                ):
                    drifts.append((subject, drift))
            if drifts:
                for subject, drift in drifts:
                    outcome.findings.append(
                        Finding("counter", subject, False, drift.describe())
                    )
            else:
                outcome.findings.append(
                    Finding(
                        "counter",
                        name,
                        True,
                        "counters and R/S identical to baseline "
                        "(both realizations)",
                    )
                )

        if "wall" in tiers:
            series = []
            key = BaselineKey(
                "scale",
                effort=effort,
                machine=entry.get("machine", ANY),
            )
            for historical in ledger.query(key):
                hist_cell = (historical.get("benchmarks") or {}).get(name)
                if isinstance(hist_cell, Mapping):
                    series.append(scale_cell_seconds(hist_cell))
            outcome.findings.append(
                _wall_finding(
                    name,
                    scale_cell_seconds(cell),
                    noise_band(series, window=window),
                    slack=wall_slack,
                    strict=strict,
                )
            )
    return outcome


def render_gate(outcomes: Sequence[GateOutcome]) -> str:
    """Human rendering of one ``obs gate`` run."""
    lines: List[str] = []
    failed_counters: List[str] = []
    for outcome in outcomes:
        lines.append(f"gate {outcome.what}:")
        for finding in outcome.findings:
            lines.append(finding.render())
        for finding in outcome.failures:
            if finding.tier == "counter":
                failed_counters.append(
                    f"{finding.subject}: {finding.message}"
                )
    passed = all(outcome.passed for outcome in outcomes)
    if failed_counters:
        lines.append("drifting counters:")
        for item in failed_counters:
            lines.append(f"  {item}")
    lines.append(f"obs gate {'PASS' if passed else 'FAIL'}")
    return "\n".join(lines)


def gate_entry(
    outcomes: Sequence[GateOutcome], *, seconds: float, effort: int
) -> Dict[str, Any]:
    """The machine-readable ``obs-gate`` ledger entry for one run."""
    from ..mig import graph_engine_name

    return {
        "kind": "obs-gate",
        "schema_version": BENCH_SCHEMA_VERSION,
        "seconds": round(seconds, 3),
        "effort": effort,
        "graph_engine": graph_engine_name(),
        "passed": all(outcome.passed for outcome in outcomes),
        "gates": {
            outcome.what: {
                "passed": outcome.passed,
                "failures": [
                    f"{finding.subject}: {finding.message}"
                    for finding in outcome.failures
                ],
            }
            for outcome in outcomes
        },
    }


# ----------------------------------------------------------------------
# The perf-trajectory report (obs report [--html])
# ----------------------------------------------------------------------

_SPARK_CHARS = "▁▂▃▄▅▆▇█"


def sparkline(values: Sequence[float]) -> str:
    """Unicode sparkline of one series (empty string for no data)."""
    if not values:
        return ""
    lo, hi = min(values), max(values)
    if hi <= lo:
        return _SPARK_CHARS[0] * len(values)
    span = hi - lo
    return "".join(
        _SPARK_CHARS[
            min(
                len(_SPARK_CHARS) - 1,
                int((value - lo) / span * len(_SPARK_CHARS)),
            )
        ]
        for value in values
    )


@dataclass
class SeriesRow:
    """One (kind, effort) wall-clock series."""

    kind: str
    effort: Any
    seconds: List[float]
    band: Optional[NoiseBand]

    @property
    def latest(self) -> float:
        return self.seconds[-1]

    @property
    def delta_vs_median(self) -> Optional[float]:
        if self.band is None or self.band.median == 0:
            return None
        return (self.latest - self.band.median) / self.band.median


@dataclass
class ObservatoryReport:
    """Everything ``obs report`` renders, precomputed."""

    ledger_path: str
    entry_count: int
    duplicates_dropped: int
    series: List[SeriesRow]
    occupancy: Dict[str, Any]
    scale_cells: Dict[str, Dict[str, Any]]


def build_report(ledger: Ledger, *, window: int = 8) -> ObservatoryReport:
    """Aggregate the ledger into the dashboard's row model."""
    groups: Dict[Tuple[Any, Any], List[float]] = {}
    for entry in ledger.entries:
        seconds = entry.get("seconds")
        if not isinstance(seconds, (int, float)) or isinstance(
            seconds, bool
        ):
            continue
        group = (entry.get("kind", "?"), entry.get("effort"))
        groups.setdefault(group, []).append(float(seconds))

    series = [
        SeriesRow(
            kind=kind,
            effort=effort,
            seconds=values,
            # The band excludes the latest point: it is what the latest
            # run is judged *against*, not part of its own baseline.
            band=(
                None
                if len(values) < 2
                else noise_band(values[:-1], window=window)
            ),
        )
        for (kind, effort), values in sorted(
            groups.items(), key=lambda item: (str(item[0][0]),
                                              str(item[0][1]))
        )
    ]

    # Graph occupancy gauges from the latest profile-carrying entry.
    occupancy: Dict[str, Any] = {}
    for entry in reversed(ledger.entries):
        profile = entry.get("profile")
        if isinstance(profile, Mapping) and "nodes_allocated" in profile:
            occupancy = {
                "kind": entry.get("kind"),
                "nodes_allocated": profile.get("nodes_allocated"),
                "compactions": profile.get("compactions"),
            }
            break

    # Latest scale cells (per-benchmark R/S + counters).
    scale_cells: Dict[str, Dict[str, Any]] = {}
    for entry in reversed(ledger.entries):
        if entry.get("kind") != "scale":
            continue
        for name, cell in (entry.get("benchmarks") or {}).items():
            if name not in scale_cells and isinstance(cell, Mapping):
                scale_cells[name] = {
                    "gates": cell.get("gates"),
                    "seconds": round(scale_cell_seconds(cell), 3),
                    **{
                        realization: {
                            "rrams": (cell.get(realization) or {}).get(
                                "rrams"
                            ),
                            "steps": (cell.get(realization) or {}).get(
                                "steps"
                            ),
                        }
                        for realization in ("imp", "maj")
                    },
                }

    return ObservatoryReport(
        ledger_path=ledger.path,
        entry_count=len(ledger.entries),
        duplicates_dropped=ledger.duplicates_dropped,
        series=series,
        occupancy=occupancy,
        scale_cells=dict(sorted(scale_cells.items())),
    )


def _series_cells(row: SeriesRow) -> Tuple[str, str, str, str, str]:
    """(key, n, sparkline, latest, delta) display cells for one row."""
    key = f"{row.kind}/effort={row.effort}"
    delta = row.delta_vs_median
    delta_text = "-" if delta is None else f"{delta:+.1%}"
    return (
        key,
        str(len(row.seconds)),
        sparkline(row.seconds),
        f"{row.latest:.3f}s",
        delta_text,
    )


def render_report(report: ObservatoryReport) -> str:
    """Text dashboard (the default ``obs report`` output)."""
    lines = [
        f"ledger       : {report.ledger_path} "
        f"({report.entry_count} entries"
        + (
            f", {report.duplicates_dropped} byte-identical duplicates "
            "collapsed"
            if report.duplicates_dropped
            else ""
        )
        + ")"
    ]
    if report.series:
        rows = [_series_cells(row) for row in report.series]
        key_width = max(len(row[0]) for row in rows)
        lines.append("")
        lines.append("wall-clock series (latest vs rolling median):")
        lines.append(
            f"  {'series':<{key_width}s}  {'n':>3s}  {'trend':<10s}  "
            f"{'latest':>10s}  {'vs median':>9s}"
        )
        for key, count, spark, latest, delta in rows:
            lines.append(
                f"  {key:<{key_width}s}  {count:>3s}  {spark:<10s}  "
                f"{latest:>10s}  {delta:>9s}"
            )
    if report.occupancy:
        lines.append("")
        lines.append(
            f"graph occupancy (latest {report.occupancy.get('kind')} "
            "entry):"
        )
        lines.append(
            f"  nodes_allocated : {report.occupancy.get('nodes_allocated')}"
        )
        lines.append(
            f"  compactions     : {report.occupancy.get('compactions')}"
        )
    if report.scale_cells:
        lines.append("")
        lines.append("scale tier (latest per benchmark):")
        width = max(len(name) for name in report.scale_cells)
        for name, cell in report.scale_cells.items():
            lines.append(
                f"  {name:<{width}s}  {cell['gates']:>7} gates  "
                f"{cell['seconds']:>8.3f}s  "
                f"imp R/S {cell['imp']['rrams']}/{cell['imp']['steps']}  "
                f"maj R/S {cell['maj']['rrams']}/{cell['maj']['steps']}"
            )
    return "\n".join(lines)


def render_report_html(report: ObservatoryReport) -> str:
    """Self-contained HTML dashboard (the CI artifact)."""

    def esc(value: Any) -> str:
        return _html.escape(str(value))

    series_rows = "\n".join(
        "<tr><td>{}</td><td class='num'>{}</td>"
        "<td class='spark'>{}</td><td class='num'>{}</td>"
        "<td class='num'>{}</td></tr>".format(
            *(esc(cell) for cell in _series_cells(row))
        )
        for row in report.series
    )
    occupancy_rows = "\n".join(
        f"<tr><td>{esc(key)}</td><td class='num'>{esc(value)}</td></tr>"
        for key, value in report.occupancy.items()
    )
    scale_rows = "\n".join(
        "<tr><td>{}</td><td class='num'>{}</td><td class='num'>{}</td>"
        "<td class='num'>{}/{}</td><td class='num'>{}/{}</td></tr>".format(
            esc(name),
            esc(cell["gates"]),
            esc(cell["seconds"]),
            esc(cell["imp"]["rrams"]),
            esc(cell["imp"]["steps"]),
            esc(cell["maj"]["rrams"]),
            esc(cell["maj"]["steps"]),
        )
        for name, cell in report.scale_cells.items()
    )
    return f"""<!DOCTYPE html>
<html lang="en">
<head>
<meta charset="utf-8">
<title>Performance observatory — {esc(report.ledger_path)}</title>
<style>
body {{ font: 14px/1.5 system-ui, sans-serif; margin: 2rem;
       color: #1a1a1a; }}
h1 {{ font-size: 1.3rem; }} h2 {{ font-size: 1.05rem; margin-top: 2rem; }}
table {{ border-collapse: collapse; }}
td, th {{ border: 1px solid #ccc; padding: 0.3rem 0.6rem;
          text-align: left; }}
th {{ background: #f2f2f2; }}
td.num {{ text-align: right; font-variant-numeric: tabular-nums; }}
td.spark {{ font-family: monospace; letter-spacing: 1px; }}
p.meta {{ color: #555; }}
</style>
</head>
<body>
<h1>Performance observatory</h1>
<p class="meta">ledger {esc(report.ledger_path)} —
{report.entry_count} entries,
{report.duplicates_dropped} byte-identical duplicates collapsed.</p>
<h2>Wall-clock series</h2>
<table>
<tr><th>series (kind/effort)</th><th>n</th><th>trend</th>
<th>latest</th><th>vs median</th></tr>
{series_rows}
</table>
<h2>Graph occupancy</h2>
<table>
{occupancy_rows or '<tr><td>no occupancy gauges recorded</td></tr>'}
</table>
<h2>Scale tier (latest per benchmark)</h2>
<table>
<tr><th>benchmark</th><th>gates</th><th>seconds</th>
<th>imp R/S</th><th>maj R/S</th></tr>
{scale_rows or '<tr><td colspan="5">no scale entries</td></tr>'}
</table>
</body>
</html>
"""


def run_gates(
    ledger: Ledger,
    *,
    what: str = "all",
    names: Optional[Sequence[str]] = None,
    effort: int = 10,
    jobs: int = 1,
    window: int = 8,
    wall_slack: float = 2.0,
    tiers: Sequence[str] = GATE_TIERS,
    strict: bool = False,
) -> Tuple[List[GateOutcome], Dict[str, Any]]:
    """Run the requested gates; returns (outcomes, ledger entry)."""
    start = time.perf_counter()
    outcomes: List[GateOutcome] = []
    if what in ("table2", "all"):
        outcomes.append(
            gate_table2(
                ledger,
                effort=effort,
                jobs=jobs,
                window=window,
                wall_slack=wall_slack,
                tiers=tiers,
                strict=strict,
            )
        )
    if what in ("scale", "all"):
        outcomes.append(
            gate_scale(
                ledger,
                names,
                effort=effort,
                window=window,
                wall_slack=wall_slack,
                tiers=tiers,
                strict=strict,
            )
        )
    entry = gate_entry(
        outcomes, seconds=time.perf_counter() - start, effort=effort
    )
    return outcomes, entry

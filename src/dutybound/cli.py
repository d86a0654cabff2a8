"""Command-line entry point.

Subcommands: check-topology, check-preferences, solve, trace,
scenario {sugar|slavery|veblen}, sweep. Exit codes: 0 success,
2 verification failure, 3 solver non-convergence, 4 configuration error or
an artifact that cannot be written (one ``error:`` line naming its path).

Every command reads its input file, check-preferences' relation file too,
through ``config.parse_and_validate``: one reader and one number rule.

A command is a function of its arguments and config that returns a
``Report``: its tables, the lines printed before them, an optional chart,
the manifest's command name and the exit code. ``main`` alone emits: it
writes each table as CSV into the output directory, prints the report lines
and then the echoed tables to stdout, and writes the chart and a manifest,
every artifact through ``output.write_text``. Identical config and seed give
byte-identical CSV output.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path
from typing import Callable, NamedTuple, Sequence

import numpy as np

from . import equilibrium, output, preferences, scenarios, topology
from .config import RunConfig, parse_and_validate
from .errors import DutyModelError, ParseError, SingularJacobian, ValidationErrors

EXIT_OK = 0
EXIT_VERIFICATION = 2
EXIT_NO_CONVERGENCE = 3
EXIT_CONFIG = 4


class Table(NamedTuple):
    """A CSV artifact; an echoed one is printed to stdout too."""
    name: str
    header: list[str]
    rows: list
    echo: bool = True


class Chart(NamedTuple):
    """A line chart, written to ``--svg``, or to ``name`` in the output
    directory when the config lists svg among its formats. ``series`` is
    called only when the chart is written."""
    name: str
    series: Callable[[], list]
    title: str
    xlabel: str
    ylabel: str


class Report(NamedTuple):
    command: str  # as the manifest records it
    tables: list[Table]
    lines: Sequence[str] = ()  # printed before the echoed tables
    chart: Chart | None = None
    code: int = EXIT_OK


class MissingSection(Exception):
    """The config lacks a section the command needs; a config error."""


def _need(present, message: str) -> None:
    if not present:
        raise MissingSection(message)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dutybound",
        description="Duty-constrained exchange economies over ethical regimes.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check-topology", help="verify the base-space topology axioms")
    p.add_argument("--config", required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(run=_cmd_check_topology)

    p = sub.add_parser("check-preferences", help="check rationality axioms of a relation")
    p.add_argument("--relation", dest="config", required=True,
                   help="relation file (points + pairs or utility)")
    p.add_argument("--out", default=None)
    p.set_defaults(run=_cmd_check_preferences)

    p = sub.add_parser("solve", help="solve one fiber's equilibrium")
    p.add_argument("--config", required=True)
    p.add_argument("--fiber", default=None, help="base point id (default: first)")
    p.add_argument("--out", default=None)
    p.set_defaults(run=_cmd_solve)

    p = sub.add_parser("trace", help="run the configured path and trace equilibria")
    p.add_argument("--config", required=True)
    p.add_argument("--svg", default=None, help="write an allocation-vs-step chart here")
    p.add_argument("--out", default=None)
    p.set_defaults(run=_cmd_trace)

    p = sub.add_parser("scenario", help="run a packaged experiment")
    p.add_argument("which", choices=["sugar", "slavery", "veblen"])
    p.add_argument("--config", required=True)
    p.add_argument("--estimate-critical-mass", action="store_true")
    p.add_argument("--svg", default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(run=lambda args, config: SCENARIOS[args.which](args, config))

    p = sub.add_parser("sweep", help="sugar-share sweep over a phi x premium lattice")
    p.add_argument("--config", required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(run=_cmd_sweep)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    started = time.perf_counter()
    try:
        config = parse_and_validate(args.config)
        if args.out:
            config.output_dir = args.out
        report = args.run(args, config)

        outdir = Path(config.output_dir)
        texts = [output.csv_text(table.header, table.rows) for table in report.tables]
        written = [output.write_text(outdir / table.name, text)
                   for table, text in zip(report.tables, texts)]
        for line in report.lines:
            print(line)
        for table, text in zip(report.tables, texts):
            if table.echo:
                print(text, end="")
        chart = report.chart
        if chart and (args.svg or "svg" in config.output_formats):
            svg = output.svg_line_chart(chart.series(), chart.title, chart.xlabel, chart.ylabel)
            written.append(output.write_text(args.svg or outdir / chart.name, svg))
        output.write_manifest(config, report.command, [p.name for p in written], started)
        return report.code
    except (ParseError, ValidationErrors, MissingSection) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except DutyModelError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


def _cmd_check_topology(args, config: RunConfig) -> Report:
    base = config.base
    _need(base is not None, "check-topology needs a base_space section")
    if config.opens is not None:
        family = topology.OpenFamily.from_subsets(base, config.opens)
    else:
        family = topology.discrete_topology(base)
    axioms = topology.verify_topology_axioms(family, base)
    continuity = topology.projection_continuous(base, family)

    rows = [
        ["open-set-count", True, len(family.masks),
         f"power set would have 2^{base.m} = {2 ** base.m}"],
        ["topology-axioms", axioms.passed, axioms.checked,
         axioms.detail if not axioms.passed else "closed under union/intersection"],
        ["projection-continuity", continuity.passed, continuity.checked, continuity.detail],
    ]
    return Report("check-topology",
                  [Table("topology_report.csv", ["check", "passed", "checked", "detail"], rows)],
                  lines=[str(axioms), str(continuity)],
                  code=EXIT_OK if axioms.passed and continuity.passed else EXIT_VERIFICATION)


def _cmd_check_preferences(args, config: RunConfig) -> Report:
    rel = config.relation
    _need(rel is not None, "check-preferences needs points plus pairs or utility")
    reports = [preferences.check_reflexive(rel), preferences.check_complete(rel),
               preferences.check_transitive(rel), preferences.check_monotone(rel)]
    tables = [Table("preference_report.csv", ["check", "passed", "checked", "detail"],
                    [[r.name, r.passed, r.checked, r.detail] for r in reports], echo=False)]
    if reports[1].passed and reports[2].passed:  # rational
        ranks = preferences.construct_ordinal_utility(rel)
        rank_rows = [[i] + [c for c in rel.grid.coords[i]] + [ranks.ranks[i]]
                     for i in range(rel.grid.size)]
        header = ["point"] + [f"coord_{d}" for d in range(rel.grid.dims)] + ["rank"]
        tables.append(Table("preference_ranks.csv", header, rank_rows))
    return Report("check-preferences", tables, lines=[str(r) for r in reports],
                  code=EXIT_OK if all(r.passed for r in reports[:3]) else EXIT_VERIFICATION)


def _cmd_solve(args, config: RunConfig) -> Report:
    template = config.template
    _need(template is not None and template.agents,
          "solve needs registry/base_space/fibers/agents")
    y_id = args.fiber or template.base.points[0]
    economy = template.economy_at(y_id, template.agents)
    result = equilibrium.solve_tatonnement(
        economy, tol=template.solver_tol, max_iter=template.solver_max_iter)
    # a solve to a looser tol than the index's own clearing test gets no index
    if result.converged and result.residual <= equilibrium.INDEX_RESIDUAL_TOL:
        try:
            result.index = equilibrium.equilibrium_index(economy, result.prices)
        except SingularJacobian:
            pass
    for warning in economy.warnings:
        print(f"warning: {warning}", file=sys.stderr)

    rows = [["price", "", dim, float(v)]
            for dim, v in zip(economy.dims, result.prices.values)]
    for agent in economy.agents:
        bundle = result.allocations[agent.id]
        for dim, q in zip(economy.dims, bundle.coords):
            rows.append(["allocation", agent.id, dim, float(q)])
    rows.append(["residual", "", "", result.residual])
    rows.append(["iterations", "", "", result.iterations])
    rows.append(["converged", "", "", result.converged])
    rows.append(["index", "", "", "" if result.index is None else result.index])
    return Report(f"solve --fiber {y_id}",
                  [Table(f"solve_{y_id}.csv", ["record", "agent", "dimension", "value"], rows)],
                  code=EXIT_OK if result.converged else EXIT_NO_CONVERGENCE)


def _cmd_trace(args, config: RunConfig) -> Report:
    template = config.template
    _need(config.path is not None and config.profile is not None
          and template is not None and template.agents,
          "trace needs registry/path/profile/agents")
    records = scenarios.run_slavery_eras(template, config.path, config.profile)

    rows = []
    for rec in records:
        for agent_id, bundle in sorted(rec.result.allocations.items()):
            for dim, q in zip(rec.result.prices.dims, bundle.coords):
                rows.append([rec.t, rec.y_id, agent_id, dim, float(q)])
    summary = []
    for rec in records:
        volume_note = ";".join(f"{g}={output.fmt(v)}" for g, v in sorted(rec.volumes.items()))
        summary.append([rec.t, rec.y_id, rec.result.residual, rec.result.converged,
                        rec.duty_share, volume_note])

    def series():
        # one series per agent and dimension, at 0 on steps whose fiber lacks it
        dims = [rec.result.prices.dims for rec in records]
        return [(f"{a}:{d}", [rec.t for rec in records],
                 [float(rec.result.allocations[a].coords[ds.index(d)]) if d in ds else 0.0
                  for rec, ds in zip(records, dims)])
                for a in sorted(records[0].result.allocations)
                for d in sorted(set().union(*dims))]

    return Report(
        "trace" if args.command == "trace" else "scenario slavery",
        [Table("trace.csv", ["t", "y_id", "agent", "dimension", "quantity"], rows, echo=False),
         Table("trace_summary.csv",
               ["t", "y_id", "residual", "converged", "duty_share", "volumes"], summary)],
        chart=Chart("trace.svg", series, "allocations along the path", "t", "quantity"),
        code=EXIT_OK if all(rec.result.converged for rec in records) else EXIT_NO_CONVERGENCE)


def _cmd_sugar(args, config: RunConfig) -> Report:
    sugar = config.sugar
    _need(sugar is not None, "scenario sugar needs a scenarios.sugar section")
    report = scenarios.run_sugar(sugar)
    phi_star = (scenarios.estimate_critical_mass(sugar).phi_star
                if args.estimate_critical_mass else None)

    rows = [[t, share, share >= sugar.viability_threshold]
            for t, share in enumerate(report.shares)]
    summary_rows = [[report.survived,
                     "" if report.collapse_period is None else report.collapse_period,
                     sugar.phi,
                     "" if phi_star is None else phi_star]]
    return Report("scenario sugar", [
        Table("sugar_shares.csv", ["period", "share", "viable"], rows),
        Table("sugar_summary.csv", ["survived", "collapse_period", "phi", "phi_star"],
              summary_rows),
    ], chart=Chart("sugar.svg",
                   lambda: [("ethical share", list(range(len(report.shares))), report.shares)],
                   "ethical market share", "period", "share"))


def _cmd_veblen(args, config: RunConfig) -> Report:
    probe, template = config.veblen, config.template
    _need(probe is not None and template is not None,
          "scenario veblen needs registry/scenarios.veblen")
    agent = next(a for a in template.agents if a.id == probe.agent_id)
    economy = template.economy_at(probe.y_id, [agent])
    sweep = np.linspace(probe.sweep_lo, probe.sweep_hi, probe.sweep_count)
    curve = scenarios.veblen_demand_curve(agent, economy.fiber, probe.duty_id, sweep,
                                          economy.initial_prices())
    return Report("scenario veblen", [
        Table("veblen_demand.csv", ["price", "quantity"],
              list(zip(curve.prices, curve.quantities))),
        Table("veblen_segments.csv", ["price_lo", "price_hi"],
              [[lo, hi] for lo, hi in curve.increasing_segments]),
    ], chart=Chart("veblen.svg", lambda: [(probe.duty_id, curve.prices, curve.quantities)],
                   "duty demand vs own price", "price", "quantity"))


def _cmd_sweep(args, config: RunConfig) -> Report:
    _need(config.sugar is not None and config.sweep is not None,
          "sweep needs scenarios.sugar and scenarios.sweep sections")
    rows = scenarios.sugar_sweep(config.sugar, config.sweep.phis, config.sweep.premiums)
    return Report("sweep", [Table("sugar_sweep.csv",
                                  ["phi", "premium", "share_pre_shock", "survived"], rows)])


SCENARIOS = {"sugar": _cmd_sugar, "slavery": _cmd_trace, "veblen": _cmd_veblen}


if __name__ == "__main__":
    sys.exit(main())

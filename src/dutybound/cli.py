"""Command-line entry point.

Subcommands: check-topology, check-preferences, solve, trace,
scenario {sugar|slavery|veblen}, sweep. Exit codes: 0 success,
2 verification failure, 3 solver non-convergence, 4 configuration error.

Every command reads its input file, check-preferences' relation file too,
through ``config.parse_and_validate``: one reader and one number rule.

Every run writes its CSV artifacts plus a manifest into the output
directory and prints the main table to stdout. Identical config and seed
give byte-identical CSV output.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

import numpy as np

from . import equilibrium, output, preferences, scenarios, topology
from .config import RunConfig, parse_and_validate
from .errors import DutyModelError, ParseError, SingularJacobian, ValidationErrors

EXIT_OK = 0
EXIT_VERIFICATION = 2
EXIT_NO_CONVERGENCE = 3
EXIT_CONFIG = 4


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dutybound",
        description="Duty-constrained exchange economies over ethical regimes.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check-topology", help="verify the base-space topology axioms")
    p.add_argument("--config", required=True)
    p.add_argument("--out", default=None)

    p = sub.add_parser("check-preferences", help="check rationality axioms of a relation")
    p.add_argument("--relation", dest="config", required=True,
                   help="relation file (points + pairs or utility)")
    p.add_argument("--out", default=None)

    p = sub.add_parser("solve", help="solve one fiber's equilibrium")
    p.add_argument("--config", required=True)
    p.add_argument("--fiber", default=None, help="base point id (default: first)")
    p.add_argument("--out", default=None)

    p = sub.add_parser("trace", help="run the configured path and trace equilibria")
    p.add_argument("--config", required=True)
    p.add_argument("--svg", default=None, help="write an allocation-vs-step chart here")
    p.add_argument("--out", default=None)

    p = sub.add_parser("scenario", help="run a packaged experiment")
    p.add_argument("which", choices=["sugar", "slavery", "veblen"])
    p.add_argument("--config", required=True)
    p.add_argument("--estimate-critical-mass", action="store_true")
    p.add_argument("--svg", default=None)
    p.add_argument("--out", default=None)

    p = sub.add_parser("sweep", help="sugar-share sweep over a phi x premium lattice")
    p.add_argument("--config", required=True)
    p.add_argument("--out", default=None)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    started = time.perf_counter()
    try:
        config = parse_and_validate(args.config)
        if args.out:
            config.output_dir = args.out
        if args.command == "check-topology":
            return _cmd_check_topology(args, config, started)
        if args.command == "check-preferences":
            return _cmd_check_preferences(config, started)
        if args.command == "solve":
            return _cmd_solve(args, config, started)
        if args.command == "trace":
            return _cmd_trace(args, config, started, command="trace")
        if args.command == "scenario":
            if args.which == "sugar":
                return _cmd_sugar(args, config, started)
            if args.which == "slavery":
                return _cmd_trace(args, config, started, command="scenario slavery")
            return _cmd_veblen(args, config, started)
        if args.command == "sweep":
            return _cmd_sweep(args, config, started)
        raise AssertionError(args.command)
    except (ParseError, ValidationErrors) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except DutyModelError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


def _emit(outdir, name: str, header, rows) -> tuple[Path, str]:
    text = output.csv_text(header, rows)
    path = Path(outdir) / name
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text, newline="")
    return path, text


def _svg(args, config: RunConfig, name: str, series, **labels) -> list[Path]:
    """Chart the list that ``series()`` builds into ``--svg``, or into
    ``name`` in the output directory when the config lists svg among its
    formats; the written path, if any, as a list. ``series`` is called only
    when a chart is written."""
    if not (args.svg or "svg" in config.output_formats):
        return []
    path = Path(args.svg) if args.svg else Path(config.output_dir) / name
    output.write_svg(path, output.svg_line_chart(series(), **labels))
    return [path]


def _finish(config: RunConfig, command: str, outputs: list[Path], started: float) -> None:
    output.write_manifest(config.output_dir, command, config.source_path,
                          config.seed, [p.name for p in outputs], started)


def _cmd_check_topology(args, config: RunConfig, started: float) -> int:
    if config.base is None:
        print("config error: check-topology needs a base_space section", file=sys.stderr)
        return EXIT_CONFIG
    base = config.base
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
    path, text = _emit(config.output_dir, "topology_report.csv",
                       ["check", "passed", "checked", "detail"], rows)
    print(str(axioms))
    print(str(continuity))
    print(text, end="")
    _finish(config, "check-topology", [path], started)
    return EXIT_OK if axioms.passed and continuity.passed else EXIT_VERIFICATION


def _cmd_check_preferences(config: RunConfig, started: float) -> int:
    rel = config.relation
    if rel is None:
        print("config error: check-preferences needs points plus pairs or utility",
              file=sys.stderr)
        return EXIT_CONFIG
    reports = [preferences.check_reflexive(rel), preferences.check_complete(rel),
               preferences.check_transitive(rel), preferences.check_monotone(rel)]
    for report in reports:
        print(str(report))
    rational = reports[1].passed and reports[2].passed

    rows = [[r.name, r.passed, r.checked, r.detail] for r in reports]
    path, _ = _emit(config.output_dir, "preference_report.csv",
                    ["check", "passed", "checked", "detail"], rows)
    outputs = [path]
    if rational:
        ranks = preferences.construct_ordinal_utility(rel)
        rank_rows = [[i] + [c for c in rel.grid.coords[i]] + [ranks.ranks[i]]
                     for i in range(rel.grid.size)]
        header = ["point"] + [f"coord_{d}" for d in range(rel.grid.dims)] + ["rank"]
        rank_path, text = _emit(config.output_dir, "preference_ranks.csv", header, rank_rows)
        print(text, end="")
        outputs.append(rank_path)
    _finish(config, "check-preferences", outputs, started)
    return EXIT_OK if all(r.passed for r in reports[:3]) else EXIT_VERIFICATION


def _cmd_solve(args, config: RunConfig, started: float) -> int:
    template = config.template
    if template is None or not template.agents:
        print("config error: solve needs registry/base_space/fibers/agents", file=sys.stderr)
        return EXIT_CONFIG
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
    path, text = _emit(config.output_dir, f"solve_{y_id}.csv",
                       ["record", "agent", "dimension", "value"], rows)
    print(text, end="")
    _finish(config, f"solve --fiber {y_id}", [path], started)
    return EXIT_OK if result.converged else EXIT_NO_CONVERGENCE


def _cmd_trace(args, config: RunConfig, started: float, command: str) -> int:
    template = config.template
    if config.path is None or config.profile is None or template is None or not template.agents:
        print("config error: trace needs registry/path/profile/agents", file=sys.stderr)
        return EXIT_CONFIG
    records = scenarios.run_slavery_eras(template, config.path, config.profile)

    rows = []
    for rec in records:
        for agent_id, bundle in sorted(rec.result.allocations.items()):
            for dim, q in zip(rec.result.prices.dims, bundle.coords):
                rows.append([rec.t, rec.y_id, agent_id, dim, float(q)])
    path, text = _emit(config.output_dir, "trace.csv",
                       ["t", "y_id", "agent", "dimension", "quantity"], rows)

    summary = []
    for rec in records:
        volume_note = ";".join(f"{g}={output.fmt(v)}" for g, v in sorted(rec.volumes.items()))
        summary.append([rec.t, rec.y_id, rec.result.residual, rec.result.converged,
                        rec.duty_share, volume_note])
    spath, stext = _emit(config.output_dir, "trace_summary.csv",
                         ["t", "y_id", "residual", "converged", "duty_share", "volumes"],
                         summary)
    print(stext, end="")

    def series():
        # one series per agent and dimension, at 0 on steps whose fiber lacks it
        dims = [rec.result.prices.dims for rec in records]
        return [(f"{a}:{d}", [rec.t for rec in records],
                 [float(rec.result.allocations[a].coords[ds.index(d)]) if d in ds else 0.0
                  for rec, ds in zip(records, dims)])
                for a in sorted(records[0].result.allocations)
                for d in sorted(set().union(*dims))]

    outputs = [path, spath, *_svg(args, config, "trace.svg", series,
                                  title="allocations along the path",
                                  xlabel="t", ylabel="quantity")]
    _finish(config, command, outputs, started)
    ok = all(rec.result.converged for rec in records)
    return EXIT_OK if ok else EXIT_NO_CONVERGENCE


def _cmd_sugar(args, config: RunConfig, started: float) -> int:
    if config.sugar is None:
        print("config error: scenario sugar needs a scenarios.sugar section", file=sys.stderr)
        return EXIT_CONFIG
    report = scenarios.run_sugar(config.sugar)
    phi_star = (scenarios.estimate_critical_mass(config.sugar).phi_star
                if args.estimate_critical_mass else None)

    rows = [[t, share, share >= config.sugar.viability_threshold]
            for t, share in enumerate(report.shares)]
    path, text = _emit(config.output_dir, "sugar_shares.csv", ["period", "share", "viable"], rows)
    summary_header = ["survived", "collapse_period", "phi", "phi_star"]
    summary_rows = [[report.survived,
                     "" if report.collapse_period is None else report.collapse_period,
                     config.sugar.phi,
                     "" if phi_star is None else phi_star]]
    spath, stext = _emit(config.output_dir, "sugar_summary.csv", summary_header, summary_rows)
    print(text, end="")
    print(stext, end="")
    outputs = [path, spath, *_svg(
        args, config, "sugar.svg",
        lambda: [("ethical share", list(range(len(report.shares))), report.shares)],
        title="ethical market share", xlabel="period", ylabel="share")]
    _finish(config, "scenario sugar", outputs, started)
    return EXIT_OK


def _cmd_veblen(args, config: RunConfig, started: float) -> int:
    probe, template = config.veblen, config.template
    if probe is None or template is None:
        print("config error: scenario veblen needs registry/scenarios.veblen", file=sys.stderr)
        return EXIT_CONFIG
    agent = next(a for a in template.agents if a.id == probe.agent_id)
    economy = template.economy_at(probe.y_id, [agent])
    sweep = np.linspace(probe.sweep_lo, probe.sweep_hi, probe.sweep_count)
    curve = scenarios.veblen_demand_curve(agent, economy.fiber, probe.duty_id, sweep,
                                          economy.initial_prices())

    rows = list(zip(curve.prices, curve.quantities))
    path, text = _emit(config.output_dir, "veblen_demand.csv", ["price", "quantity"], rows)
    seg_rows = [[lo, hi] for lo, hi in curve.increasing_segments]
    spath, stext = _emit(config.output_dir, "veblen_segments.csv", ["price_lo", "price_hi"],
                         seg_rows)
    print(text, end="")
    print(stext, end="")
    outputs = [path, spath, *_svg(args, config, "veblen.svg",
                                  lambda: [(probe.duty_id, curve.prices, curve.quantities)],
                                  title="duty demand vs own price",
                                  xlabel="price", ylabel="quantity")]
    _finish(config, "scenario veblen", outputs, started)
    return EXIT_OK


def _cmd_sweep(args, config: RunConfig, started: float) -> int:
    if config.sugar is None or config.sweep is None:
        print("config error: sweep needs scenarios.sugar and scenarios.sweep sections",
              file=sys.stderr)
        return EXIT_CONFIG
    rows = scenarios.sugar_sweep(config.sugar, config.sweep.phis, config.sweep.premiums)
    path, text = _emit(config.output_dir, "sugar_sweep.csv",
                       ["phi", "premium", "share_pre_shock", "survived"], rows)
    print(text, end="")
    _finish(config, "sweep", [path], started)
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())

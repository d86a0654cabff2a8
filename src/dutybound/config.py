"""Run-configuration ingestion and validation.

One JSON file describes a whole run: the maxim registry, the base space and
its fibers, the agents, solver settings, an optional path/profile, and the
scenario sections; the economy sections become one ``EconomyTemplate``. A
``check-preferences`` relation file (points plus pairs or a utility spec) is
read the same way, into ``RunConfig.relation``. Parsing collects every
validation failure it can find before giving up, so a bad config reports
all its problems at once.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from importlib import resources
from pathlib import Path
from typing import Any, Mapping

import numpy as np

from .duty import _is_number, load_registry
from .economy import Agent, UtilityFamily, UtilitySpec
from .equilibrium import DEFAULT_MAX_ITER, DEFAULT_TOL
from .errors import DutyModelError, ParseError, ValidationErrors
from .preferences import ChoiceGrid, PreferenceRelation, axiom1_utility, induced_relation
from .scenarios import SugarMarketConfig
from .topology import BaseSpace
from .transition import BasePath, EconomyTemplate, FiberSpec, GenerationProfile, build_path


@dataclass(frozen=True)
class VeblenProbeConfig:
    agent_id: str
    y_id: str
    duty_id: str
    sweep_lo: float
    sweep_hi: float
    sweep_count: int = 26


@dataclass(frozen=True)
class SweepConfig:
    phis: tuple[float, ...]
    premiums: tuple[float, ...]


@dataclass
class RunConfig:
    seed: int = 0
    base: BaseSpace | None = None
    opens: tuple[frozenset[str], ...] | None = None  # explicit topology override
    # registry, fibers, agents and solver settings; None without registry/base_space
    template: EconomyTemplate | None = None
    path: BasePath | None = None
    profile: GenerationProfile | None = None
    sugar: SugarMarketConfig | None = None
    veblen: VeblenProbeConfig | None = None
    sweep: SweepConfig | None = None
    relation: PreferenceRelation | None = None
    output_dir: str = "out"
    output_formats: tuple[str, ...] = ("csv",)
    source_path: str | None = None


def _numbers(section, key: str) -> tuple[float, ...]:
    """``section[key]``, a list of finite numbers, as floats; else a TypeError."""
    values = section[key]
    if not (isinstance(values, list) and all(map(_is_number, values))):
        raise TypeError(f"{key}: must be a list of numbers, got {values!r}")
    return tuple(float(v) for v in values)


def _is_id_list(value) -> bool:
    return isinstance(value, list) and all(isinstance(v, str) for v in value)


def _reject_duplicate_keys(pairs):
    seen = {}
    for key, value in pairs:
        if key in seen:
            raise ParseError(f"key {key!r}", "duplicate key in one object")
        seen[key] = value
    return seen


def _reject_non_finite(literal: str):
    raise ParseError(f"literal {literal}", "not a finite number")


def parse_and_validate(path: str | Path) -> RunConfig:
    """Load a config file, resolving every cross-reference.

    Raises ParseError for unreadable/invalid JSON and ValidationErrors with
    the complete list of problems for a well-formed but inconsistent tree.
    """
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise ParseError(str(path), str(exc)) from None
    try:
        tree = json.loads(text, object_pairs_hook=_reject_duplicate_keys,
                          parse_constant=_reject_non_finite)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}:{exc.lineno}:{exc.colno}", exc.msg) from None
    if not isinstance(tree, Mapping):
        raise ParseError(str(path), "top level must be an object")
    config = validate_tree(tree)
    config.source_path = str(path)
    return config


def validate_tree(tree: Mapping[str, Any]) -> RunConfig:
    errors: list[str] = []
    config = RunConfig()

    seed = tree.get("seed", 0)
    if _is_number(seed) and isinstance(seed, int) and seed >= 0:
        config.seed = seed
    else:
        errors.append(f"seed: must be a non-negative integer, got {seed!r}")

    registry = None
    if "registry" in tree:
        if not isinstance(tree["registry"], Mapping):
            errors.append("registry: must be an object")
        else:
            try:
                registry = load_registry(tree["registry"])
            except DutyModelError as exc:
                errors.append(f"registry: {exc}")

    if "base_space" in tree:
        try:
            points = tuple(str(p) for p in tree["base_space"])
            config.base = BaseSpace(points=points)
            if registry is not None:
                for y in points:
                    if y not in registry.bundles:
                        errors.append(f"base_space: no bundle declared for {y!r}")
        except (DutyModelError, TypeError, ValueError) as exc:
            errors.append(f"base_space: {exc}")

    if "topology" in tree:
        section = tree["topology"]
        try:
            opens = tuple(frozenset(str(y) for y in subset)
                          for subset in section["opens"])
        except (KeyError, TypeError) as exc:
            errors.append(f"topology: {exc!r}")
        else:
            if config.base is None:
                errors.append("topology: needs a base_space section")
            else:
                points = set(config.base.points)
                for subset in opens:
                    for y in subset - points:
                        errors.append(f"topology.opens: unknown base point {y!r}")
                config.opens = opens

    specs = _validate_fibers(tree, registry, config.base, errors)
    agents = _validate_agents(tree, registry, errors)
    tol, max_iter = _validate_solver(tree, errors)
    if registry is not None and config.base is not None:
        try:
            config.template = EconomyTemplate(
                registry=registry, base=config.base, fiber_specs=specs,
                agents=agents, solver_tol=tol, solver_max_iter=max_iter)
        except ValidationErrors as exc:
            errors.extend(exc.errors)
    _validate_path(tree, config, errors)
    _validate_scenarios(tree, config, agents, specs, errors)
    _validate_relation(tree, config, errors)

    out = tree.get("output", {})
    if isinstance(out, Mapping):
        config.output_dir = str(out.get("directory", "out"))
        formats = out.get("formats", ["csv"])
        if isinstance(formats, list) and all(f in ("csv", "svg") for f in formats):
            config.output_formats = tuple(formats)
        else:
            errors.append("output.formats: must be a list drawn from ['csv', 'svg']")
    else:
        errors.append("output: must be an object")

    if errors:
        raise ValidationErrors(errors)
    return config


def _validate_fibers(tree, registry, base, errors) -> dict[str, FiberSpec]:
    """The declared fibers by base point; compiling them is the template's."""
    section = tree.get("fibers", {})
    if not isinstance(section, Mapping):
        errors.append("fibers: must be an object keyed by base point")
        return {}
    specs: dict[str, FiberSpec] = {}
    for y_id, spec in section.items():
        where = f"fibers.{y_id}"
        if not isinstance(spec, Mapping):
            errors.append(f"{where}: must be an object")
            continue
        goods, duties = spec.get("goods", []), spec.get("duties", [])
        duty_prices = spec.get("duty_prices", {})
        malformed = [f"{where}.{key}: must be a list of ids"
                     for key, ids in (("goods", goods), ("duties", duties))
                     if not _is_id_list(ids)]
        if not isinstance(duty_prices, Mapping):
            malformed.append(f"{where}.duty_prices: must be an object")
        if malformed:
            errors.extend(malformed)
            continue
        goods, duties, duty_prices = tuple(goods), tuple(duties), dict(duty_prices)
        if not goods:
            errors.append(f"{where}: needs at least one good")
            continue
        if registry is not None:
            for g in goods:
                if g not in registry.goods:
                    errors.append(f"{where}: unknown good {g!r}")
            for d in duties:
                if d not in registry.imperfect_duties:
                    errors.append(f"{where}: unknown duty {d!r}")
        for d, p in duty_prices.items():
            if d not in duties:
                errors.append(f"{where}.duty_prices: {d!r} is not a duty of this fiber")
            elif not (_is_number(p) and p > 0):
                errors.append(f"{where}.duty_prices: price of {d!r} must be a positive number")
        specs[str(y_id)] = FiberSpec(goods=goods, duties=duties, duty_prices=duty_prices)
    if base is not None:
        for y in base.points:
            if y not in specs:
                errors.append(f"fibers: base point {y!r} has no fiber")
    return specs


def _validate_agents(tree, registry, errors) -> tuple[Agent, ...]:
    section = tree.get("agents", [])
    if not isinstance(section, list):
        errors.append("agents: must be a list")
        return ()
    agents: list[Agent] = []
    seen: set[str] = set()
    for i, spec in enumerate(section):
        where = f"agents[{i}]"
        if not isinstance(spec, Mapping) or "id" not in spec:
            errors.append(f"{where}: must be an object with an 'id'")
            continue
        agent_id = str(spec["id"])
        if agent_id in seen:
            errors.append(f"{where}: duplicate agent id {agent_id!r}")
            continue
        seen.add(agent_id)
        uspec = spec.get("utility", {})
        if not isinstance(uspec, Mapping):
            errors.append(f"{where}.utility: must be an object")
            continue
        maps = {"endowment": spec.get("endowment", {}),
                **{f"utility.{key}": uspec.get(key, {}) for key in ("alpha", "beta", "p_bar")}}
        malformed = [f"{where}.{key}: must map ids to numbers"
                     for key, values in maps.items()
                     if not (isinstance(values, Mapping) and all(map(_is_number, values.values())))]
        malformed += [f"{where}.{key}: must be a number, got {spec[key]!r}"
                      for key in ("lambda", "theta") if key in spec and not _is_number(spec[key])]
        if malformed:
            errors.extend(malformed)
            continue
        try:
            family = UtilityFamily(uspec.get("family", "COBB_DOUGLAS_EXTENDED"))
        except ValueError:
            errors.append(f"{where}.utility.family: unknown family {uspec.get('family')!r}")
            continue
        try:
            utility = UtilitySpec(family=family, alpha=dict(maps["utility.alpha"]),
                                  beta=dict(maps["utility.beta"]),
                                  reference_premium=dict(maps["utility.p_bar"]))
            agent = Agent(id=agent_id, endowment=dict(maps["endowment"]),
                          utility=utility, lam=float(spec.get("lambda", 0.0)),
                          theta=float(spec.get("theta", 0.0)))
        except (DutyModelError, ValueError, TypeError) as exc:
            errors.append(f"{where}: {exc}")
            continue
        if registry is not None:
            for g in list(agent.endowment) + list(utility.alpha):
                if g not in registry.goods:
                    errors.append(f"{where}: unknown good {g!r}")
            for d in list(utility.beta) + list(utility.reference_premium):
                if d not in registry.imperfect_duties:
                    errors.append(f"{where}: unknown duty {d!r}")
        agents.append(agent)
    return tuple(agents)


def _validate_solver(tree, errors) -> tuple[float, int]:
    """Reads ``tol`` and ``max_iter``. Other keys are ignored, among them the
    ``step`` that older configs carry: the fallback's first step is
    ``equilibrium.FALLBACK_STEP``."""
    solver = tree.get("solver", {})
    if not isinstance(solver, Mapping):
        errors.append("solver: must be an object")
        return DEFAULT_TOL, DEFAULT_MAX_ITER
    tol = solver.get("tol", DEFAULT_TOL)
    max_iter = solver.get("max_iter", DEFAULT_MAX_ITER)
    if not (_is_number(tol) and tol > 0):
        errors.append(f"solver.tol: must be positive, got {tol!r}")
    if not (_is_number(max_iter) and isinstance(max_iter, int) and max_iter >= 1):
        errors.append(f"solver.max_iter: must be a positive integer, got {max_iter!r}")
    return tol, max_iter


def _validate_path(tree, config, errors):
    if "path" in tree:
        if config.base is None:
            errors.append("path: needs a base_space section")
        else:
            try:
                config.path = build_path(tree["path"], config.base)
            except (DutyModelError, TypeError, ValueError, IndexError) as exc:
                errors.append(f"path: {exc}")
    if "profile" in tree:
        prof = tree["profile"] if isinstance(tree["profile"], Mapping) else {}
        try:
            if "lambdas" in prof:
                config.profile = GenerationProfile(lambdas=_numbers(prof, "lambdas"))
            elif "scarcity" in prof:
                lam_max = prof.get("lambda_max", 1.0)
                if not _is_number(lam_max):
                    raise TypeError(f"lambda_max: must be a number, got {lam_max!r}")
                config.profile = GenerationProfile.from_scarcity(
                    float(lam_max), _numbers(prof, "scarcity"))
            else:
                errors.append("profile: needs 'lambdas' or 'scarcity'")
        except (TypeError, ValueError) as exc:
            errors.append(f"profile: {exc}")
    if config.path is not None and config.profile is not None:
        if len(config.profile.lambdas) != len(config.path.steps):
            errors.append(f"profile: {len(config.profile.lambdas)} lambda values for "
                          f"{len(config.path.steps)} path steps")


def _validate_scenarios(tree, config, agents, specs, errors):
    section = tree.get("scenarios", {})
    if not isinstance(section, Mapping):
        errors.append("scenarios: must be an object")
        return
    if "sugar" in section:
        raw = section["sugar"]
        fields = SugarMarketConfig.__dataclass_fields__
        if not isinstance(raw, Mapping):
            errors.append("scenarios.sugar: must be an object")
        elif set(raw) - set(fields):
            errors.append(f"scenarios.sugar: unknown keys {sorted(set(raw) - set(fields))}")
        else:
            raw = {"seed": tree.get("seed", 12345), **raw}
            # every field is a number, and one that defaults to an integer is a count
            counts = {key for key, f in fields.items() if isinstance(f.default, int)}
            wrong = [key for key, value in raw.items()
                     if not _is_number(value) or (key in counts and not isinstance(value, int))]
            errors.extend(f"scenarios.sugar.{key}: must be "
                          f"{'an integer' if key in counts else 'a number'}, got {raw[key]!r}"
                          for key in wrong)
            if not wrong:
                try:
                    config.sugar = SugarMarketConfig(**raw)
                except (ValueError, TypeError) as exc:
                    errors.append(f"scenarios.sugar: {exc}")
    if "veblen" in section:
        raw = section["veblen"]
        try:
            sweep = raw["sweep"]
            probe = VeblenProbeConfig(
                agent_id=str(raw["agent"]), y_id=str(raw["fiber"]),
                duty_id=str(raw["duty"]), sweep_lo=sweep["lo"], sweep_hi=sweep["hi"],
                sweep_count=sweep.get("count", 26))
        except (KeyError, TypeError) as exc:
            errors.append(f"scenarios.veblen: {exc!r}")
        else:
            lo, hi, count = probe.sweep_lo, probe.sweep_hi, probe.sweep_count
            if not (_is_number(lo) and _is_number(hi) and 0 < lo < hi):
                errors.append(f"scenarios.veblen.sweep: need numbers 0 < lo < hi, "
                              f"got {lo!r} and {hi!r}")
            if not (_is_number(count) and isinstance(count, int) and count >= 2):
                errors.append(f"scenarios.veblen.sweep.count: need an integer of at least 2, "
                              f"got {count!r}")
            if probe.agent_id not in {a.id for a in agents}:
                errors.append(f"scenarios.veblen: unknown agent {probe.agent_id!r}")
            if specs and probe.y_id not in specs:
                errors.append(f"scenarios.veblen: unknown fiber {probe.y_id!r}")
            elif specs and probe.duty_id not in specs[probe.y_id].duties:
                errors.append(f"scenarios.veblen: {probe.duty_id!r} is not a duty of "
                              f"fiber {probe.y_id!r}")
            config.veblen = probe
    if "sweep" in section:
        raw = section["sweep"]
        try:
            config.sweep = SweepConfig(phis=_numbers(raw, "phis"),
                                       premiums=_numbers(raw, "premiums"))
        except (KeyError, TypeError) as exc:
            errors.append(f"scenarios.sweep: {exc!r}")
        else:
            if not all(0 <= p <= 1 for p in config.sweep.phis):
                errors.append("scenarios.sweep.phis: shares must lie in [0, 1]")
            if config.sugar is not None and not all(
                    config.sugar.price_conventional + p > 0 for p in config.sweep.premiums):
                errors.append("scenarios.sweep.premiums: each must exceed "
                              "-price_conventional, so that the ethical price is positive")


def _validate_relation(tree, config, errors):
    """A relation file's ``points``, rows of numbers of one width, and
    exactly one of ``pairs`` (``[a, b]``: point a is weakly preferred to
    point b, by integer index below the point count) and ``utility`` (one
    weight per point coordinate: ``alpha`` on the first ones, ``beta`` on
    the rest, both empty by default, and ``lambda``, 1 by default)."""
    if not {"points", "pairs", "utility"} & set(tree):
        return
    points = tree.get("points")
    if not (isinstance(points, list) and all(
            isinstance(row, list) and row and all(map(_is_number, row)) for row in points)
            and len({len(row) for row in points}) == 1):
        errors.append("points: must be a non-empty list of rows of numbers of one width")
        return
    try:
        grid = ChoiceGrid(coords=np.array(points, dtype=float))
    except (DutyModelError, ValueError) as exc:
        errors.append(f"points: {exc}")
        return
    if ("pairs" in tree) == ("utility" in tree):
        errors.append("relation: needs exactly one of 'pairs' and 'utility'")
    elif "pairs" in tree:
        pairs = tree["pairs"]
        bad = [pair for pair in (pairs if isinstance(pairs, list) else [pairs]) if not (
            isinstance(pair, list) and len(pair) == 2 and all(
                isinstance(i, int) and not isinstance(i, bool) and 0 <= i < grid.size
                for i in pair))]
        if bad:
            errors.append(f"pairs: must be a list of [a, b] with integer indices "
                          f"0 <= i < {grid.size}, got {bad[0]!r}")
            return
        holds = np.zeros((grid.size, grid.size), dtype=bool)
        for a, b in pairs:
            holds[a, b] = True
        config.relation = PreferenceRelation(grid=grid, holds=holds)
    else:
        spec = tree["utility"]
        try:
            spec = {"alpha": [], "beta": [], "lambda": 1.0, **spec}
            alpha, beta = (np.array(_numbers(spec, key)) for key in ("alpha", "beta"))
            lam = spec["lambda"]
            if not _is_number(lam):
                raise TypeError(f"lambda: must be a number, got {lam!r}")
            if alpha.size + beta.size != grid.dims:
                raise ValueError(f"{alpha.size} alpha and {beta.size} beta weights for "
                                 f"{grid.dims} point coordinates")
            config.relation = induced_relation(
                lambda x: axiom1_utility(x[: alpha.size], x[alpha.size:], alpha, beta,
                                         float(lam)),
                grid)
        except (DutyModelError, TypeError, ValueError) as exc:
            errors.append(f"utility: {exc}")


def packaged_config_path(name: str) -> Path:
    """Filesystem path of a bundled example configuration."""
    return Path(str(resources.files("dutybound").joinpath("configs", f"{name}.json")))


def load_packaged_config(name: str) -> RunConfig:
    return parse_and_validate(packaged_config_path(name))

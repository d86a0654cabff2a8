"""Configuration parsing/validation and the command-line surface."""

import copy
import json
import math

import pytest

import dutybound
from dutybound import transition
from dutybound.cli import main
from dutybound.config import (
    load_packaged_config,
    packaged_config_path,
    parse_and_validate,
    validate_tree,
)
from dutybound.duty import compile_constraints
from dutybound.economy import ExtendedBundle
from dutybound.errors import ParseError, ValidationErrors


@pytest.fixture
def write_config(tmp_path):
    def _write(tree, name="run.json"):
        """``tree`` as JSON, or as it stands if it is already text."""
        path = tmp_path / name
        path.write_text(tree if isinstance(tree, str) else json.dumps(tree))
        return path
    return _write


def minimal_tree():
    return {
        "seed": 1,
        "registry": {
            "goods": ["g1", "g2"],
            "imperfect_duties": [],
            "maxims": {},
            "bundles": {"y1": {"label": "plain", "active": []}},
        },
        "base_space": ["y1"],
        "fibers": {"y1": {"goods": ["g1", "g2"], "duties": []}},
        "agents": [
            {"id": "A", "endowment": {"g1": 1.0},
             "utility": {"family": "COBB_DOUGLAS_EXTENDED",
                         "alpha": {"g1": 0.5, "g2": 0.5}}},
            {"id": "B", "endowment": {"g2": 1.0},
             "utility": {"family": "COBB_DOUGLAS_EXTENDED",
                         "alpha": {"g1": 0.5, "g2": 0.5}}},
        ],
        "solver": {"step": 0.2, "tol": 1e-09, "max_iter": 5000},
        "output": {"directory": "out", "formats": ["csv"]},
    }


def packaged_tree(name, **top_level):
    """A packaged config's tree with the given top-level entries replaced."""
    return {**json.loads(packaged_config_path(name).read_text()), **top_level}


def replaced(tree, path, value):
    """A copy of ``tree`` with the entry at ``path`` (keys and list indices)
    set to ``value``."""
    tree = copy.deepcopy(tree)
    node = tree
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return tree


def entry_paths(node, prefix=()):
    """The path of every entry of every object and list in a JSON tree."""
    entries = node.items() if isinstance(node, dict) else \
        enumerate(node) if isinstance(node, list) else ()
    for key, value in entries:
        yield prefix + (key,)
        yield from entry_paths(value, prefix + (key,))


def key_path(path):
    """A tree entry's path as the validator names it: ``agents[0].utility.beta``."""
    return "".join(f"[{key}]" if isinstance(key, int) else f".{key}" for key in path).lstrip(".")


def reported_at(errors, path):
    """Some error is reported at ``path`` or at an entry that contains it."""
    return any(key_path(path).startswith(error.split(":")[0]) for error in errors)


# (command, packaged config, entry, value): values validation used to let
# through, to a solver that ran on nan, a curve of nan rows or a misleading
# non-convergence
NON_FINITE = [
    (["solve", "--config"], "slavery", ("fibers", "y1", "duty_prices", "labor_rights"), math.nan),
    (["scenario", "veblen", "--config"], "veblen", ("scenarios", "veblen", "sweep", "hi"),
     math.inf),
    (["scenario", "veblen", "--config"], "veblen", ("scenarios", "veblen", "sweep", "lo"),
     -math.inf),
    (["solve", "--config"], "exchange", ("solver", "tol"), math.inf),
    (["solve", "--config"], "veblen", ("agents", 0, "theta"), math.inf),
    (["solve", "--config"], "veblen", ("agents", 0, "utility", "p_bar", "eco_label"), math.nan),
    (["solve", "--config"], "veblen", ("agents", 0, "lambda"), math.nan),
    (["trace", "--config"], "slavery", ("agents", 0, "utility", "beta", "labor_rights"), math.nan),
    (["solve", "--config"], "exchange", ("agents", 0, "utility", "alpha", "ale"), math.inf),
]

# check-preferences relation files that the command once answered, or
# crashed on with a traceback
POINTS3 = [[0.0], [1.0], [2.0]]
BAD_RELATIONS = {
    "pair-out-of-range": {"points": POINTS3, "pairs": [[9, 0]]},
    "pair-negative": {"points": POINTS3, "pairs": [[-1, -1]]},
    "pair-booleans": {"points": POINTS3, "pairs": [[True, False]]},
    "pair-fractions": {"points": POINTS3, "pairs": [[0.7, 1.2]]},
    "pair-of-three": {"points": POINTS3, "pairs": [[0, 1, 2]]},
    "lambda-text": {"points": [[0.0, 0.0], [1.0, 0.5]],
                    "utility": {"alpha": [0.5, 0.5], "lambda": "x"}},
    "alpha-short": {"points": [[0.0, 0.0], [1.0, 0.5]], "utility": {"alpha": [0.5]}},
    "ragged-points": {"points": [[0.0, 0.0], [1.0]], "pairs": [[0, 0]]},
    "text-coordinate": {"points": [[0.0, "1"], [1.0, 0.0]], "pairs": [[0, 0]]},
    "duplicate-points": {"points": [[1.0], [1.0]], "pairs": [[0, 0]]},
    "points-not-a-list": {"points": 5, "pairs": [[0, 0]]},
    "infinite-coordinate": {"points": [[0.0], [math.inf]], "pairs": [[0, 0]]},
    "duplicate-pairs-key": '{"points": [[0.0], [1.0]], "pairs": [[0, 0]], "pairs": [[1, 1]]}',
    "pairs-and-utility": {"points": POINTS3, "pairs": [[0, 0]], "utility": {"alpha": [1.0]}},
}

# (packaged config, entry, value): a boolean read as 1, or a fraction truncated
BOOL_OR_FRACTION = [
    ("slavery", ("fibers", "y1", "duty_prices", "labor_rights"), True),
    ("exchange", ("solver", "max_iter"), True),
    ("exchange", ("solver", "tol"), True),
    ("veblen", ("agents", 0, "lambda"), True),
    ("exchange", ("agents", 0, "endowment", "ale"), True),
    ("exchange", ("profile", "lambdas", 0), True),
    ("slavery", ("profile", "lambda_max"), True),
    ("sugar", ("scenarios", "sweep", "phis", 0), True),
    ("veblen", ("scenarios", "veblen", "sweep", "count"), 2.7),
    ("slavery", ("path", 0, 0), 0.7),
]


def sugar_with_premiums(premiums):
    tree = packaged_tree("sugar")
    tree["scenarios"]["sweep"]["premiums"] = premiums
    return tree


class TestParseAndValidate:
    @pytest.mark.parametrize("name", ["slavery", "exchange", "sugar", "veblen"])
    def test_packaged_configs_valid(self, name):
        config = load_packaged_config(name)
        assert config.source_path.endswith(f"{name}.json")

    def test_minimal_config_valid(self, write_config):
        config = parse_and_validate(write_config(minimal_tree()))
        assert config.seed == 1
        assert [a.id for a in config.template.agents] == ["A", "B"]
        assert config.template.solver_tol == 1e-09

    def test_unknown_good_reported_with_path(self, write_config):
        tree = minimal_tree()
        tree["agents"][0]["endowment"] = {"ghost": 1.0}
        with pytest.raises(ValidationErrors) as err:
            parse_and_validate(write_config(tree))
        assert any("agents[0]" in e and "ghost" in e for e in err.value.errors)

    def test_zero_tolerance_rejected(self, write_config):
        tree = minimal_tree()
        tree["solver"]["tol"] = 0
        with pytest.raises(ValidationErrors) as err:
            parse_and_validate(write_config(tree))
        assert any("solver.tol" in e for e in err.value.errors)

    @pytest.mark.parametrize("seed", [-1, True, 1.5, "7"])
    def test_seed_must_be_a_non_negative_integer(self, write_config, seed):
        tree = minimal_tree()
        tree["seed"] = seed
        with pytest.raises(ValidationErrors) as err:
            parse_and_validate(write_config(tree))
        assert any(e.startswith("seed: must be a non-negative integer") for e in err.value.errors)

    def test_all_errors_collected_not_just_first(self, write_config):
        tree = minimal_tree()
        tree["solver"]["tol"] = 0
        tree["agents"][1]["utility"]["alpha"] = {"ghost": 1.0}
        tree["fibers"]["y1"]["goods"] = ["g1", "nope"]
        with pytest.raises(ValidationErrors) as err:
            parse_and_validate(write_config(tree))
        assert len(err.value.errors) >= 3

    def test_missing_fiber_for_base_point(self, write_config):
        tree = minimal_tree()
        tree["base_space"] = ["y1", "y2"]
        tree["registry"]["bundles"]["y2"] = {"label": "second", "active": []}
        with pytest.raises(ValidationErrors) as err:
            parse_and_validate(write_config(tree))
        assert any("y2" in e and "fiber" in e for e in err.value.errors)

    def test_invalid_json_is_parse_error(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(ParseError):
            parse_and_validate(path)

    def test_duplicate_keys_rejected(self, tmp_path):
        path = tmp_path / "dup.json"
        path.write_text('{"seed": 1, "seed": 2}')
        with pytest.raises(ParseError):
            parse_and_validate(path)

    def test_missing_file_is_parse_error(self, tmp_path):
        with pytest.raises(ParseError):
            parse_and_validate(tmp_path / "absent.json")

    @pytest.mark.parametrize("name", ["slavery", "exchange", "sugar", "veblen"])
    def test_a_value_of_the_wrong_type_is_reported(self, name):
        """Every entry of a packaged config set in turn to each JSON type:
        the config is accepted or its problems are reported, and nothing
        else is raised."""
        tree = json.loads(packaged_config_path(name).read_text())
        raised = []
        for path in entry_paths(tree):
            for value in ([], {}, "x", 5, None, True, 2.5):
                try:
                    validate_tree(replaced(tree, path, value))
                except (ValidationErrors, ParseError):
                    pass
                except Exception as exc:  # any other exception is the defect
                    raised.append((path, value, type(exc).__name__))
        assert raised == []

    def test_old_solver_step_is_ignored(self, tmp_path, write_config):
        """Configs written when the fallback's first step was a setting
        still parse, whatever their step, and solve to the same bytes."""
        outputs = []
        for step in (None, 0.5, -1.0):
            tree = packaged_tree("exchange")
            if step is not None:
                tree["solver"] = {**tree["solver"], "step": step}
            outdir = tmp_path / str(step)
            assert main(["solve", "--config", str(write_config(tree)),
                         "--out", str(outdir)]) == 0
            outputs.append((outdir / "solve_y1.csv").read_bytes())
        assert len(set(outputs)) == 1

    @pytest.mark.parametrize("name,path,value", [case[1:] for case in NON_FINITE],
                             ids=[key_path(case[2]) for case in NON_FINITE])
    def test_a_non_finite_number_is_reported_with_its_key(self, name, path, value):
        """The tree a file with NaN or Infinity would give, were they parsed."""
        with pytest.raises(ValidationErrors) as err:
            validate_tree(replaced(packaged_tree(name), path, value))
        assert reported_at(err.value.errors, path)

    @pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity"])
    def test_non_finite_literals_are_parse_errors(self, tmp_path, literal):
        path = tmp_path / "run.json"
        path.write_text('{"solver": {"tol": %s}}' % literal)
        with pytest.raises(ParseError, match=literal):
            parse_and_validate(path)

    @pytest.mark.parametrize("name,path,value", BOOL_OR_FRACTION,
                             ids=[f"{key_path(case[1])}={case[2]}" for case in BOOL_OR_FRACTION])
    def test_a_boolean_or_fraction_is_reported_with_its_key(self, name, path, value):
        with pytest.raises(ValidationErrors) as err:
            validate_tree(replaced(packaged_tree(name), path, value))
        assert reported_at(err.value.errors, path)

    def test_profile_length_mismatch_reported(self, write_config):
        tree = minimal_tree()
        tree["path"] = [[0, "y1"]]
        tree["profile"] = {"lambdas": [0.1, 0.2]}
        with pytest.raises(ValidationErrors) as err:
            parse_and_validate(write_config(tree))
        assert any("profile" in e for e in err.value.errors)


class TestCliExitCodes:
    def test_check_topology_pass(self, tmp_path, capsys):
        code = main(["check-topology", "--config", str(packaged_config_path("slavery")),
                     "--out", str(tmp_path)])
        assert code == 0
        assert "PASS" in capsys.readouterr().out

    def test_solve_symmetric_ratio_one(self, tmp_path, capsys):
        code = main(["solve", "--config", str(packaged_config_path("exchange")),
                     "--out", str(tmp_path)])
        assert code == 0
        out = capsys.readouterr().out
        prices = {}
        for line in out.splitlines():
            cells = line.split(",")
            if cells[0] == "price":
                prices[cells[2]] = float(cells[3])
        assert prices["bread"] / prices["ale"] == pytest.approx(1.0, abs=1e-8)

    def test_config_error_exit_4(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"solver": {"tol": 0}}')
        code = main(["solve", "--config", str(bad)])
        assert code == 4
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize("key,value", [("level", -1), ("amount", -2.5)])
    def test_negative_registry_number_exits_4_at_its_key(self, tmp_path, write_config, capsys,
                                                         key, value):
        tree = replaced(packaged_tree("slavery"),
                        ("registry", "maxims", "support_labor_rights", key), value)
        code = main(["trace", "--config", str(write_config(tree)), "--out", str(tmp_path)])
        assert code == 4
        err = capsys.readouterr().err
        assert f"malformed entry at maxims.support_labor_rights.{key}: " in err
        assert "non-negative" in err

    def test_explicit_open_family_failure_exit_2(self, tmp_path, write_config, capsys):
        tree = minimal_tree()
        tree["base_space"] = ["y1", "y2"]
        tree["registry"]["bundles"]["y2"] = {"label": "second", "active": []}
        tree["fibers"]["y2"] = {"goods": ["g1", "g2"], "duties": []}
        tree["topology"] = {"opens": [[], ["y1"], ["y2"]]}  # union missing
        code = main(["check-topology", "--config", str(write_config(tree)),
                     "--out", str(tmp_path)])
        assert code == 2
        assert "FAIL" in capsys.readouterr().out

    def test_explicit_open_family_pass_reports_basis_count(self, tmp_path, write_config,
                                                           capsys):
        tree = minimal_tree()
        tree["base_space"] = ["y1", "y2", "y3"]
        for y in ("y2", "y3"):
            tree["registry"]["bundles"][y] = {"label": y, "active": []}
            tree["fibers"][y] = {"goods": ["g1", "g2"], "duties": []}
        # {y1} and {y2} open, {y3} not: 1 + 1 + 2 + 1 basis elements
        tree["topology"] = {"opens": [[], ["y1"], ["y2"], ["y1", "y2"], ["y1", "y2", "y3"]]}
        code = main(["check-topology", "--config", str(write_config(tree)),
                     "--out", str(tmp_path)])
        assert code == 0
        expected = "5 preimages checked, 5 basis elements"
        assert f"[PASS] projection-continuity (5 checks): {expected}" in capsys.readouterr().out
        report = (tmp_path / "topology_report.csv").read_text().splitlines()
        assert f'projection-continuity,true,5,"{expected}"' in report

    def test_solver_non_convergence_exit_3(self, tmp_path, write_config):
        tree = minimal_tree()
        tree["agents"][0]["utility"]["alpha"] = {"g1": 0.2, "g2": 0.8}
        tree["solver"] = {"step": 0.01, "tol": 1e-12, "max_iter": 2}
        code = main(["solve", "--config", str(write_config(tree)),
                     "--out", str(tmp_path)])
        assert code == 3

    def test_solve_to_a_loose_tol_leaves_the_index_empty(self, tmp_path, write_config):
        """The index needs a residual of at most ``INDEX_RESIDUAL_TOL`` (1e-6),
        which a solve that converged to 1e-4 need not have reached."""
        tree = packaged_tree("slavery", solver={"tol": 1e-4})
        code = main(["solve", "--config", str(write_config(tree)), "--out", str(tmp_path)])
        assert code == 0
        rows = (tmp_path / "solve_y1.csv").read_text().splitlines()
        assert "converged,,,true" in rows and "index,,," in rows

    def test_solve_unknown_fiber_exit_4(self, tmp_path, capsys):
        code = main(["solve", "--config", str(packaged_config_path("exchange")),
                     "--fiber", "nowhere", "--out", str(tmp_path)])
        assert code == 4
        err = capsys.readouterr().err
        assert "'nowhere'" in err and "Traceback" not in err

    def test_trace_compiles_each_regime_once(self, tmp_path, monkeypatch):
        compiled = []

        def counting(bundle, registry):
            compiled.append(bundle.id)
            return compile_constraints(bundle, registry)

        monkeypatch.setattr(transition, "compile_constraints", counting)
        assert main(["trace", "--config", str(packaged_config_path("slavery")),
                     "--out", str(tmp_path)]) == 0
        assert compiled == ["y1", "y2", "y3"]

    def test_trace_writes_rows_and_summary(self, tmp_path):
        code = main(["trace", "--config", str(packaged_config_path("slavery")),
                     "--out", str(tmp_path)])
        assert code == 0
        rows = (tmp_path / "trace.csv").read_text().splitlines()
        assert rows[0] == "t,y_id,agent,dimension,quantity"
        assert len(rows) == 1 + 3 * 2 * 3  # steps x agents x dims
        assert (tmp_path / "trace_summary.csv").exists()
        assert (tmp_path / "manifest.json").exists()

    def test_scenario_sugar_with_critical_mass(self, tmp_path, capsys):
        code = main(["scenario", "sugar", "--config", str(packaged_config_path("sugar")),
                     "--estimate-critical-mass", "--out", str(tmp_path)])
        assert code == 0
        summary = (tmp_path / "sugar_summary.csv").read_text().splitlines()
        assert summary[0].split(",")[-1] == "phi_star"
        assert summary[1].split(",")[-1] != ""

    def test_scenario_veblen_reports_segment(self, tmp_path):
        code = main(["scenario", "veblen", "--config", str(packaged_config_path("veblen")),
                     "--out", str(tmp_path)])
        assert code == 0
        segments = (tmp_path / "veblen_segments.csv").read_text().splitlines()
        assert len(segments) >= 2  # header plus at least one detected segment

    def test_scenario_slavery_svg(self, tmp_path):
        svg_path = tmp_path / "era.svg"
        code = main(["scenario", "slavery", "--config", str(packaged_config_path("slavery")),
                     "--out", str(tmp_path), "--svg", str(svg_path)])
        assert code == 0
        assert svg_path.read_text().startswith("<svg")

    def test_trace_builds_chart_series_only_for_a_chart(self, tmp_path, capsys, monkeypatch):
        """Without a chart the trace reads each bundle's coordinates once, for
        its CSV rows; with ``--svg`` it also reads them per dimension for the
        series. The CSVs and stdout are the same either way."""
        calls = []
        coords = ExtendedBundle.coords
        monkeypatch.setattr(ExtendedBundle, "coords",
                            property(lambda bundle: calls.append(1) or coords.fget(bundle)))
        written = {}
        for name, extra in (("plain", []), ("chart", ["--svg", str(tmp_path / "t.svg")])):
            calls.clear()
            out = tmp_path / name
            code = main(["trace", "--config", str(packaged_config_path("slavery")),
                         "--out", str(out), *extra])
            assert code == 0
            written[name] = (len(calls), capsys.readouterr().out,
                             [(out / f).read_bytes() for f in ("trace.csv", "trace_summary.csv")])
        steps_times_agents = 3 * 2
        assert written["plain"][0] == steps_times_agents
        assert written["chart"][0] == steps_times_agents + 3 * 2 * 3
        assert written["plain"][1:] == written["chart"][1:]
        assert (tmp_path / "t.svg").read_text().startswith("<svg")

    def test_sweep_lattice(self, tmp_path):
        code = main(["sweep", "--config", str(packaged_config_path("sugar")),
                     "--out", str(tmp_path)])
        assert code == 0
        rows = (tmp_path / "sugar_sweep.csv").read_text().splitlines()
        assert len(rows) == 1 + 100

    def test_check_preferences_rational_relation(self, tmp_path, capsys):
        relation = tmp_path / "relation.json"
        relation.write_text(json.dumps({
            "points": [[0.0, 0.0], [1.0, 0.0], [1.0, 1.0]],
            "utility": {"alpha": [0.5, 0.5], "beta": [], "lambda": 0.0},
        }))
        code = main(["check-preferences", "--relation", str(relation),
                     "--out", str(tmp_path)])
        assert code == 0
        assert (tmp_path / "preference_ranks.csv").exists()

    def test_check_preferences_cycle_fails(self, tmp_path):
        relation = tmp_path / "cycle.json"
        pairs = [[0, 0], [1, 1], [2, 2], [0, 1], [1, 2], [2, 0]]
        relation.write_text(json.dumps({
            "points": [[0.0], [1.0], [2.0]],
            "pairs": pairs,
        }))
        code = main(["check-preferences", "--relation", str(relation),
                     "--out", str(tmp_path)])
        assert code == 2

    @pytest.mark.parametrize("argv,make_tree", [
        # price_conventional is 1, so a premium of -1 leaves no ethical price
        (["sweep", "--config"], lambda: sugar_with_premiums([0.2, -1.0])),
        (["solve", "--config"], lambda: packaged_tree("exchange", agents=[])),
        (["trace", "--config"], lambda: packaged_tree("slavery", agents=[])),
        (["scenario", "veblen", "--config"], lambda: packaged_tree("veblen", agents=[])),
        (["check-preferences", "--relation"], lambda: {"pairs": [[0, 0]]}),
        (["scenario", "veblen", "--config"], lambda: replaced(
            packaged_tree("veblen"), ("agents", 0, "utility", "p_bar", "eco_label"), "x")),
        (["scenario", "sugar", "--config"], lambda: replaced(
            packaged_tree("sugar"), ("scenarios", "sugar", "w_max"), "x")),
        # a negative seed or premium bound used to reach numpy's generator
        (["scenario", "sugar", "--config"], lambda: packaged_tree("sugar", seed=-1)),
        (["sweep", "--config"], lambda: packaged_tree("sugar", seed=-1)),
        (["scenario", "sugar", "--config"], lambda: replaced(
            packaged_tree("sugar"), ("scenarios", "sugar", "w_max"), -0.5)),
        (["sweep", "--config"], lambda: replaced(
            packaged_tree("sugar"), ("scenarios", "sugar", "w_max"), -0.5)),
        # a regime that forbids every good leaves no numeraire
        (["scenario", "veblen", "--config"], lambda: replaced(replaced(
            packaged_tree("veblen"), ("registry", "maxims", "ban"),
            {"class": "perfect", "kind": "FORBID", "target": "staple"}),
            ("registry", "bundles", "y1", "active"), ["ban"])),
        # an integer no float holds
        (["trace", "--config"], lambda: replaced(
            packaged_tree("slavery"), ("agents", 0, "lambda"), 10 ** 400)),
        # registry numbers follow the same rule
        (["trace", "--config"], lambda: replaced(packaged_tree("slavery"), (
            "registry", "maxims", "support_labor_rights", "level"), True)),
        (["trace", "--config"], lambda: replaced(packaged_tree("slavery"), (
            "registry", "maxims", "support_labor_rights", "level"), "0.5")),
        (["trace", "--config"], lambda: replaced(packaged_tree("slavery"), (
            "registry", "maxims", "debt"), {"class": "perfect", "kind": "PRIOR_CLAIM",
                                            "amount": "3"})),
        # written by json.dumps as NaN, Infinity and -Infinity
        *[(argv, lambda name=name, path=path, value=value:
           replaced(packaged_tree(name), path, value))
          for argv, name, path, value in NON_FINITE],
        *[(["check-preferences", "--relation"], lambda tree=tree: tree)
          for tree in BAD_RELATIONS.values()],
    ], ids=["sweep-premium", "solve-no-agents", "trace-no-agents", "veblen-no-agents",
            "relation-no-points", "veblen-text-reference-price", "sugar-text-w-max",
            "sugar-negative-seed", "sweep-negative-seed", "sugar-negative-w-max",
            "sweep-negative-w-max", "veblen-every-good-forbidden", "trace-integer-beyond-float",
            "trace-registry-level-true", "trace-registry-level-text",
            "trace-registry-amount-text",
            *[f"{argv[-2]}-{key_path(path)}-{value}" for argv, _, path, value in NON_FINITE],
            *[f"relation-{name}" for name in BAD_RELATIONS]])
    def test_malformed_input_exit_4(self, tmp_path, capsys, write_config, argv, make_tree):
        """A documented config error, never a traceback."""
        code = main(argv + [str(write_config(make_tree())), "--out", str(tmp_path / "out")])
        assert code == 4
        assert capsys.readouterr().err.startswith("config error: ")


class TestDeterminism:
    @pytest.mark.parametrize("argv,files", [
        (["solve", "--config", "CONFIG_exchange"], ["solve_y1.csv"]),
        (["trace", "--config", "CONFIG_slavery"], ["trace.csv", "trace_summary.csv"]),
        (["scenario", "sugar", "--config", "CONFIG_sugar"],
         ["sugar_shares.csv", "sugar_summary.csv"]),
    ])
    def test_repeated_runs_byte_identical(self, tmp_path, argv, files):
        outputs = {}
        for run in ("first", "second"):
            outdir = tmp_path / run
            resolved = [str(packaged_config_path(a.removeprefix("CONFIG_")))
                        if a.startswith("CONFIG_") else a for a in argv]
            assert main(resolved + ["--out", str(outdir)]) == 0
            outputs[run] = {f: (outdir / f).read_bytes() for f in files}
        assert outputs["first"] == outputs["second"]

    def test_csv_uses_crlf(self, tmp_path):
        main(["solve", "--config", str(packaged_config_path("exchange")),
              "--out", str(tmp_path)])
        raw = (tmp_path / "solve_y1.csv").read_bytes()
        assert b"\r\n" in raw

    def test_manifest_records_config_hash(self, tmp_path):
        main(["solve", "--config", str(packaged_config_path("exchange")),
              "--out", str(tmp_path)])
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert len(manifest["config_sha256"]) == 64
        assert manifest["seed"] == 1

    def test_manifest_records_package_version(self, tmp_path):
        # the package need not be installed: the version comes from the source
        main(["solve", "--config", str(packaged_config_path("exchange")),
              "--out", str(tmp_path)])
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["versions"]["dutybound"] == dutybound.__version__

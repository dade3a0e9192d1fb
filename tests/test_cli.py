import copy
import dataclasses
import json
import random
from contextlib import redirect_stderr, redirect_stdout
from functools import reduce
from io import StringIO
from operator import getitem

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import test_acceptance

from fixtures import (book_order_service, gated_false_service,
                      missing_method_service, mixed_values_service,
                      stuck_service, treat_command_block)
from gnets import algebra, dsl, io, prod
from gnets.cli import main
from gnets.model import (AttributeSpec, IspRef, Place, PlaceKind,
                         validate)


@pytest.fixture
def registry_dir(tmp_path):
    reg_dir = tmp_path / "registry"
    reg_dir.mkdir()
    for name, op in (("a", "op-a"), ("b", "op-b"), ("c", "op-c")):
        ws = algebra.with_request_method(algebra.atomic(name, op))
        io.save_service(ws, reg_dir / f"{name}.json")
    io.save_block("B", treat_command_block(), reg_dir / "B.block.json")
    return reg_dir


@pytest.fixture
def book_order_path(tmp_path):
    path = tmp_path / "book-order.json"
    io.save_service(book_order_service(), path)
    return path


@pytest.fixture
def two_param_path(tmp_path):
    """Book-order whose method takes a second, unused parameter."""
    d = io.service_to_dict(book_order_service())
    d["net"]["gsp"]["methods"][0]["params"].append(
        {"name": "copies", "description": "copies ordered"})
    path = tmp_path / "two-param.json"
    path.write_text(json.dumps(d))
    return path


@pytest.fixture
def doubled_arc_path(tmp_path):
    d = io.service_to_dict(book_order_service())
    d["net"]["is"]["arcs"].append(["P1", "T1"])
    path = tmp_path / "doubled.json"
    path.write_text(json.dumps(d))
    return path


@pytest.fixture
def empty_domain_path(tmp_path):
    d = io.service_to_dict(book_order_service())
    for attr in d["net"]["gsp"]["attributes"]:
        attr["domain"] = []
    path = tmp_path / "empty-domain.json"
    path.write_text(json.dumps(d))
    return path


def field_paths(doc, path=()):
    """The path of every value of the JSON document `doc`, taking only the
    first item of each list."""
    items = doc.items() if isinstance(doc, dict) else \
        enumerate(doc[:1]) if isinstance(doc, list) else ()
    for key, value in items:
        yield path + (key,)
        yield from field_paths(value, path + (key,))


def compose_file(tmp_path, text):
    path = tmp_path / "term.gnet"
    path.write_text(text)
    return path


class TestValidate:
    def test_valid(self, book_order_path, capsys):
        assert main(["validate", str(book_order_path)]) == 0
        assert "ok" in capsys.readouterr().out

    def test_violations_exit_1(self, tmp_path, capsys):
        d = io.service_to_dict(book_order_service())
        d["net"]["is"]["arcs"].append(["P1", "P2"])
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(d))
        assert main(["validate", str(path)]) == 1
        assert "non-bipartite arc" in capsys.readouterr().out

    def test_missing_file_exit_2(self, tmp_path):
        assert main(["validate", str(tmp_path / "none.json")]) == 2

    @pytest.mark.parametrize("where, value", [
        ((), []),
        (("net", "is", "places", 0), "P1"),
        (("net", "is", "inscriptions", 0, "fields"), 5),
        (("net", "gsp", "attributes", 0, "domain"), 5),
        (("net", "is", "places", 0, "id"), ["P1"]),
        (("net", "is", "transitions", 0), ["T1"]),
        (("net", "is", "arcs", 0, 0), ["P1"]),
        (("net", "is", "arcs", 0, 1), ["T1"]),
        (("net", "gsp", "methods", 0, "initPlace"), ["P1"]),
        (("net", "is", "labels", 0, "place"), ["P1"]),
        (("net", "is", "conditions", 0, "transition"), ["T1"]),
        (("net", "gsp", "methods", 0, "params", 0, "name"), ["seq"]),
        (("net", "gsp", "attributes", 0, "name"), ["Available"]),
        (("name",), ["Book-Order"]),
        (("net", "is", "places", 0, "id"), 1),
        (("net", "gsp", "attributes", 0, "valueType"), ["bool"]),
        (("net", "gsp", "attributes", 0, "valueType"), {"bool": 1}),
        (("net", "gsp", "attributes", 0, "domain"), "ab"),
        (("net", "gsp", "methods", 0, "goalPlaces"), "P6"),
        (("net", "is", "transitions"), "T1"),
        (("net", "is", "arcs", 0), "PT"),
    ], ids=["list", "place-string", "fields-number", "domain-number",
            "place-id-list", "transition-list", "arc-source-list",
            "arc-target-list", "init-place-list", "label-place-list",
            "condition-transition-list", "param-name-list",
            "attribute-name-list", "service-name-list", "place-id-number",
            "value-type-list", "value-type-object", "domain-string",
            "goal-places-string", "transitions-string", "arc-string"])
    def test_malformed_document_exit_2(self, tmp_path, capsys, where, value):
        doc = io.service_to_dict(book_order_service())
        if where:
            *outer, last = where
            reduce(getitem, outer, doc)[last] = value
        else:
            doc = value
        path = tmp_path / "malformed.json"
        path.write_text(json.dumps(doc))
        for command in ("validate", "simulate"):
            assert main([command, str(path)]) == 2
            err = capsys.readouterr().err
            assert err.startswith("error: ") and "Traceback" not in err

    def test_every_field_of_any_type(self, tmp_path, capsys):
        """Each field of book-order, down the first item of each list,
        replaced by a value of each JSON type: `validate` and `analyze`
        read, report or reject it, and raise nothing."""
        doc = io.service_to_dict(book_order_service())
        path = tmp_path / "swept.json"
        calls = 0
        for where in field_paths(doc):
            *outer, last = where
            for value in (["x"], {"x": 1}, 5, None, "ab", True):
                swept = copy.deepcopy(doc)
                reduce(getitem, outer, swept)[last] = value
                path.write_text(json.dumps(swept))
                for command in (["validate"], ["analyze", "--args", "1"]):
                    code = main([command[0], str(path), *command[1:]])
                    assert code in (0, 1, 2), (where, value, command)
                    calls += 1
        capsys.readouterr()
        assert calls > 500

    @pytest.mark.parametrize("command", [["validate"],
                                         ["simulate", "--args", "1"]])
    def test_over_deep_guard_exit_2(self, tmp_path, capsys, command):
        """T1's guard inside 1500 parentheses: deeper than the parser can
        go, so a parse error."""
        doc = io.service_to_dict(book_order_service())
        for cond in doc["net"]["is"]["conditions"]:
            if cond["transition"] == "T1":
                cond["text"] = "(" * 1500 + cond["text"] + ")" * 1500
        path = tmp_path / "deep.json"
        path.write_text(json.dumps(doc))
        assert main([command[0], str(path), *command[1:]]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: at ")
        assert err.endswith(": expression nested too deeply\n")

    def test_duplicate_arc_exit_1(self, doubled_arc_path, capsys):
        assert main(["validate", str(doubled_arc_path)]) == 1
        assert "duplicate-arc" in capsys.readouterr().out

    @pytest.mark.parametrize("command", [
        ["simulate"], ["analyze"], ["export", "--format", "prod"]])
    def test_loaded_model_is_validated(self, doubled_arc_path, command,
                                       capsys):
        argv = [command[0], str(doubled_arc_path), *command[1:]]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert "[duplicate-arc]" in captured.err
        assert captured.out == ""

    def test_empty_domain_exit_1(self, empty_domain_path, capsys):
        assert main(["validate", str(empty_domain_path)]) == 1
        assert "[empty-domain] Available" in capsys.readouterr().out

    @pytest.mark.parametrize("command", [
        ["simulate", "--args", "1"], ["analyze", "--args", "1"],
        ["export", "--format", "prod"]])
    def test_empty_domain_model_is_rejected(self, empty_domain_path, command,
                                            capsys):
        argv = [command[0], str(empty_domain_path), *command[1:]]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert "[empty-domain]" in captured.err
        assert captured.out == ""


class TestCompose:
    def test_writes_composed_service(self, tmp_path, registry_dir):
        term = compose_file(tmp_path, "seq(a, b)")
        out = tmp_path / "out.json"
        code = main(["compose", str(term), "--registry", str(registry_dir),
                     "--out", str(out)])
        assert code == 0
        ws = io.load_service(out)
        struct = ws.net.internal
        assert (len(struct.places), len(struct.transitions),
                len(struct.arcs)) == (3, 2, 4)

    def test_unknown_service_exit_1(self, tmp_path, registry_dir, capsys):
        term = compose_file(tmp_path, "seq(a, ghost)")
        code = main(["compose", str(term), "--registry", str(registry_dir)])
        assert code == 1
        assert "ghost" in capsys.readouterr().err

    def test_empty_replacement_exit_1(self, tmp_path, registry_dir):
        term = compose_file(tmp_path, "replace(seq(a, b), a, empty)")
        assert main(["compose", str(term), "--registry",
                     str(registry_dir)]) == 1

    def test_syntax_error_exit_2(self, tmp_path, registry_dir, capsys):
        term = compose_file(tmp_path, "seq(a,")
        assert main(["compose", str(term), "--registry",
                     str(registry_dir)]) == 2
        assert capsys.readouterr().err.startswith("error: ")

    def test_over_deep_term_exit_2(self, tmp_path, registry_dir, capsys):
        term = compose_file(tmp_path, "iter(" * 1500 + "a" + ")" * 1500)
        assert main(["compose", str(term), "--registry",
                     str(registry_dir)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: at ")
        assert err.endswith(": term nested too deeply\n")

    @pytest.mark.parametrize("command", [["analyze"], ["simulate"]])
    def test_nested_term_runs(self, tmp_path, registry_dir, capsys,
                              command):
        """The composites a term nests are saved into the registry, so
        its output runs over that registry."""
        out = tmp_path / "nested.json"
        assert main(["compose", str(compose_file(tmp_path,
                                                 "seq(par(a, b), a)")),
                     "--registry", str(registry_dir), "--out", str(out)]) == 0
        assert (registry_dir / "Par(a,b).json").exists()
        assert not (registry_dir / "Seq(Par(a,b),a).json").exists()
        assert main([command[0], str(out), "--registry",
                     str(registry_dir)]) == 0

    @pytest.mark.parametrize("command", [
        ["simulate"], ["analyze"], ["export", "--format", "prod"],
        ["export", "--format", "dot"]])
    def test_negative_depth_limit_exit_2(self, tmp_path, registry_dir,
                                         capsys, command):
        out = tmp_path / "nested.json"
        main(["compose", str(compose_file(tmp_path, "seq(par(a, b), a)")),
              "--registry", str(registry_dir), "--out", str(out)])
        capsys.readouterr()
        assert main([command[0], str(out), *command[1:], "--registry",
                     str(registry_dir), "--depth-limit", "-1"]) == 2
        assert capsys.readouterr().err == \
            "error: depth_limit must not be negative, got -1\n"

    def test_registry_holdings_not_saved_again(self, tmp_path, registry_dir):
        before = {p: p.read_text() for p in registry_dir.iterdir()}
        main(["compose", str(compose_file(tmp_path, "par(a, b)")),
              "--registry", str(registry_dir),
              "--out", str(registry_dir / "par.json")])
        main(["compose", str(compose_file(tmp_path, "seq(par(a, b), a)")),
              "--registry", str(registry_dir),
              "--out", str(tmp_path / "nested.json")])
        after = {p: p.read_text() for p in registry_dir.iterdir()}
        assert set(after) - set(before) == {registry_dir / "par.json"}
        assert all(after[p] == text for p, text in before.items())

    def test_registry_from_environment(self, tmp_path, registry_dir,
                                       monkeypatch, capsys):
        monkeypatch.setenv("GNET_REGISTRY", str(registry_dir))
        term = compose_file(tmp_path, "par(a, b)")
        assert main(["compose", str(term)]) == 0
        assert '"Par(a,b)"' in capsys.readouterr().out


class TestSimulate:
    def test_goal_exit_0(self, book_order_path, capsys):
        code = main(["simulate", str(book_order_path), "--args", "1"])
        assert code == 0
        assert "outcome: Goal" in capsys.readouterr().out

    def test_deadlock_exit_1(self, tmp_path, capsys):
        path = tmp_path / "gated.json"
        io.save_service(gated_false_service(), path)
        assert main(["simulate", str(path)]) == 1
        assert "outcome: Deadlock" in capsys.readouterr().out

    def test_failed_call_prints_its_trace(self, tmp_path, registry_dir,
                                          capsys):
        io.save_service(stuck_service(), registry_dir / "stuck.json")
        out = tmp_path / "stalls.json"
        assert main(["compose", str(compose_file(tmp_path, "seq(Stuck, a)")),
                     "--registry", str(registry_dir), "--out", str(out)]) == 0
        assert main(["simulate", str(out), "--registry",
                     str(registry_dir)]) == 1
        assert capsys.readouterr().err == (
            "error: invoked method Stuck.Stall reached no goal (Deadlock)\n"
            "1 t0 [] -p0{} +p1{}\n")

    def test_step_limit_exit_3(self, tmp_path, registry_dir):
        term = compose_file(tmp_path, "iter(a)")
        out = tmp_path / "loop.json"
        main(["compose", str(term), "--registry", str(registry_dir),
              "--out", str(out)])
        code = main(["simulate", str(out), "--registry", str(registry_dir),
                     "--max-steps", "5"])
        assert code == 3

    def test_nested_step_limit_exit_3(self, tmp_path, registry_dir, capsys):
        main(["compose", str(compose_file(tmp_path, "iter(a)")),
              "--registry", str(registry_dir),
              "--out", str(registry_dir / "iter.json")])
        out = tmp_path / "nested.json"
        main(["compose", str(compose_file(tmp_path, "seq(iter(a), b)")),
              "--registry", str(registry_dir), "--out", str(out)])
        capsys.readouterr()
        code = main(["simulate", str(out), "--registry", str(registry_dir),
                     "--max-steps", "5"])
        assert code == 3
        assert capsys.readouterr().err.startswith(
            "error: invoked method Iter(a).Iter reached no goal "
            "(StepLimit)\n")

    @pytest.mark.parametrize("depth_limit, message", [
        (100, "invocation depth 101 exceeds the limit 100"),
        (2000, "nesting exceeds the interpreter's recursion limit")])
    def test_self_call_exit_1(self, tmp_path, capsys, depth_limit, message):
        """`loop`'s p1 calls loop.Atomic: a chain of calls that ends at the
        depth limit, or at the interpreter's stack, whichever is lower."""
        ws = algebra.atomic("loop", "op-loop")
        struct = ws.net.internal
        struct = dataclasses.replace(
            struct,
            places=(Place("p1", PlaceKind.ISP, "loop", "Atomic"),)
            + struct.places[1:],
            labels=(("p1", IspRef("loop", "Atomic")),) + struct.labels[1:])
        path = tmp_path / "loop.json"
        io.save_service(dataclasses.replace(
            ws, net=dataclasses.replace(ws.net, internal=struct)), path)
        assert main(["simulate", str(path), "--depth-limit",
                     str(depth_limit)]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_int_and_str_bindings_exit_0(self, tmp_path):
        path = tmp_path / "mixed.json"
        io.save_service(mixed_values_service(), path)
        assert main(["simulate", str(path), "--policy", "random",
                     "--seed", "2"]) == 0

    def test_zero_max_steps_exit_2(self, book_order_path, capsys):
        code = main(["simulate", str(book_order_path), "--args", "1",
                     "--max-steps", "0"])
        assert code == 2
        assert capsys.readouterr().err.startswith("error: ")

    def test_seeded_random_reproducible(self, book_order_path, capsys):
        def output(seed):
            main(["simulate", str(book_order_path), "--args", "1",
                  "--policy", "random", "--seed", str(seed)])
            return capsys.readouterr().out

        assert output(7) == output(7)

    def test_json_trace(self, book_order_path, tmp_path):
        out = tmp_path / "trace.json"
        main(["simulate", str(book_order_path), "--args", "1", "--json",
              "--out", str(out)])
        data = json.loads(out.read_text())
        assert data["outcome"] == "Goal"
        assert data["steps"]


class TestAnalyze:
    def test_composition_analyzes_clean(self, tmp_path, registry_dir,
                                        capsys):
        term = compose_file(tmp_path, "anyseq(a, b)")
        out = tmp_path / "anyseq.json"
        main(["compose", str(term), "--registry", str(registry_dir),
              "--out", str(out)])
        code = main(["analyze", str(out), "--registry", str(registry_dir)])
        assert code == 0
        text = capsys.readouterr().out
        assert "deadlocks: 0" in text
        assert "goalReachable: True" in text

    def test_deadlock_exit_1(self, tmp_path, capsys):
        path = tmp_path / "gated.json"
        io.save_service(gated_false_service(), path)
        assert main(["analyze", str(path)]) == 1
        assert "deadlocks: 1" in capsys.readouterr().out

    def test_truncation_exit_4(self, book_order_path, capsys):
        code = main(["analyze", str(book_order_path), "--args", "1",
                     "--max-states", "2"])
        assert code == 4
        assert "truncated: True" in capsys.readouterr().out

    def test_zero_max_states_exit_2(self, book_order_path, capsys):
        code = main(["analyze", str(book_order_path), "--args", "1",
                     "--max-states", "0"])
        assert code == 2
        assert capsys.readouterr().err.startswith("error: ")


class TestUnknownMethod:
    @pytest.mark.parametrize("command", ["simulate", "analyze"])
    def test_isp_calling_a_missing_method_exit_1(self, command, tmp_path,
                                                 registry_dir, capsys):
        path = tmp_path / "missing.json"
        io.save_service(missing_method_service(), path)
        assert main([command, str(path), "--registry",
                     str(registry_dir)]) == 1
        assert capsys.readouterr().err == \
            "error: service 'b' has no method 'Nope'\n"


class TestArity:
    """analyze and export take --args as simulate does: one value per
    parameter of the main method.  export with no --args at all writes
    the structural net (TestExport.test_prod)."""

    @pytest.mark.parametrize("command, model, values, message", [
        (["simulate"], "book_order_path", ["1", "2"],
         "takes 1 argument(s), got 2"),
        (["analyze"], "book_order_path", ["1", "2"],
         "takes 1 argument(s), got 2"),
        (["analyze"], "book_order_path", [], "takes 1 argument(s), got 0"),
        (["export", "--format", "prod"], "book_order_path", ["1", "2"],
         "takes 1 argument(s), got 2"),
        (["analyze"], "two_param_path", ["1"], "takes 2 argument(s), got 1"),
        (["export", "--format", "prod"], "two_param_path", ["1"],
         "takes 2 argument(s), got 1"),
    ])
    def test_wrong_count_exit_1(self, command, model, values, message,
                                request, capsys):
        path = request.getfixturevalue(model)
        argv = [command[0], str(path), *command[1:], "--args", *values]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.err == f"error: Book-Order.Command {message}\n"
        assert captured.out == ""


class TestExport:
    def test_prod(self, book_order_path, tmp_path, capsys):
        out = tmp_path / "net.prod"
        assert main(["export", str(book_order_path), "--format", "prod",
                     "--out", str(out)]) == 0
        text = out.read_text()
        assert text.count("#trans") == 13
        assert "gate Available == true;" in text

    def test_dot(self, book_order_path, capsys):
        assert main(["export", str(book_order_path), "--format", "dot"]) == 0
        text = capsys.readouterr().out
        assert text.startswith("digraph")
        assert text.count("shape=box") == 7

    def test_unknown_format_exit_2(self, book_order_path):
        with pytest.raises(SystemExit) as exc:
            main(["export", str(book_order_path), "--format", "pdf"])
        assert exc.value.code == 2

    def test_quoted_string_prod_reads_back(self, tmp_path, capsys):
        """A valid model whose initial marking holds the string x"y: the
        quote is escaped, so export exits 0 and the text reads back."""
        ws = algebra.atomic("a", "op-a")
        ws = dataclasses.replace(ws, net=dataclasses.replace(
            ws.net, gsp=dataclasses.replace(ws.net.gsp, attributes=(
                AttributeSpec("s", "string", initial='x"y'),))))
        assert validate(ws).ok
        path = tmp_path / "quoted.json"
        io.save_service(ws, path)
        assert main(["export", str(path), "--format", "prod"]) == 0
        back = prod.reparse_prod(capsys.readouterr().out)
        assert back.initial["p1f"] == [('x"y',)]

    def test_dot_labels_break_lines(self, book_order_path, tmp_path, capsys):
        """An operation or ISP label goes on a second line: the label
        holds dot's line break escape, a single backslash and n."""
        assert main(["export", str(book_order_path), "--format", "dot"]) == 0
        assert '  "P1" [shape=circle, label="P1\\nReceive-command"];' \
            in capsys.readouterr().out.splitlines()
        ws = algebra.sequence(algebra.atomic("a", "op-a"),
                              algebra.atomic("b", "op-b"))
        path = tmp_path / "seq.json"
        io.save_service(ws, path)
        assert main(["export", str(path), "--format", "dot"]) == 0
        assert 'label="p1\\nISP(a.Atomic)"' in capsys.readouterr().out


class TestEmptyService:
    @pytest.mark.parametrize("command, expected", [
        (["analyze"], "goalReachable: True"),
        (["simulate"], "outcome: Goal"),
        (["export", "--format", "prod"], "#place p1f"),
    ])
    def test_composed_empty_exit_0(self, tmp_path, capsys, command, expected):
        out = tmp_path / "empty.json"
        assert main(["compose", str(compose_file(tmp_path, "empty")),
                     "--out", str(out)]) == 0
        capsys.readouterr()
        assert main([command[0], str(out), *command[1:]]) == 0
        assert expected in capsys.readouterr().out


class TestSweepSimulate:
    def test_sweep_terms_simulate_with_a_documented_code(self, tmp_path):
        """`gnets simulate` under det on the first 40 sweep terms: every
        run exits 0 (Goal), 1 (Deadlock or a semantic error) or 3 (step
        limit), and none raises."""
        rng = random.Random(20240817)
        reg = test_acceptance.make_registry()
        models = []
        for i in range(40):
            ws = dsl.eval_expr(test_acceptance.random_term(rng, 5), reg)
            models.append((tmp_path / f"term{i}.json",
                           len(algebra.main_method(ws).params)))
            io.save_service(ws, models[-1][0])
        (tmp_path / "reg").mkdir()
        for name, service in reg.services.items():
            io.save_service(service, tmp_path / "reg" / f"{name}.json")
        codes = []
        for path, params in models:
            with redirect_stdout(StringIO()), redirect_stderr(StringIO()):
                codes.append(main([
                    "simulate", str(path), "--registry", str(tmp_path / "reg"),
                    "--policy", "det", "--max-steps", "300",
                    "--args", *["req"] * params]))
        assert set(codes) <= {0, 1, 3}, codes


class TestGeneratedModels:
    """Every command on generated valid models, composed over the
    criterion-2 registry and saved with it, exits with a documented code
    and lets no exception escape."""

    @given(st.integers(0, 2 ** 32))
    @settings(max_examples=60, deadline=None)
    def test_every_command_exits_with_a_code(self, tmp_path_factory, seed):
        reg = test_acceptance.make_registry()
        ws = dsl.eval_expr(test_acceptance.random_term(random.Random(seed),
                                                       4), reg)
        assert validate(ws).ok
        directory = tmp_path_factory.mktemp("generated")
        (directory / "reg").mkdir()
        for name, service in reg.services.items():
            io.save_service(service, directory / "reg" / f"{name}.json")
        path = directory / "model.json"
        io.save_service(ws, path)
        method = algebra.main_method(ws)
        model_args = ["--registry", str(directory / "reg"), "--args",
                      *["req"] * len(method.params)]
        for command in (["validate"],
                        ["simulate", "--max-steps", "300", *model_args],
                        ["simulate", "--max-steps", "300", "--policy",
                         "random", "--seed", str(seed), *model_args],
                        ["analyze", "--max-states", "200", *model_args],
                        ["export", "--format", "prod", *model_args]):
            with redirect_stdout(StringIO()), redirect_stderr(StringIO()):
                code = main([command[0], str(path), *command[1:]])
            assert code in (0, 1, 2, 3, 4), (seed, command)

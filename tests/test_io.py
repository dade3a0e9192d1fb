import dataclasses
import json
import string

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fixtures import (book_order_service, branching_bool_service,
                      treat_command_block, treat_command_service)
from gnets import algebra, guards, io, sim
from gnets.errors import ParseError
from gnets.model import Registry


class TestServiceRoundTrip:
    @pytest.mark.parametrize("ws", [
        book_order_service(),
        treat_command_service(),
        branching_bool_service(),
        algebra.empty_service(),
        algebra.discriminator([algebra.atomic("A", "op-a")],
                              algebra.atomic("B", "op-b")),
        algebra.selection([algebra.with_request_method(
            algebra.atomic("A", "op-a"))]),
    ])
    def test_dict_round_trip(self, ws):
        assert io.service_from_dict(io.service_to_dict(ws)) == ws

    def test_field_names(self):
        d = io.service_to_dict(book_order_service())
        assert set(d) == {"name", "desc", "loc", "url", "componentServices",
                          "net"}
        method = d["net"]["gsp"]["methods"][0]
        assert {"name", "description", "params", "initPlace",
                "goalPlaces"} <= set(method)
        attr = d["net"]["gsp"]["attributes"][0]
        assert attr["valueType"] == "bool"
        assert set(d["net"]["is"]) == {"places", "transitions", "arcs",
                                       "inscriptions", "conditions",
                                       "actions", "labels"}

    def test_labels_serialized_by_variant(self):
        d = io.service_to_dict(book_order_service())
        variants = {ld["variant"] for ld in d["net"]["is"]["labels"]}
        assert variants == {"op", "goal"}
        ws = algebra.sequence(algebra.atomic("A", "x"),
                              algebra.atomic("B", "y"))
        d = io.service_to_dict(ws)
        isp = [ld for ld in d["net"]["is"]["labels"]
               if ld["variant"] == "isp"]
        assert isp[0]["service"] == "A"

    def test_guard_texts_parseable(self):
        d = io.service_to_dict(book_order_service())
        conds = {c["transition"]: c["text"]
                 for c in d["net"]["is"]["conditions"]}
        assert conds["T1"] == "Available == true"

    @given(st.text(string.printable) | st.text())
    @settings(max_examples=100, deadline=None)
    def test_guard_string_json_round_trip(self, value):
        """A guard comparing with any string saves to JSON text and loads
        back as the same service."""
        ws = book_order_service()
        struct = ws.net.internal
        guard = guards.Compare(guards.Var("Available"), "!=",
                               guards.Lit(value))
        ws = dataclasses.replace(ws, net=dataclasses.replace(
            ws.net, internal=dataclasses.replace(struct, conditions=(
                ("T1", guard),) + struct.conditions[1:])))
        text = json.dumps(io.service_to_dict(ws))
        assert io.service_from_dict(json.loads(text)) == ws

    def test_missing_field_reported(self):
        with pytest.raises(ParseError):
            io.service_from_dict({"name": "x"})

    def test_unknown_label_variant(self):
        d = io.service_to_dict(algebra.empty_service())
        d["net"]["is"]["labels"][0]["variant"] = "mystery"
        with pytest.raises(ParseError):
            io.service_from_dict(d)


class TestBlockRoundTrip:
    def test_round_trip(self):
        name, block = io.block_from_dict(
            io.block_to_dict("B", treat_command_block()))
        assert name == "B" and block == treat_command_block()

    def test_entry_exit_cross_checked(self):
        d = io.block_to_dict("B", treat_command_block())
        d["entry"] = ["b2"]
        with pytest.raises(ParseError):
            io.block_from_dict(d)


class TestFiles:
    def test_save_load_service(self, tmp_path):
        path = tmp_path / "svc.json"
        io.save_service(book_order_service(), path)
        assert io.load_service(path) == book_order_service()

    def test_load_rejects_bad_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{nope")
        with pytest.raises(ParseError):
            io.load_service(path)

    def test_load_registry(self, tmp_path):
        io.save_service(algebra.atomic("A", "op-a"), tmp_path / "a.json")
        io.save_service(algebra.atomic("B", "op-b"), tmp_path / "b.json")
        io.save_block("Blk", treat_command_block(),
                      tmp_path / "blk.block.json")
        reg = io.load_registry(tmp_path)
        assert set(reg.services) == {"A", "B"}
        assert set(reg.blocks) == {"Blk"}

    def test_load_registry_missing_dir(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            io.load_registry(tmp_path / "nowhere")


class TestTraceSerialization:
    def test_structure(self):
        reg = Registry()
        reg.insert(algebra.atomic("A", "op-a"))
        reg.insert(algebra.atomic("B", "op-b"))
        ws = algebra.sequence(reg.lookup("A"), reg.lookup("B"))
        reg.insert(ws)
        state = sim.init_state(ws, "Seq", (), registry=reg)
        final, outcome = sim.run(state)
        d = io.trace_to_dict(outcome, final.trace)
        assert d["outcome"] == "Goal"
        assert all({"depth", "transition", "binding", "consumed",
                    "produced"} <= set(step) for step in d["steps"])
        json.dumps(d)  # must be JSON-serializable as-is

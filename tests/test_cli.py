import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from relayalloc import cli
from relayalloc.cli import instance_document, load_instance, main, parse_topology
from relayalloc.scenario import grid_topology
from relayalloc.selector import worst_case_ops


def write_json(path, doc):
    path.write_text(json.dumps(doc))
    return str(path)


@pytest.fixture
def relay_instance(tmp_path):
    # N=1 with L_sr=2, L_rd=2, L_sd=1: relaying beats direct transmission
    return write_json(
        tmp_path / "inst.json",
        {"n_relays": 1, "capacities": [0, 2, 1, 2, 0, 2, 1, 2, 0]},
    )


class TestOptimize:
    def test_single_relay_instance(self, relay_instance, capsys):
        assert main(["optimize", "--instance", relay_instance]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["subset"] == [1]
        assert report["rate"] == pytest.approx(4 / 3)
        assert report["times"] == pytest.approx([2 / 3, 1 / 3])
        assert report["op_count_reported"] == 17

    def test_direct_only_instance(self, tmp_path, capsys):
        path = write_json(tmp_path / "d.json", {"n_relays": 0, "capacities": [0, 3, 3, 0]})
        assert main(["optimize", "--instance", path]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["subset"] == []
        assert report["rate"] == pytest.approx(3.0)

    def test_missing_link_never_selects_pair(self, tmp_path, capsys):
        # no r1-r2 link: the pair {1,2} is singular and must not be chosen
        caps = [
            [0, 5, 5, 1],
            [5, 0, 0, 5],
            [5, 0, 0, 5],
            [1, 5, 5, 0],
        ]
        flat = [v for row in caps for v in row]
        path = write_json(tmp_path / "m.json", {"n_relays": 2, "capacities": flat})
        assert main(["optimize", "--instance", path, "--verbose"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["subset"] != [1, 2]
        table = {tuple(row["subset"]): row for row in report["subsets"]}
        assert table[(1, 2)]["reject_reason"] == "singular"

    def test_generated_instance_is_deterministic(self, tmp_path, capsys):
        doc = {"topology": {"type": "linear", "n_relays": 2}, "snr_db": 10, "seed": 4}
        path = write_json(tmp_path / "g.json", doc)
        assert main(["optimize", "--instance", path]) == 0
        first = json.loads(capsys.readouterr().out)
        assert main(["optimize", "--instance", path]) == 0
        second = json.loads(capsys.readouterr().out)
        assert first == second

    def test_malformed_file_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["optimize", "--instance", str(bad)]) == 2
        path = write_json(tmp_path / "both.json", {"n_relays": 1, "capacities": [0] * 9,
                                                   "topology": {"type": "linear"}})
        assert main(["optimize", "--instance", path]) == 2
        path = write_json(tmp_path / "short.json", {"n_relays": 2, "capacities": [1, 2, 3]})
        assert main(["optimize", "--instance", path]) == 2
        # the (n_relays + 2)^2 capacities match, but a pool cannot be negative
        for doc in ({"n_relays": -1, "capacities": [0]}, {"n_relays": -2, "capacities": []},
                    {"n_relays": -3, "capacities": [0]},
                    {"n_relays": -4, "capacities": [0] * 4}):
            path = write_json(tmp_path / "neg.json", doc)
            assert main(["optimize", "--instance", path]) == 2
            assert "n_relays must be nonnegative" in capsys.readouterr().err
        assert main(["optimize", "--instance", str(tmp_path / "nope.json")]) == 2
        # values of the wrong JSON type name their field instead of a TypeError
        capsys.readouterr()
        path = write_json(tmp_path / "obj.json", {"n_relays": 1, "capacities": {"a": 1}})
        assert main(["optimize", "--instance", path]) == 2
        assert "'capacities' must be a list of numbers" in capsys.readouterr().err
        for positions in ({"a": 1}, [[0, 0], [0.5, 0.1], [1, {}]], [[0, 0], [1]],
                          [["0", "0"], ["0.5", "0.1"], ["1", "0"]]):
            doc = {"topology": {"type": "custom", "positions": positions},
                   "snr_db": 10, "seed": 1}
            path = write_json(tmp_path / "pos.json", doc)
            assert main(["optimize", "--instance", path]) == 2
            assert "'positions' must be a list of [x, y] pairs" in capsys.readouterr().err
        # numbers are JSON numbers, the mask is booleans and capacities are
        # one flat list; a huge n_relays is refused before any array is built
        caps = [0, 2, 1, 2, 0, 2, 1, 2, 0]
        for doc, message in (
            ({"n_relays": 1, "capacities": [str(v) for v in caps]},
             "'capacities' must be a list of numbers"),
            ({"n_relays": 1, "capacities": [caps[0:3], caps[3:6], caps[6:9]]},
             "'capacities' must be a list of numbers"),
            ({"n_relays": 1, "capacities": caps, "mask": ["false"] * 9},
             "'mask' must be a list of booleans"),
            ({"n_relays": 1, "capacities": caps, "mask": [{}] * 9},
             "'mask' must be a list of booleans"),
            ({"n_relays": 1, "capacities": caps, "mask": [1] * 9},
             "'mask' must be a list of booleans"),
            ({"capacities": caps}, "missing field 'n_relays'"),
            ({"topology": {"type": "linear", "n_relays": 1}, "snr_db": 10},
             "missing field 'seed'"),
            ({"topology": {"n_relays": 1}, "snr_db": 10, "seed": 1}, "missing field 'type'"),
            ({"n_relays": 1000000, "capacities": [0]},
             "expected 1000004000004 capacities for 1000000 relays, got 1"),
            # a field the object does not read is refused, not ignored
            ({"topology": {"type": "linear", "n_relays": 2, "pa": 6}, "snr_db": 10, "seed": 4},
             "unknown field 'pa'"),
            ({"topology": {"type": "linear", "n_relays": 2, "scale": 2}, "snr_db": 10,
              "seed": 4}, "unknown field 'scale'"),
            ({"topology": {"type": "custom", "positions": [[0, 0], [1, 0]], "side": 2},
              "snr_db": 10, "seed": 4}, "unknown field 'side'"),
            ({"topology": {"type": "grid", "side": 2}, "snr_db": 10, "seed": 4, "mask": []},
             "unknown field 'mask'"),
            ({"n_relays": 0, "capacities": [0, 3, 3, 0], "seed": 4}, "unknown field 'seed'"),
        ):
            path = write_json(tmp_path / "typed.json", doc)
            assert main(["optimize", "--instance", path]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert message in captured.err

    def test_bad_list_entry_is_named_not_the_list(self, tmp_path, capsys):
        # one string among a 9-relay instance's 121 capacities
        caps = [0.0 if i % 12 == 0 else 1.0 + i / 8 for i in range(121)]
        caps[57] = "8.125"
        path = write_json(tmp_path / "nine.json", {"n_relays": 9, "capacities": caps})
        assert main(["optimize", "--instance", path]) == 2
        err = capsys.readouterr().err
        assert "'capacities' must be a list of numbers, got '8.125' at index 57" in err
        assert len(err) < 120
        # a nested list names the outer entry
        doc = {"topology": {"type": "custom", "positions": [[0, 0], [0.5, 0.1], [1, {}]]},
               "snr_db": 10, "seed": 1}
        path = write_json(tmp_path / "pos.json", doc)
        assert main(["optimize", "--instance", path]) == 2
        assert "got [1, {}] at index 2" in capsys.readouterr().err

    @pytest.mark.parametrize("bad", [float("inf"), float("nan")])
    def test_nonfinite_position_exits_2(self, tmp_path, capsys, bad):
        doc = {"topology": {"type": "custom", "positions": [[0, 0], [0.5, bad], [1, 0]]},
               "snr_db": 10, "seed": 1}
        path = write_json(tmp_path / "p.json", doc)
        assert main(["optimize", "--instance", path]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "positions must be finite: node 1 at (0.5, " in captured.err

    @pytest.mark.parametrize("topology, pair", [
        ({"type": "linear", "n_relays": 2, "p_a": 700}, "nodes 0 and 1"),
        ({"type": "custom", "p_a": 200, "positions": [[0, 0], [0.5, 0.1], [1000, 0]]},
         "nodes 0 and 2"),
    ])
    def test_path_loss_beyond_float_range_exits_2(self, tmp_path, capsys, topology, pair):
        # lambda = d^p_a underflows to 0 or overflows to inf; neither is a
        # symmetry error nor an infeasible instance
        path = write_json(tmp_path / "pa.json", {"topology": topology, "snr_db": 10, "seed": 1})
        assert main(["optimize", "--instance", path]) == 2
        err = capsys.readouterr().err
        assert f"{pair}: lambda = d^p_a" in err and "lower p_a" in err

    def test_nonfinite_capacity_exits_2(self, tmp_path, capsys):
        path = write_json(tmp_path / "nan.json",
                          {"n_relays": 1, "capacities": [0, 2, np.nan, 2, 0, 2, np.nan, 2, 0]})
        assert main(["optimize", "--instance", path]) == 2
        assert capsys.readouterr().out == ""

    def test_overflowing_slots_are_not_feasible(self, tmp_path, capsys):
        # admissible links far apart in magnitude overflow the slots of
        # every subset with a relay to inf or NaN; none of them is feasible
        caps = np.zeros((5, 5))
        for (i, j), value in {(0, 1): 1e-299, (0, 3): 10, (1, 2): 1, (1, 4): 10,
                              (2, 3): 1e-200, (2, 4): 10, (3, 4): 1e-200}.items():
            caps[i, j] = value
        doc = {"n_relays": 3, "capacities": caps.ravel().tolist()}
        path = write_json(tmp_path / "x.json", doc)
        assert main(["optimize", "--instance", path]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "no relay subset nor direct transmission is feasible" in captured.err
        # with a direct link the table lists those subsets as rejected, in
        # strict JSON: a NaN slot sum has no rate
        caps[0, 4] = 1.0
        doc = {"n_relays": 3, "capacities": caps.ravel().tolist()}
        path = write_json(tmp_path / "d.json", doc)
        assert main(["optimize", "--instance", path, "--verbose"]) == 0
        report = json.loads(capsys.readouterr().out, parse_constant=pytest.fail)
        assert report["subset"] == []
        table = {tuple(row["subset"]): row for row in report["subsets"]}
        assert table[(1, 2, 3)] == {"subset": [1, 2, 3], "feasible": False, "rate": None,
                                    "reject_reason": "nonpositive_time"}

    def test_snr_beyond_float_range_exits_2(self, tmp_path, capsys):
        doc = {"topology": {"type": "linear", "n_relays": 2}, "snr_db": 4000, "seed": 4}
        path = write_json(tmp_path / "huge.json", doc)
        assert main(["optimize", "--instance", path]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "snr_db 4000 has no finite linear SNR" in captured.err

    def test_snr_whose_capacities_can_overflow_exits_2(self, tmp_path, capsys):
        # the sweep's bound holds for a generated instance too: on
        # linear_topology(2) an SNR of 3080 dB times a channel power can
        # exceed the float range, and it is refused before any draw
        doc = {"topology": {"type": "linear", "n_relays": 2}, "snr_db": 3080, "seed": 1}
        path = write_json(tmp_path / "hot.json", doc)
        assert main(["optimize", "--instance", path]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("error: snr_db 3080 is too high for this topology: "
                                "an SNR times a channel power can overflow to inf\n")

    @pytest.mark.parametrize("field, value", [
        ("snr_db", [10]), ("seed", [4]), ("seed", "four"), ("seed", "4"), ("seed", 4.5),
        ("seed", True), ("n_relays", [2]), ("n_relays", 2.5), ("snr_db", "10"),
        ("p_a", "3"), ("p_a", True),
    ])
    def test_wrongly_typed_generated_instance_exits_2(self, tmp_path, field, value, capsys):
        doc = {"topology": {"type": "linear", "n_relays": 2}, "snr_db": 10, "seed": 4}
        if field in ("n_relays", "p_a"):
            doc["topology"][field] = value
        else:
            doc[field] = value
        path = write_json(tmp_path / "typed.json", doc)
        assert main(["optimize", "--instance", path]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"'{field}' must be" in captured.err

    @pytest.mark.parametrize("doc, flags, message", [
        ({"n_relays": 1, "capacities": [0, 2, 1, 2, 0, 2, 1, 2, 0], "mask": [True] * 8}, [],
         "mask shape does not match capacities"),
        ([], [], "top-level JSON value must be an object"),
        ({"topology": {"type": "linear", "n_relays": 13}, "snr_db": 10, "seed": 1},
         ["--verbose"], "verbose table capped at 12 relays, instance has 13"),
    ], ids=["mask-length", "top-level-array", "verbose-13-relays"])
    def test_rejected_instance_exits_2(self, tmp_path, doc, flags, message, capsys):
        path = write_json(tmp_path / "inst.json", doc)
        assert main(["optimize", "--instance", path, *flags]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert message in captured.err

    def test_no_feasible_solution_exits_3(self, tmp_path, capsys):
        path = write_json(tmp_path / "z.json", {"n_relays": 0, "capacities": [0, 0, 0, 0]})
        assert main(["optimize", "--instance", path]) == 3

    def test_writes_report_file(self, relay_instance, tmp_path, capsys):
        out = tmp_path / "report"
        assert main(["optimize", "--instance", relay_instance, "--out", str(out)]) == 0
        on_disk = json.loads((tmp_path / "report.json").read_text())
        assert on_disk == json.loads(capsys.readouterr().out)


class TestSerialization:
    def test_instance_round_trip(self, tmp_path):
        caps = np.array(
            [[0, 5, 5, 1], [5, 0, 0, 5], [5, 0, 0, 5], [1, 5, 5, 0]], dtype=float
        )
        path = write_json(
            tmp_path / "i.json",
            {"n_relays": 2, "capacities": [v for row in caps for v in row]},
        )
        loaded = load_instance(path)
        doc = instance_document(loaded)
        assert sorted(doc) == ["capacities", "n_relays"]
        again = load_instance(write_json(tmp_path / "i2.json", doc))
        assert np.array_equal(loaded.caps, again.caps)

    def test_instance_mask_zeroes_its_links(self, tmp_path):
        mask = [True] * 16
        mask[1] = mask[6] = False  # links 0 -> 1 and 1 -> 2; 1 -> 0 stays
        path = write_json(tmp_path / "i.json", {
            "n_relays": 2, "capacities": [3.0] * 16, "mask": mask,
        })
        want = np.full((4, 4), 3.0)
        want[0, 1] = want[1, 2] = 0.0
        np.fill_diagonal(want, 0.0)
        assert np.array_equal(load_instance(path).caps, want)

    @pytest.mark.parametrize("doc", [
        {"n_relays": 3, "capacities": [0, 1, 10, 1, 5, 1, 0, 1, 1, 5, 10, 1, 0, 1, 0,
                                       1, 1, 1, 0, 1, 5, 5, 0, 1, 0],
         "mask": [i % 7 != 3 for i in range(25)]},
        {"topology": {"type": "random", "n_relays": 9, "seed": 3}, "snr_db": 10, "seed": 1},
    ], ids=["masked", "random9"])
    def test_report_instance_reproduces_the_report(self, tmp_path, doc, capsys):
        # the report's instance, fed back, gives the same answer and counters
        assert main(["optimize", "--instance", write_json(tmp_path / "a.json", doc)]) == 0
        first = json.loads(capsys.readouterr().out)
        path = write_json(tmp_path / "b.json", first["instance"])
        assert main(["optimize", "--instance", path]) == 0
        assert json.loads(capsys.readouterr().out) == first

    def test_topology_round_trip(self):
        topo = grid_topology(2, p_a=3.0)
        spec = {"type": "custom", "p_a": topo.p_a,
                "positions": [[float(x), float(y)] for x, y in topo.positions]}
        again = parse_topology(spec)
        assert np.allclose(again.positions, topo.positions)
        assert again.p_a == topo.p_a


class TestComplexity:
    def test_table_and_total(self, capsys):
        assert main(["complexity", "3"]) == 0
        out = capsys.readouterr().out
        for token in ("17", "32", "53", "200"):
            assert token in out

    def test_single_relay(self, capsys):
        assert main(["complexity", "1"]) == 0
        assert "17" in capsys.readouterr().out

    def test_out_of_range(self, capsys):
        assert main(["complexity", "0"]) == 2
        assert main(["complexity", "31"]) == 2

    def test_reused_parser_carries_nothing_between_calls(self, capsys):
        # the parser is built once and reused by every main call
        assert main(["complexity", "3"]) == 0
        first = capsys.readouterr().out
        assert main(["complexity", "1"]) == 0
        assert capsys.readouterr().out != first
        assert main(["complexity", "3"]) == 0
        assert capsys.readouterr().out == first
        assert cli._build_parser() is cli._build_parser()


@pytest.fixture
def sweep_config(tmp_path):
    return write_json(
        tmp_path / "cfg.json",
        {
            "topology": {"type": "linear", "n_relays": 2},
            "snr_db": [0, 10],
            "n_trials": 300,
            "epsilon": 0.05,
            "base_seed": 7,
            "out_prefix": str(tmp_path / "curve"),
        },
    )


class TestSimulate:
    def test_writes_csv_and_json(self, sweep_config, tmp_path, capsys):
        assert main(["simulate", "--config", sweep_config]) == 0
        csv_text = (tmp_path / "curve.csv").read_text()
        assert csv_text.startswith("# config:")
        assert "snr_db,outage_rate_optimized" in csv_text
        doc = json.loads((tmp_path / "curve.json").read_text())
        assert doc["config"]["base_seed"] == 7

    def test_rerun_is_byte_identical(self, sweep_config, tmp_path, capsys):
        assert main(["simulate", "--config", sweep_config]) == 0
        first = (tmp_path / "curve.csv").read_bytes(), (tmp_path / "curve.json").read_bytes()
        assert main(["simulate", "--config", sweep_config]) == 0
        second = (tmp_path / "curve.csv").read_bytes(), (tmp_path / "curve.json").read_bytes()
        assert first == second

    def test_flag_overrides_echoed(self, sweep_config, tmp_path, capsys):
        assert main(["simulate", "--config", sweep_config, "--trials", "200",
                     "--seed", "9", "--mode", "optimized", "--scheme", "random",
                     "--out", str(tmp_path / "flagged")]) == 0
        assert not (tmp_path / "curve.json").exists()
        assert (tmp_path / "flagged.csv").exists()
        doc = json.loads((tmp_path / "flagged.json").read_text())
        assert doc["config"]["n_trials"] == 200
        assert doc["config"]["base_seed"] == 9
        assert doc["config"]["modes"] == ["optimized"]
        assert doc["config"]["scheme"] == "random"
        assert doc["config"]["out_prefix"] == str(tmp_path / "flagged")
        assert set(doc["curves"]) == {"optimized"}

    def test_invalid_config_exits_2(self, tmp_path, capsys):
        path = write_json(tmp_path / "c.json", {"snr_db": [0]})
        assert main(["simulate", "--config", path]) == 2
        path = write_json(
            tmp_path / "c2.json",
            {"topology": {"type": "hexagon"}, "snr_db": [0]},
        )
        assert main(["simulate", "--config", path]) == 2
        path = write_json(
            tmp_path / "c3.json",
            {"topology": {"type": "linear", "n_relays": 1}, "modes": ["bogus"]},
        )
        assert main(["simulate", "--config", path]) == 2
        path = write_json(
            tmp_path / "c4.json", {"topology": {"type": "linear", "n_relays": 1}, "modes": []}
        )
        assert main(["simulate", "--config", path]) == 2
        assert "modes must be nonempty" in capsys.readouterr().err
        for positions in ({"a": 1}, [[0, 0], [0.5, 0.1], [1, {}]]):
            path = write_json(tmp_path / "c5.json",
                              {"topology": {"type": "custom", "positions": positions}})
            assert main(["simulate", "--config", path]) == 2
            assert "'positions' must be a list of [x, y] pairs" in capsys.readouterr().err
        path = write_json(tmp_path / "c6.json", {"topology": {"type": "linear", "n_relays": 1},
                                                 "n_trial": 5})
        assert main(["simulate", "--config", path]) == 2
        assert "unknown field 'n_trial'" in capsys.readouterr().err

    @pytest.mark.parametrize("field, value", [
        ("snr_db", 10), ("snr_db", "0, 10"), ("n_trials", [300]), ("n_trials", 1e400),
        ("epsilon", [0.05]), ("base_seed", [7]), ("parallel", [1]), ("modes", 5),
        ("n_trials", 200.9), ("n_trials", True), ("n_trials", "300"), ("base_seed", 7.5),
        ("parallel", 1.5), ("out_prefix", 5), ("epsilon", "0.05"), ("snr_db", ["0"]),
        ("snr_db", [True]), ("scheme", 5),
    ])
    def test_wrongly_typed_field_exits_2(self, sweep_config, field, value, capsys):
        with open(sweep_config, encoding="utf-8") as fh:
            doc = json.load(fh)
        doc[field] = value
        with open(sweep_config, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        assert main(["simulate", "--config", sweep_config]) == 2
        assert f"'{field}' must be" in capsys.readouterr().err

    @pytest.mark.parametrize("field, value, message", [
        ("scheme", "bogus", "unknown numbering scheme 'bogus'"),
        ("snr_db", [], "snr grid must be nonempty"),
        # each trial adds up to 2^N rejects to an int64 total
        ("n_trials", 1e30, f"n_trials must be below 2^63 / 2^N = {2**61},"),
        ("topology", {"type": "custom", "positions": [[0, 0]]},
         "positions must be (n >= 2, 2), got (1, 2)"),
        ("topology", {"type": "linear", "n_relays": -1}, "n_relays must be nonnegative"),
        ("topology", {"type": "grid", "side": 0}, "grid side must be >= 1"),
        ("topology", {"type": "random", "n_relays": 0, "seed": 1}, "n_relays must be >= 1"),
        ("topology", {"type": "linear", "n_relays": 2, "p_a": 0},
         "path-loss exponent must be positive"),
    ], ids=["scheme", "snr-grid-empty", "n-trials-1e30", "custom-one-node",
            "linear-negative", "grid-side-0", "random-empty", "p-a-0"])
    def test_out_of_range_field_exits_2(self, sweep_config, tmp_path, field, value, message,
                                        capsys):
        with open(sweep_config, encoding="utf-8") as fh:
            doc = json.load(fh)
        doc[field] = value
        with open(sweep_config, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        assert main(["simulate", "--config", sweep_config]) == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "curve.json").exists()

    def test_integral_float_trial_count_is_accepted(self, sweep_config, tmp_path, capsys):
        with open(sweep_config, encoding="utf-8") as fh:
            doc = json.load(fh)
        doc["n_trials"] = 300.0
        with open(sweep_config, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        assert main(["simulate", "--config", sweep_config]) == 0
        echoed = json.loads((tmp_path / "curve.json").read_text())["config"]["n_trials"]
        assert echoed == 300 and isinstance(echoed, int)

    def test_nonfinite_snr_exits_2(self, tmp_path, capsys):
        path = write_json(tmp_path / "inf.json", {"topology": {"type": "linear", "n_relays": 1},
                                                  "snr_db": [0, float("inf")]})
        assert main(["simulate", "--config", path]) == 2
        assert "snr_db inf has no finite linear SNR" in capsys.readouterr().err

    def test_snr_beyond_float_range_exits_2(self, tmp_path, capsys):
        path = write_json(tmp_path / "huge.json", {"topology": {"type": "linear", "n_relays": 1},
                                                   "snr_db": [4000]})
        assert main(["simulate", "--config", path]) == 2
        assert "snr_db 4000 has no finite linear SNR" in capsys.readouterr().err

    @pytest.mark.parametrize("parallel", [1, 2])
    def test_snr_whose_capacities_can_overflow_exits_2(self, tmp_path, parallel, capsys):
        # on linear_topology(2) an SNR of 3070 dB times a channel power can
        # exceed the float range, which would make a capacity inf
        path = write_json(tmp_path / "hot.json", {
            "topology": {"type": "linear", "n_relays": 2}, "snr_db": [0, 3070],
            "n_trials": 200, "parallel": parallel, "out_prefix": str(tmp_path / "hot"),
        })
        assert main(["simulate", "--config", path]) == 2
        assert "snr_db 3070 is too high for this topology" in capsys.readouterr().err
        assert not (tmp_path / "hot.csv").exists()

    def test_snr_within_the_overflow_bound_is_swept_as_before(self, tmp_path, capsys):
        # the figures were written before the bound existed; 3000 dB is within it
        path = write_json(tmp_path / "warm.json", {
            "topology": {"type": "linear", "n_relays": 2}, "snr_db": [3000],
            "n_trials": 200, "out_prefix": str(tmp_path / "warm"),
        })
        assert main(["simulate", "--config", path]) == 0
        assert (tmp_path / "warm.csv").read_text().splitlines()[1:] == [
            "snr_db,outage_rate_optimized,outage_rate_equal_time,avg_active_optimized,"
            "avg_active_equal_time",
            "3000,990.801182,990.709778,1.265,0",
        ]
        curves = json.loads((tmp_path / "warm.json").read_text())["curves"]
        common = {"epsilon": 0.01, "n_trials": 200, "snr_db": [3000.0], "snr_linear": [1e300]}
        assert curves == {
            "equal_time": {"avg_active": [0.0], "outage_rate": [990.7097784214227],
                           "reject_totals": None, **common},
            "optimized": {"avg_active": [1.265], "outage_rate": [990.8011820091498],
                          "reject_totals": {"negative_rate": [0], "nonpositive_time": [144],
                                            "singular": [0]}, **common},
        }

    def test_too_few_trials_for_epsilon_exits_2(self, sweep_config, capsys):
        argv = ["simulate", "--config", sweep_config, "--trials", "50", "--epsilon", "0.001"]
        assert main(argv) == 2
        assert "50 samples cannot resolve outage probability 0.001" in capsys.readouterr().err

    @pytest.mark.parametrize("epsilon", ["0", "-0.5", "1.5", "nan"])
    def test_epsilon_out_of_range_exits_2(self, sweep_config, epsilon, capsys):
        assert main(["simulate", "--config", sweep_config, "--epsilon", epsilon]) == 2
        assert "epsilon must be in (0, 1]" in capsys.readouterr().err

    @pytest.mark.parametrize("parallel", ["0", "-3"])
    def test_parallel_below_one_exits_2(self, sweep_config, tmp_path, parallel, capsys):
        assert main(["simulate", "--config", sweep_config, "--parallel", parallel]) == 2
        assert f"parallel must be at least 1, got {parallel}" in capsys.readouterr().err
        assert not (tmp_path / "curve.json").exists()


class TestNumbering:
    def test_grid_produces_all_five_schemes(self, tmp_path, capsys):
        cfg = write_json(
            tmp_path / "n.json",
            {
                "topology": {"type": "grid", "side": 2},
                "snr_db": [10],
                "n_trials": 200,
                "epsilon": 0.05,
                "base_seed": 3,
                "modes": ["optimized"],
                "out_prefix": str(tmp_path / "num"),
            },
        )
        assert main(["numbering", "--config", cfg]) == 0
        doc = json.loads((tmp_path / "num.json").read_text())
        assert len(doc) == 5
        for scheme in doc:
            assert (tmp_path / f"num_{scheme}.csv").exists()

    def test_random_topology_skips_average_schemes(self, tmp_path, capsys):
        cfg = write_json(
            tmp_path / "nr.json",
            {
                "topology": {"type": "random", "n_relays": 3, "seed": 5},
                "snr_db": [10],
                "n_trials": 100,
                "epsilon": 0.05,
                "base_seed": 3,
                "modes": ["optimized"],
                "out_prefix": str(tmp_path / "rnd"),
            },
        )
        assert main(["numbering", "--config", cfg]) == 0
        err = capsys.readouterr().err
        assert "skipping average_descending" in err
        assert "skipping average_linear" in err
        doc = json.loads((tmp_path / "rnd.json").read_text())
        assert len(doc) == 3

    def test_each_scheme_matches_simulate(self, sweep_config, tmp_path, capsys):
        # numbering and simulate share one sweep-and-write path per scheme
        prefix = str(tmp_path / "p")
        assert main(["numbering", "--config", sweep_config, "--out", prefix]) == 0
        records = json.loads((tmp_path / "p.json").read_text())
        assert len(records) == 5
        for scheme, record in records.items():
            assert main(["simulate", "--config", sweep_config, "--scheme", scheme,
                         "--out", prefix]) == 0
            assert (tmp_path / "p.csv").read_bytes() == \
                (tmp_path / f"p_{scheme}.csv").read_bytes()
            assert json.loads((tmp_path / "p.json").read_text()) == record

    def test_too_few_trials_for_epsilon_exits_2(self, tmp_path, capsys):
        cfg = write_json(
            tmp_path / "few.json",
            {
                "topology": {"type": "linear", "n_relays": 2},
                "n_trials": 50,
                "epsilon": 0.001,
                "out_prefix": str(tmp_path / "few"),
            },
        )
        assert main(["numbering", "--config", cfg]) == 2
        assert "50 samples cannot resolve outage probability 0.001" in capsys.readouterr().err
        assert not list(tmp_path.glob("few*.csv"))


class TestModuleEntryPoint:
    """``python -m relayalloc.cli``, the process the benchmark spawns, run in a
    fresh interpreter from an empty working directory."""

    @staticmethod
    def run(args, cwd):
        src = Path(__file__).resolve().parent.parent / "src"
        path = os.environ.get("PYTHONPATH")
        env = dict(os.environ, PYTHONPATH=str(src) + (os.pathsep + path if path else ""))
        return subprocess.run([sys.executable, "-m", "relayalloc.cli", *args], cwd=cwd,
                              env=env, capture_output=True, text=True, timeout=120)

    def test_complexity_exits_0(self, tmp_path):
        proc = self.run(["complexity", "3"], tmp_path)
        assert proc.returncode == 0, proc.stderr
        total = worst_case_ops(3)
        assert f"worst-case total over all subsets of 3 relays: {total}\n" in proc.stdout

    def test_import_builds_no_parser(self, tmp_path):
        src = Path(__file__).resolve().parent.parent / "src"
        code = "import relayalloc.cli as c; print(c._build_parser.cache_info().currsize)"
        proc = subprocess.run([sys.executable, "-c", code], cwd=tmp_path, capture_output=True,
                              text=True, timeout=120,
                              env=dict(os.environ, PYTHONPATH=str(src)))
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "0\n"

    def test_overflowing_generated_instance_prints_only_its_error(self, tmp_path):
        # no numpy warning either, which tier-1's filter would turn into an
        # exception in process but a fresh interpreter prints to stderr
        write_json(tmp_path / "hot.json", {"topology": {"type": "linear", "n_relays": 2},
                                           "snr_db": 3080, "seed": 1})
        proc = self.run(["optimize", "--instance", "hot.json"], tmp_path)
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr == ("error: snr_db 3080 is too high for this topology: "
                               "an SNR times a channel power can overflow to inf\n")

    def test_array_instance_exits_2(self, tmp_path):
        write_json(tmp_path / "inst.json", [])
        proc = self.run(["optimize", "--instance", "inst.json"], tmp_path)
        assert proc.returncode == 2
        assert "top-level JSON value must be an object" in proc.stderr

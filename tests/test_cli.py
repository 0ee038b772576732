import json

import numpy as np
import pytest

from relayalloc.cli import instance_document, load_instance, main, parse_topology, topology_document
from relayalloc.scenario import grid_topology


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
        assert main(["optimize", "--instance", str(tmp_path / "nope.json")]) == 2

    def test_nonfinite_capacity_exits_2(self, tmp_path, capsys):
        path = write_json(tmp_path / "nan.json",
                          {"n_relays": 1, "capacities": [0, 2, np.nan, 2, 0, 2, np.nan, 2, 0]})
        assert main(["optimize", "--instance", path]) == 2
        assert capsys.readouterr().out == ""

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
        again = load_instance(write_json(tmp_path / "i2.json", instance_document(loaded)))
        assert np.array_equal(loaded.caps, again.caps)
        assert np.array_equal(loaded.link_mask, again.link_mask)

    def test_topology_round_trip(self):
        topo = grid_topology(2, p_a=3.0)
        again = parse_topology(topology_document(topo))
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
                     "--seed", "9", "--mode", "optimized"]) == 0
        doc = json.loads((tmp_path / "curve.json").read_text())
        assert doc["config"]["n_trials"] == 200
        assert doc["config"]["base_seed"] == 9
        assert doc["config"]["modes"] == ["optimized"]
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


    def test_nonfinite_snr_exits_2(self, tmp_path, capsys):
        path = write_json(tmp_path / "inf.json", {"topology": {"type": "linear", "n_relays": 1},
                                                  "snr_db": [0, float("inf")]})
        assert main(["simulate", "--config", path]) == 2
        assert "snr_db values must be finite" in capsys.readouterr().err

    @pytest.mark.parametrize("epsilon", ["0", "-0.5", "1.5", "nan"])
    def test_epsilon_out_of_range_exits_2(self, sweep_config, epsilon, capsys):
        assert main(["simulate", "--config", sweep_config, "--epsilon", epsilon]) == 2
        assert "epsilon must be in (0, 1]" in capsys.readouterr().err


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

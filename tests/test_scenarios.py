"""Scenario data: generators, cell geometry, real-dataset adapters."""

import csv
import json

import numpy as np
import pytest

from mlsec5g.scenarios.adapters import AdapterError, ingest_real_dataset
from mlsec5g.scenarios.generators import (ATTACKER_IPS, CQI_FEATURES,
                                          MODULATIONS, SIGNAL_FEATURES,
                                          SLICE_FEATURES,
                                          generate_cqi_records,
                                          generate_cqi_series,
                                          generate_placements,
                                          generate_scenario_data,
                                          generate_signals,
                                          generate_subscriptions,
                                          generate_traffic, records_to_matrix,
                                          slice_label)
from mlsec5g.scenarios import mimo
from mlsec5g.scenarios.mimo import (MimoTopology, grid_topology,
                                    ground_truth_power, normalize_powers,
                                    spectral_efficiency)
from views import packets_to_text


def loop_placements(seed, n_samples, cell_size=250.0, ues_per_cell=5, min_gnb_distance=20.0):
    """The scalar rejection loop the block sampler replaces: two rng.uniform
    draws per try, one terminal at a time, and the policy one placement at a
    time."""
    def place(rng, cells):
        positions = []
        for xmin, ymin, xmax, ymax in cells:
            gx, gy = xmin + cell_size / 2.0, ymin + cell_size / 2.0
            while True:
                x = float(rng.uniform(xmin, xmax))
                y = float(rng.uniform(ymin, ymax))
                if np.hypot(x - gx, y - gy) >= min_gnb_distance:
                    positions.append((x, y))
                    break
        return np.array(positions)

    grid = [(col * cell_size, row * cell_size, col * cell_size + cell_size,
             row * cell_size + cell_size) for row in range(2) for col in range(2)]
    cells = [cell for cell in grid for _ in range(ues_per_cell)]
    topo_rng = np.random.default_rng([int(seed) & 0x7FFFFFFFFFFFFFFF, 0x707])
    topo = grid_topology(cell_size=cell_size, ues_per_cell=ues_per_cell, seed=seed,
                         min_gnb_distance=min_gnb_distance)
    assert place(topo_rng, cells).tobytes() == topo.ue_positions.tobytes()
    rng = np.random.default_rng([int(seed) & 0x7FFFFFFFFFFFFFFF, 0xC55])
    X, Y = [], []
    for _ in range(n_samples):
        pos = place(rng, cells)
        X.append(pos.ravel())
        Y.append(ground_truth_power(topo, pos))
    return np.array(X), np.array(Y)


class TestGenerators:
    def test_traffic_session_count_and_labels(self):
        data = generate_traffic(seed=1, n_hosts=10, sessions_per_host=3,
                                sessions_per_attacker=2)
        assert len(data["session_labels"]) == 10 * 3 + 6 * 2
        assert set(data["session_labels"].values()) <= {"active", "background"}
        assert data["attacker_ips"] == ATTACKER_IPS
        ts = [p.timestamp for p in data["packets"]]
        assert ts == sorted(ts)

    def test_traffic_is_deterministic_per_seed(self):
        a = generate_traffic(seed=9, n_hosts=4, sessions_per_host=2)
        b = generate_traffic(seed=9, n_hosts=4, sessions_per_host=2)
        c = generate_traffic(seed=10, n_hosts=4, sessions_per_host=2)
        assert a["packets"] == b["packets"]
        assert a["packets"] != c["packets"]

    def test_cqi_records_shape_and_consistency(self):
        data = generate_cqi_records(seed=3, n=120)
        assert len(data["records"]) == 120
        assert data["schema"] == CQI_FEATURES
        assert data["targets"].shape == (120,)
        assert np.all((data["targets"] >= 0) & (data["targets"] <= 15))
        for rec in data["records"][:20]:
            assert rec["pktRxAiat"] == pytest.approx(1000.0 / rec["pktRx"])

    def test_records_to_matrix_round_trip(self):
        data = generate_cqi_records(seed=3, n=10)
        M = records_to_matrix(data["records"], data["schema"])
        assert M.shape == (10, len(CQI_FEATURES))
        assert M[4, data["schema"].index("RSRP")] == data["records"][4]["RSRP"]

    def test_series_profiles_respect_their_bounds(self):
        for profile, lo in (("static", 0.0), ("driving", 0.0), ("high", 7.0)):
            data = generate_cqi_series(seed=2, length=500, profile=profile)
            assert data["series"].shape == (500,)
            assert data["series"].min() >= lo
            assert data["series"].max() <= 15.0
        with pytest.raises(ValueError, match="profile"):
            generate_cqi_series(profile="indoor")

    def test_signals_balanced_and_noisy_around_templates(self):
        data = generate_signals(seed=4, n_per_class=12)
        assert data["X"].shape == (12 * len(MODULATIONS), 256)
        counts = np.bincount(data["y"])
        assert counts.tolist() == [12] * len(MODULATIONS)
        assert data["schema"] == SIGNAL_FEATURES
        # class geometry is pinned: a second draw keeps the informative set
        again = generate_signals(seed=99, n_per_class=2)
        assert np.array_equal(data["informative"], again["informative"])

    def test_placements_targets_match_the_policy(self):
        data = generate_placements(seed=5, n_samples=6, ues_per_cell=2)
        topo = data["topology"]
        assert data["X"].shape == (6, 2 * topo.n_ues)
        for i in range(6):
            pos = data["X"][i].reshape(topo.n_ues, 2)
            assert data["Y"][i] == pytest.approx(ground_truth_power(topo, pos))

    @pytest.mark.parametrize("seed, n_samples, min_gnb_distance, block", [
        (0, 300, 20.0, 256), (7, 300, 20.0, 256), (7, 60, 124.9, 256),
        (3, 40, 20.0, 7), (5, 20, 110.0, 1), (9, 30, 0.0, 3)])
    def test_block_placements_are_the_scalar_loop_bit_for_bit(
            self, seed, n_samples, min_gnb_distance, block, monkeypatch):
        monkeypatch.setattr(mimo, "_PLACE_BLOCK", block)
        data = generate_placements(seed=seed, n_samples=n_samples,
                                   min_gnb_distance=min_gnb_distance)
        X, Y = loop_placements(seed, n_samples, min_gnb_distance=min_gnb_distance)
        assert data["X"].tobytes() == X.tobytes() and data["Y"].tobytes() == Y.tobytes()

    def test_subscriptions_follow_the_assignment_rule(self):
        data = generate_subscriptions(seed=6, n=200)
        assert len(data["records"]) == 200
        assert all(slice_label(r) == lbl
                   for r, lbl in zip(data["records"], data["labels"]))
        assert set(data["labels"]) == {"URLLC", "eMBB", "mMTC"}

    def test_day_and_hour_never_decide_the_label(self):
        data = generate_subscriptions(seed=6, n=50)
        for rec in data["records"]:
            moved = dict(rec, Day=1.0 + (rec["Day"] % 7), Hour=(rec["Hour"] + 5) % 24)
            assert slice_label(moved) == slice_label(rec)

    def test_dispatch_covers_all_scenarios(self):
        assert generate_scenario_data("cs3", seed=1, length=60)["series"].shape == (60,)
        with pytest.raises(ValueError, match="unknown scenario"):
            generate_scenario_data("cs9")


class TestMimoGeometry:
    def test_grid_layout(self):
        topo = grid_topology(cell_size=100.0, ues_per_cell=3, seed=1)
        assert topo.n_cells == 4 and topo.n_ues == 12
        for k in range(topo.n_ues):
            xmin, ymin, xmax, ymax = topo.cell_bounds[topo.serving[k]]
            x, y = topo.ue_positions[k]
            assert xmin <= x <= xmax and ymin <= y <= ymax
            gx, gy = topo.gnb_positions[topo.serving[k]]
            assert np.hypot(x - gx, y - gy) >= 20.0

    def test_policy_spends_each_budget_exactly(self):
        topo = grid_topology(seed=2, power_budget=1.7)
        powers = ground_truth_power(topo)
        for c in range(topo.n_cells):
            assert powers[topo.cell_members(c)].sum() == pytest.approx(1.7)

    def test_moving_outward_gains_power(self):
        topo = grid_topology(seed=2)
        base = ground_truth_power(topo)
        pos = topo.ue_positions.copy()
        k = 0
        g = topo.gnb_positions[topo.serving[k]]
        pos[k] = g + (pos[k] - g) * 1.5
        moved = ground_truth_power(topo, pos)
        assert moved[k] > base[k]
        mates = [j for j in topo.cell_members(topo.serving[k]) if j != k]
        assert all(moved[j] < base[j] for j in mates)

    def test_normalize_clips_and_scales_down_only(self):
        topo = grid_topology(seed=3, power_budget=1.0)
        raw = np.full(topo.n_ues, 0.9)
        raw[0] = -0.5
        out = normalize_powers(topo, raw)
        assert out[0] == 0.0
        for c in range(topo.n_cells):
            assert out[topo.cell_members(c)].sum() <= 1.0 + 1e-12
        small = np.full(topo.n_ues, 0.01)
        assert np.array_equal(normalize_powers(topo, small), small)

    def test_spectral_efficiency_basics(self):
        topo = grid_topology(seed=4)
        powers = ground_truth_power(topo)
        se = spectral_efficiency(topo, powers)
        assert se.shape == (topo.n_ues,)
        assert np.all(se > 0)
        muted = powers.copy()
        muted[3] = 0.0
        assert spectral_efficiency(topo, muted)[3] == 0.0

    def test_spectral_efficiency_refuses_budget_violations(self):
        topo = grid_topology(seed=4, power_budget=1.0)
        powers = np.full(topo.n_ues, 1.0)
        with pytest.raises(ValueError, match="exceeds budget"):
            spectral_efficiency(topo, powers)

    def test_lying_cannot_move_the_victims(self):
        # SE depends on powers and TRUE positions only; a spoofed placement
        # enters through the allocation, never through the channel
        topo = grid_topology(seed=5)
        lie = topo.ue_positions * 1.01
        p_honest = ground_truth_power(topo)
        se_same = spectral_efficiency(topo, p_honest)
        assert np.array_equal(se_same, spectral_efficiency(topo, p_honest,
                                                           true_positions=topo.ue_positions))
        assert not np.array_equal(se_same, spectral_efficiency(topo, p_honest,
                                                               true_positions=lie))

    def test_topology_validation(self):
        with pytest.raises(ValueError, match="outside its serving cell"):
            MimoTopology(np.array([[5.0, 5.0]]), ((0.0, 0.0, 10.0, 10.0),),
                         np.array([[20.0, 20.0]]), np.array([0]))
        with pytest.raises(ValueError, match="budget"):
            grid_topology(power_budget=0.0)

    def test_unreachable_station_distance_raises_before_drawing(self):
        # no point of a 250 m cell lies 200 m from its center: rejection would never end
        with pytest.raises(ValueError, match="inscribed radius"):
            grid_topology(cell_size=250.0, min_gnb_distance=200.0)
        # past 125 m only the corners are left, and rejection slows without bound
        with pytest.raises(ValueError, match="inscribed radius"):
            grid_topology(cell_size=250.0, min_gnb_distance=125.0)
        assert grid_topology(cell_size=250.0, min_gnb_distance=120.0, seed=1).n_ues == 20


def write_csv(path, columns, rows):
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(columns)
        w.writerows(rows)


class TestAdapters:
    def test_traffic_round_trip(self, tmp_path):
        data = generate_traffic(seed=7, n_hosts=3, sessions_per_host=2,
                                sessions_per_attacker=1)
        root = tmp_path / "cs1"
        root.mkdir()
        (root / "packets.csv").write_text(packets_to_text(data["packets"]))
        write_csv(root / "sessions.csv", ["src_ip", "src_port", "label"],
                  [[ip, port, lbl] for (ip, port), lbl in data["session_labels"].items()])
        out = ingest_real_dataset("cs1", str(root),
                                  {"attacker_ips": list(ATTACKER_IPS)})
        assert out["packets"] == data["packets"]
        assert out["session_labels"] == data["session_labels"]
        assert out["attacker_ips"] == ATTACKER_IPS
        assert out["provenance"]["skipped"] == 0

    def test_cqi_records_round_trip_with_rename(self, tmp_path):
        data = generate_cqi_records(seed=8, n=25)
        path = tmp_path / "metrics.csv"
        cols = ["rsrp_dbm" if c == "RSRP" else c for c in CQI_FEATURES] + ["CQI"]
        rows = [[repr(r["RSRP"]) if c == "rsrp_dbm" else repr(r[c]) for c in cols[:-1]]
                + [repr(float(t))]
                for r, t in zip(data["records"], data["targets"])]
        write_csv(path, cols, rows)
        out = ingest_real_dataset("cs2", str(path),
                                  {"rename": {"rsrp_dbm": "RSRP"}})
        assert out["records"] == data["records"]
        assert np.array_equal(out["targets"], data["targets"])
        assert out["provenance"]["rows"] == 25

    def test_malformed_rows_are_counted_not_hidden(self, tmp_path):
        path = tmp_path / "series.csv"
        write_csv(path, ["CQI"], [["7.0"], ["bogus"], ["9.0"], [""]])
        out = ingest_real_dataset("cs3", str(path))
        assert out["series"].tolist() == [7.0, 9.0]
        assert out["provenance"]["skipped"] == 2

    def test_signals_round_trip_with_snr_filter(self, tmp_path):
        data = generate_signals(seed=9, n_per_class=2)
        path = tmp_path / "signals.csv"
        cols = list(SIGNAL_FEATURES) + ["label", "snr"]
        rows = []
        for i in range(len(data["y"])):
            snr = 10.0 if i % 2 == 0 else -4.0
            rows.append([repr(float(v)) for v in data["X"][i]]
                        + [MODULATIONS[data["y"][i]], repr(snr)])
        write_csv(path, cols, rows)
        out = ingest_real_dataset("cs4", str(path), {"snr": 10.0})
        keep = [i for i in range(len(data["y"])) if i % 2 == 0]
        assert np.array_equal(out["X"], data["X"][keep])
        assert np.array_equal(out["y"], data["y"][keep])

    def test_placements_round_trip(self, tmp_path):
        data = generate_placements(seed=10, n_samples=4, ues_per_cell=2)
        topo = data["topology"]
        path = tmp_path / "placements.csv"
        cols = list(data["schema"]) + [f"p{k}" for k in range(topo.n_ues)]
        rows = [[repr(float(v)) for v in np.concatenate([data["X"][i], data["Y"][i]])]
                for i in range(4)]
        write_csv(path, cols, rows)
        topo_path = tmp_path / "topo.json"
        topo_path.write_text(json.dumps({
            "gnb_positions": topo.gnb_positions.tolist(),
            "cell_bounds": [list(b) for b in topo.cell_bounds],
            "ue_positions": topo.ue_positions.tolist(),
            "serving": topo.serving.tolist(),
            "power_budget": topo.power_budget,
        }))
        out = ingest_real_dataset("cs5", str(path), {"topology": str(topo_path)})
        assert np.array_equal(out["X"], data["X"])
        assert np.array_equal(out["Y"], data["Y"])
        assert np.array_equal(out["topology"].ue_positions, topo.ue_positions)

    def test_subscriptions_round_trip(self, tmp_path):
        data = generate_subscriptions(seed=11, n=30)
        path = tmp_path / "subs.csv"
        cols = list(SLICE_FEATURES) + ["Slice"]
        rows = [[repr(r[c]) for c in SLICE_FEATURES] + [lbl]
                for r, lbl in zip(data["records"], data["labels"])]
        write_csv(path, cols, rows)
        out = ingest_real_dataset("cs6", str(path))
        assert out["records"] == data["records"]
        assert np.array_equal(out["labels"], data["labels"])

    def test_missing_ground_truth_is_fatal(self, tmp_path):
        data = generate_cqi_records(seed=8, n=5)
        path = tmp_path / "nolabel.csv"
        rows = [[repr(r[c]) for c in CQI_FEATURES] for r in data["records"]]
        write_csv(path, list(CQI_FEATURES), rows)
        with pytest.raises(AdapterError, match="ground-truth"):
            ingest_real_dataset("cs2", str(path))

    def test_missing_packet_file_is_fatal(self, tmp_path):
        with pytest.raises(AdapterError, match="packets.csv"):
            ingest_real_dataset("cs1", str(tmp_path))

    def test_unknown_scenario(self, tmp_path):
        with pytest.raises(AdapterError, match="no adapter"):
            ingest_real_dataset("cs9", str(tmp_path))

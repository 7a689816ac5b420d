"""Packet parsing, compact records, flow aggregation vs a naive reference,
padding, poisoning."""

import pickle
from dataclasses import replace

import numpy as np
import pytest

from flow_oracle import handwritten_packets, naive_aggregate, naive_features
from mlsec5g import flows as F
from mlsec5g.flows import (FEATURE_NAMES, MAX_PAYLOAD, TCP_FLAGS, FlowRecord, PacketRecord,
                           aggregate_flows, extract_feature_matrix, flow_identity,
                           label_flows, pad_payloads, parse_packet, poison_training_set,
                           port_category)
from mlsec5g.scenarios.adapters import ingest_real_dataset
from mlsec5g.scenarios.generators import generate_traffic
from views import packets_to_text

PREFIXES = ("10.0.0.0/8", "172.16.0.0/12", "192.168.0.0/16")

# the corpus needs a short active timeout so one long flow splits on duration
IDLE_S = 60.0
ACTIVE_S = 300.0

FLOW_FIELDS = ("src_ip", "src_port", "dst_ip", "dst_port", "protocol",
               "first_ts", "last_ts", "src_pkts", "dst_pkts", "src_bytes",
               "dst_bytes", "src_tos", "dst_tos", "state")


class TestAggregationAgainstReference:
    def test_corpus_is_small(self):
        assert len(handwritten_packets()) <= 200

    def test_flows_match_field_for_field(self):
        packets = handwritten_packets()
        ours = aggregate_flows(packets, idle_timeout=IDLE_S, active_timeout=ACTIVE_S)
        ref = naive_aggregate(packets, idle_timeout=IDLE_S, active_timeout=ACTIVE_S)
        assert len(ours) == len(ref)
        for got, want in zip(ours, ref):
            for name in FLOW_FIELDS:
                assert getattr(got, name) == want[name], \
                    f"{name} differs on flow {want['src_ip']}:{want['src_port']}"
            assert got.tot_bytes == want["tot_bytes"]
            assert got.tot_pkts == want["tot_pkts"]
            assert got.dur == want["dur"]

    def test_every_payload_byte_lands_in_exactly_one_flow(self):
        packets = handwritten_packets()
        flows = aggregate_flows(packets, idle_timeout=IDLE_S, active_timeout=ACTIVE_S)
        assert sum(f.tot_bytes for f in flows) == sum(p.payload_len for p in packets)
        assert sum(f.tot_pkts for f in flows) == len(packets)

    def test_feature_vectors_match_reference(self):
        packets = handwritten_packets()
        ours = aggregate_flows(packets, idle_timeout=IDLE_S, active_timeout=ACTIVE_S)
        ref = naive_aggregate(packets, idle_timeout=IDLE_S, active_timeout=ACTIVE_S)
        X = extract_feature_matrix(ours, PREFIXES)
        assert X.shape == (len(ref), len(FEATURE_NAMES))
        for i, want in enumerate(ref):
            assert X[i].tolist() == naive_features(want, PREFIXES)

    def test_expected_states_appear(self):
        flows = aggregate_flows(handwritten_packets(),
                                idle_timeout=IDLE_S, active_timeout=ACTIVE_S)
        states = {f.state for f in flows}
        assert states == {"INT", "REQ", "CON", "FIN", "RST"}


class TestPacketParsing:
    def test_text_round_trip(self, tmp_path):
        packets = handwritten_packets()
        (tmp_path / "packets.csv").write_text(packets_to_text(packets))
        (tmp_path / "sessions.csv").write_text("src_ip,src_port,label\n10.0.0.1,1,normal\n")
        again = ingest_real_dataset("cs1", str(tmp_path))["packets"]
        assert again == sorted(packets, key=lambda p: p.timestamp)

    def test_packet_validation(self):
        with pytest.raises(ValueError, match="protocol"):
            PacketRecord(0.0, "a", 1, "b", 2, "tcp", 0)
        with pytest.raises(ValueError, match="payload_len"):
            PacketRecord(0.0, "a", 1, "b", 2, "TCP", MAX_PAYLOAD + 1)
        with pytest.raises(ValueError, match="port"):
            PacketRecord(0.0, "a", 70000, "b", 2, "TCP", 0)
        with pytest.raises(ValueError, match="tcp_flags"):
            PacketRecord(0.0, "a", 1, "b", 2, "UDP", 0, frozenset({"SYN"}))

    def test_timeouts_must_be_positive(self):
        with pytest.raises(ValueError, match="timeout"):
            aggregate_flows([], idle_timeout=0.0)


class TestCompactRecords:
    def test_stock_packets_share_one_flag_set_per_combination(self):
        packets = generate_traffic(seed=1)["packets"]
        assert len({id(p.tcp_flags) for p in packets}) == len({p.tcp_flags for p in packets})

    def test_records_carry_no_instance_dict(self):
        packets = handwritten_packets()
        flows = aggregate_flows(packets, idle_timeout=IDLE_S, active_timeout=ACTIVE_S)
        assert not any(hasattr(r, "__dict__") for r in [*packets, *flows])

    def test_parsed_rows_with_the_same_flags_share_the_set(self):
        row = ["1.0", "10.0.0.1", "40000", "8.8.8.8", "443", "TCP", "SYN+ACK", "0", "0"]
        a = parse_packet(row)
        b = parse_packet(row[:6] + ["ACK+SYN"] + row[7:])
        assert a.tcp_flags is b.tcp_flags == frozenset({"SYN", "ACK"})

    def test_copies_by_replace_and_pickle_stay_equal_and_compact(self):
        p = handwritten_packets()[0]
        f = make_flows()[0]
        for record in (p, f):
            for copy in (replace(record), pickle.loads(pickle.dumps(record))):
                assert copy == record and not hasattr(copy, "__dict__")
        assert replace(p, payload_len=7).tcp_flags is p.tcp_flags

    def test_an_unknown_flag_is_refused_before_it_is_shared(self):
        with pytest.raises(ValueError, match="unknown tcp flags"):
            PacketRecord(0.0, "a", 1, "b", 2, "TCP", 0, ("SYN", "URG"))
        assert frozenset({"SYN", "URG"}) not in F._FLAG_SETS
        assert all(flags <= set(TCP_FLAGS) for flags in F._FLAG_SETS)


class TestPortsAndPrefixes:
    def test_port_category_boundaries(self):
        assert port_category(0) == 0
        assert port_category(1023) == 0
        assert port_category(1024) == 1
        assert port_category(49151) == 1
        assert port_category(49152) == 2
        assert port_category(65535) == 2

    def test_port_category_range_check(self):
        with pytest.raises(ValueError):
            port_category(-1)


def make_packets(src="10.0.0.2", n=5, payload=100):
    return [PacketRecord(float(i), src, 50000, "8.8.8.8", 53, "UDP", payload)
            for i in range(n)]


class TestPadding:
    def test_zero_bound_is_identity(self):
        packets = make_packets()
        assert pad_payloads(packets, [packets[0].src_ip], 0, seed=1) == packets

    def test_only_attacker_data_packets_grow(self):
        packets = make_packets("10.0.0.2") + make_packets("10.0.0.3")
        handshake = PacketRecord(99.0, "10.0.0.2", 50000, "8.8.8.8", 53, "UDP", 0)
        padded = pad_payloads(packets + [handshake], ["10.0.0.2"], 400, seed=1)
        for before, after in zip(packets + [handshake], padded):
            if before.src_ip == "10.0.0.2" and before.payload_len > 0:
                assert after.payload_len >= before.payload_len
            else:
                assert after == before
        assert any(a.payload_len > b.payload_len
                   for a, b in zip(padded, packets + [handshake]))

    def test_pad_clamps_at_payload_ceiling(self):
        packets = make_packets(payload=1490)
        padded = pad_payloads(packets, ["10.0.0.2"], 5000, seed=1)
        assert all(p.payload_len <= MAX_PAYLOAD for p in padded)
        assert any(p.payload_len == MAX_PAYLOAD for p in padded)

    def test_pad_never_touches_timing_or_endpoints(self):
        packets = make_packets()
        padded = pad_payloads(packets, ["10.0.0.2"], 300, seed=2)
        for before, after in zip(packets, padded):
            assert after.timestamp == before.timestamp
            assert (after.src_ip, after.src_port) == (before.src_ip, before.src_port)

    def test_pad_is_monotone_in_the_bound(self):
        packets = make_packets(n=30)
        small = pad_payloads(packets, ["10.0.0.2"], 50, seed=3)
        large = pad_payloads(packets, ["10.0.0.2"], 500, seed=3)
        assert all(b.payload_len >= a.payload_len for a, b in zip(small, large))

    def test_negative_bound_rejected(self):
        with pytest.raises(ValueError):
            pad_payloads(make_packets(), ["10.0.0.2"], -1, seed=0)


def make_flows(n_attacker=4, n_other=6):
    flows = []
    for i in range(n_attacker):
        flows.append(FlowRecord("10.0.9.9", 40000 + i, "8.8.8.8", 53, "UDP",
                                float(i), float(i) + 1.0, src_pkts=3, dst_pkts=1,
                                src_bytes=300, dst_bytes=100, label="active"))
    for i in range(n_other):
        flows.append(FlowRecord("10.0.1.1", 41000 + i, "8.8.8.8", 53, "UDP",
                                100.0 + i, 101.0 + i, src_pkts=2, dst_pkts=1,
                                src_bytes=100, dst_bytes=50, label="background"))
    return flows


def padded_twins(flows):
    twins = []
    for f in flows:
        t = FlowRecord(f.src_ip, f.src_port, f.dst_ip, f.dst_port, f.protocol,
                       f.first_ts, f.last_ts, src_pkts=f.src_pkts, dst_pkts=f.dst_pkts,
                       src_bytes=f.src_bytes + 500, dst_bytes=f.dst_bytes,
                       label="planted")
        twins.append(t)
    return twins


class TestPoisoning:
    def test_ratio_zero_is_identity(self):
        flows = make_flows()
        out = poison_training_set(flows, ["10.0.9.9"], 0.0, padded_twins(flows), seed=1)
        assert out == flows

    def test_replacement_count_is_ceil_of_ratio(self):
        flows = make_flows(n_attacker=4)
        out = poison_training_set(flows, ["10.0.9.9"], 0.5, padded_twins(flows), seed=1)
        swapped = sum(1 for b, a in zip(flows, out) if a.src_bytes != b.src_bytes)
        assert swapped == 2
        out = poison_training_set(flows, ["10.0.9.9"], 0.6, padded_twins(flows), seed=1)
        swapped = sum(1 for b, a in zip(flows, out) if a.src_bytes != b.src_bytes)
        assert swapped == 3  # ceil(0.6 * 4)

    def test_swapped_flows_keep_their_original_label(self):
        flows = make_flows()
        out = poison_training_set(flows, ["10.0.9.9"], 1.0, padded_twins(flows), seed=1)
        for before, after in zip(flows, out):
            assert after.label == before.label

    def test_non_attacker_flows_never_change(self):
        flows = make_flows()
        out = poison_training_set(flows, ["10.0.9.9"], 1.0, padded_twins(flows), seed=1)
        for before, after in zip(flows[4:], out[4:]):
            assert after is before

    def test_missing_twin_is_an_error(self):
        flows = make_flows()
        with pytest.raises(ValueError, match="twin"):
            poison_training_set(flows, ["10.0.9.9"], 1.0, [], seed=1)

    def test_bad_ratio_rejected(self):
        with pytest.raises(ValueError):
            poison_training_set(make_flows(), ["10.0.9.9"], 1.5, [], seed=1)

    def test_identity_pairs_clean_and_padded_twins(self):
        flows = make_flows()
        twins = padded_twins(flows)
        assert flow_identity(flows[0]) == flow_identity(twins[0])
        assert flow_identity(flows[0]) != flow_identity(flows[1])


class TestLabeling:
    def test_each_flow_takes_the_label_of_its_function(self):
        flows = make_flows()
        for f in flows:
            f.label = None
        labeled = label_flows(
            flows, lambda f: "planted" if f.src_ip == "10.0.9.9" else "normal")
        assert {f.label for f in labeled[:4]} == {"planted"}
        assert {f.label for f in labeled[4:]} == {"normal"}

    def test_unlabeled_flow_is_an_error(self):
        flows = make_flows()
        with pytest.raises(ValueError, match="no label for flow"):
            label_flows(flows, lambda f: None)

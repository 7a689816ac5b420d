"""Packet records, flow aggregation, flow features, padding, poisoning.

The traffic-classification case study works on bidirectional flows exported
from packet traces. Packets live in a canonical CSV format (PACKET_HEADER,
one line per packet) so traces are diffable and hand-writable; the cs1
adapter reads it row by row with parse_packet. The aggregator mimics a
standard NetFlow exporter: 5-tuple bidirectional keying, idle and active
timeouts, FIN/RST termination.

The attacker's lever here is payload padding: she can only make her own
packets longer, never shorter, never someone else's, and never the zero-byte
handshake packets the protocol machine emits for her.
"""

from __future__ import annotations

import ipaddress
import math
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .repro import seeded

PROTOCOLS = ("TCP", "UDP", "other")
TCP_FLAGS = ("SYN", "ACK", "FIN", "RST", "PSH")
MAX_PAYLOAD = 1500

# exporter defaults, seconds
IDLE_TIMEOUT = 60.0
ACTIVE_TIMEOUT = 3600.0

# connection states, compact exporter convention:
# RST if any reset; FIN once both sides finished; CON for an established or
# bidirectional exchange; REQ for an unanswered SYN; INT otherwise.
STATES = ("INT", "REQ", "CON", "FIN", "RST")
STATE_CODE = {s: i for i, s in enumerate(STATES)}

# IANA port ranges
WELL_KNOWN_MAX = 1023
REGISTERED_MAX = 49151

FEATURE_NAMES = (
    "src_ip_type", "dst_ip_type", "src_port_type", "dst_port_type",
    "direction", "conn_state", "dur", "src_tos", "dst_tos",
    "src_bytes", "dst_bytes", "tot_bytes", "tot_pkts",
)


# the one shared frozenset of each subset of TCP_FLAGS (at most 32)
_FLAG_SETS: dict[frozenset, frozenset] = {}


@dataclass(frozen=True, slots=True)
class PacketRecord:
    """One observed packet. Payload length is the transported byte count.

    Packets with the same flags share one tcp_flags set, and a packet carries
    no per-instance dict.
    """

    timestamp: float
    src_ip: str
    src_port: int
    dst_ip: str
    dst_port: int
    protocol: str
    payload_len: int
    tcp_flags: frozenset = frozenset()
    tos: int = 0

    def __post_init__(self):
        flags = frozenset(self.tcp_flags)
        if self.protocol not in PROTOCOLS:
            raise ValueError(f"protocol must be one of {PROTOCOLS}, got {self.protocol!r}")
        if not 0 <= self.payload_len <= MAX_PAYLOAD:
            raise ValueError(f"payload_len {self.payload_len} outside [0, {MAX_PAYLOAD}]")
        for p in (self.src_port, self.dst_port):
            if not 0 <= p <= 65535:
                raise ValueError(f"port {p} outside [0, 65535]")
        bad = flags.difference(TCP_FLAGS)
        if bad:
            raise ValueError(f"unknown tcp flags {sorted(bad)}")
        if self.protocol != "TCP" and flags:
            raise ValueError("tcp_flags must be empty for non-TCP packets")
        object.__setattr__(self, "tcp_flags", _FLAG_SETS.setdefault(flags, flags))


PACKET_HEADER = "timestamp,src_ip,src_port,dst_ip,dst_port,protocol,flags,payload_len,tos"


def parse_packet(fields) -> PacketRecord:
    """One packet from its nine fields in PACKET_HEADER order; raises
    ValueError on a malformed one."""
    ts, sip, sport, dip, dport, proto, flags, plen, tos = fields
    flagset = frozenset() if flags == "-" else frozenset(flags.split("+"))
    return PacketRecord(float(ts), sip, int(sport), dip, int(dport),
                        proto, int(plen), flagset, int(tos))


@dataclass(slots=True)
class FlowRecord:
    """One bidirectional flow, oriented by its first packet (the initiator).

    tot_bytes and tot_pkts are derived and always consistent with the
    per-direction counters; dur is last minus first timestamp.
    """

    src_ip: str
    src_port: int
    dst_ip: str
    dst_port: int
    protocol: str
    first_ts: float
    last_ts: float
    src_pkts: int = 0
    dst_pkts: int = 0
    src_bytes: int = 0
    dst_bytes: int = 0
    src_tos: int = 0
    dst_tos: int = 0
    state: str = "INT"

    @property
    def tot_bytes(self) -> int:
        return self.src_bytes + self.dst_bytes

    @property
    def tot_pkts(self) -> int:
        return self.src_pkts + self.dst_pkts

    @property
    def dur(self) -> float:
        return self.last_ts - self.first_ts

    def key(self) -> tuple:
        return (self.src_ip, self.src_port, self.dst_ip, self.dst_port, self.protocol)


def _canonical_key(p: PacketRecord) -> tuple:
    a = (p.src_ip, p.src_port)
    b = (p.dst_ip, p.dst_port)
    return (min(a, b), max(a, b), p.protocol)


class _Builder:
    __slots__ = ("initiator", "flow", "fin_src", "fin_dst", "syn_src", "synack_dst",
                 "seen_dst_tos", "order")

    def __init__(self, p: PacketRecord, order: int):
        self.initiator = (p.src_ip, p.src_port)
        self.flow = FlowRecord(p.src_ip, p.src_port, p.dst_ip, p.dst_port, p.protocol,
                               p.timestamp, p.timestamp, src_tos=p.tos)
        self.fin_src = False
        self.fin_dst = False
        self.syn_src = False
        self.synack_dst = False
        self.seen_dst_tos = False
        self.order = order
        self.add(p)

    def add(self, p: PacketRecord) -> bool:
        """Account one packet; True when the flow must close afterwards."""
        f = self.flow
        f.last_ts = p.timestamp
        from_src = (p.src_ip, p.src_port) == self.initiator
        if from_src:
            f.src_pkts += 1
            f.src_bytes += p.payload_len
        else:
            f.dst_pkts += 1
            f.dst_bytes += p.payload_len
            if not self.seen_dst_tos:
                f.dst_tos = p.tos
                self.seen_dst_tos = True
        if p.protocol == "TCP":
            if "RST" in p.tcp_flags:
                return True
            if "SYN" in p.tcp_flags:
                if from_src:
                    self.syn_src = True
                elif "ACK" in p.tcp_flags:
                    self.synack_dst = True
            if "FIN" in p.tcp_flags:
                if from_src:
                    self.fin_src = True
                else:
                    self.fin_dst = True
                if self.fin_src and self.fin_dst:
                    return True
        return False

    def close(self, reset: bool = False) -> FlowRecord:
        f = self.flow
        if f.protocol == "TCP":
            if reset:
                f.state = "RST"
            elif self.fin_src and self.fin_dst:
                f.state = "FIN"
            elif self.syn_src and self.synack_dst:
                f.state = "CON"
            elif self.syn_src:
                f.state = "REQ"
            else:
                f.state = "INT"
        else:
            f.state = "CON" if (f.src_pkts and f.dst_pkts) else "INT"
        return f


def aggregate_flows(packets: Sequence[PacketRecord], idle_timeout: float = IDLE_TIMEOUT,
                    active_timeout: float = ACTIVE_TIMEOUT) -> list[FlowRecord]:
    """Aggregate packets into bidirectional flows.

    Packets are processed in timestamp order (insertion order breaks ties).
    A packet opens a new flow for its 5-tuple when the previous one closed on
    FIN-from-both-sides or RST, when the gap since the flow's last packet
    exceeds idle_timeout, or when the flow's duration would exceed
    active_timeout. Flows are returned ordered by first packet.
    """
    if idle_timeout <= 0 or active_timeout <= 0:
        raise ValueError("timeouts must be positive")
    indexed = sorted(range(len(packets)), key=lambda i: (packets[i].timestamp, i))
    active: dict[tuple, _Builder] = {}
    done: list[FlowRecord] = []
    counter = 0
    for i in indexed:
        p = packets[i]
        key = _canonical_key(p)
        b = active.get(key)
        if b is not None:
            gap = p.timestamp - b.flow.last_ts
            dur = p.timestamp - b.flow.first_ts
            if gap > idle_timeout or dur > active_timeout:
                done.append(b.close())
                b = None
                del active[key]
        if b is None:
            b = _Builder(p, counter)
            counter += 1
            active[key] = b
            # a lone SYN+RST style packet can close its own flow
            if p.protocol == "TCP" and "RST" in p.tcp_flags:
                done.append(b.close(reset=True))
                del active[key]
            continue
        if b.add(p):
            done.append(b.close(reset="RST" in p.tcp_flags))
            del active[key]
    leftovers = sorted(active.values(), key=lambda b: b.order)
    done.extend(b.close() for b in leftovers)
    done.sort(key=lambda f: (f.first_ts, f.key()))
    return done


def port_category(port: int) -> int:
    """0 well-known (<=1023), 1 registered (<=49151), 2 dynamic."""
    if not 0 <= port <= 65535:
        raise ValueError(f"port {port} outside [0, 65535]")
    if port <= WELL_KNOWN_MAX:
        return 0
    if port <= REGISTERED_MAX:
        return 1
    return 2


def extract_feature_matrix(flows: Sequence[FlowRecord], internal_prefixes: Sequence
                           ) -> np.ndarray:
    """One 13-entry row per flow, in the fixed FEATURE_NAMES order.

    IP types are 1 for internal, 0 otherwise; direction is 1 when the
    initiator is internal; the connection state is label-encoded.
    """
    nets = [p if isinstance(p, ipaddress._BaseNetwork) else ipaddress.ip_network(str(p))
            for p in internal_prefixes]
    cache: dict[str, bool] = {}

    def internal(ip: str) -> bool:
        if ip not in cache:
            addr = ipaddress.ip_address(ip)
            cache[ip] = any(addr in n for n in nets)
        return cache[ip]

    out = np.empty((len(flows), len(FEATURE_NAMES)), dtype=float)
    for i, f in enumerate(flows):
        src_i = internal(f.src_ip)
        out[i] = (
            1.0 if src_i else 0.0,
            1.0 if internal(f.dst_ip) else 0.0,
            float(port_category(f.src_port)),
            float(port_category(f.dst_port)),
            1.0 if src_i else 0.0,
            float(STATE_CODE[f.state]),
            f.dur,
            float(f.src_tos),
            float(f.dst_tos),
            float(f.src_bytes),
            float(f.dst_bytes),
            float(f.tot_bytes),
            float(f.tot_pkts),
        )
    return out


def pad_payloads(packets: Sequence[PacketRecord], attacker_ues: Sequence[str],
                 max_pad: int, seed: int) -> list[PacketRecord]:
    """Pad the data-bearing packets of the attacker's own hosts.

    Each eligible packet (source IP in attacker_ues, payload_len > 0) grows by
    a uniform draw in [0, max_pad], clamped at the 1500-byte payload bound.
    Zero-payload packets (protocol handshakes) and other hosts' traffic are
    untouched. For one seed the pad is monotone in max_pad, so byte counters
    never decrease as the bound grows. Timestamps never change.
    """
    if max_pad < 0:
        raise ValueError("max_pad must be non-negative")
    attackers = set(attacker_ues)
    out: list[PacketRecord] = []
    for i, p in enumerate(packets):
        if max_pad == 0 or p.src_ip not in attackers or p.payload_len == 0:
            out.append(p)
            continue
        pad = int(seeded(seed, i).random() * (max_pad + 1))
        if pad == 0:
            out.append(p)
            continue
        out.append(replace(p, payload_len=min(MAX_PAYLOAD, p.payload_len + pad)))
    return out


def poison_training_set(X: np.ndarray, X_twins: np.ndarray, attacker_rows,
                        ratio: float, seed: int) -> np.ndarray:
    """A copy of the feature rows X in which a ratio of the attacker's rows
    take their padded twins' rows.

    Row i of X_twins is the twin of row i of X, and attacker_rows is the
    boolean mask of the attacker's rows. ceil(ratio * |attacker rows|) of them
    are drawn uniformly (pooled across attacker hosts); no other row changes.
    Labels stay with the caller, so a swapped row keeps its row's label.
    """
    if not 0.0 <= ratio <= 1.0:
        raise ValueError(f"poison ratio must be in [0, 1], got {ratio}")
    if X_twins.shape != X.shape:
        raise ValueError(f"twin rows have shape {X_twins.shape}, the training rows "
                         f"{X.shape}; row i must be the twin of row i")
    attacker_idx = np.flatnonzero(attacker_rows)
    out = X.copy()
    if ratio == 0.0 or not attacker_idx.size:
        return out
    k = math.ceil(ratio * attacker_idx.size)
    rows = attacker_idx[seeded(seed, 0xB0150).choice(attacker_idx.size, size=k,
                                                     replace=False)]
    out[rows] = X_twins[rows]
    return out


def label_flows(flows: Sequence[FlowRecord], label_of) -> np.ndarray:
    """The array of label_of(flow) over the flows; a flow it returns None for
    is an error. The flows keep no label: the caller holds the array."""
    labels = []
    for f in flows:
        label = label_of(f)
        if label is None:
            raise ValueError(f"no label for flow {f.key()} at {f.first_ts}")
        labels.append(label)
    return np.array(labels)

"""Synthetic data generators for the six evaluation scenarios.

Each generator fabricates a dataset with the same shape, field names, and
statistical quirks as its real-world counterpart, so every pipeline stage
(aggregation, training, perturbation, reporting) can run hermetically. The
class geometry in the radio-signal scenario is pinned to a fixed seed on
purpose: feature importance rankings must be a property of the problem, not
of the dataset draw.
"""

from __future__ import annotations

import numpy as np

from ..flows import PacketRecord
from .mimo import grid_topology, ground_truth_power, place_terminals

SCENARIOS = ("cs1", "cs2", "cs3", "cs4", "cs5", "cs6")

# Radio measurement report fields, in canonical column order.
CQI_FEATURES = (
    "RSRQ", "RSRP", "PHR",
    "totPrbDL", "totPduDL", "totTbsDL",
    "totPrbUL", "totPduUL", "totTbsUL",
    "pktRxSn", "pktRx", "pktRxByt", "pktTxSn",
    "pktRxAiat", "pktTxAiat", "SFN",
)

# Subscription-record fields for slice assignment.
SLICE_FEATURES = (
    "UseCase", "UEcategory", "Technology", "Day", "Hour",
    "GuaranteedBitRate", "PacketLossRate", "PacketDelayBudget",
)
# Fields the assignment rule actually reads. Day and Hour are deliberately
# outside this set: they exist in the record but never decide the label.
SLICE_RULE_FEATURES = ("UseCase", "GuaranteedBitRate",
                       "PacketDelayBudget", "PacketLossRate")
SLICE_CLASSES = ("URLLC", "eMBB", "mMTC")

MODULATIONS = ("BPSK", "QPSK", "8PSK", "CPFSK", "GFSK", "WBFM")
N_SIGNAL_FEATURES = 256
SIGNAL_FEATURES = tuple(f"iq_{i:03d}" for i in range(N_SIGNAL_FEATURES))

ATTACKER_IPS = tuple(f"10.0.0.{i}" for i in range(1, 7))


def _seed_rng(seed: int, tag: int) -> np.random.Generator:
    return np.random.default_rng([int(seed) & 0x7FFFFFFFFFFFFFFF, tag])


# ---------------------------------------------------------------------------
# cs1: packet traffic for flow classification


def _session_packets(rng, src_ip, src_port, dst_ip, dst_port, start, kind):
    """One TCP client/server exchange; returns the packets of the session.

    The two kinds overlap in packet count and duration on purpose; payload
    size is what separates them, so byte counters carry the class signal.
    """
    if kind == "active":
        n_data = int(rng.integers(5, 31))
        pay_lo, pay_hi = 300, 1400
    else:
        n_data = int(rng.integers(2, 13))
        pay_lo, pay_hi = 40, 300
    pkts = []
    t = start
    pkts.append(PacketRecord(t, src_ip, src_port, dst_ip, dst_port, "TCP", 0, ("SYN",)))
    t += float(rng.uniform(0.001, 0.05))
    pkts.append(PacketRecord(t, dst_ip, dst_port, src_ip, src_port, "TCP", 0, ("SYN", "ACK")))
    for i in range(n_data):
        t += float(rng.uniform(0.01, 1.2))
        payload = int(rng.integers(pay_lo, pay_hi + 1))
        # client pushes more than the server echoes back
        if rng.random() < 0.65:
            pkts.append(PacketRecord(t, src_ip, src_port, dst_ip, dst_port,
                                     "TCP", payload, ("ACK",)))
        else:
            pkts.append(PacketRecord(t, dst_ip, dst_port, src_ip, src_port,
                                     "TCP", min(payload, 1200), ("ACK",)))
    t += float(rng.uniform(0.01, 0.5))
    pkts.append(PacketRecord(t, src_ip, src_port, dst_ip, dst_port, "TCP", 0, ("FIN", "ACK")))
    t += float(rng.uniform(0.001, 0.1))
    pkts.append(PacketRecord(t, dst_ip, dst_port, src_ip, src_port, "TCP", 0, ("FIN", "ACK")))
    return pkts


ACTIVE_PORTS = (443, 8080, 1935, 8443)
BACKGROUND_PORTS = (53, 123, 1883, 443)   # 443 overlaps on purpose


def generate_traffic(seed: int = 0, n_hosts: int = 114,
                     sessions_per_host: int = 7,
                     sessions_per_attacker: int = 7) -> dict:
    """Two behavioral traffic classes from ordinary hosts plus six handsets.

    The first three attacker handsets skew toward heavy interactive sessions,
    the last three toward sparse background chatter, so attacker traffic is
    not a single homogeneous blob. Every session gets a unique client port;
    a session maps to exactly one flow and labels join on (src_ip, src_port).
    At the defaults the six attacker handsets are 5% of the 120 hosts and
    contribute 5% of the flows.
    """
    rng = _seed_rng(seed, 0xC51)
    servers = [f"203.0.113.{i}" for i in range(1, 41)]
    packets = []
    session_labels = {}
    port_counter = 20000

    def emit(src_ip, active_bias):
        nonlocal port_counter
        kind = "active" if rng.random() < active_bias else "background"
        dst_ip = servers[int(rng.integers(0, len(servers)))]
        pool = ACTIVE_PORTS if kind == "active" else BACKGROUND_PORTS
        dst_port = int(pool[int(rng.integers(0, len(pool)))])
        src_port = port_counter
        port_counter += 1
        start = float(rng.uniform(0.0, 3600.0))
        packets.extend(_session_packets(rng, src_ip, src_port, dst_ip,
                                        dst_port, start, kind))
        session_labels[(src_ip, src_port)] = kind

    for h in range(n_hosts):
        host_ip = f"10.0.1.{h + 1}"
        for _ in range(sessions_per_host):
            emit(host_ip, 0.5)
    for a, ue_ip in enumerate(ATTACKER_IPS):
        bias = 0.75 if a < 3 else 0.25
        for _ in range(sessions_per_attacker):
            emit(ue_ip, bias)

    packets.sort(key=lambda p: p.timestamp)
    return {
        "packets": packets,
        "session_labels": session_labels,
        "attacker_ips": ATTACKER_IPS,
        "classes": ("active", "background"),
    }


# ---------------------------------------------------------------------------
# cs2: channel-quality measurement records


def generate_cqi_records(seed: int = 0, n: int = 3000) -> dict:
    """Measurement reports whose radio fields share one latent link quality.

    RSRP and RSRQ move together with the channel; CQI is a clipped noisy
    readout of the same latent. pktRxAiat is kept arithmetically consistent
    with pktRx (inter-arrival time scales inversely with packet count), which
    is exactly the dependency an integrity-preserving perturbation must
    recompute.
    """
    rng = _seed_rng(seed, 0xC52)
    s = rng.uniform(0.0, 1.0, size=n)
    rsrp = -120.0 + 44.0 * s + rng.normal(0.0, 1.5, n)
    rsrq = -19.5 + 16.0 * s + rng.normal(0.0, 0.8, n)
    phr = np.clip(10.0 + 30.0 * s + rng.normal(0.0, 3.0, n), 0.0, 63.0)
    load = rng.uniform(0.2, 1.0, n)
    tot_prb_dl = np.rint(20 + 80 * load * s + rng.normal(0, 4, n)).clip(0)
    tot_pdu_dl = np.rint(tot_prb_dl * rng.uniform(0.8, 1.4, n)).clip(0)
    tot_tbs_dl = np.rint(tot_prb_dl * (100 + 600 * s)).clip(0)
    tot_prb_ul = np.rint(10 + 40 * load + rng.normal(0, 3, n)).clip(0)
    tot_pdu_ul = np.rint(tot_prb_ul * rng.uniform(0.7, 1.3, n)).clip(0)
    tot_tbs_ul = np.rint(tot_prb_ul * (80 + 300 * s)).clip(0)
    pkt_rx = rng.poisson(20 + 60 * load).astype(float) + 1.0
    pkt_rx_byt = np.rint(pkt_rx * rng.uniform(200, 1200, n))
    pkt_rx_sn = np.rint(np.cumsum(pkt_rx) % 65536)
    pkt_tx_sn = np.rint(np.cumsum(pkt_rx * rng.uniform(0.5, 1.0, n)) % 65536)
    pkt_rx_aiat = 1000.0 / pkt_rx
    pkt_tx_aiat = 1000.0 / np.maximum(pkt_rx * rng.uniform(0.5, 1.0, n), 1.0)
    sfn = rng.integers(0, 1024, n).astype(float)
    cqi = np.clip(np.rint(15.0 * s + rng.normal(0.0, 0.35, n)), 0, 15)

    cols = {
        "RSRQ": rsrq, "RSRP": rsrp, "PHR": phr,
        "totPrbDL": tot_prb_dl, "totPduDL": tot_pdu_dl, "totTbsDL": tot_tbs_dl,
        "totPrbUL": tot_prb_ul, "totPduUL": tot_pdu_ul, "totTbsUL": tot_tbs_ul,
        "pktRxSn": pkt_rx_sn, "pktRx": pkt_rx, "pktRxByt": pkt_rx_byt,
        "pktTxSn": pkt_tx_sn, "pktRxAiat": pkt_rx_aiat, "pktTxAiat": pkt_tx_aiat,
        "SFN": sfn,
    }
    records = [{name: float(cols[name][i]) for name in CQI_FEATURES}
               for i in range(n)]
    return {
        "records": records,
        "targets": cqi.astype(float),
        "schema": CQI_FEATURES,
    }


def records_to_matrix(records, schema) -> np.ndarray:
    """Stack dict records into a dense (n, len(schema)) float matrix."""
    out = np.empty((len(records), len(schema)))
    for i, rec in enumerate(records):
        for j, name in enumerate(schema):
            out[i, j] = float(rec[name])
    return out


# ---------------------------------------------------------------------------
# cs3: channel-quality time series


# series profile -> (step sigma, floor, ceiling, start)
CQI_PROFILES = {
    "static": (0.35, 0.0, 15.0, 10.0),
    "driving": (1.0, 0.0, 15.0, 8.0),
    "high": (0.35, 7.0, 15.0, 12.0),
}


def generate_cqi_series(seed: int = 0, length: int = 900,
                        profile: str = "static") -> dict:
    """Reflected random walk over the CQI range.

    Profiles (CQI_PROFILES): "static" (slow drift around a fixed operating
    point), "driving" (fast variation over the full range), "high" (slow
    drift confined to the upper half of the range, floor 7).
    """
    if profile not in CQI_PROFILES:
        raise ValueError(f"unknown series profile {profile!r}")
    sigma, lo, hi, start = CQI_PROFILES[profile]
    rng = _seed_rng(seed, 0xC53)
    series = np.empty(length)
    x = start
    for t in range(length):
        x = x + float(rng.normal(0.0, sigma))
        # reflect off the bounds instead of saturating at them
        while x < lo or x > hi:
            if x < lo:
                x = 2 * lo - x
            if x > hi:
                x = 2 * hi - x
        series[t] = x
    return {"series": series, "bounds": (lo, hi), "profile": profile}


# ---------------------------------------------------------------------------
# cs4: raw radio signal vectors for modulation recognition

_GEOMETRY_SEED = 777
_N_INFORMATIVE = 40
_SNR_DB = 10.0


def _class_templates() -> tuple[np.ndarray, np.ndarray]:
    """Fixed class geometry, independent of the dataset seed.

    A stable template per modulation keeps the importance ranking of the
    trained classifiers a property of the signal structure itself, so
    ranking-based experiments do not wobble from one data draw to the next.
    """
    pick = np.random.default_rng([_GEOMETRY_SEED, 4242])
    informative = np.sort(pick.choice(N_SIGNAL_FEATURES, _N_INFORMATIVE,
                                      replace=False))
    templates = np.zeros((len(MODULATIONS), N_SIGNAL_FEATURES))
    for c in range(len(MODULATIONS)):
        comp = np.random.default_rng([_GEOMETRY_SEED, c])
        templates[c, informative] = comp.normal(0.0, 1.0, _N_INFORMATIVE)
    return templates, informative


def generate_signals(seed: int = 0, n_per_class: int = 100) -> dict:
    """Noisy class templates at a fixed signal-to-noise ratio."""
    templates, informative = _class_templates()
    signal_power = float(np.mean(templates ** 2))
    noise_var = signal_power / (10.0 ** (_SNR_DB / 10.0))
    rng = _seed_rng(seed, 0xC54)
    n_classes = len(MODULATIONS)
    y = np.repeat(np.arange(n_classes), n_per_class)
    X = templates[y] + rng.normal(0.0, np.sqrt(noise_var),
                                  (n_classes * n_per_class, N_SIGNAL_FEATURES))
    order = rng.permutation(len(y))
    return {
        "X": X[order],
        "y": y[order],
        "schema": SIGNAL_FEATURES,
        "classes": MODULATIONS,
        "informative": informative,
    }


# ---------------------------------------------------------------------------
# cs5: terminal placements for downlink power allocation


def generate_placements(seed: int = 0, n_samples: int = 400,
                        cell_size: float = 250.0, ues_per_cell: int = 5,
                        min_gnb_distance: float = 20.0) -> dict:
    """Random terminal placements with policy-optimal power targets.

    Features are the flattened (x, y) coordinates of all terminals in cell
    order; targets are the per-terminal powers of the distance-compensating
    policy. One extra topology carries the canonical placement used for the
    live evaluation.
    """
    topo = grid_topology(cell_size=cell_size, ues_per_cell=ues_per_cell,
                         seed=seed, min_gnb_distance=min_gnb_distance)
    rng = _seed_rng(seed, 0xC55)
    n_ues = topo.n_ues
    positions = place_terminals(rng, np.tile(topo.serving, n_samples), topo.cell_bounds,
                                topo.gnb_positions, min_gnb_distance)
    X = positions.reshape(n_samples, 2 * n_ues)
    Y = ground_truth_power(topo, positions.reshape(n_samples, n_ues, 2))
    schema = tuple(f"ue{k}_{axis}" for k in range(n_ues) for axis in ("x", "y"))
    return {"X": X, "Y": Y, "schema": schema, "topology": topo}


# ---------------------------------------------------------------------------
# cs6: subscription records for slice assignment

PDB_VALUES = (10.0, 20.0, 50.0, 75.0, 100.0, 150.0, 300.0)
PLR_VALUES = (1e-6, 1e-4, 1e-3, 1e-2, 1e-1)


def slice_label(record) -> str:
    """Deterministic slice assignment; reads SLICE_RULE_FEATURES only."""
    pdb = float(record["PacketDelayBudget"])
    plr = float(record["PacketLossRate"])
    gbr = int(record["GuaranteedBitRate"])
    use_case = int(record["UseCase"])
    if pdb <= 20.0 and plr <= 1e-4:
        return "URLLC"
    if gbr == 1 or use_case in (0, 3):
        return "eMBB"
    return "mMTC"


def generate_subscriptions(seed: int = 0, n: int = 4000) -> dict:
    """Subscription records labeled by the deterministic assignment rule."""
    rng = _seed_rng(seed, 0xC56)
    records = []
    for _ in range(n):
        rec = {
            "UseCase": float(rng.integers(0, 6)),
            "UEcategory": float(rng.integers(1, 9)),
            "Technology": float(rng.integers(0, 2)),
            "Day": float(rng.integers(1, 8)),
            "Hour": float(rng.integers(0, 24)),
            "GuaranteedBitRate": float(rng.integers(0, 2)),
            "PacketLossRate": float(PLR_VALUES[int(rng.integers(0, len(PLR_VALUES)))]),
            "PacketDelayBudget": float(PDB_VALUES[int(rng.integers(0, len(PDB_VALUES)))]),
        }
        records.append(rec)
    labels = np.array([slice_label(r) for r in records])
    return {
        "records": records,
        "labels": labels,
        "schema": SLICE_FEATURES,
        "classes": SLICE_CLASSES,
    }


# ---------------------------------------------------------------------------


def generate_scenario_data(scenario: str, seed: int = 0, **overrides) -> dict:
    """Dispatch to the per-scenario generator; overrides pass through."""
    dispatch = {
        "cs1": generate_traffic,
        "cs2": generate_cqi_records,
        "cs3": generate_cqi_series,
        "cs4": generate_signals,
        "cs5": generate_placements,
        "cs6": generate_subscriptions,
    }
    if scenario not in dispatch:
        raise ValueError(f"unknown scenario {scenario!r}; expected one of {SCENARIOS}")
    return dispatch[scenario](seed=seed, **overrides)

"""Text and list views of package objects that only the tests read, and the
files a scenario's adapter reads, written from its synthetic data."""

import hashlib
import json
from pathlib import Path

from mlsec5g.flows import PACKET_HEADER
from mlsec5g.scenarios.generators import (ATTACKER_IPS, CQI_FEATURES, MODULATIONS,
                                          SIGNAL_FEATURES, SLICE_FEATURES)


def format_packet(p) -> str:
    flags = "+".join(sorted(p.tcp_flags)) if p.tcp_flags else "-"
    return (f"{p.timestamp!r},{p.src_ip},{p.src_port},{p.dst_ip},{p.dst_port},"
            f"{p.protocol},{flags},{p.payload_len},{p.tos}")


def packets_to_text(packets) -> str:
    """Packets in the canonical format of a cs1 export's packets.csv."""
    lines = [PACKET_HEADER]
    lines.extend(format_packet(p) for p in packets)
    return "\n".join(lines) + "\n"


def provenance_rows(log) -> list[tuple]:
    """(record id, field, old, new, level, verdict) per changed field of a
    `ProvenanceLog`."""
    rows = []
    for e in log.entries:
        for fname, old, new in e.changes:
            rows.append((e.record_index, fname, old, new, log.level_value, e.verdict))
    return rows


def provenance_csv_text(log) -> str:
    lines = ["record,field,old,new,level,verdict"]
    for rid, fname, old, new, level, verdict in provenance_rows(log):
        lines.append(f"{rid},{fname},{old},{new},{level},{verdict}")
    return "\n".join(lines) + "\n"


def xs(curve) -> list[float]:
    """A `DegradationCurve`'s intensities, point by point."""
    return [p.x for p in curve.points]


def degradations(curve) -> list[float]:
    """A `DegradationCurve`'s mean degradations, point by point."""
    return [p.degradation_mean for p in curve.points]


def artifact_digest(run_dir) -> str:
    """sha256 over every artifact of a run directory but run_meta.json, which
    holds timings."""
    h = hashlib.sha256()
    for path in sorted(p for p in run_dir.rglob("*") if p.is_file()):
        if path.name != "run_meta.json":
            h.update(str(path.relative_to(run_dir)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def write_rows(path: Path, header, rows) -> None:
    lines = [",".join(header)] + [",".join(map(str, row)) for row in rows]
    path.write_text("\n".join(lines) + "\n")


def export(scenario: str, data: dict, root: Path) -> dict:
    """A scenario's synthetic data as the files its adapter reads, and the
    `data` block that points at them. str() writes the shortest digits that
    read back as the same float."""
    root.mkdir()
    if scenario == "cs1":
        (root / "packets.csv").write_text(packets_to_text(data["packets"]))
        write_rows(root / "sessions.csv", ("src_ip", "src_port", "label"),
                   [(ip, port, label) for (ip, port), label in data["session_labels"].items()])
        return {"path": str(root), "format": {"attacker_ips": list(ATTACKER_IPS)}}
    if scenario == "cs3":
        write_rows(root / "data.csv", ("CQI",), [[float(v)] for v in data["series"]])
    elif scenario == "cs4":
        write_rows(root / "data.csv", SIGNAL_FEATURES + ("label",),
                   [[float(v) for v in x] + [MODULATIONS[c]]
                    for x, c in zip(data["X"], data["y"])])
    elif scenario == "cs5":
        topo = data["topology"]
        write_rows(root / "data.csv", data["schema"] + tuple(f"p{k}" for k in range(topo.n_ues)),
                   [[float(v) for v in (*x, *p)] for x, p in zip(data["X"], data["Y"])])
        (root / "data.csv.topology.json").write_text(json.dumps({
            "gnb_positions": topo.gnb_positions.tolist(),
            "cell_bounds": [list(b) for b in topo.cell_bounds],
            "ue_positions": topo.ue_positions.tolist(),
            "serving": topo.serving.tolist(), "power_budget": topo.power_budget}))
    else:
        schema, label, truth = {"cs2": (CQI_FEATURES, "CQI", data.get("targets")),
                                "cs6": (SLICE_FEATURES, "Slice", data.get("labels"))}[scenario]
        write_rows(root / "data.csv", schema + (label,),
                   [[r[c] for c in schema] + [t] for r, t in zip(data["records"], truth)])
    return {"path": str(root / "data.csv")}

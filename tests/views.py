"""Text and list views of package objects that only the tests read."""

from mlsec5g.flows import PACKET_HEADER


def format_packet(p) -> str:
    flags = "+".join(sorted(p.tcp_flags)) if p.tcp_flags else "-"
    return (f"{p.timestamp!r},{p.src_ip},{p.src_port},{p.dst_ip},{p.dst_port},"
            f"{p.protocol},{flags},{p.payload_len},{p.tos}")


def packets_to_text(packets) -> str:
    """Packets in the canonical format `flows.parse_packets` reads."""
    lines = [PACKET_HEADER]
    lines.extend(format_packet(p) for p in packets)
    return "\n".join(lines) + "\n"


def provenance_rows(log) -> list[tuple]:
    """(record id, field, old, new, level, verdict) per changed field of a
    `ProvenanceLog`."""
    rows = []
    for e in log.entries:
        for fname, old, new in e.changes:
            rows.append((e.record_index, fname, old, new, e.level_value, e.verdict.kind))
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

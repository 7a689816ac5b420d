"""Adapters that map public datasets onto the scenario schemas.

Synthetic generators and real datasets feed the identical downstream
pipeline; the adapter's only job is parsing, schema alignment, and honest
bookkeeping. Malformed rows are counted, skipped, and logged, never silently
dropped; a dataset without ground truth is rejected outright, because a
pipeline cannot measure degradation against labels it does not have. A
NaN or infinite ground-truth value (cs2's CQI, cs5's powers) makes its row
malformed. A malformed row of a cs3 series (short, a cell that does not
parse, NaN or infinity) refuses the file, naming its line, because skipping
a step would shift every later one. Feature cells pass through as read, NaN
and infinity included.

Every file is a CSV with a header row of named columns. Header cells are
stripped of surrounding spaces and then renamed by `format.rename` (their
name to ours). Columns the scenario does not read are ignored and may repeat;
a column it reads must be named once. Layouts, and the `format` keys each
scenario reads (the config rejects any other):

  cs1  a directory with packets.csv (the columns of flows.PACKET_HEADER) and
       sessions.csv (src_ip, src_port, label).
       attacker_ips: the attacker addresses (default none)
  cs2  one CSV with the 16 measurement columns plus CQI.  rename
  cs3  one CSV with a CQI column.  rename
  cs4  one CSV with iq_000..iq_255 and a label column.  rename; snr: keep
       only the rows whose snr column equals it (the file must have one)
  cs5  a features CSV (ue{k}_x, ue{k}_y, p{k} columns) plus a topology JSON
       (gnb_positions, cell_bounds, ue_positions, serving, power_budget).
       rename; topology: the JSON's path (default <path>.topology.json)
  cs6  one CSV with the 8 subscription columns plus a Slice column.  rename
"""

from __future__ import annotations

import csv
import json
import logging
import math
import os

import numpy as np

from ..config import N_SIGNAL_FEATURES
from ..flows import PACKET_HEADER, parse_packet
from .generators import CQI_FEATURES, MODULATIONS, SIGNAL_FEATURES, SLICE_CLASSES, SLICE_FEATURES
from .mimo import MimoTopology

log = logging.getLogger("mlsec5g.adapters")


class AdapterError(ValueError):
    """The dataset cannot serve this scenario at all (not a row-level issue)."""


def ingest_real_dataset(scenario: str, path: str, fmt: dict | None = None) -> dict:
    """Parse a real dataset into the scenario's canonical dict.

    fmt holds the scenario's `format` keys (see the module docstring).
    Returns the same keys as the matching synthetic generator plus a
    "provenance" block with the path and the row and skip counts (cs1
    counts each file on its own, under "packets" and "sessions").
    """
    dispatch = {"cs1": _traffic, "cs2": _cqi_records, "cs3": _cqi_series,
                "cs4": _signals, "cs5": _placements, "cs6": _subscriptions}
    if scenario not in dispatch:
        raise AdapterError(f"no adapter for scenario {scenario!r}")
    out = dispatch[scenario](path, dict(fmt or {}))
    out["provenance"].update(path=os.path.abspath(path), scenario=scenario)
    return out


def _read(path, fmt, columns, parse, truth=(), series=False):
    """parse(values) over each data row of one CSV, where values are the
    row's cells of `columns` in that order. A row that is short or that parse
    refuses with ValueError is skipped, counted and logged, or in a series
    refuses the file, naming the line; parse returns None for a row it
    leaves out on purpose. Returns (parsed rows, provenance counts). Every
    missing column is named at once, the `truth` ones as ground truth, and
    so is every column read that the header (after `rename`) names more
    than once."""
    rename = fmt.get("rename", {})
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise AdapterError(f"{path}: empty file, no header row")
        names = [rename.get(c.strip(), c.strip()) for c in header]
        index = {c: i for i, c in enumerate(names)}
        missing = [c for c in columns if c not in index]
        if missing:
            lost = [c for c in missing if c in truth]
            raise AdapterError(f"{path}: missing columns {missing}" + (
                f", among them the ground-truth columns {lost}" if lost else ""))
        repeated = [c for c in columns if names.count(c) > 1]
        if repeated:
            raise AdapterError(f"{path}: columns named more than once {repeated}")
        picks = [index[c] for c in columns]
        out, rows, skipped = [], 0, 0
        for row in reader:
            if not row:
                continue
            rows += 1
            try:
                if len(row) < len(header):
                    raise ValueError(f"{len(row)} of {len(header)} fields")
                value = parse([row[i] for i in picks])
            except ValueError as exc:
                if series:
                    raise AdapterError(f"{path} line {reader.line_num}: {exc}") from None
                skipped += 1
                log.warning("%s line %d skipped: %s", path, reader.line_num, exc)
                continue
            if value is not None:
                out.append(value)
    if not out:
        raise AdapterError(f"{path}: no usable rows ({skipped} of {rows} malformed)")
    return out, {"rows": rows, "skipped": skipped}


def _floats(values):
    return [float(v) for v in values]


def _truth(cell, what):
    """A ground-truth cell as a float; NaN or infinity makes the row malformed."""
    value = float(cell)
    if not math.isfinite(value):
        raise ValueError(f"non-finite {what} {cell.strip()!r}")
    return value


def _label(value, classes, what):
    label = value.strip()
    if label not in classes:
        raise ValueError(f"unknown {what} {label!r}")
    return label


def _traffic(path, fmt):
    pkt_path = os.path.join(path, "packets.csv")
    lbl_path = os.path.join(path, "sessions.csv")
    if not os.path.exists(pkt_path) or not os.path.exists(lbl_path):
        raise AdapterError(f"{path}: need packets.csv and sessions.csv")
    packets, pkt_prov = _read(pkt_path, fmt, PACKET_HEADER.split(","), parse_packet)
    sessions, lbl_prov = _read(
        lbl_path, fmt, ("src_ip", "src_port", "label"),
        lambda v: ((v[0].strip(), int(v[1])), v[2].strip()), truth=("label",))
    return {
        "packets": sorted(packets, key=lambda p: p.timestamp),
        "session_labels": dict(sessions),
        "attacker_ips": tuple(fmt.get("attacker_ips", ())),
        "provenance": {"packets": pkt_prov, "sessions": lbl_prov},
    }


def _cqi_records(path, fmt):
    rows, prov = _read(path, fmt, CQI_FEATURES + ("CQI",),
                       lambda v: _floats(v[:-1]) + [_truth(v[-1], "CQI")], truth=("CQI",))
    return {
        "records": [dict(zip(CQI_FEATURES, r)) for r in rows],
        "targets": np.asarray([r[-1] for r in rows], dtype=float),
        "schema": CQI_FEATURES,
        "provenance": prov,
    }


def _cqi_series(path, fmt):
    rows, prov = _read(path, fmt, ("CQI",), lambda v: _truth(v[0], "CQI"), truth=("CQI",),
                       series=True)
    return {"series": np.asarray(rows, dtype=float), "profile": "real", "provenance": prov}


def _signals(path, fmt):
    snr = fmt.get("snr")
    n = N_SIGNAL_FEATURES

    def parse(v):
        if snr is not None and float(v[n + 1]) != float(snr):
            return None
        return _floats(v[:n]), MODULATIONS.index(_label(v[n], MODULATIONS, "modulation"))

    columns = SIGNAL_FEATURES + ("label",) + (() if snr is None else ("snr",))
    rows, prov = _read(path, fmt, columns, parse, truth=("label",))
    return {
        "X": np.asarray([x for x, _ in rows], dtype=float),
        "y": np.asarray([y for _, y in rows], dtype=int),
        "schema": SIGNAL_FEATURES,
        "informative": None,
        "provenance": prov,
    }


def _placements(path, fmt):
    topo_path = fmt.get("topology", path + ".topology.json")
    if not os.path.exists(topo_path):
        raise AdapterError(f"{path}: topology description {topo_path} not found")
    with open(topo_path) as fh:
        t = json.load(fh)
    try:
        topo = MimoTopology(
            gnb_positions=np.asarray(t["gnb_positions"], dtype=float),
            cell_bounds=tuple(tuple(b) for b in t["cell_bounds"]),
            ue_positions=np.asarray(t["ue_positions"], dtype=float),
            serving=np.asarray(t["serving"], dtype=int),
            power_budget=float(t.get("power_budget", 1.0)),
        )
    except KeyError as exc:
        raise AdapterError(f"{topo_path}: missing topology field {exc}") from exc
    feat_cols = tuple(f"ue{k}_{ax}" for k in range(topo.n_ues) for ax in ("x", "y"))
    pow_cols = tuple(f"p{k}" for k in range(topo.n_ues))
    k = len(feat_cols)
    rows, prov = _read(path, fmt, feat_cols + pow_cols,
                       lambda v: (_floats(v[:k]), [_truth(p, "power") for p in v[k:]]),
                       truth=pow_cols)
    return {"X": np.asarray([x for x, _ in rows], dtype=float),
            "Y": np.asarray([y for _, y in rows], dtype=float),
            "schema": feat_cols, "topology": topo, "provenance": prov}


def _subscriptions(path, fmt):
    n = len(SLICE_FEATURES)
    rows, prov = _read(
        path, fmt, SLICE_FEATURES + ("Slice",),
        lambda v: (dict(zip(SLICE_FEATURES, _floats(v[:n]))),
                   _label(v[n], SLICE_CLASSES, "slice")),
        truth=("Slice",))
    return {
        "records": [r for r, _ in rows],
        "labels": np.asarray([label for _, label in rows]),
        "schema": SLICE_FEATURES,
        "provenance": prov,
    }

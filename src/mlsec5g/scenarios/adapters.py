"""Adapters that map public datasets onto the scenario schemas.

Synthetic generators and real datasets feed the identical downstream
pipeline; the adapter's only job is parsing, schema alignment, and honest
bookkeeping. Malformed rows are counted, skipped, and logged, never silently
dropped; a dataset without ground truth is rejected outright, because a
pipeline cannot measure degradation against labels it does not have.

Formats (delimited text, header row with named columns):

  cs1  directory with packets.csv (canonical packet format) and
       sessions.csv (src_ip,src_port,label)
  cs2  one CSV with the 16 measurement columns plus CQI
  cs3  one CSV with a CQI column (optionally a leading timestamp column)
  cs4  one CSV with iq_000..iq_255, a label column, optionally snr
  cs5  features CSV (ue{k}_x, ue{k}_y, p{k} columns) plus a topology JSON
       (gnb_positions, cell_bounds, ue_positions, serving, power_budget)
  cs6  one CSV with the 8 subscription columns plus a slice label column
"""

from __future__ import annotations

import csv
import json
import logging
import os

import numpy as np

from ..flows import PACKET_HEADER, parse_packets
from .generators import (CQI_FEATURES, MODULATIONS, N_SIGNAL_FEATURES,
                         SIGNAL_FEATURES, SLICE_CLASSES, SLICE_FEATURES)
from .mimo import MimoTopology

log = logging.getLogger("mlsec5g.adapters")


class AdapterError(ValueError):
    """The dataset cannot serve this scenario at all (not a row-level issue)."""


def _open_rows(path: str):
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None:
            raise AdapterError(f"{path}: empty file, no header row")
        rows = list(reader)
    return [name.strip() for name in reader.fieldnames], rows


def _apply_rename(columns, rename):
    rename = dict(rename or {})
    return [rename.get(c, c) for c in columns]


def ingest_real_dataset(scenario: str, path: str, fmt: dict | None = None) -> dict:
    """Parse a real dataset into the scenario's canonical dict.

    fmt may carry {"rename": {their_column: ours}, "label_column": name}.
    Returns the same keys as the matching synthetic generator plus a
    "provenance" block with path, row, and skip counts.
    """
    fmt = dict(fmt or {})
    rename = fmt.get("rename", {})
    dispatch = {
        "cs1": _ingest_traffic,
        "cs2": _ingest_cqi_records,
        "cs3": _ingest_cqi_series,
        "cs4": _ingest_signals,
        "cs5": _ingest_placements,
        "cs6": _ingest_subscriptions,
    }
    if scenario not in dispatch:
        raise AdapterError(f"no adapter for scenario {scenario!r}")
    out = dispatch[scenario](path, rename, fmt)
    prov = out.setdefault("provenance", {})
    prov["path"] = os.path.abspath(path)
    prov["scenario"] = scenario
    return out


def _ingest_traffic(path, rename, fmt):
    pkt_path = os.path.join(path, "packets.csv")
    lbl_path = os.path.join(path, "sessions.csv")
    if not os.path.exists(pkt_path) or not os.path.exists(lbl_path):
        raise AdapterError(f"{path}: need packets.csv and sessions.csv")
    with open(pkt_path) as fh:
        lines = [ln for ln in fh.read().splitlines() if ln.strip()]
    if not lines or lines[0] != PACKET_HEADER:
        raise AdapterError(f"{pkt_path}: first line must be {PACKET_HEADER!r}")
    packets = []
    skipped = 0
    for ln in lines[1:]:
        try:
            packets.extend(parse_packets(PACKET_HEADER + "\n" + ln))
        except (ValueError, KeyError) as exc:
            skipped += 1
            log.warning("cs1 packet row skipped: %s", exc)
    packets.sort(key=lambda p: p.timestamp)

    _, rows = _open_rows(lbl_path)
    session_labels = {}
    lbl_skipped = 0
    for row in rows:
        try:
            session_labels[(row["src_ip"].strip(), int(row["src_port"]))] = \
                row["label"].strip()
        except (KeyError, TypeError, ValueError) as exc:
            lbl_skipped += 1
            log.warning("cs1 session row skipped: %s", exc)
    if not session_labels:
        raise AdapterError(f"{lbl_path}: no usable session labels (ground truth missing)")
    attacker_ips = tuple(fmt.get("attacker_ips", ()))
    classes = tuple(sorted(set(session_labels.values())))
    return {
        "packets": packets,
        "session_labels": session_labels,
        "attacker_ips": attacker_ips,
        "classes": classes,
        "provenance": {"rows": len(lines) - 1 + len(rows),
                       "skipped": skipped + lbl_skipped},
    }


def _ingest_cqi_records(path, rename, fmt):
    columns, rows = _open_rows(path)
    columns = _apply_rename(columns, rename)
    target = fmt.get("label_column", "CQI")
    have = set(columns)
    missing = [c for c in CQI_FEATURES if c not in have]
    if missing:
        raise AdapterError(f"{path}: missing measurement columns {missing}")
    if target not in have:
        raise AdapterError(f"{path}: no ground-truth column {target!r}")
    inverse = {v: k for k, v in dict(rename or {}).items()}

    def cell(row, name):
        return row[inverse.get(name, name)]

    records, targets = [], []
    skipped = 0
    for row in rows:
        try:
            rec = {c: float(cell(row, c)) for c in CQI_FEATURES}
            t = float(cell(row, target))
        except (TypeError, ValueError) as exc:
            skipped += 1
            log.warning("cs2 row skipped: %s", exc)
            continue
        records.append(rec)
        targets.append(t)
    if not records:
        raise AdapterError(f"{path}: every row malformed")
    return {
        "records": records,
        "targets": np.asarray(targets, dtype=float),
        "schema": CQI_FEATURES,
        "provenance": {"rows": len(rows), "skipped": skipped},
    }


def _ingest_cqi_series(path, rename, fmt):
    columns, rows = _open_rows(path)
    columns = _apply_rename(columns, rename)
    target = fmt.get("label_column", "CQI")
    if target not in columns:
        raise AdapterError(f"{path}: no CQI column")
    inverse = {v: k for k, v in dict(rename or {}).items()}
    key = inverse.get(target, target)
    series = []
    skipped = 0
    for row in rows:
        raw = row.get(key)
        try:
            series.append(float(raw))
        except (TypeError, ValueError):
            skipped += 1
            log.warning("cs3 row without usable CQI skipped")
    if not series:
        raise AdapterError(f"{path}: no usable CQI values")
    return {
        "series": np.asarray(series, dtype=float),
        "bounds": (0.0, 15.0),
        "profile": str(fmt.get("profile", "real")),
        "provenance": {"rows": len(rows), "skipped": skipped},
    }


def _ingest_signals(path, rename, fmt):
    columns, rows = _open_rows(path)
    columns = _apply_rename(columns, rename)
    label_col = fmt.get("label_column", "label")
    have = set(columns)
    missing = [c for c in SIGNAL_FEATURES if c not in have]
    if missing:
        raise AdapterError(f"{path}: missing {len(missing)} of {N_SIGNAL_FEATURES} "
                           f"signal columns (first: {missing[0]})")
    if label_col not in have:
        raise AdapterError(f"{path}: no label column {label_col!r}")
    inverse = {v: k for k, v in dict(rename or {}).items()}

    def cell(row, name):
        return row[inverse.get(name, name)]

    snr_filter = fmt.get("snr")
    X_rows, y_rows = [], []
    skipped = 0
    for row in rows:
        try:
            if snr_filter is not None and "snr" in have and \
                    float(cell(row, "snr")) != float(snr_filter):
                continue
            label = str(cell(row, label_col)).strip()
            if label not in MODULATIONS:
                raise ValueError(f"unknown modulation {label!r}")
            X_rows.append([float(cell(row, c)) for c in SIGNAL_FEATURES])
            y_rows.append(MODULATIONS.index(label))
        except (TypeError, ValueError) as exc:
            skipped += 1
            log.warning("cs4 row skipped: %s", exc)
    if not X_rows:
        raise AdapterError(f"{path}: no usable signal rows")
    return {
        "X": np.asarray(X_rows, dtype=float),
        "y": np.asarray(y_rows, dtype=int),
        "schema": SIGNAL_FEATURES,
        "classes": MODULATIONS,
        "informative": None,
        "provenance": {"rows": len(rows), "skipped": skipped},
    }


def _ingest_placements(path, rename, fmt):
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

    columns, rows = _open_rows(path)
    columns = _apply_rename(columns, rename)
    n_ues = topo.n_ues
    feat_cols = [f"ue{k}_{ax}" for k in range(n_ues) for ax in ("x", "y")]
    pow_cols = [f"p{k}" for k in range(n_ues)]
    have = set(columns)
    if any(c not in have for c in feat_cols):
        raise AdapterError(f"{path}: placement columns incomplete")
    if any(c not in have for c in pow_cols):
        raise AdapterError(f"{path}: power target columns missing (ground truth)")
    X_rows, Y_rows = [], []
    skipped = 0
    for row in rows:
        try:
            X_rows.append([float(row[c]) for c in feat_cols])
            Y_rows.append([float(row[c]) for c in pow_cols])
        except (TypeError, ValueError) as exc:
            skipped += 1
            log.warning("cs5 row skipped: %s", exc)
    if not X_rows:
        raise AdapterError(f"{path}: no usable placement rows")
    return {
        "X": np.asarray(X_rows, dtype=float),
        "Y": np.asarray(Y_rows, dtype=float),
        "schema": tuple(feat_cols),
        "topology": topo,
        "provenance": {"rows": len(rows), "skipped": skipped},
    }


def _ingest_subscriptions(path, rename, fmt):
    columns, rows = _open_rows(path)
    columns = _apply_rename(columns, rename)
    label_col = fmt.get("label_column", "Slice")
    have = set(columns)
    missing = [c for c in SLICE_FEATURES if c not in have]
    if missing:
        raise AdapterError(f"{path}: missing subscription columns {missing}")
    if label_col not in have:
        raise AdapterError(f"{path}: no slice label column {label_col!r}")
    inverse = {v: k for k, v in dict(rename or {}).items()}

    def cell(row, name):
        return row[inverse.get(name, name)]

    records, labels = [], []
    skipped = 0
    for row in rows:
        try:
            rec = {c: float(cell(row, c)) for c in SLICE_FEATURES}
            label = str(cell(row, label_col)).strip()
            if label not in SLICE_CLASSES:
                raise ValueError(f"unknown slice {label!r}")
        except (TypeError, ValueError) as exc:
            skipped += 1
            log.warning("cs6 row skipped: %s", exc)
            continue
        records.append(rec)
        labels.append(label)
    if not records:
        raise AdapterError(f"{path}: every row malformed")
    return {
        "records": records,
        "labels": np.asarray(labels),
        "schema": SLICE_FEATURES,
        "classes": SLICE_CLASSES,
        "provenance": {"rows": len(rows), "skipped": skipped},
    }

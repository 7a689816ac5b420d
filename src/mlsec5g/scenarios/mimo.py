"""Multi-cell massive-MIMO geometry: topology, power rule, spectral efficiency.

Four base stations serve four square cells in a 2x2 grid, five user terminals
each. The ground-truth power policy compensates pathloss: within a cell,
allocated power grows with distance^alpha and the per-station budget is
always spent exactly. Spectral efficiency uses a log-distance SINR model and
is always evaluated at the TRUE terminal positions; lying about positions can
change what the policy allocates, never where the victims actually stand.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..repro import seeded

PATHLOSS_EXPONENT = 3.7
BUDGET_TOLERANCE = 1e-9
_PLACE_BLOCK = 256  # (x, y) pairs drawn at once by place_terminals


@dataclass(frozen=True)
class MimoTopology:
    """Static deployment: stations, square cells, terminals, radio constants."""

    gnb_positions: np.ndarray      # (n_cells, 2)
    cell_bounds: tuple             # per cell (xmin, ymin, xmax, ymax)
    ue_positions: np.ndarray       # (n_ues, 2) true positions
    serving: np.ndarray            # (n_ues,) cell index per terminal
    power_budget: float = 1.0     # per station, watts
    noise_power: float = field(default=None)  # sigma^2; default derived below
    pathloss_exponent: float = PATHLOSS_EXPONENT

    def __post_init__(self):
        object.__setattr__(self, "gnb_positions", np.asarray(self.gnb_positions, dtype=float))
        object.__setattr__(self, "ue_positions", np.asarray(self.ue_positions, dtype=float))
        object.__setattr__(self, "serving", np.asarray(self.serving, dtype=int))
        object.__setattr__(self, "cell_bounds", tuple(tuple(float(v) for v in b)
                                                      for b in self.cell_bounds))
        if self.noise_power is None:
            # 20 dB below the budget received at half the mean cell side, so
            # links are interference-limited rather than drowned in noise
            sides = [min(xmax - xmin, ymax - ymin)
                     for xmin, ymin, xmax, ymax in self.cell_bounds]
            d_ref = max(1.0, float(np.mean(sides)) / 2.0)
            sigma2 = 0.01 * self.power_budget * d_ref ** (-self.pathloss_exponent)
            object.__setattr__(self, "noise_power", sigma2)
        if self.power_budget <= 0:
            raise ValueError("power budget must be positive")
        if self.noise_power <= 0:
            raise ValueError("noise power must be positive")
        if self.pathloss_exponent <= 0:
            raise ValueError("pathloss exponent must be positive")
        if self.gnb_positions.shape[0] != len(self.cell_bounds):
            raise ValueError("one cell rectangle per station required")
        if self.serving.shape[0] != self.ue_positions.shape[0]:
            raise ValueError("serving assignment not aligned with terminals")
        if self.serving.min(initial=0) < 0 or \
                self.serving.max(initial=0) >= self.gnb_positions.shape[0]:
            raise ValueError("serving index outside the station list")
        for k in range(self.ue_positions.shape[0]):
            xmin, ymin, xmax, ymax = self.cell_bounds[self.serving[k]]
            x, y = self.ue_positions[k]
            if not (xmin <= x <= xmax and ymin <= y <= ymax):
                raise ValueError(f"terminal {k} lies outside its serving cell")

    @property
    def n_ues(self) -> int:
        return self.ue_positions.shape[0]

    @property
    def n_cells(self) -> int:
        return self.gnb_positions.shape[0]

    def cell_members(self, cell: int) -> np.ndarray:
        return np.nonzero(self.serving == cell)[0]


def grid_topology(cell_size: float = 250.0, ues_per_cell: int = 5, seed: int = 0,
                  power_budget: float = 1.0, min_gnb_distance: float = 20.0,
                  pathloss_exponent: float = PATHLOSS_EXPONENT) -> MimoTopology:
    """2x2 grid of square cells, stations at cell centers, seeded terminals.

    Terminals are placed uniformly in their cell but at least min_gnb_distance
    from the station, keeping the pathloss model away from its d=0 pole.
    """
    if cell_size <= 0 or ues_per_cell < 1:
        raise ValueError("cell_size must be positive and ues_per_cell >= 1")
    if min_gnb_distance >= cell_size / 2.0:
        # past the inscribed radius the acceptable corners shrink towards
        # nothing and rejection slows without bound; below it at least
        # 1 - pi/4 (21%) of the cell stays acceptable
        raise ValueError(f"min_gnb_distance {min_gnb_distance} must be below the "
                         f"inscribed radius {cell_size / 2.0:.6g} of a "
                         f"{cell_size} m cell")
    rng = seeded(seed, 0x707)
    cells = []
    gnbs = []
    for row in range(2):
        for col in range(2):
            xmin, ymin = col * cell_size, row * cell_size
            cells.append((xmin, ymin, xmin + cell_size, ymin + cell_size))
            gnbs.append((xmin + cell_size / 2.0, ymin + cell_size / 2.0))
    serving = np.repeat(np.arange(len(cells)), ues_per_cell)
    positions = place_terminals(rng, serving, cells, gnbs, min_gnb_distance)
    return MimoTopology(np.asarray(gnbs), tuple(cells), positions, serving,
                        power_budget=power_budget, pathloss_exponent=pathloss_exponent)


def place_terminals(rng: np.random.Generator, cells, bounds, gnbs,
                    min_gnb_distance: float) -> np.ndarray:
    """One position per entry of `cells`, uniform in that cell's rectangle
    but at least min_gnb_distance from its station, by rejection.

    The result is that of the scalar loop which, terminal by terminal, draws
    x = rng.uniform(xmin, xmax), then y = rng.uniform(ymin, ymax), until the
    pair is far enough from the station. Here the (x, y) uniforms come in
    blocks of pairs, scaled as rng.uniform scales them (lo + (hi - lo) * u);
    each pair is tested against every cell, and a walk in stream order hands
    each terminal the first pair after its predecessor's that its own cell
    accepts. rng is left past the last block, not the last pair used.
    """
    cells = np.asarray(cells, dtype=int)
    bounds = np.asarray(bounds, dtype=float)
    lo, span = bounds[:, None, :2], bounds[:, None, 2:] - bounds[:, None, :2]
    gnbs = np.asarray(gnbs, dtype=float)[:, None, :]
    positions = np.empty((cells.size, 2))
    block, done = _PLACE_BLOCK, 0
    while done < cells.size:
        xy = lo + span * rng.random((block, 2))                  # (cell, pair, xy)
        accepted = np.hypot(*np.moveaxis(xy - gnbs, -1, 0)) >= min_gnb_distance
        pair = 0
        while pair < block and done < cells.size:
            take = np.arange(pair, pair + min(block - pair, cells.size - done))
            want = cells[done:done + take.size]
            hits = accepted[want, take]
            run = take.size if hits.all() else int(np.argmin(hits))
            positions[done:done + run] = xy[want[:run], take[:run]]
            done += run
            pair += run + (run < take.size)  # past a pair this terminal's cell rejects
    return positions


def _check_budgets(topology: MimoTopology, powers: np.ndarray) -> None:
    if powers.shape != (topology.n_ues,):
        raise ValueError(f"need one power per terminal, got shape {powers.shape}")
    if np.any(powers < 0):
        raise ValueError("negative transmit power")
    for c in range(topology.n_cells):
        total = float(powers[topology.cell_members(c)].sum())
        if total > topology.power_budget + BUDGET_TOLERANCE:
            raise ValueError(
                f"cell {c} power {total} exceeds budget {topology.power_budget}")


def ground_truth_power(topology: MimoTopology, positions=None) -> np.ndarray:
    """Distance-compensating policy: p_k proportional to d_kk^alpha per cell.

    The budget is spent exactly, so a terminal that moves outward strictly
    gains allocated power at its cellmates' expense. positions may stack
    placements on leading axes, (..., n_ues, 2); the powers are (..., n_ues).
    """
    positions = topology.ue_positions if positions is None else np.asarray(positions, dtype=float)
    if positions.shape[-2:] != topology.ue_positions.shape:
        raise ValueError("positions shape mismatch")
    alpha = topology.pathloss_exponent
    powers = np.empty(positions.shape[:-1])
    for c in range(topology.n_cells):
        members = topology.cell_members(c)
        d = np.hypot(*np.moveaxis(positions[..., members, :] - topology.gnb_positions[c], -1, 0))
        if np.any(d <= 0):
            raise ValueError(f"terminal at zero distance from station {c}")
        share = d ** alpha
        powers[..., members] = topology.power_budget * share / share.sum(axis=-1, keepdims=True)
    return powers


def normalize_powers(topology: MimoTopology, raw_powers) -> np.ndarray:
    """Clip negatives and scale each cell down to its budget (never up)."""
    powers = np.maximum(np.asarray(raw_powers, dtype=float), 0.0)
    if powers.shape != (topology.n_ues,):
        raise ValueError(f"need one power per terminal, got shape {powers.shape}")
    out = powers.copy()
    for c in range(topology.n_cells):
        members = topology.cell_members(c)
        total = float(out[members].sum())
        if total > topology.power_budget:
            out[members] *= topology.power_budget / total
    return out


def spectral_efficiency(topology: MimoTopology, powers, true_positions=None) -> np.ndarray:
    """Per-terminal SE = log2(1 + SINR) under the log-distance gain d^-alpha.

    The interference seen by terminal k sums every other terminal's transmit
    power through the gain from the station serving that terminal to k's TRUE
    position (all terminals share the spectral resource). Zero allocated
    power means zero SE; a terminal co-located with any relevant station is
    an error, as is a violated per-cell budget.
    """
    powers = np.asarray(powers, dtype=float)
    _check_budgets(topology, powers)
    positions = topology.ue_positions if true_positions is None \
        else np.asarray(true_positions, dtype=float)
    if positions.shape != topology.ue_positions.shape:
        raise ValueError("positions shape mismatch")
    alpha = topology.pathloss_exponent
    n = topology.n_ues
    # gain[k, c]: channel gain from station c to terminal k
    delta = positions[:, None, :] - topology.gnb_positions[None, :, :]
    dist = np.hypot(delta[..., 0], delta[..., 1])
    if np.any(dist <= 0):
        raise ValueError("terminal co-located with a station; gain undefined")
    gain = dist ** (-alpha)
    se = np.empty(n)
    for k in range(n):
        signal = powers[k] * gain[k, topology.serving[k]]
        interference = 0.0
        for j in range(n):
            if j != k:
                interference += powers[j] * gain[k, topology.serving[j]]
        se[k] = np.log2(1.0 + signal / (interference + topology.noise_power))
    return se

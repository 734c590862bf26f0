"""Translate a 100 Mbps SLA into per-cell planning targets, four ways.

Run:  python demos/02_sla_translation.py
"""
import numpy as np

from scplan import (load_scenario, pixel_specs_to_cell, translate_pixel_level,
                    translate_sc_level)
from scplan.presets import bundled_scenario_path
from scplan.radio import configure_powers, serving_assignment

scn = load_scenario(bundled_scenario_path("urban200m"))
state = configure_powers(scn.initial_state, scn.grid, scn.radio)
serving = serving_assignment(state, scn.grid, scn.radio)

demand_px = np.sum([t.spatial_demand(scn.grid) for t in scn.tenants], axis=0)
demand_cell = serving.cell_sums(demand_px)
print("observed per-cell traffic of the existing tenants (Mbps):")
for cid, v in demand_cell.items():
    print(f"  cell {cid}: {v:6.2f}")

tenant = scn.event.tenant
a_busy = tenant.contracted_capacity_mbps    # a flat profile: busy hour = contract
print(f"\narriving tenant {tenant.tenant_id!r} contracts {a_busy:.0f} Mbps, "
      "all of it at the busy hour")

columns = {}
columns["uniform-sc"] = translate_sc_level(a_busy, state, "uniform").cell_values
columns["corr-sc"] = translate_sc_level(a_busy, state, "correlated",
                                        demand_cell).cell_values
uniform_px = translate_pixel_level(a_busy, scn.grid, "uniform")
columns["uniform-px"] = pixel_specs_to_cell(uniform_px, serving)
corr_px = translate_pixel_level(a_busy, scn.grid, "correlated", demand_px)
columns["corr-px"] = pixel_specs_to_cell(corr_px, serving)

header = "cell " + "".join(f"{m:>12}" for m in columns)
print("\nper-cell planning targets (Mbps):\n" + header)
for cid in state.cell_ids:
    row = f"{cid:>4} " + "".join(f"{columns[m][cid]:12.2f}" for m in columns)
    print(row)
print("sum  " + "".join(f"{sum(columns[m].values()):12.2f}" for m in columns))
print("\nevery column sums back to the busy-hour value (conservation).")

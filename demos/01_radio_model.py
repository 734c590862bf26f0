"""Walk through the radio model: path loss, serving, SINR, SE, capacity.

Run:  python demos/01_radio_model.py
"""
from scplan import (GridSpec, NetworkState, PropagationParams, SmallCell,
                    average_se, cell_capacity, configure_powers, path_loss,
                    spectral_efficiency)
from scplan.radio import link_state
from scplan.reporting import write_raster_pgm

params = PropagationParams()
print("indoor-hotspot path loss at 5 GHz (NLOS default):")
for d in (1, 10, 20, 50, 100, 200):
    print(f"  {d:>4} m -> {path_loss(float(d), params):6.2f} dB")

print("\ntruncated-Shannon spectral efficiency:")
for s in (-15, -5, 0, 9, 15, 30):
    print(f"  SINR {s:>4} dB -> {spectral_efficiency(float(s), params):.3f} b/s/Hz")

# a 120 m x 120 m area with three cells on two channels
grid = GridSpec(120.0, 120.0, 3.0)
state = NetworkState((
    SmallCell(1, 5 * grid.nx + 5, (0,)),
    SmallCell(2, 12 * grid.nx + 30, (1,)),
    SmallCell(3, 32 * grid.nx + 18, (0,)),    # reuses channel 0
))
state = configure_powers(state, grid, params)
print("\nauto-configured transmit powers (9 dB target at the cell edge):")
for cell in state.cells:
    print(f"  cell {cell.cell_id}: {cell.power_dbm:5.2f} dBm on channels {cell.channels}")

serving, _, pixel_se = link_state(state, grid, params)
print("\nper-cell results (uniform SE weighting, no traffic yet):")
for cell in state.cells:
    served = serving.cell_pixels[cell.cell_id].size
    avg = average_se(cell.cell_id, serving, pixel_se)
    print(f"  cell {cell.cell_id}: serves {served:4d} pixels, "
          f"avg SE {avg:.2f} b/s/Hz, "
          f"capacity {cell_capacity(len(cell.channels), avg, params):6.1f} Mbps")

write_raster_pgm("serving_demo.pgm", grid, serving.pixel_cell.astype(float))
write_raster_pgm("se_demo.pgm", grid, pixel_se)
print("\nwrote serving_demo.pgm and se_demo.pgm (grayscale rasters)")

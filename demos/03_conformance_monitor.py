"""Required bandwidth, busy-hour detection and the planning trigger.

Run:  python demos/03_conformance_monitor.py
"""
from scplan import (DemandHistory, MonitorParams, NetworkState, SmallCell,
                    check_trigger, latest_max, required_bandwidth,
                    sla_exceed_check)

# one cell holding two 20 MHz channels: 36 MHz is the 90% utilization bar
state = NetworkState((SmallCell(1, 0, (0, 1)),))
params = MonitorParams(alpha=0.9, window_steps=6, consecutive_steps=3)

print("required bandwidth = SLA-capped demand / average spectral efficiency")
# each tenant's Mbps per cell; one cell (id 1) here
demands = {"retail": {1: 28.0}, "media": {1: 45.0}}
specs = {"retail": {1: 30.0}, "media": {1: 38.0}}
for se in (2.5, 1.8, 1.2):
    mhz = required_bandwidth(demands, specs, {1: se})[1]
    print(f"  avg SE {se:.1f} -> {mhz:5.1f} MHz")

series = [20.0, 24.0, 31.0, 38.5, 39.0, 40.5, 41.0, 12.0]
history = DemandHistory(params.window_steps)
print(f"\nfeeding a rising load series, threshold "
      f"{params.alpha * 2 * 20:.0f} MHz, fire after "
      f"{params.consecutive_steps} consecutive violations:")
for t, value in enumerate(series):
    history.record(t, {1: value})
    decision = check_trigger(history, state, params, 20.0, t)
    row = decision.checks[0]
    busy_step, _ = latest_max(history.window(1))
    print(f"  t={t}: required {value:5.1f} MHz busy_hour=t{busy_step} "
          f"violation={str(row.violation):5} counter={row.counter} "
          f"fire={decision.fire}")

notice = sla_exceed_check(112.0, contracted=100.0, tenant_id="media")
print(f"\nSLA exceed check at 112 Mbps on a 100 Mbps contract -> "
      f"notify: {notice is not None}")

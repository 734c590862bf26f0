"""Capacity self-planning for multi-tenant small-cell networks.

A deterministic grid simulator plus a greedy incremental planner: tenant
SLAs are translated into per-cell planning specs, capacity conformance is
monitored over time, and the cell layout and channel allocation are
re-planned when capacity falls short.

The imports below are the public API: the one list of what the package
exports.  Other names in the modules are internal.
"""

from .scenario import (ScenarioError, InvariantError, GridSpec,
                       CandidateSiteSet, Hotspot, TenantProfile, ServingMap,
                       SmallCell, NetworkState, select_candidate_sites,
                       pixel_positions)
from .radio import (PropagationParams, path_loss, noise_floor_dbm,
                    serving_assignment, configure_powers, sinr,
                    spectral_efficiency, average_se, cell_capacity)
from .sla import (PlanningSpecSet, translate_sc_level, translate_pixel_level,
                  pixel_specs_to_cell)
from .monitor import (MonitorParams, DemandHistory, TriggerDecision,
                      SlaExceedNotice, required_bandwidth, latest_max,
                      check_trigger, sla_exceed_check)
from .evaluation import (METHODS, TenantSpecPolicy, EvaluationContext,
                         NetworkEvaluation, make_policy, evaluate_state)
from .planner import (PlannerParams, ActionLedger, AddChannel, RemoveChannel,
                      AddCell, RemoveCell, Relocate, select_channel,
                      select_site, plan, compress_actions, replay_actions)
from .scenario_io import (Scenario, NewTenantEvent, load_scenario, validate,
                          validate_file)
from .experiment import (ExperimentConfig, Report, RunContext, build_context,
                         run_experiment, emit_report, plan_once)
from .presets import bundled_scenario_path

__version__ = "0.1.0"

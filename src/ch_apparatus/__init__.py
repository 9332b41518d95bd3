"""Classical two-body rotation apparatus versus the Clauser-Horne inequalities.

The modified device produces conditional outcome statistics that, plugged
verbatim into the CH expressions, land far outside the admissible band; the
package computes those statistics exactly and by simulation, exhibits the
bookkeeping mistake, corrects it, and cross-checks the corrected behavior
against local-hidden-variable feasibility.
"""

from .apparatus import (
    ApparatusConfig,
    ConfigError,
    EngravedLines,
    StopPlacement,
    TrialOutcome,
    config_for_setup,
    fig2_config,
    fig2_lines,
    run_trial,
    run_trials,
    unmodified_config,
    validate_config,
)
from .circle_geometry import Arc, ccw_delta, normalize, partition_circle
from .exact_engine import (
    ConditionalTable,
    ConsistencyError,
    EventPredicate,
    closed_form_fig2,
    conditional_table,
    conditional_table_exact,
    grid_oracle,
)
from .inequality_analysis import (
    AnalysisReport,
    ProbabilitySet,
    SettingFrequencies,
    analyze,
    bayes_conditionals,
    ch_primed_value,
    ch_sum_value,
    ch_value,
    corrected_probabilities,
    crossing_probability_set,
    fixed_lambda_check,
    naive_plug,
    reduced_ch_value,
)
from .lhv_feasibility import (
    BehaviorTable,
    DeterministicStrategy,
    ch_battery,
    enumerate_strategies,
    feasible_joint,
    no_signaling_deviation,
    pr_box_table,
    singlet_table,
)
from .monte_carlo import CampaignPlan, SequenceSpec, estimate, run_campaign, run_sequence

__version__ = "0.1.0"

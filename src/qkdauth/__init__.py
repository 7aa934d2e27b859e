"""Lightweight recycled-key authentication for QKD post-processing."""

from .bits import Bits, constant_time_eq
from .hashing import (FieldParams, OtpKey, OtpReuseError, RecycledKey, Tag,
                      compose_tag, find_field_params, multi_poly_hash,
                      pad_and_chunk, toeplitz_hash, verify_tag)
from .planner import (CostInput, Plan, PlanInfeasibleError, make_plan, plan,
                      relative_cost, stinson_bound, table_one, tag_length)
from .protocol import (Direction, Flag, Harvest, KeyPool, KeyState, PartyState,
                       RoundOutcome, Transcript, harvest_keys, tag_sender,
                       tag_verifier)
from .simulator import (AdversaryConfig, EpsilonBudget, MockQkdSource,
                        SessionLedger, TrialStats, collision_census,
                        epsilon_budget, forgery_experiment, run_session,
                        strong_uniformity_census, toeplitz_xor_census)

__all__ = [
    "AdversaryConfig", "Bits", "CostInput", "Direction", "EpsilonBudget",
    "FieldParams", "Flag", "Harvest", "KeyPool", "KeyState", "MockQkdSource",
    "OtpKey", "OtpReuseError", "PartyState", "Plan", "PlanInfeasibleError",
    "RecycledKey", "RoundOutcome", "SessionLedger", "Tag", "Transcript",
    "TrialStats", "collision_census",
    "compose_tag", "constant_time_eq", "epsilon_budget", "find_field_params",
    "forgery_experiment", "harvest_keys", "make_plan", "multi_poly_hash",
    "pad_and_chunk", "plan", "relative_cost", "run_session",
    "stinson_bound", "strong_uniformity_census", "table_one", "tag_length",
    "tag_sender", "tag_verifier", "toeplitz_hash", "toeplitz_xor_census",
    "verify_tag",
]

__version__ = "0.1.0"

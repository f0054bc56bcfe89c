"""Simulated Facebook Ads Manager API."""

from .account import AccountStatus, AdAccount
from .api import AdsManagerAPI, ApiCallStats, CallBill
from .custom_audience import CustomAudience, CustomAudienceManager, hash_pii
from .policy import CampaignDecision, CampaignRule, PlatformPolicy, PolicyWarning
from .ratelimit import TokenBucket
from .reachestimate import (
    ReachEstimate,
    apply_reporting_floor,
    apply_reporting_floor_matrix,
)
from .targeting import TargetingSpec
from .validation import validate_spec

__all__ = [
    "AccountStatus",
    "AdAccount",
    "AdsManagerAPI",
    "ApiCallStats",
    "CallBill",
    "CampaignDecision",
    "CampaignRule",
    "CustomAudience",
    "CustomAudienceManager",
    "PlatformPolicy",
    "PolicyWarning",
    "ReachEstimate",
    "TargetingSpec",
    "TokenBucket",
    "apply_reporting_floor",
    "apply_reporting_floor_matrix",
    "hash_pii",
    "validate_spec",
]

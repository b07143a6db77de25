"""Results-as-a-service: campaign manifests, artifact store, publication.

The production story above a single sweep (ROADMAP "results as a
service"): declare many sweeps in one JSON **manifest**
(:class:`CampaignSpec`), run them resumably against a
:class:`~repro.exec.cache.ResultCache` (:func:`run_campaign` — a rerun
simulates only cache misses, so crash recovery is "run it again"), and
publish the rendered deliverables into a content-addressed
:class:`ArtifactStore` that the read-only front ends (``repro-campaign
query``, ``repro-serve``) answer from with **zero** simulations.

Quick usage::

    from repro.campaign import ArtifactStore, CampaignSpec, run_campaign
    from repro.exec import ResultCache

    spec = CampaignSpec.load("campaign.json")
    report = run_campaign(spec, cache=ResultCache("results/cache"),
                          store=ArtifactStore("results/store"))
"""

from typing import Any, List

from repro import _lazy

#: Public name -> defining module, imported on first access (PEP 562).
_EXPORTS = {
    "CampaignEntry": "repro.campaign.manifest",
    "CampaignSpec": "repro.campaign.manifest",
    "CampaignInterrupted": "repro.campaign.runner",
    "CampaignReport": "repro.campaign.runner",
    "EntryRun": "repro.campaign.runner",
    "EntryStatus": "repro.campaign.runner",
    "campaign_status": "repro.campaign.runner",
    "publish_campaign": "repro.campaign.runner",
    "run_campaign": "repro.campaign.runner",
    "ArtifactStore": "repro.campaign.store",
}

__all__ = list(_EXPORTS)


def __getattr__(name: str) -> Any:
    return _lazy.load(globals(), _EXPORTS, name)


def __dir__() -> List[str]:
    return _lazy.names(globals(), _EXPORTS)

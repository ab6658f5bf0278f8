"""Fleet campaign experiments: mixed-configuration HIL grids at scale.

Where :mod:`repro.experiments.hil_experiments` reproduces the paper's fixed
sweeps (Figures 15-18), this driver exposes the fleet campaign engine
(:mod:`repro.fleet`) through the experiment registry: an arbitrary
cross-product grid over difficulty x seed x clock frequency x drone variant
x control rate x solver settings, run through the event-driven dynamic
batcher and folded into per-cell aggregate rows.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Union

__all__ = ["fleet_campaign"]


def fleet_campaign(difficulties: Sequence[str] = ("easy", "medium"),
                   seeds: Union[int, Sequence[int]] = 4,
                   implementations: Sequence[str] = ("vector",),
                   frequencies_mhz: Sequence[float] = (100.0, 250.0),
                   variants: Sequence[str] = ("CrazyFlie",),
                   control_rates_hz: Sequence[float] = (100.0,),
                   max_admm_iterations: Sequence[int] = (10,),
                   workers: int = 1,
                   max_batch: Optional[int] = None,
                   batched: bool = True,
                   include_overall: bool = True) -> List[Dict]:
    """Run a fleet campaign and return its aggregate rows.

    ``seeds`` may be a count (``8`` means seeds ``0..7``) or an explicit
    seed sequence.  With ``batched=False`` every solve runs on the scalar
    path — the bit-for-bit sequential reference; the default routes solves
    through the dynamic batcher.  The final row (``difficulty == "overall"``)
    summarizes the whole campaign unless ``include_overall=False``.
    """
    from ..fleet import CampaignSpec, run_campaign

    if isinstance(seeds, int):
        seeds = tuple(range(seeds))
    spec = CampaignSpec(
        name="fleet-campaign",
        difficulties=tuple(difficulties),
        seeds=tuple(seeds),
        implementations=tuple(implementations),
        frequencies_mhz=tuple(frequencies_mhz),
        variants=tuple(variants),
        control_rates_hz=tuple(control_rates_hz),
        max_admm_iterations=tuple(max_admm_iterations),
    )
    outcome = run_campaign(spec, workers=workers, batching=batched,
                           max_batch=max_batch)
    rows = outcome.rows()
    if include_overall:
        summary = {key: "" for key in rows[0]} if rows else {}
        summary.update({"difficulty": "overall"})
        summary.update(outcome.overall())
        rows.append(summary)
    return rows

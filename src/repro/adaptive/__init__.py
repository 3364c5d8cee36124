"""Adaptive consistency: per-request CL control under latency/staleness SLOs.

The paper's §4.3 shows the static trade — CL ONE is fast but stale,
QUORUM/ALL pay coordinator fan-in on every request.  This package makes
the trade dynamic, closing the loop the related work proposes
(Garcia-Recuero et al.'s quality-of-data bounds; Zhu et al.'s
latency-bounded CL stepping):

- :mod:`repro.adaptive.monitor` — windowed latency percentiles,
  staleness-risk sensing, and the recent-writes sketch;
- :mod:`repro.adaptive.policy` — Static / Stepwise / StalenessBound
  policies over a declared :class:`~repro.adaptive.config.SloSpec`;
- :mod:`repro.adaptive.controller` — the DbBinding wrapper applying
  per-request CL overrides and logging every decision.

Wired end-to-end as ``repro-bench adaptive`` (policy x offered-load
ramp at RF 3, with the consistency oracle checking what staleness each
policy actually delivered).
"""

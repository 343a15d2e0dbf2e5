"""Acceptance 7's link as plain data: it imports nothing, so `tools/branches.py` shares it."""

MS, SEC = 10**6, 10**9
LINK = dict(  # ScenarioConfig keywords: one sub-segment DCTCP flow on a 2 Mb/s ramp-marking link
    capacity=2_000_000, n_flows=1, frame_size=1518, smss=1460, base_rtt=6 * MS,
    aqm_policy="ramp-mark", aqm_target=1 * MS, aqm_ceiling=2 * MS, buffer_limit=30_000,
    sender_mode="submss", cc_variant="dctcp-like", ecn=True, delayed_acks=False,
    duration=24 * SEC, warmup=2 * SEC, seed=3, w_min_fraction=1.0 / 1024,
)
RTO_MIN, RTO_INITIAL = 10 * MS, 1 * SEC  # the endpoint's RTO floor and initial RTO for it

"""Consistency oracle: Jepsen-style history checking over the sim.

The paper's consistency findings (F4/F6) are *correctness* claims — CL
ONE leaves stale replicas that repair must catch; QUORUM/ALL reads see
the latest write.  This package verifies them instead of inferring
them from latency shapes:

- :mod:`repro.consistency.history` — a :class:`~repro.ycsb.db.DbBinding`
  wrapper that records every operation's invocation/response interval
  (op, key, value, CL, outcome — timeouts as *indeterminate*) into a
  per-run :class:`History`;
- :mod:`repro.consistency.checkers` — per-key linearizability
  (Wing & Gong interval search) for R+W > RF configurations, session
  guarantees (read-your-writes, monotonic reads) and global staleness
  for weak CLs, and eventual convergence (replica agreement after
  quiescence + repair);
- :mod:`repro.consistency.oracle` — one JSON-safe consistency report per
  recorded run;
- :mod:`repro.consistency.explorer` — fans N seeds x fault templates
  through the parallel cell runner and reports violations with the
  minimal reproducing seed.
"""

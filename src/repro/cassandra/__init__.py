"""Cassandra-like cloud serving database.

Architecture per the paper's testbed (Cassandra 2.0.2): 15 peer storage
nodes forming a token ring (the 16th machine runs the YCSB client), no
master.  Any node can coordinate any request.

Key behaviours reproduced:

- **SimpleStrategy** replica placement over a virtual-node token ring;
- **tunable consistency**: the coordinator forwards a write to every
  replica but acknowledges after ONE / QUORUM / ALL responses (the
  paper's consistency knob), and reads block on the matching number of
  data + digest responses;
- **read repair**: digest mismatches inside the CL-blocking set force a
  foreground reconcile; with probability ``read_repair_chance`` (0.1,
  the 2.0 default the paper cites) the remaining replicas are read and
  repaired asynchronously — the background burden behind finding F4
  (read latency climbing with the replication factor);
- **hinted handoff** for writes targeting dead replicas;
- **NetworkTopologyStrategy + LOCAL_ONE/LOCAL_QUORUM** for the
  geo-distributed deployments of the paper's §6 future work.
"""

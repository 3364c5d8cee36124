"""HBase-like cloud serving database.

Architecture per the paper's testbed (HBase 0.96 on HDFS 2.2): one
HMaster co-located with the NameNode and the YCSB client on the last
node, 15 RegionServers co-located with DataNodes.  Strong consistency:
every row is owned by exactly one RegionServer; replication happens one
layer down, inside HDFS.

Key behaviours reproduced:

- writes append to a RegionServer-wide WAL with **group commit** through
  the HDFS pipeline (in-memory acks), then update the MemStore — the
  replication factor only adds in-rack pipeline hops (paper finding F2);
- reads are served by the owning RegionServer from MemStore / block
  cache / short-circuit local HFile reads — the replication factor is
  invisible to reads (finding F1);
- the HMaster reassigns regions on RegionServer failure, costing a
  visible availability gap and a loss of HFile locality (failover probe).
"""

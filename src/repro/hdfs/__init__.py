"""HDFS-like distributed filesystem (the HBase substrate).

HBase delegates replication entirely to HDFS — the paper configures the
replication factor through HDFS and observes how HBase reacts.  This
package models the pieces that matter to that experiment:

- a **NameNode** owning the namespace and choosing replica targets
  (writer-local first, then random distinct nodes — the default HDFS
  placement within one rack),
- **DataNodes** storing block replicas,
- the **write pipeline**: a chained transfer client → DN1 → DN2 → … that
  acknowledges once every datanode has the bytes *in memory* (hflush
  semantics).  The asynchronous page-cache flush is what makes HBase's
  write latency insensitive to the replication factor (paper finding F2),
- a **DFSClient** facade through which HBase's storage medium
  (:class:`repro.hbase.region.RegionMedium`) places an
  :class:`~repro.storage.lsm.LsmTree`'s WAL and HFiles on HDFS, with
  short-circuit local reads when a replica is co-located.
"""

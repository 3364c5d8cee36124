"""YCSB-like benchmark framework.

Re-implements the parts of the Yahoo! Cloud Serving Benchmark the paper
uses: key-choice distributions (:mod:`repro.ycsb.generators`), the core
workload engine with the paper's five stress workloads
(:mod:`repro.ycsb.workload`), database bindings (:mod:`repro.ycsb.db`),
closed-loop client threads with a target-throughput throttle
(:mod:`repro.ycsb.client`), and latency/throughput measurement
(:mod:`repro.ycsb.measurements`).
"""

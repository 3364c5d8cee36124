"""Simulated cluster hardware substrate.

Models the paper's testbed: 16 server-class machines in one rack — each
with two Xeon L5640 processors (24 logical cores), 32 GB RAM, one hard
drive and a gigabit ethernet connection — wired through a single rack
switch.  Every database operation consumes simulated CPU time, disk
service time and NIC serialization time on the nodes it touches, so
saturation and queueing delays emerge from contention rather than from
fitted curves.
"""

"""Whole-figure sweep benchmark for the destination-set prediction simulator.

Run ``python3 perfbench/run.py --workload <name>``; see README.md.
"""

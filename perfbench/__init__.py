"""Sweep-pipeline benchmark for the ``repro`` package (run ``perfbench/run.py``)."""

"""Benchmark harness for masseyq; see README.md in this directory."""

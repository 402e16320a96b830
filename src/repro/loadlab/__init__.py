"""Helpers for measuring a running detection service from outside it.

The service's load benchmark is ``benchmarks/perf`` (see its
``README.md``); it reads the server's own counters through
:mod:`repro.loadlab.results`, which parses ``/metrics`` scrapes and
subtracts one from another.
"""

"""Stages 2 and 3 run one way, :meth:`repro.core.hunter.URHunter.run`.

:mod:`repro.flow.nodes` keeps the three class names the frozen
``benchmarks/e2e`` harness imports and rebinds.
"""

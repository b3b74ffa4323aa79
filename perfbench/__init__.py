"""The repository benchmark: streaming truth inference end to end.

Run ``python3 perfbench/run.py --workload <name> --seed <n> --seconds
<s> --trace <0|1>`` from the repository root; ``BENCHMARK.json`` lists
the workloads and metrics.  ``python3 -m pytest perfbench/selftest.py``
runs the benchmark's own tests.
"""

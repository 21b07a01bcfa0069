"""The repository benchmark: four named workloads over the process
runtime, the chain service and the simulator, plus a traced per-layer run.

Entry point: ``python3 rcmpbench/run.py --workload NAME --seed N
--seconds S --trace 0|1`` (see ``rcmpbench/README.md``)."""

"""The repository's benchmark: four closed-loop workloads, measured end to
end and layer by layer.  Run it with ``python3 perfbench/run.py``."""

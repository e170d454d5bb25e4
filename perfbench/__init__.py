"""End-to-end benchmark of the PipeTune reproduction (see README.md).

``python3 perfbench/run.py --workload <name> --seed <n> --seconds <s>
--trace <0|1>`` runs one workload and prints its metrics; the last
stdout line is one JSON object.
"""

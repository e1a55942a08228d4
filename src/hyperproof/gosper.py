"""Empty module.  Gosper's algorithm is the order-0 case of
telescope.assemble and telescope.solve_order, which gridproof.prove runs.

This module exists only as an import target of perfbench/tracer.py, which
imports every module named in its stage list; it goes with the benchmark
repair (ROADMAP item 2).
"""

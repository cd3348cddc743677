"""Spark (distributed dataflow) parts of the reproduction.

``pipeline`` is PAR-TDBHT, whose one Spark stage is the APSP of
``apsp_spark`` (tested bit-identical to the driver kernel of
``repro.graphs.shortest_paths``). ``apsp_spark`` is the only module that
runs Python tasks, and its tasks keep a reused worker from re-reading
unchanged zip archives before every task (``guard_zip_directories``),
which was most of each Python task's cost at n <= 1,294. The TMFG, the
correlation, vertex assignment and the hierarchy run on the driver in
both pipelines.
"""

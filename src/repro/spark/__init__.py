"""Spark (distributed dataflow) parts of the reproduction.

``pipeline`` is PAR-TDBHT, whose one Spark stage is the APSP of
``apsp_spark`` (tested bit-identical to the driver kernel of
``repro.graphs.shortest_paths``). The TMFG, the correlation, vertex
assignment and the hierarchy run on the driver in both pipelines.
"""

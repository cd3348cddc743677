"""Graph substrates: planarity testing, shortest paths, bubble trees.

These are the subsystems the paper depends on (Boost/MATLAB graph
libraries in the original) re-implemented from scratch: scipy is not
available, and networkx's planarity test made the PMFG baseline twice as
slow as the in-house one (see ``planarity``).
"""

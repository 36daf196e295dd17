"""The two names of the old kernel module that perfbench/ still reads.

Each kernel now lives in the module whose format it reads: the pattern
kernels in `errormap`, the graph-state signs in `graphs`, the clique-graph
codec, conflict masks and branch and bound in `clique`.  No module of the
package imports this one; ROADMAP item 1b, which moves perfbench/ off these
names, deletes the file.
"""

# Read by perfbench/run.py and perfbench/kernels.py to label the kernel lane.
HAVE_NUMBA = False


# Called by perfbench/kernels.py before timing; nothing needs compiling.
def warmup() -> None:
    pass

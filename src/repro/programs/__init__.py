"""The benchmark suite (Table 2 of the paper).

Seven programs "from a variety of domains, including string manipulation,
hashing, and packet-manipulating (network) programs":

========  =============================================================
fnv1a     Fowler-Noll-Vo (noncryptographic) hash
utf8      Branchless UTF-8 decoding
upstr     In-place string uppercase (Box 1)
m3s       Scramble part of the Murmur3 algorithm
ip        IP (one's-complement) checksum (RFC 1071)
fasta     In-place DNA sequence complement
crc32     Error-detecting code (cyclic redundancy check)
========  =============================================================

Each module provides the annotated functional model, its ``FnSpec`` ABI,
a plain-Python reference implementation (the high-level specification),
and a *handwritten* Bedrock2 implementation standing in for the paper's
handwritten C baselines.  :data:`PROGRAMS` is the registry the test,
validation and benchmark harnesses iterate over; :func:`get_program`
resolves a name in it or, failing that, in the query registry
(``repro.query.programs``), and is the only name lookup the commands use.
"""

from repro.programs.registry import (
    PROGRAMS,
    BenchProgram,
    all_programs,
    get_program,
)

__all__ = ["PROGRAMS", "BenchProgram", "all_programs", "get_program"]

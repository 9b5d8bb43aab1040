"""Hamiltonicity analysis of polygonal grid graphs.

Cycle-basis algebra, Grinberg-equation feasibility, claw(d2) and
non-Hamiltonian hole detection, subbasis reduction, and an exact
backtracking oracle for desk-scale auditing.
"""

from .embedding import (EdgeSet, Face, FaceBasis, PlanarEmbedding,
                        PggParseError, classify_edge_set, enclosed_faces,
                        is_hamilton_cycle, parse_pgg, sym_diff, sym_diff_all,
                        trace_faces, write_pgg)
from .grinberg import (GrinbergEquation, GrinbergPartition, check_prop_3_1,
                       equation_of, format_equation, solvable, solve,
                       tutte_reduced_equation, tutte_subbasis_equation,
                       verify_grinberg_identity)
from .holes import HoleContext, Verdict, decide, is_global_hole
from .oracle import (AgreementReport, OracleResult, compare,
                     enumerate_polyominoes, gen_grid, hamilton_oracle)
from .structure import BasisGraph, ClawReport, VertexClass, claw_d2_scan
from .subbases import (ReducedGraph, SubbasisDecomposition, boundary_element_set,
                       check_prop_6_1, decompose, reduce_to_Gg)

__version__ = "0.1.0"

"""Contraction-ordered numerical kernels shared by every solver hot path.

This package is the single home of the performance-critical inner loops of
the repository: δ computation (Eq. 12), per-row normal-equation reduction
(Eqs. 10-11), the row solves (Eq. 9) and sparse reconstruction (Eq. 4).  The P-Tucker solvers, the cache/approx/sampled variants, the
``procpool`` workers and the HOOI-style baselines all route through these
functions instead of carrying private copies of the math.

Contraction ordering
--------------------
The seed kernel materialised, for every block of ``m`` observed entries, the
running Kronecker product of the non-target factor rows — an
``(m, Π_{k≠n} J_k)`` intermediate — and then multiplied it against the
``(J_n, Π_{k≠n} J_k)`` unfolded core.  The kernels here never build that
matrix.  Instead the core is contracted *mode by mode* against the gathered
factor rows (largest mode first), in the S-HOT spirit of "reduce on the fly,
never materialise the unfolding":

    temp ← transpose(G, [n] + others)         # |G| = Π_k J_k cells
    for k ≠ n, from the last axis inward:
        temp ← contract(temp, A^(k)[i_k, :])  # GEMM, then batched einsum over m

Each contraction removes one mode, so the per-entry intermediate *shrinks*
from ``|G|`` toward ``J_n`` instead of growing to ``Π_{k≠n} J_k``.  The kept
mode leads the layout and the contracted axis is always the (contiguous)
last one: the first (and largest) contraction is a plain GEMM with a
C-contiguous ``(m, |G|/J_k)`` result, and every later step is a contiguous
batched inner reduction.

Complexity
----------
Per block of ``m`` entries the seed path costs
``O(m · Π_k J_k)`` memory for the Kronecker intermediate and
``O(m · J_n · Π_{k≠n} J_k)`` time for the dense product, i.e.
``O(nnz · Π J)`` per sweep with a full-width temporary per entry.  The
contraction schedule performs the same ``O(m · |G|)`` leading GEMM but every
later step operates on a strictly smaller tensor, giving
``O(nnz · Σ_k |G| / Π_{j<k} J_j)  ≈  O(nnz · Σ J · max|G|/J)`` time.  The
block is evaluated in consecutive tiles sized to
:data:`~repro.kernels.contraction.TILE_BYTES`, so the largest contraction
temporary is about ``2 · TILE_BYTES`` per call whatever ``m`` is (plus the
``(m, J_n)`` output) — and for the reductions,
``np.add.reduceat`` segment sums over mode-sorted entries replace
``np.add.at`` scatter-adds (which degrade to per-element scalar dispatch),
while per-row Gram matrices are accumulated as segmented δᵀδ products so the
``(m, J, J)`` outer-product array is never materialised.

Row solves
----------
:func:`~repro.kernels.solve.solve_segments` is the one primitive that
turns a block's δ into factor rows.  A row of ``k < J`` entries is
solved in its ``k × k`` dual form ``a = Dᵀ(DDᵀ + λI_k)⁻¹x`` — by the
push-through identity the same minimiser as Eq. 9, at ``O(k²J + k³)``
instead of the normal equations' ``O(kJ² + J³)`` — bucketed by ``k``
into batched solves (``a = δ·x / (δᵀδ + λ)`` for ``k = 1``).  A row of
``k ≥ J`` entries keeps the normal equations and
:func:`~repro.kernels.solve.solve_rows`.  In a sparse tensor most rows
are short, so the J×J reduction and solve (which took most of a sweep
outside the contraction) run only for the long rows and the rows split
across blocks.

Backend selection
-----------------
The per-sweep *row solver* — δ contraction followed by
``solve_segments`` on each block, returning solved factor rows for the
rows a block holds completely (``(B, c)`` only for the at most two rows
a block boundary splits) — is a backend's one per-block entry point and
is pluggable through the :mod:`~repro.kernels.backends` registry, as is
the ``solve_rows`` that finishes the split rows.  Every consumer of the row
update accepts a ``backend=`` knob (``update_factor_mode``,
``PTuckerConfig``, the CLI's ``--backend`` and the microbench grid) and
takes exactly these names:

* ``"numpy"`` (default) — the serial reference path described above.
* ``"threaded"`` — splits each mode-sorted entry block at *segment
  boundaries* and runs the contraction and ``solve_segments`` of each
  chunk on a shared process-global ``ThreadPoolExecutor``; row
  independence (paper Section III-B) means the chunks' rows never
  interact, and the GEMMs inside release the GIL.  Worker count follows
  the CPU count (override with ``REPRO_KERNEL_THREADS``).
* ``"procpool"`` — the same segment-aligned chunks on supervised worker
  processes of :mod:`repro.fabric`; each worker contracts and solves
  its chunk's rows, so factor rows (J floats per row), not normal
  equations (J² + J), cross the process pipe.  Degrades to the serial
  reference with one worker (``REPRO_PROC_WORKERS``).

Any other name is rejected with ``unknown kernel backend``.

All backends compute identical values up to floating-point associativity;
the equivalence is property-tested across orders, ragged ranks, empty
rows and single-entry segments.

Submodules
----------
* :mod:`~repro.kernels.contraction` — progressive core contraction (δ blocks
  and fully-contracted per-entry model values).
* :mod:`~repro.kernels.segments` — segment-sorted reductions (sums and
  normal equations) and the equal-length bucketing ``solve_segments``
  shares with them.
* :mod:`~repro.kernels.solve` — the row solves: ``solve_segments`` (dual
  form for short rows, normal equations for long ones) and the batched
  ridge solve ``solve_rows``.
* :mod:`~repro.kernels.backends` — the named execution strategies behind
  the ``backend=`` knob.
* :mod:`~repro.kernels.microbench` — kernel/backend timing grids and the
  frozen seed Kronecker sweep they time against (imported lazily; it
  depends on the tensor and solver layers).
"""

from .contraction import (
    contract_delta_block,
    contract_value_block,
    make_delta_contractor,
    make_value_contractor,
)
from .segments import (
    block_segment_starts,
    normal_equations_sorted,
    segment_sum,
)
from .solve import solve_rows, solve_segments
from .backends import (
    KernelBackend,
    available_backends,
    get_backend,
    register_backend,
    resolve_backend,
)

__all__ = [
    "KernelBackend",
    "available_backends",
    "get_backend",
    "register_backend",
    "resolve_backend",
    "contract_delta_block",
    "contract_value_block",
    "make_delta_contractor",
    "make_value_contractor",
    "block_segment_starts",
    "normal_equations_sorted",
    "segment_sum",
    "solve_rows",
    "solve_segments",
]

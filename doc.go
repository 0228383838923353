// Package gridqr is a pure-Go reproduction of "QR Factorization of Tall
// and Skinny Matrices in a Grid Computing Environment" (Agullo, Coti,
// Dongarra, Herault, Langou — IPDPS 2010, arXiv:0912.2572): the QCG-TSQR
// algorithm, its ScaLAPACK-style baseline, a topology-aware
// message-passing runtime, a virtual-time grid simulator calibrated to
// Grid'5000, and the complete experiment harness that regenerates the
// paper's tables and figures.
//
// The root package holds only the top-level benchmarks; see README.md for
// the architecture map and internal/* for the library packages:
//
//   - internal/core — QCG-TSQR and the communication-avoiding extensions
//     (CAQR, TSLU, CholeskyQR, MGS)
//   - internal/scalapack — the PDGEQR2/PDGEQRF baseline
//   - internal/mpi — the message-passing runtime (real + virtual time)
//   - internal/bench — the Section V experiment harness
//   - internal/subspace — a block eigensolver built on TSQR (§II-E)
package gridqr

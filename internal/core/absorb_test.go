package core

import (
	"testing"

	"gridqr/internal/grid"
	"gridqr/internal/lapack"
	"gridqr/internal/matrix"
	"gridqr/internal/mpi"
)

// TestAbsorbConsumesOperands pins the operator's contract on TSQR's side:
// the merge is in place — what comes back is mine's own storage holding
// R, what recv unpacked is the logged V — and the values are lapack's
// value-level StackQR of the two, bit for bit. Callers that need an
// operand afterwards hand in a copy (TestSnapshotEqualsFactorize, the FT
// recovery tests and TestStagedPreemptResumeBitwise hold them to that).
func TestAbsorbConsumesOperands(t *testing.T) {
	n := 9
	mine := FactorizeLocal(matrix.Random(3*n, n, 1), 0)
	theirs := FactorizeLocal(matrix.Random(3*n, n, 2), 0)
	wantR, wantV, wantTau := lapack.StackQR(mine, theirs)
	mpi.NewWorld(grid.SmallTestGrid(1, 1, 1)).Run(func(ctx *mpi.Ctx) {
		op := &triangles{comm: mpi.WorldComm(ctx), n: n}
		got := op.absorb(mine, theirs, step{peer: 3, tag: 5})
		if got != mine {
			t.Error("absorb returned a new matrix: the merge is not in place")
		}
		if len(op.log) != 1 || op.log[0].v != theirs || op.log[0].partner != 3 || op.log[0].tag != 5 {
			t.Fatalf("absorb did not log the received triangle as the merge's V: %+v", op.log)
		}
		if !bitwiseEqual(got, wantR) || !bitwiseEqual(op.log[0].v, wantV) ||
			!bitwiseEqual(matrix.FromColMajor(n, 1, op.log[0].tau), matrix.FromColMajor(n, 1, wantTau)) {
			t.Error("in-place merge differs from lapack.StackQR of the operands")
		}
	})
}

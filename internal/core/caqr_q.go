package core

import (
	"gridqr/internal/blas"
	"gridqr/internal/flops"
	"gridqr/internal/lapack"
	"gridqr/internal/matrix"
	"gridqr/internal/mpi"
)

// caqrBuildQ forms the explicit thin M×N Q factor of a CAQR
// factorization by applying the recorded panel transformations in
// reverse order to the distributed [I_N; 0] block: for each panel
// (last first), the panel tree's Q is applied to the jb coupled rows of
// each rank (treeQ.roundTrip), then the leaf reflectors locally.
func caqrBuildQ(comm *mpi.Comm, in Input, recs []caqrPanelRec) *matrix.Dense {
	ctx := comm.Ctx()
	me := comm.Rank()
	n := in.N
	myOff := in.Offsets[me]
	myRows := in.Offsets[me+1] - myOff
	e := matrix.New(myRows, n)
	for i := 0; i < myRows; i++ {
		if g := myOff + i; g < n {
			e.Set(i, g, 1)
		}
	}
	for pi := len(recs) - 1; pi >= 0; pi-- {
		rec := recs[pi]
		// Reverse of my forward participation: my rows were last touched
		// by my absorber, before that by my own merges.
		rec.roundTrip(blocks{comm, rec.jb, n, caqrQTagBase + rec.idx*caqrTagStride}, false, e.View(rec.lo, 0, rec.jb, n))
		// Leaf: apply this panel's reflectors to my block rows.
		ctx.Kernel("compute", flops.ORMQR(rec.rows, n, rec.jb), rec.jb, func() {
			panel := in.Local.View(rec.lo, rec.j, rec.rows, rec.jb)
			lapack.Dormqr(blas.NoTrans, panel, rec.tau, e.View(rec.lo, 0, rec.rows, n), 0)
		})
	}
	return e
}

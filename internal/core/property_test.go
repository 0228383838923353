package core

import (
	"math"
	"testing"

	"gridqr/internal/grid"
	"gridqr/internal/lapack"
	"gridqr/internal/matrix"
	"gridqr/internal/mpi"
	"gridqr/internal/scalapack"
	"gridqr/internal/testmat"
)

// TestTSQRPropertySuite runs the distributed factorization over every
// shared input class from testmat: the computed R must match the
// sequential reference on full-rank inputs (relative, so extreme scales
// are held to the same standard) and preserve the Frobenius norm on
// rank-deficient ones, where R is not unique.
func TestTSQRPropertySuite(t *testing.T) {
	g := grid.SmallTestGrid(2, 2, 1) // 4 procs, 2 sites
	for _, tc := range testmat.Suite() {
		t.Run(tc.Name, func(t *testing.T) {
			global := tc.Gen(64, 5, 17)
			outs, _ := runFTGlobal(t, g, nil, global, Config{Tree: TreeGrid, FT: FTOptions{Enabled: true}})
			if outs[0].err != nil {
				t.Fatalf("rank 0 error: %v", outs[0].err)
			}
			r := outs[0].res.R.Clone()
			lapack.NormalizeRSigns(r, nil)
			scale := matrix.NormFrob(global)
			if tc.RankDeficient {
				if d := math.Abs(matrix.NormFrob(r) - scale); d > 1e-11*scale {
					t.Fatalf("‖R‖ drifted from ‖A‖ by %g", d)
				}
				if !matrix.IsUpperTriangular(r, 0) {
					t.Fatal("R not upper triangular")
				}
				return
			}
			ref := refR(global)
			if !matrix.Equal(r, ref, 1e-11*scale) {
				t.Fatalf("R differs from sequential reference beyond 1e-11·‖A‖")
			}
		})
	}
}

// TestBlockedLeafPropertySuite drives the cache-blocked leaf through
// Factorize on one rank, on both sides of lapack.FoldQR's guard (at
// n = 16 a leaf is cut into blocks above 4 MiB = 128 blocks, so r = 0 is
// the last one-Dgeqrf shape) and with tails shorter than, equal to and
// longer than n, over every shared input class: R against the one-shot
// FactorizeLocal, the explicit Q by reconstruction and orthogonality,
// and the implicit Q by QᵀA = [R; 0] and the ApplyQT-then-ApplyQ round
// trip. The block-boundary edges on small shapes are lapack's
// TestFoldQREdges.
func TestBlockedLeafPropertySuite(t *testing.T) {
	const n = 16
	b := lapack.FoldBlockRows(n)
	tails := []int{0, 1, n - 1, n, b - 1}
	if testing.Short() {
		tails = []int{0, n - 1}
	}
	g := grid.SmallTestGrid(1, 1, 1)
	for _, tc := range testmat.Suite() {
		t.Run(tc.Name, func(t *testing.T) {
			for _, r := range tails {
				m := 128*b + r
				a := tc.Gen(m, n, int64(m))
				scale := matrix.NormFrob(a)
				var res *Result
				var top, back *matrix.Dense
				var rest []float64
				mpi.NewWorld(g).Run(func(ctx *mpi.Ctx) {
					comm := mpi.WorldComm(ctx)
					res = Factorize(comm, Input{M: m, N: n, Offsets: []int{0, m}, Local: a.Clone()},
						Config{WantQ: true, KeepFactors: true})
					top, rest = res.Q.ApplyQT(comm, a)
					back = res.Q.ApplyQ(comm, top)
				})
				if e := matrix.ResidualQR(a, res.QLocal, res.R); e > 1e-12 {
					t.Fatalf("m=%d: ‖A−QR‖/‖A‖ = %g", m, e)
				}
				if e := matrix.OrthoError(res.QLocal); e > 1e-12 {
					t.Fatalf("m=%d: ‖I−QᵀQ‖ = %g", m, e)
				}
				if !matrix.Equal(top, res.R, 1e-12*scale) {
					t.Fatalf("m=%d: top of QᵀA differs from R", m)
				}
				for j, s := range rest {
					if s > 1e-24*scale*scale {
						t.Fatalf("m=%d: rest of QᵀA has norm² %g in column %d", m, s, j)
					}
				}
				if !matrix.Equal(back, a, 1e-12*scale) {
					t.Fatalf("m=%d: Q·(QᵀA) differs from A", m)
				}
				if tc.RankDeficient {
					continue
				}
				got := res.R.Clone()
				lapack.NormalizeRSigns(got, nil)
				if !matrix.Equal(got, refR(a), 1e-10*scale) {
					t.Fatalf("m=%d: R differs from FactorizeLocal", m)
				}
			}
		})
	}
}

// TestBlockedLeafConcurrentRanks: four ranks fold multi-block leaves at
// once, borrowing from the one workspace pool (run under -race by `make
// race`); the result matches the reference and repeats bit for bit.
func TestBlockedLeafConcurrentRanks(t *testing.T) {
	const n = 16
	g := grid.SmallTestGrid(2, 2, 1)
	m := g.Procs() * (130*lapack.FoldBlockRows(n) + n - 1)
	r1, q1, _, a := runTSQR(t, g, m, n, Config{Tree: TreeGrid, WantQ: true}, 23)
	r2, q2, _, _ := runTSQR(t, g, m, n, Config{Tree: TreeGrid, WantQ: true}, 23)
	if !matrix.Equal(r1, refR(a), 1e-10) {
		t.Fatal("R differs from the sequential reference")
	}
	if e := matrix.ResidualQR(a, q1, r1); e > 1e-12 {
		t.Fatalf("‖A−QR‖/‖A‖ = %g", e)
	}
	if !matrix.Equal(r1, r2, 0) || !matrix.Equal(q1, q2, 0) {
		t.Fatal("two runs on the same input differ bitwise")
	}
}

// TestExplicitQThroughBlockReflectors: at 64 columns the leaf's 4096-row
// fold blocks are expanded by lapack's block-reflector rule and its
// shorter tail block by Dorm2r (the 16-column suites above never leave
// Dorm2r). Two ranks, three blocks each: the explicit Q reconstructs A
// and is orthonormal to 1e-12, and ImplicitQ.ApplyQ on the identity —
// the same FoldQ.Expand behind a different caller — returns it bit for
// bit.
func TestExplicitQThroughBlockReflectors(t *testing.T) {
	const n = 64
	g := grid.SmallTestGrid(1, 2, 1)
	m := g.Procs() * (2*lapack.FoldBlockRows(n) + 809)
	offsets := scalapack.BlockOffsets(m, g.Procs())
	a := matrix.Random(m, n, 29)
	var r, qExp, qImp *matrix.Dense
	mpi.NewWorld(g).Run(func(ctx *mpi.Ctx) {
		comm := mpi.WorldComm(ctx)
		in := Input{M: m, N: n, Offsets: offsets, Local: scalapack.Distribute(a, offsets, ctx.Rank())}
		res := Factorize(comm, in, Config{Tree: TreeGrid, WantQ: true, KeepFactors: true})
		var eye *matrix.Dense
		if ctx.Rank() == 0 {
			eye = matrix.Eye(n)
		}
		imp := scalapack.Collect(comm, res.Q.ApplyQ(comm, eye), offsets, n)
		exp := scalapack.Collect(comm, res.QLocal, offsets, n)
		if ctx.Rank() == 0 {
			r, qExp, qImp = res.R, exp, imp
		}
	})
	if e := matrix.ResidualQR(a, qExp, r); e > 1e-12 {
		t.Fatalf("‖A−QR‖/‖A‖ = %g", e)
	}
	if e := matrix.OrthoError(qExp); e > 1e-12 {
		t.Fatalf("‖I−QᵀQ‖ = %g", e)
	}
	if !matrix.Equal(qImp, qExp, 0) {
		t.Fatal("ImplicitQ.ApplyQ(I) differs bitwise from the explicit Q")
	}
}

package scalapack

import (
	"gridqr/internal/matrix"
	"gridqr/internal/mpi"
)

// PDORG2R forms the explicit thin Q factor (M×N, distributed over the
// same row blocks as the factorization) by applying the reflectors in
// reverse order to the distributed identity. Every reflector application
// costs one allreduce, so forming Q doubles the message count and the
// flop count of the R-only factorization — the 2× of the paper's Table II
// and Property 1.
//
// It returns this rank's row block of Q (nil in cost-only mode, where
// only the costs are charged).
func PDORG2R(comm *mpi.Comm, f *Factorization) *matrix.Dense {
	var top *matrix.Dense
	if comm.Ctx().HasData() && comm.Rank() == 0 {
		top = matrix.Eye(f.N)
	}
	return ApplyQTop(comm, f, top)
}

// ApplyQTop computes the distributed product Q·[Top; 0], where Q is the
// implicit orthogonal factor of f and Top is an N×N matrix supplied on
// comm rank 0 (nil elsewhere; ignored in cost-only mode). With
// Top = I it forms the explicit thin Q; TSQR's Q-construction pass uses
// it with the seed block received from the reduction tree.
//
// It returns this rank's row block of the product (nil in cost-only
// mode).
func ApplyQTop(comm *mpi.Comm, f *Factorization, top *matrix.Dense) *matrix.Dense {
	ctx := comm.Ctx()
	n := f.N
	myOff := f.Offsets[comm.Rank()]
	myRows := f.Offsets[comm.Rank()+1] - myOff
	// Broadcast the top block so every rank can fill its rows of it.
	buf := make([]float64, n*n)
	if ctx.HasData() && comm.Rank() == 0 {
		if top == nil || top.Rows != n || top.Cols != n {
			panic("scalapack: ApplyQTop needs an N×N top block on rank 0")
		}
		t := matrix.FromColMajor(n, n, buf)
		matrix.Copy(t, top)
	}
	buf = comm.Bcast(0, buf)
	var q *matrix.Dense
	if ctx.HasData() {
		topAll := matrix.FromColMajor(n, n, buf)
		q = matrix.New(myRows, n)
		for i := 0; i < myRows; i++ {
			if g := myOff + i; g < n {
				for k := 0; k < n; k++ {
					q.Set(i, k, topAll.At(g, k))
				}
			}
		}
	}
	for j := n - 1; j >= 0; j-- {
		lo := min(max(0, j-myOff), myRows)
		active := myRows - lo
		// w = v_jᵀ·Q — one allreduce per reflector. All n columns are
		// updated: with a general top block every column can have
		// nonzeros in rows ≥ j (unlike the identity-seeded DORG2R,
		// which can restrict to columns ≥ j). The cost charged is the
		// structured algorithm's (paper Table II), which exploits that
		// restriction.
		w := make([]float64, n)
		if ctx.HasData() {
			for k := 0; k < n; k++ {
				var s float64
				for i := lo; i < myRows; i++ {
					g := myOff + i
					if g > j {
						s += f.Local.At(i, j) * q.At(i, k)
					} else if g == j {
						s += q.At(i, k)
					}
				}
				w[k] = s
			}
		}
		w = comm.Allreduce(w, mpi.OpSum)
		ctx.Kernel("compute", float64(4*active*(n-j)), n, func() {
			tau := f.Tau[j]
			if tau == 0 {
				return
			}
			for k := 0; k < n; k++ {
				fwk := tau * w[k]
				for i := lo; i < myRows; i++ {
					g := myOff + i
					if g > j {
						q.Set(i, k, q.At(i, k)-fwk*f.Local.At(i, j))
					} else if g == j {
						q.Set(i, k, q.At(i, k)-fwk)
					}
				}
			}
		})
	}
	return q
}

// Distribute splits a global matrix into the contiguous row block of one
// rank under the given offsets; a convenience for tests and examples
// (each rank clones its block so local factorization never aliases the
// caller's matrix).
func Distribute(global *matrix.Dense, offsets []int, rank int) *matrix.Dense {
	rows := offsets[rank+1] - offsets[rank]
	return global.View(offsets[rank], 0, rows, global.Cols).Clone()
}

// Collect reassembles a row-distributed matrix on comm rank 0 from every
// rank's local block (nil on other ranks). Used by tests and examples to
// verify distributed results against sequential ones.
func Collect(comm *mpi.Comm, local *matrix.Dense, offsets []int, cols int) *matrix.Dense {
	const tagCollect = 1<<20 + 1
	if comm.Rank() != 0 {
		buf := make([]float64, 0, local.Rows*cols)
		for j := 0; j < cols; j++ {
			buf = append(buf, local.Col(j)...)
		}
		comm.Send(0, buf, tagCollect)
		return nil
	}
	m := offsets[comm.Size()]
	out := matrix.New(m, cols)
	matrix.Copy(out.View(0, 0, local.Rows, cols), local)
	for src := 1; src < comm.Size(); src++ {
		rows := offsets[src+1] - offsets[src]
		buf := comm.Recv(src, tagCollect)
		for j := 0; j < cols; j++ {
			copy(out.View(offsets[src], j, rows, 1).Col(0), buf[j*rows:(j+1)*rows])
		}
	}
	return out
}

package core

import (
	"gridqr/internal/flops"
	"gridqr/internal/lapack"
	"gridqr/internal/matrix"
	"gridqr/internal/mpi"
)

// caluTournament selects the jb pivot rows for panel [j, j+jb) with a
// TSLU tournament over the active ranks (grid-tuned tree) and broadcasts
// the winning global row positions to every rank, so all ranks can drive
// the subsequent swaps identically.
func caluTournament(comm *mpi.Comm,
	in Input, active []int, j, jb, lo int) []int {
	ctx := comm.Ctx()
	me := comm.Rank()
	myOff, myEnd := in.Offsets[me], in.Offsets[me+1]
	root := active[0]

	var cand *matrix.Dense
	var candIdx []int
	if myEnd > j {
		// Leaf: partial pivoting over my active panel rows.
		rows := (myEnd - myOff) - lo
		f := in.Local.View(lo, j, rows, jb).Clone()
		ipiv := make([]int, jb)
		lapack.Dgetf2(f, ipiv)
		perm := lapack.PivToPerm(ipiv, rows)
		cand = matrix.New(jb, jb)
		candIdx = make([]int, jb)
		for k := 0; k < jb; k++ {
			candIdx[k] = myOff + lo + perm[k]
			for c := 0; c < jb; c++ {
				cand.Set(k, c, in.Local.At(lo+perm[k], j+c))
			}
		}
		ctx.Charge(flops.GETF2(rows, jb), jb)

		// Tournament up the tree over active ranks.
		sched := clusterBinomial(active, comm.ClusterOf)
		tagBase := caluTagBase + (j/max(jb, 1))*caqrTagStride
		for tag, m := range sched {
			done := false
			switch me {
			case m.dst:
				other, otherIdx := unpackCandidates(comm.Recv(m.src, tagBase+tag), jb)
				cand, candIdx = tournamentRound(cand, candIdx, other, otherIdx)
				ctx.Charge(flops.GETF2(2*jb, jb), jb)
			case m.src:
				comm.Send(m.dst, packCandidates(cand, candIdx), tagBase+tag)
				done = true
			}
			if done {
				break
			}
		}
	}
	// Root orders the winners by a final pivoted factorization and
	// broadcasts the list to the whole world.
	buf := make([]float64, jb)
	if me == root {
		f := cand.Clone()
		ipiv := make([]int, jb)
		lapack.Dgetf2(f, ipiv)
		perm := lapack.PivToPerm(ipiv, jb)
		for k := 0; k < jb; k++ {
			buf[k] = float64(candIdx[perm[k]])
		}
		ctx.Charge(flops.GETF2(jb, jb), jb)
	}
	buf = comm.Bcast(root, buf)
	pivots := make([]int, jb)
	for k := range pivots {
		pivots[k] = int(buf[k])
	}
	return pivots
}

// caluSwapRows exchanges global rows a and b across the full matrix
// width, updating the permutation record on every rank. Only the owning
// ranks move data; everyone performs identical bookkeeping.
func caluSwapRows(comm *mpi.Comm, in Input, perm []int, a, b int) {
	if a == b {
		return
	}
	perm[a], perm[b] = perm[b], perm[a]
	me := comm.Rank()
	ownerA := ownerOf(in.Offsets, a)
	ownerB := ownerOf(in.Offsets, b)
	n := in.N
	if ownerA == ownerB {
		if me == ownerA {
			la, lb := a-in.Offsets[me], b-in.Offsets[me]
			for c := 0; c < n; c++ {
				col := in.Local.Col(c)
				col[la], col[lb] = col[lb], col[la]
			}
		}
		return
	}
	if me == ownerA {
		exchangeRow(comm, in, a-in.Offsets[me], ownerB)
	} else if me == ownerB {
		exchangeRow(comm, in, b-in.Offsets[me], ownerA)
	}
}

// exchangeRow swaps my local row with the peer's matching row.
func exchangeRow(comm *mpi.Comm, in Input, localRow, peer int) {
	n := in.N
	mine := make([]float64, n)
	for c := 0; c < n; c++ {
		mine[c] = in.Local.At(localRow, c)
	}
	comm.Send(peer, mine, caluSwapTag)
	theirs := comm.Recv(peer, caluSwapTag)
	for c := 0; c < n; c++ {
		in.Local.Set(localRow, c, theirs[c])
	}
}

func ownerOf(offsets []int, row int) int {
	for r := 0; r+1 < len(offsets); r++ {
		if row < offsets[r+1] {
			return r
		}
	}
	panic("core: row out of range")
}

// bcastAmong broadcasts data from root to the listed ranks (flat fan-out;
// panel groups are small). Ranks outside members return nil immediately.
// All members must pass identically sized buffers.
func bcastAmong(comm *mpi.Comm, members []int, me, root int, data []float64, tag int) []float64 {
	in := false
	for _, m := range members {
		if m == me {
			in = true
			break
		}
	}
	if !in {
		return nil
	}
	if me == root {
		for _, m := range members {
			if m != root {
				comm.Send(m, data, tag)
			}
		}
		return data
	}
	return comm.Recv(root, tag)
}

// unitLowerMax returns the largest multiplier magnitude in a packed L\U
// block (strictly-lower entries).
func unitLowerMax(packed *matrix.Dense) float64 {
	var best float64
	n := packed.Rows
	for j := 0; j < n; j++ {
		col := packed.Col(j)
		for i := j + 1; i < n; i++ {
			v := col[i]
			if v < 0 {
				v = -v
			}
			if v > best {
				best = v
			}
		}
	}
	return best
}

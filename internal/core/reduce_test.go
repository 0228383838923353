package core

import (
	"sort"
	"strings"
	"testing"

	"gridqr/internal/grid"
	"gridqr/internal/matrix"
	"gridqr/internal/mpi"
	"gridqr/internal/scalapack"
)

// tagRange is the tags [lo, hi) one row of reduce.go's tag table can use
// when its bound is met.
type tagRange struct {
	name   string
	lo, hi int
}

// TestTagSpacesDisjoint checks the tag table: within each set of ranges
// that can be in flight on one communicator together, no two overlap at
// the largest sizes their bounds admit.
func TestTagSpacesDisjoint(t *testing.T) {
	one := func(name string, tag int) tagRange { return tagRange{name, tag, tag + 1} }

	// Factorize (staged and resumed alike) with its Q pass, a snapshot on
	// the same communicator, and the first ImplicitQ applies after it. An
	// apply's merges sit above its base, its root hop one below.
	factorize := []tagRange{
		{"R merges", rTagBase, rTagBase + maxTreeMerges},
		{"snapshot merges", snapTagBase, snapTagBase + maxTreeMerges},
		{"Q scatter", qTagBase, qTagBase + maxTreeMerges},
		one("snapshot delivery", snapFinalTag),
		one("R delivery", finalRTag),
	}
	for k := 1; k <= 3; k++ {
		base := applyTagBase + k*applyTagStride
		factorize = append(factorize, tagRange{"apply", base - 1, base + applyTagStride - 1})
	}

	// CAQR: every panel's merges, tops and explicit-Q blocks at the
	// largest P, one merge fewer than ranks.
	var caqr []tagRange
	for i := 0; i < caqrMaxPanels; i++ {
		r, q := rTagBase+i*caqrTagStride, caqrQTagBase+i*caqrTagStride
		caqr = append(caqr,
			tagRange{"panel R", r, r + caqrMaxProcs - 1},
			tagRange{"panel tops", r + caqrTagStride/2, r + caqrTagStride/2 + caqrMaxProcs - 1},
			tagRange{"panel Q", q, q + caqrMaxProcs - 1})
	}

	// FT-TSQR at P = ftMergeSpan: epochs 0..P, fewer than P merges each.
	ft := []tagRange{
		one("leaf copy", ftLeafCopyTag),
		{"control", ftCtrlBase, ftCtrlBase + ftMergeSpan + 1},
		{"tree data", ftDataBase, ftDataBase + (ftMergeSpan+1)*ftMergeSpan},
	}

	for name, set := range map[string][]tagRange{"Factorize": factorize, "CAQR": caqr, "FT-TSQR": ft} {
		sort.Slice(set, func(i, j int) bool { return set[i].lo < set[j].lo })
		for i := 1; i < len(set); i++ {
			if a, b := set[i-1], set[i]; a.hi > b.lo {
				t.Errorf("%s: %s [%d, %d) runs into %s [%d, %d)", name, a.name, a.lo, a.hi, b.name, b.lo, b.hi)
			}
		}
	}
	if last := caqrQTagBase + caqrMaxPanels*caqrTagStride; last > ftLeafCopyTag {
		t.Errorf("CAQR's Q pass ends at %d, past the next base %d", last, ftLeafCopyTag)
	}
}

// TestTagBoundsRefused: the two entry points whose tag stride bounds P
// refuse one rank more, as FactorizeFT always has.
func TestTagBoundsRefused(t *testing.T) {
	for _, tc := range []struct {
		name string
		p    int
		opts []mpi.Option
		run  func(comm *mpi.Comm, in Input)
	}{
		{"CAQR", caqrMaxProcs + 1, []mpi.Option{mpi.CostOnly()}, func(comm *mpi.Comm, in Input) {
			in.Local = nil
			CAQRFactorize(comm, in, CAQRConfig{NB: 1})
		}},
		{"KeepFactors", applyTagStride + 1, nil, func(comm *mpi.Comm, in Input) {
			Factorize(comm, in, Config{KeepFactors: true})
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			offsets := scalapack.BlockOffsets(tc.p, tc.p)
			defer func() {
				if msg, _ := recover().(string); !strings.Contains(msg, "at most") {
					t.Fatalf("P = %d: recovered %q, want a refusal naming the bound", tc.p, msg)
				}
			}()
			mpi.NewWorld(grid.SmallTestGrid(1, tc.p, 1), tc.opts...).Run(func(ctx *mpi.Ctx) {
				tc.run(mpi.WorldComm(ctx), Input{M: tc.p, N: 1, Offsets: offsets, Local: matrix.New(1, 1)})
			})
		})
	}
}

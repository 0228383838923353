package sched

import (
	"fmt"

	"gridqr/internal/grid"
)

// Plan describes how the scheduler space-shares the grid: a set of
// disjoint partitions, each a sorted list of world ranks. Partitions are
// topology-aligned — every partition's ranks are consecutive, so they
// cover whole sites or node-aligned slices of one site, and the TSQR
// layout built inside the partition sees the same site-contiguous
// structure as a dedicated grid would.
type Plan struct {
	// Groups[i] lists the world ranks of partition i, sorted ascending.
	Groups [][]int
}

// PerSite builds one partition per geographical site — the coarsest
// space-sharing, matching the paper's observation that the wide-area
// links dominate: jobs that fit on one site never cross them.
func PerSite(g *grid.Grid) Plan {
	p := Plan{}
	r := 0
	for _, c := range g.Clusters {
		members := rangeInts(r, c.Procs())
		p.Groups = append(p.Groups, members)
		r += c.Procs()
	}
	return p
}

// SiteGroups groups consecutive sites sitesPer at a time into partitions
// (len(Clusters) must divide evenly), for jobs big enough to profit from
// multi-site reduction trees.
func SiteGroups(g *grid.Grid, sitesPer int) Plan {
	if sitesPer < 1 || len(g.Clusters)%sitesPer != 0 {
		panic(fmt.Sprintf("sched: %d sites do not group by %d", len(g.Clusters), sitesPer))
	}
	p := Plan{}
	r := 0
	for s := 0; s < len(g.Clusters); s += sitesPer {
		procs := 0
		for _, c := range g.Clusters[s : s+sitesPer] {
			procs += c.Procs()
		}
		p.Groups = append(p.Groups, rangeInts(r, procs))
		r += procs
	}
	return p
}

func rangeInts(start, n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = start + i
	}
	return out
}

// validate checks the plan against a grid: non-empty groups of in-range
// ranks, each strictly ascending, pairwise disjoint. Groups need not
// cover every rank — uncovered ranks idle — and may keep holes where
// dead ranks were, as Reconfigure's plans re-formed over fault
// survivors do; Start additionally requires consecutive groups.
func (p Plan) validate(g *grid.Grid) error {
	if len(p.Groups) == 0 {
		return fmt.Errorf("sched: plan has no partitions")
	}
	total := g.Procs()
	seen := make([]bool, total)
	for gi, members := range p.Groups {
		if len(members) == 0 {
			return fmt.Errorf("sched: partition %d is empty", gi)
		}
		for i, r := range members {
			if r < 0 || r >= total {
				return fmt.Errorf("sched: partition %d rank %d out of range [0,%d)", gi, r, total)
			}
			if i > 0 && r <= members[i-1] {
				return fmt.Errorf("sched: partition %d ranks not ascending (%d after %d)",
					gi, r, members[i-1])
			}
			if seen[r] {
				return fmt.Errorf("sched: rank %d in two partitions", r)
			}
			seen[r] = true
		}
	}
	return nil
}

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

// SplitSite carves every site into partsPerSite equal consecutive rank
// ranges (each site's processor count must divide evenly) — the finest
// space-sharing, trading per-job parallelism for job throughput.
func SplitSite(g *grid.Grid, partsPerSite int) Plan {
	if partsPerSite < 1 {
		panic("sched: partsPerSite must be >= 1")
	}
	p := Plan{}
	r := 0
	for ci, c := range g.Clusters {
		if c.Procs()%partsPerSite != 0 {
			panic(fmt.Sprintf("sched: cluster %d has %d procs, not divisible into %d partitions",
				ci, c.Procs(), partsPerSite))
		}
		size := c.Procs() / partsPerSite
		for i := 0; i < partsPerSite; i++ {
			p.Groups = append(p.Groups, rangeInts(r, size))
			r += size
		}
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

// subGrid builds the grid a partition effectively runs on: its member
// ranks regrouped into clusters, preserving link parameters and kernel
// rates, so the perfmodel Predictor prices jobs (the dispatch-time
// deadline check) with the partition's real topology. A partial site becomes a cluster with the
// member count as its processor count (node-aligned when the slice
// divides by ProcsPerNode).
func subGrid(g *grid.Grid, members []int) *grid.Grid {
	// Group members by site, preserving order.
	var sites []int  // distinct site indices, in member order
	var counts []int // member count per site
	last := -1
	for _, r := range members {
		c := g.ClusterOf(r)
		if len(sites) == 0 || c != last {
			sites = append(sites, c)
			counts = append(counts, 0)
			last = c
		}
		counts[len(counts)-1]++
	}
	sub := &grid.Grid{
		Clusters:    make([]grid.Cluster, len(sites)),
		Inter:       make([][]grid.Link, len(sites)),
		IntraNode:   g.IntraNode,
		KernelHalfN: g.KernelHalfN,
		KernelEff:   g.KernelEff,
	}
	for i, c := range sites {
		cl := g.Clusters[c]
		n := counts[i]
		if n%cl.ProcsPerNode == 0 {
			cl.Nodes = n / cl.ProcsPerNode
		} else {
			cl.Nodes, cl.ProcsPerNode = n, 1
		}
		sub.Clusters[i] = cl
	}
	for i, ci := range sites {
		sub.Inter[i] = make([]grid.Link, len(sites))
		for j, cj := range sites {
			a, b := ci, cj
			if a > b {
				a, b = b, a
			}
			sub.Inter[i][j] = g.Inter[a][b]
		}
	}
	return sub
}

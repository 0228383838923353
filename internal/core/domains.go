package core

import (
	"fmt"

	"gridqr/internal/mpi"
)

// domain is one TSQR leaf: a consecutive group of comm ranks jointly
// factoring a contiguous block of global rows.
type domain struct {
	id        int   // global domain index
	cluster   int   // geographical site (layout-local index)
	node      int   // grid-global node index of the leader rank
	continent int   // continent of the domain's site
	ranks     []int // comm ranks, leader first
}

func (d domain) leader() int { return d.ranks[0] }

// layout describes the full domain decomposition, identical on every
// rank (derived from the grid placement the middleware exposes).
type layout struct {
	domains    []domain
	perCluster [][]int // cluster -> domain ids, in rank order
	ofRank     []int   // comm rank -> domain id
}

// buildLayout splits every cluster's ranks into domainsPerCluster equal
// consecutive groups. It panics when the division is impossible — the
// meta-scheduler's equal-power constraint guarantees it in practice.
// Topology is queried through the communicator, so the layout is correct
// on the world comm and on any site-aligned partition of it (consecutive
// comm ranks on the same site form one "cluster" of the layout even when
// the partition's sites are not the grid's first sites).
func buildLayout(comm *mpi.Comm, domainsPerCluster int) *layout {
	p := comm.Size()
	// Cluster rank ranges are contiguous by grid placement; group
	// consecutive runs of comm ranks sharing a site.
	var clusterRanks [][]int
	last := -1
	for r := 0; r < p; r++ {
		c := comm.ClusterOf(r)
		if len(clusterRanks) == 0 || c != last {
			clusterRanks = append(clusterRanks, nil)
			last = c
		}
		clusterRanks[len(clusterRanks)-1] = append(clusterRanks[len(clusterRanks)-1], r)
	}
	l := &layout{perCluster: make([][]int, len(clusterRanks)), ofRank: make([]int, p)}
	for c, ranks := range clusterRanks {
		d := domainsPerCluster
		if d == 0 {
			d = len(ranks) // one domain per process
		}
		if d < 1 || len(ranks)%d != 0 {
			panic(fmt.Sprintf("core: cluster %d has %d ranks, not divisible into %d domains",
				c, len(ranks), d))
		}
		size := len(ranks) / d
		for i := 0; i < d; i++ {
			dom := domain{
				id: len(l.domains), cluster: c,
				ranks:     ranks[i*size : (i+1)*size],
				node:      comm.NodeOf(ranks[i*size]),
				continent: comm.ContinentOf(ranks[i*size]),
			}
			l.perCluster[c] = append(l.perCluster[c], dom.id)
			for _, r := range dom.ranks {
				l.ofRank[r] = dom.id
			}
			l.domains = append(l.domains, dom)
		}
	}
	return l
}

// mine returns the caller's domain.
func (l *layout) mine(rank int) domain { return l.domains[l.ofRank[rank]] }

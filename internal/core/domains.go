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

// DomainSplit fails unless every cluster's rank count (in cluster order)
// splits into domainsPerCluster equal domains, 0 meaning one per process.
// buildLayout panics on its error; callers with outside input check first.
func DomainSplit(clusterRanks []int, domainsPerCluster int) error {
	for c, n := range clusterRanks {
		if d := domainsPerCluster; d < 0 || d > 0 && n%d != 0 {
			return fmt.Errorf("core: cluster %d has %d ranks, not divisible into %d domains", c, n, d)
		}
	}
	return nil
}

// buildLayout splits every cluster's ranks into domainsPerCluster equal
// consecutive groups (see DomainSplit) — the meta-scheduler's equal-power
// constraint guarantees the division in practice. Topology is queried
// through the communicator, so the layout is correct on the world comm
// and on any site-aligned partition of it (consecutive comm ranks on the
// same site form one "cluster" of the layout even when the partition's
// sites are not the grid's first sites).
func buildLayout(comm *mpi.Comm, domainsPerCluster int) *layout {
	p := comm.Size()
	// Cluster rank ranges are contiguous by grid placement: count the
	// consecutive runs of comm ranks sharing a site. ranks is the
	// identity over comm ranks; every domain is a window of it.
	var sizes []int
	last := -1
	ranks := make([]int, p)
	for r := range ranks {
		if c := comm.ClusterOf(r); c != last {
			sizes, last = append(sizes, 0), c
		}
		sizes[len(sizes)-1]++
		ranks[r] = r
	}
	if err := DomainSplit(sizes, domainsPerCluster); err != nil {
		panic(err)
	}
	l := &layout{perCluster: make([][]int, len(sizes)), ofRank: make([]int, p)}
	lead := 0 // first rank of the next domain
	for c, n := range sizes {
		size := 1 // one domain per process
		if domainsPerCluster > 0 {
			size = n / domainsPerCluster
		}
		for end := lead + n; lead < end; lead += size {
			dom := domain{
				id: len(l.domains), cluster: c, ranks: ranks[lead : lead+size : lead+size],
				node: comm.NodeOf(lead), continent: comm.ContinentOf(lead),
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

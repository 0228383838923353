// Package grid describes the hardware platform the distributed algorithms
// run on: geographical sites (clusters) of multi-processor nodes joined by
// a non-uniform network. The Grid5000 preset reproduces the platform of
// the paper's experimental study (Section V-A and Fig. 3).
package grid

import "fmt"

// Link holds the performance parameters of one network class, the α/β of
// the paper's Equation 1 written as latency and bandwidth.
type Link struct {
	Latency   float64 // seconds per message
	Bandwidth float64 // bytes per second
}

// TransferTime returns the time for one message of the given size.
func (l Link) TransferTime(bytes float64) float64 {
	return l.Latency + bytes/l.Bandwidth
}

// Cluster is one geographical site: homogeneous nodes with a number of
// processors each and a per-processor practical peak (DGEMM rate, the
// paper's ~3.67 Gflop/s on Grid'5000).
type Cluster struct {
	Name         string
	Nodes        int
	ProcsPerNode int
	Gflops       float64 // per-processor practical peak, in Gflop/s
	// FailureRate is the per-processor failure rate in failures per
	// second (0 = never fails). Production clusters report node MTBFs on
	// the order of months, i.e. rates around 1e-7–1e-6 /s; the fault
	// simulator (mpi.PlanFromFailureRates) converts this into per-run
	// death probabilities over a time horizon.
	FailureRate float64
	// Continent groups sites into a coarser geographical level for
	// multi-level reduction trees (node → cluster → continent). Zero for
	// every cluster — the single-continent platforms of the paper —
	// leaves the two-level structure unchanged.
	Continent int
}

// Procs returns the number of processors (MPI processes — the paper runs
// one process per processor) in the cluster.
func (c Cluster) Procs() int { return c.Nodes * c.ProcsPerNode }

// Grid is a federation of clusters with a full inter-site link matrix.
type Grid struct {
	Clusters []Cluster
	// Inter[i][j] is the link between clusters i and j; the diagonal
	// entry Inter[i][i] is the intra-cluster (switch) link.
	Inter [][]Link
	// IntraNode is the shared-memory link between two processors of the
	// same node.
	IntraNode Link
	// KernelHalfN and KernelEff tune the efficiency of the domanial QR
	// kernel: a processor factoring an M×N TS matrix sustains
	// Gflops·KernelEff·N/(N+KernelHalfN), capturing the paper's
	// Property 2 (the TS QR kernel runs at a small fraction of DGEMM
	// peak) and Property 4 (the fraction improves with N). The
	// Grid5000 preset fits the curve through the paper's measured
	// single-site points. KernelEff of 0 means 1 (no cap).
	KernelHalfN float64
	KernelEff   float64
}

// Procs returns the total processor count of the grid.
func (g *Grid) Procs() int {
	total := 0
	for _, c := range g.Clusters {
		total += c.Procs()
	}
	return total
}

// Place maps a process rank to its (cluster, node, slot) coordinates.
// Ranks are laid out cluster-major, then node-major: consecutive ranks
// share nodes, consecutive nodes share clusters — the topology-aware
// allocation QCG-OMPI provides in the paper.
func (g *Grid) Place(rank int) (cluster, node, slot int) {
	if rank < 0 {
		panic(fmt.Sprintf("grid: negative rank %d", rank))
	}
	r := rank
	for ci, c := range g.Clusters {
		if r < c.Procs() {
			return ci, r / c.ProcsPerNode, r % c.ProcsPerNode
		}
		r -= c.Procs()
	}
	panic(fmt.Sprintf("grid: rank %d out of range %d", rank, g.Procs()))
}

// ClusterOf returns the cluster index of a rank.
func (g *Grid) ClusterOf(rank int) int {
	c, _, _ := g.Place(rank)
	return c
}

// ContinentOf returns the continent of a cluster (0 unless the platform
// sets Cluster.Continent).
func (g *Grid) ContinentOf(cluster int) int { return g.Clusters[cluster].Continent }

// Continents returns the number of distinct continents on the grid.
func (g *Grid) Continents() int {
	seen := map[int]bool{}
	for _, c := range g.Clusters {
		seen[c.Continent] = true
	}
	return len(seen)
}

// LinkClass identifies which network a message traverses; the simulator
// keeps separate counters per class because the paper's whole argument is
// about the inter-cluster class.
type LinkClass int

const (
	IntraNode LinkClass = iota
	IntraCluster
	InterCluster
)

func (lc LinkClass) String() string {
	switch lc {
	case IntraNode:
		return "intra-node"
	case IntraCluster:
		return "intra-cluster"
	default:
		return "inter-cluster"
	}
}

// LinkBetween returns the link parameters and class for a message from
// rank a to rank b.
func (g *Grid) LinkBetween(a, b int) (Link, LinkClass) {
	ca, na, _ := g.Place(a)
	cb, nb, _ := g.Place(b)
	return g.Link(ca, na, cb, nb)
}

// Link classifies a message between two placed processors, each given as
// (cluster, node): the same node is the shared-memory link, the same
// cluster its switch, anything else the inter-site link of the pair.
// Node indices need only agree within a cluster, so per-cluster and
// grid-global numbering classify alike.
func (g *Grid) Link(ca, na, cb, nb int) (Link, LinkClass) {
	if ca == cb {
		if na == nb {
			return g.IntraNode, IntraNode
		}
		return g.Inter[ca][ca], IntraCluster
	}
	i, j := ca, cb
	if i > j {
		i, j = j, i
	}
	return g.Inter[i][j], InterCluster
}

// KernelGflops returns the per-processor rate (in Gflop/s) of the domanial
// QR kernel on cluster c for panel width n, per the saturating efficiency
// model described at KernelHalfN.
func (g *Grid) KernelGflops(c int, n int) float64 {
	peak := g.Clusters[c].Gflops
	if eff := g.KernelEff; eff > 0 {
		peak *= eff
	}
	if g.KernelHalfN <= 0 {
		return peak
	}
	return peak * float64(n) / (float64(n) + g.KernelHalfN)
}

// Sites returns a copy of g restricted to its first k clusters, used by
// the 1-site / 2-site / 4-site experiment configurations.
func (g *Grid) Sites(k int) *Grid {
	if k < 1 || k > len(g.Clusters) {
		panic(fmt.Sprintf("grid: cannot take %d sites of %d", k, len(g.Clusters)))
	}
	sub := &Grid{
		Clusters:    append([]Cluster(nil), g.Clusters[:k]...),
		Inter:       make([][]Link, k),
		IntraNode:   g.IntraNode,
		KernelHalfN: g.KernelHalfN,
		KernelEff:   g.KernelEff,
	}
	for i := 0; i < k; i++ {
		sub.Inter[i] = append([]Link(nil), g.Inter[i][:k]...)
	}
	return sub
}

// Validate checks structural invariants: square symmetric-enough link
// matrix and positive parameters everywhere.
func (g *Grid) Validate() error {
	n := len(g.Clusters)
	if n == 0 {
		return fmt.Errorf("grid: no clusters")
	}
	if len(g.Inter) != n {
		return fmt.Errorf("grid: link matrix has %d rows for %d clusters", len(g.Inter), n)
	}
	for i, row := range g.Inter {
		if len(row) != n {
			return fmt.Errorf("grid: link row %d has %d entries", i, len(row))
		}
		for j, l := range row {
			if j < i {
				continue // lower triangle mirrors upper
			}
			if l.Latency <= 0 || l.Bandwidth <= 0 {
				return fmt.Errorf("grid: non-positive link %d-%d", i, j)
			}
		}
	}
	for _, c := range g.Clusters {
		if c.Nodes <= 0 || c.ProcsPerNode <= 0 || c.Gflops <= 0 {
			return fmt.Errorf("grid: invalid cluster %q", c.Name)
		}
		if c.FailureRate < 0 {
			return fmt.Errorf("grid: negative failure rate on cluster %q", c.Name)
		}
	}
	if g.IntraNode.Latency <= 0 || g.IntraNode.Bandwidth <= 0 {
		return fmt.Errorf("grid: invalid intra-node link")
	}
	return nil
}

package grid

import (
	"math"
	"testing"
)

func TestGrid5000Shape(t *testing.T) {
	g := Grid5000()
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if got := g.Procs(); got != 256 {
		t.Fatalf("Procs = %d want 256", got)
	}
	if len(g.Clusters) != 4 {
		t.Fatalf("clusters = %d", len(g.Clusters))
	}
	for _, c := range g.Clusters {
		if c.Procs() != 64 {
			t.Fatalf("cluster %s has %d procs want 64", c.Name, c.Procs())
		}
	}
}

func TestGrid5000Fig3aValues(t *testing.T) {
	g := Grid5000()
	// Orsay-Toulouse latency 7.97 ms, throughput 78 Mb/s (Fig. 3a).
	l := g.Inter[Orsay][Toulouse]
	if math.Abs(l.Latency-7.97e-3) > 1e-12 {
		t.Fatalf("Orsay-Toulouse latency %g", l.Latency)
	}
	if math.Abs(l.Bandwidth-78e6/8) > 1e-6 {
		t.Fatalf("Orsay-Toulouse bandwidth %g", l.Bandwidth)
	}
	// Link matrix must be symmetric.
	for i := 0; i < 4; i++ {
		for j := 0; j < 4; j++ {
			if g.Inter[i][j] != g.Inter[j][i] {
				t.Fatalf("asymmetric link %d-%d", i, j)
			}
		}
	}
	// Intra-cluster throughput consistently 890 Mb/s.
	for i := 0; i < 4; i++ {
		if g.Inter[i][i].Bandwidth != 890e6/8 {
			t.Fatalf("intra bandwidth cluster %d", i)
		}
	}
}

func TestLatencyHierarchy(t *testing.T) {
	// Paper: inter-cluster latency is roughly two orders of magnitude
	// above intra-cluster; intra-node is lowest.
	g := Grid5000()
	intraNode := g.IntraNode.Latency
	intraCluster := g.Inter[Orsay][Orsay].Latency
	interCluster := g.Inter[Orsay][Sophia].Latency
	if !(intraNode < intraCluster && intraCluster < interCluster) {
		t.Fatalf("latency hierarchy violated: %g %g %g", intraNode, intraCluster, interCluster)
	}
	if interCluster/intraCluster < 50 {
		t.Fatalf("inter/intra latency ratio only %g", interCluster/intraCluster)
	}
}

func TestPlace(t *testing.T) {
	g := Grid5000()
	c, n, s := g.Place(0)
	if c != 0 || n != 0 || s != 0 {
		t.Fatalf("Place(0) = %d,%d,%d", c, n, s)
	}
	c, n, s = g.Place(1)
	if c != 0 || n != 0 || s != 1 {
		t.Fatalf("Place(1) = %d,%d,%d (two procs per node)", c, n, s)
	}
	c, n, _ = g.Place(2)
	if c != 0 || n != 1 {
		t.Fatalf("Place(2) = cluster %d node %d", c, n)
	}
	c, _, _ = g.Place(64)
	if c != 1 {
		t.Fatalf("Place(64) = cluster %d want 1", c)
	}
	c, _, _ = g.Place(255)
	if c != 3 {
		t.Fatalf("Place(255) = cluster %d want 3", c)
	}
}

func TestPlaceOutOfRangePanics(t *testing.T) {
	g := Grid5000()
	for _, r := range []int{-1, 256} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("Place(%d) must panic", r)
				}
			}()
			g.Place(r)
		}()
	}
}

// linkOf classifies the link between ranks a and b through Place.
func linkOf(g *Grid, a, b int) (Link, LinkClass) {
	ca, na, _ := g.Place(a)
	cb, nb, _ := g.Place(b)
	return g.Link(ca, na, cb, nb)
}

func TestLinkBetween(t *testing.T) {
	g := Grid5000()
	_, class := linkOf(g, 0, 1)
	if class != IntraNode {
		t.Fatalf("ranks 0,1 share a node: got %v", class)
	}
	_, class = linkOf(g, 0, 2)
	if class != IntraCluster {
		t.Fatalf("ranks 0,2 share a cluster: got %v", class)
	}
	l, class := linkOf(g, 0, 64)
	if class != InterCluster {
		t.Fatalf("ranks 0,64 on different clusters: got %v", class)
	}
	if l != g.Inter[Orsay][Toulouse] {
		t.Fatal("wrong inter-cluster link")
	}
	// Symmetric in arguments.
	l2, _ := linkOf(g, 64, 0)
	if l != l2 {
		t.Fatal("Link not symmetric")
	}
}

func TestTransferTime(t *testing.T) {
	l := Link{Latency: 1e-3, Bandwidth: 1e6}
	if got := l.TransferTime(1e6); math.Abs(got-1.001) > 1e-12 {
		t.Fatalf("TransferTime = %g want 1.001", got)
	}
	if got := l.TransferTime(0); got != 1e-3 {
		t.Fatalf("zero-byte message costs %g want latency only", got)
	}
}

func TestKernelGflops(t *testing.T) {
	g := Grid5000()
	// Rate must increase with N (Property 4) and stay below peak.
	r64 := g.KernelGflops(0, 64)
	r512 := g.KernelGflops(0, 512)
	if !(r64 < r512 && r512 < g.Clusters[0].Gflops) {
		t.Fatalf("kernel model not monotone: %g %g", r64, r512)
	}
	// Calibration: 64 processes at N=64 should land near the paper's
	// ~33 Gflop/s single-site ceiling (Fig. 4a / 7a), and N=512 near
	// the ~95 Gflop/s of Fig. 7b.
	site := 64 * r64
	if site < 25 || site > 45 {
		t.Fatalf("single-site N=64 practical rate %g Gflop/s out of paper's range", site)
	}
	site512 := 64 * r512
	if site512 < 75 || site512 > 115 {
		t.Fatalf("single-site N=512 practical rate %g Gflop/s out of paper's range", site512)
	}
}

func TestKernelGflopsNoModel(t *testing.T) {
	g := Grid5000()
	g.KernelHalfN = 0
	g.KernelEff = 0
	if g.KernelGflops(0, 64) != g.Clusters[0].Gflops {
		t.Fatal("HalfN=0, Eff=0 must disable the efficiency model")
	}
}

func TestSites(t *testing.T) {
	g := Grid5000()
	for k := 1; k <= 4; k++ {
		sub := g.Sites(k)
		if err := sub.Validate(); err != nil {
			t.Fatalf("Sites(%d): %v", k, err)
		}
		if sub.Procs() != 64*k {
			t.Fatalf("Sites(%d).Procs = %d", k, sub.Procs())
		}
	}
	// Mutating the subgrid must not affect the parent.
	sub := g.Sites(2)
	sub.Clusters[0].Nodes = 1
	if g.Clusters[0].Nodes != 32 {
		t.Fatal("Sites aliases parent clusters")
	}
}

func TestSitesPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Grid5000().Sites(5)
}

func TestSmallTestGrid(t *testing.T) {
	g := SmallTestGrid(3, 2, 2)
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if g.Procs() != 12 {
		t.Fatalf("Procs = %d want 12", g.Procs())
	}
	_, class := linkOf(g, 0, 4)
	if class != InterCluster {
		t.Fatalf("ranks 0,4 should be inter-cluster, got %v", class)
	}
}

func TestValidateCatchesBadGrid(t *testing.T) {
	g := SmallTestGrid(2, 1, 1)
	g.Inter[0][1].Bandwidth = 0
	if g.Validate() == nil {
		t.Fatal("Validate missed zero bandwidth")
	}
	g = SmallTestGrid(2, 1, 1)
	g.Clusters[0].Nodes = 0
	if g.Validate() == nil {
		t.Fatal("Validate missed zero nodes")
	}
	g = &Grid{}
	if g.Validate() == nil {
		t.Fatal("Validate missed empty grid")
	}
}

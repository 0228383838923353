package grid

import (
	"encoding/json"
	"fmt"
	"io"
)

// The JSON platform description lets users run the tools and the
// simulator on their own grid topologies, playing the role of the
// QosCosGrid resource description files. Latencies are given in
// milliseconds and bandwidths in Mb/s, matching how the paper's Fig. 3(a)
// reports them.

type jsonGrid struct {
	Clusters []jsonCluster `json:"clusters"`
	// Links lists inter-cluster links by cluster name; missing pairs
	// default to the worst listed link.
	Links     []jsonLink `json:"links"`
	IntraNode *jsonLink  `json:"intraNode,omitempty"`
	// Kernel model parameters (optional; defaults match Grid5000()).
	KernelHalfN float64 `json:"kernelHalfN,omitempty"`
	KernelEff   float64 `json:"kernelEff,omitempty"`
}

type jsonCluster struct {
	Name         string  `json:"name"`
	Nodes        int     `json:"nodes"`
	ProcsPerNode int     `json:"procsPerNode"`
	Gflops       float64 `json:"gflops"`
	// Intra-cluster switch parameters.
	LatencyMs float64 `json:"latencyMs"`
	Mbps      float64 `json:"mbps"`
	// Per-processor failure rate in failures per second (optional).
	FailureRate float64 `json:"failureRate,omitempty"`
}

type jsonLink struct {
	From      string  `json:"from,omitempty"`
	To        string  `json:"to,omitempty"`
	LatencyMs float64 `json:"latencyMs"`
	Mbps      float64 `json:"mbps"`
}

// FromJSON parses a platform description. See testdata in grid_test for
// the schema by example.
func FromJSON(r io.Reader) (*Grid, error) {
	var jg jsonGrid
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&jg); err != nil {
		return nil, fmt.Errorf("grid: %w", err)
	}
	n := len(jg.Clusters)
	if n == 0 {
		return nil, fmt.Errorf("grid: no clusters in platform file")
	}
	g := &Grid{
		Clusters:    make([]Cluster, n),
		Inter:       make([][]Link, n),
		IntraNode:   Link{Latency: 17e-6, Bandwidth: 5 * gbps},
		KernelHalfN: 184,
		KernelEff:   0.55,
	}
	if jg.KernelHalfN != 0 {
		g.KernelHalfN = jg.KernelHalfN
	}
	if jg.KernelEff != 0 {
		g.KernelEff = jg.KernelEff
	}
	if jg.IntraNode != nil {
		g.IntraNode = Link{Latency: jg.IntraNode.LatencyMs * ms, Bandwidth: jg.IntraNode.Mbps * mbps}
	}
	index := map[string]int{}
	for i, c := range jg.Clusters {
		if c.Name == "" {
			return nil, fmt.Errorf("grid: cluster %d has no name", i)
		}
		if _, dup := index[c.Name]; dup {
			return nil, fmt.Errorf("grid: duplicate cluster %q", c.Name)
		}
		index[c.Name] = i
		g.Clusters[i] = Cluster{Name: c.Name, Nodes: c.Nodes, ProcsPerNode: c.ProcsPerNode,
			Gflops: c.Gflops, FailureRate: c.FailureRate}
		g.Inter[i] = make([]Link, n)
		g.Inter[i][i] = Link{Latency: c.LatencyMs * ms, Bandwidth: c.Mbps * mbps}
	}
	// Fill inter-cluster links; track the worst seen for defaults.
	worst := Link{}
	seen := make([][]bool, n)
	for i := range seen {
		seen[i] = make([]bool, n)
	}
	for _, l := range jg.Links {
		i, ok1 := index[l.From]
		j, ok2 := index[l.To]
		if !ok1 || !ok2 {
			return nil, fmt.Errorf("grid: link references unknown cluster %q-%q", l.From, l.To)
		}
		if i == j {
			return nil, fmt.Errorf("grid: self-link on %q (set latencyMs/mbps on the cluster instead)", l.From)
		}
		link := Link{Latency: l.LatencyMs * ms, Bandwidth: l.Mbps * mbps}
		g.Inter[i][j], g.Inter[j][i] = link, link
		seen[i][j], seen[j][i] = true, true
		if link.Latency > worst.Latency {
			worst.Latency = link.Latency
		}
		if worst.Bandwidth == 0 || link.Bandwidth < worst.Bandwidth {
			worst.Bandwidth = link.Bandwidth
		}
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if !seen[i][j] {
				if worst.Latency == 0 {
					return nil, fmt.Errorf("grid: no link between %q and %q and no default available",
						g.Clusters[i].Name, g.Clusters[j].Name)
				}
				g.Inter[i][j], g.Inter[j][i] = worst, worst
			}
		}
	}
	if err := g.Validate(); err != nil {
		return nil, err
	}
	return g, nil
}

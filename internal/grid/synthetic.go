package grid

import "fmt"

// SyntheticHier builds a hierarchical platform for the 1k–32k-rank scale
// studies: sitesPerContinent[k] sites on continent k, each site `nodes`
// nodes of `procsPerNode` processors. Link parameters extrapolate the
// Grid'5000 measurements one level up:
//
//   - intra-node: the paper's 17 µs / 5 Gb/s shared-memory figures;
//   - intra-site switch: 0.05 ms / 890 Mb/s (the Grid'5000 diagonal);
//   - inter-site, same continent: 7 ms / 85 Mb/s (the Grid'5000
//     wide-area figures — Orsay↔Sophia-class paths);
//   - inter-continent: 80 ms / 40 Mb/s (transatlantic-class latency
//     with correspondingly thinner shared bandwidth).
//
// Kernel parameters match the Grid5000 preset so per-rank compute rates
// are comparable across the paper-scale and synthetic-scale runs. The
// asymmetry matters: on a fully uniform power-of-two platform with
// rank-major placement, a plain binomial tree happens to align with every
// hierarchy level (partners at small strides share a node, at large
// strides a continent), so topology-aware trees only pull ahead when the
// hierarchy is uneven.
func SyntheticHier(sitesPerContinent []int, nodes, procsPerNode int) *Grid {
	if nodes < 1 || procsPerNode < 1 {
		panic(fmt.Sprintf("grid: invalid synthetic node shape %d/%d", nodes, procsPerNode))
	}
	var (
		switchLink     = Link{Latency: 0.05 * ms, Bandwidth: 890 * mbps}
		interSite      = Link{Latency: 7 * ms, Bandwidth: 85 * mbps}
		interContinent = Link{Latency: 80 * ms, Bandwidth: 40 * mbps}
	)
	n := 0
	for k, s := range sitesPerContinent {
		if s < 1 {
			panic(fmt.Sprintf("grid: continent %d has %d sites", k, s))
		}
		n += s
	}
	g := &Grid{
		Clusters:    make([]Cluster, 0, n),
		Inter:       make([][]Link, n),
		IntraNode:   Link{Latency: 17e-6, Bandwidth: 5 * gbps},
		KernelHalfN: 184,
		KernelEff:   0.55,
	}
	for k, s := range sitesPerContinent {
		for j := 0; j < s; j++ {
			g.Clusters = append(g.Clusters, Cluster{
				Name:         fmt.Sprintf("c%ds%d", k, j),
				Nodes:        nodes,
				ProcsPerNode: procsPerNode,
				Gflops:       3.67,
				Continent:    k,
			})
		}
	}
	for i := 0; i < n; i++ {
		g.Inter[i] = make([]Link, n)
		for j := 0; j < n; j++ {
			switch {
			case i == j:
				g.Inter[i][j] = switchLink
			case g.Clusters[i].Continent == g.Clusters[j].Continent:
				g.Inter[i][j] = interSite
			default:
				g.Inter[i][j] = interContinent
			}
		}
	}
	return g
}

// Package perfmodel implements the analytic performance model of the
// paper's Section IV: the communication/computation breakdowns of
// Tables I and II, and grid-aware predictors that compose Equation 1's
// time formula and capture Properties 1–5. The experiment harness prints
// model predictions next to simulator measurements.
package perfmodel

import (
	"gridqr/internal/flops"
	"gridqr/internal/grid"
)

// Breakdown is one row of Table I/II: message count, exchanged volume
// (bytes) and flop count on the critical path, per domain.
type Breakdown struct {
	Msgs   float64
	Volume float64
	Flops  float64
}

// ScaLAPACKR is Table I's ScaLAPACK QR2 row (R-factor only) for an M×N
// matrix over P domains: 2N·log₂(P) messages, log₂(P)·N²/2 words,
// (2MN² − 2N³/3)/P flops.
func ScaLAPACKR(m, n, p int) Breakdown {
	lg := flops.Log2(p)
	fn := float64(n)
	return Breakdown{
		Msgs:   2 * fn * lg,
		Volume: 8 * lg * fn * fn / 2,
		Flops:  flops.QR2Critical(m, n, p),
	}
}

// TSQRR is Table I's TSQR row (R-factor only): log₂(P) messages, the same
// volume, and the additional 2/3·log₂(P)·N³ flop term that trades
// communication for computation.
func TSQRR(m, n, p int) Breakdown {
	lg := flops.Log2(p)
	fn := float64(n)
	return Breakdown{
		Msgs:   lg,
		Volume: 8 * lg * fn * fn / 2,
		Flops:  flops.TSQRCritical(m, n, p),
	}
}

// ScaLAPACKQR is Table II's ScaLAPACK QR2 row (both Q and R): exactly
// twice the R-only costs.
func ScaLAPACKQR(m, n, p int) Breakdown { return double(ScaLAPACKR(m, n, p)) }

// TSQRQR is Table II's TSQR row (both Q and R): twice the R-only costs.
func TSQRQR(m, n, p int) Breakdown { return double(TSQRR(m, n, p)) }

func double(b Breakdown) Breakdown {
	return Breakdown{Msgs: 2 * b.Msgs, Volume: 2 * b.Volume, Flops: 2 * b.Flops}
}

// ExactCounts is an exact total over all ranks — not the per-domain
// critical-path figures of Table I/II, but the sum the simulator's
// telemetry counters measure, so model and measurement can be compared
// message for message.
type ExactCounts struct {
	Msgs   float64
	Volume float64 // bytes
}

// TSQRExactTotals returns the exact message count and volume of the
// R-only TSQR reduction over `domains` single-process domains with a
// rooted tree (grid, binomial or flat): every merge moves exactly one
// packed upper triangle, and a tree over d domains has d−1 merges.
// CrossSiteMsgs of the grid-tuned tree is sites−1 (the inter-cluster
// stage merges one root per remaining site into site 0).
func TSQRExactTotals(n, domains int) ExactCounts {
	tri := 8 * float64(n) * float64(n+1) / 2
	m := float64(domains - 1)
	return ExactCounts{Msgs: m, Volume: m * tri}
}

// TSQRExactCrossSite returns the exact inter-site message count of the
// grid-tuned tree over `sites` sites: one per site beyond the first.
func TSQRExactCrossSite(sites int) float64 { return float64(sites - 1) }

// PDGEQR2ExactTotals returns the exact message count and volume of the
// R-only PDGEQR2 factorization over p processes (cost-only mode, where
// the final R assembly moves no data): every column performs a
// normalization allreduce of 2 floats, and every column but the last an
// update allreduce of its n−j−1 trailing dot products. Each binomial
// allreduce is a reduce plus a broadcast, p−1 messages each.
func PDGEQR2ExactTotals(n, p int) ExactCounts {
	hops := 2 * float64(p-1) // messages per allreduce: reduce + bcast
	fn := float64(n)
	msgs := (2*fn - 1) * hops
	volume := hops * (16*fn + // n norm allreduces × 2 floats
		4*fn*(fn-1)) // update vectors: 8·Σ_{j<n−1}(n−j−1) = 4n(n−1)
	return ExactCounts{Msgs: msgs, Volume: volume}
}

// StreamSnapshotExact returns the exact traffic of one incremental-TSQR
// snapshot barrier over `domains` streaming ranks: the snapshot walks
// the same rooted reduction tree as a TSQR combine — one packed n×n
// triangle per merge, domains−1 merges — and the folds themselves move
// nothing (each rank folds only rows it owns). The grid-tuned tree
// roots at rank 0, so no final-delivery hop is added; its inter-site
// message count per snapshot is TSQRExactCrossSite(sites).
func StreamSnapshotExact(n, domains int) ExactCounts {
	return TSQRExactTotals(n, domains)
}

// UsefulFlops is the operation count credited to a QR factorization when
// reporting Gflop/s, the paper's 2MN² − 2N³/3 (R only; doubled with Q).
func UsefulFlops(m, n int, wantQ bool) float64 {
	f := flops.GEQRF(m, n)
	if wantQ {
		f *= 2
	}
	return f
}

// Gflops converts a factorization time to the paper's performance metric.
func Gflops(m, n int, wantQ bool, seconds float64) float64 {
	return UsefulFlops(m, n, wantQ) / seconds / 1e9
}

// Predictor evaluates the model on a concrete platform: a grid restricted
// to its first Sites clusters, with DomainsPerCluster TSQR domains per
// site (0 = one per process). It composes Equation 1 hierarchically —
// intra-cluster reduction stages priced with the cluster switch, the
// cross-site stage with the inter-cluster links — which is exactly the
// structure the tuned reduction tree exploits.
type Predictor struct {
	G                 *grid.Grid
	Sites             int
	DomainsPerCluster int
}

func (p Predictor) sites() int {
	if p.Sites <= 0 {
		return len(p.G.Clusters)
	}
	return p.Sites
}

// procs returns the process count over the first Sites clusters.
func (p Predictor) procs() int {
	total := 0
	for _, c := range p.G.Clusters[:p.sites()] {
		total += c.Procs()
	}
	return total
}

// linkAverages returns representative intra-cluster and inter-cluster
// links (the worst across the used sites, matching the paper's
// slowest-component convention).
func (p Predictor) links() (intra, inter grid.Link) {
	s := p.sites()
	intra = p.G.Inter[0][0]
	inter = grid.Link{Latency: 0, Bandwidth: 1e300}
	for i := 0; i < s; i++ {
		if l := p.G.Inter[i][i]; l.Latency > intra.Latency {
			intra = l
		}
		for j := i + 1; j < s; j++ {
			l := p.G.Inter[i][j]
			if l.Latency > inter.Latency {
				inter.Latency = l.Latency
			}
			if l.Bandwidth < inter.Bandwidth {
				inter.Bandwidth = l.Bandwidth
			}
		}
	}
	if s == 1 {
		inter = intra
	}
	return intra, inter
}

// rate returns the modeled per-process kernel rate (flop/s) at panel
// width n, using the slowest site (the paper's efficiency convention).
func (p Predictor) rate(n int) float64 {
	slowest := p.G.KernelGflops(0, n)
	for c := 1; c < p.sites(); c++ {
		if r := p.G.KernelGflops(c, n); r < slowest {
			slowest = r
		}
	}
	return slowest * 1e9
}

// TSQRTime predicts the QCG-TSQR factorization time for an M×N matrix.
func (p Predictor) TSQRTime(m, n int, wantQ bool) float64 {
	sites := p.sites()
	procs := p.procs()
	d := p.DomainsPerCluster
	if d <= 0 {
		d = procs / sites
	}
	domains := d * sites
	intra, inter := p.links()
	triBytes := 8 * float64(n) * float64(n+1) / 2
	// Leaf: each domain factors its m/domains × n block; multi-process
	// domains split the work over their processes but pay the QR2
	// allreduce latency within the cluster.
	group := procs / sites / d
	leaf := flops.GEQRF(m/domains, n) / float64(group) / p.rate(n)
	if group > 1 {
		leaf += 2 * float64(n) * flops.Log2(group) * intra.TransferTime(8*float64(n)/2)
	}
	// Intra-cluster reduction: log₂(d) stages of stacked-triangle QR.
	t := leaf
	t += flops.Log2(d) * (intra.TransferTime(triBytes) + flops.StackQR(n)/p.rate(n))
	// Cross-site reduction: log₂(sites) stages over the wide-area links.
	t += flops.Log2(sites) * (inter.TransferTime(triBytes) + flops.StackQR(n)/p.rate(n))
	if wantQ {
		t *= 2 // Property 1
	}
	return t
}

// TSQRTimeMultiLevel predicts the factorization time under the
// multi-level reduction tree (core.TreeMultiLevel): Equation 1 composed
// over the full platform hierarchy, one binomial stage per level —
// domains within a node on shared memory, node roots within a site on
// the switch, site roots within a continent on the wide-area links, and
// continent roots over the inter-continental links. On single-continent
// grids the last stage vanishes and the prediction reduces to TSQRTime
// with the intra-cluster stage split between shared memory and switch,
// which is the whole advantage of descending one more hierarchy level.
func (p Predictor) TSQRTimeMultiLevel(m, n int, wantQ bool) float64 {
	sites := p.sites()
	procs := p.procs()
	d := p.DomainsPerCluster
	if d <= 0 {
		d = procs / sites
	}
	domains := d * sites
	nodes := p.G.Clusters[0].Nodes
	continents := 1
	seen := map[int]bool{}
	for _, c := range p.G.Clusters[:sites] {
		seen[c.Continent] = true
	}
	if len(seen) > continents {
		continents = len(seen)
	}
	intra, inter := p.links()
	interCont := inter
	if continents > 1 {
		// Split the wide-area class: `inter` becomes the worst
		// same-continent site pair, `interCont` the worst cross-continent
		// pair (links() lumps them together).
		inter = intra
		interCont = intra
		worse := func(dst *grid.Link, l grid.Link) {
			if l.Latency > dst.Latency {
				dst.Latency = l.Latency
			}
			if l.Bandwidth < dst.Bandwidth {
				dst.Bandwidth = l.Bandwidth
			}
		}
		for i := 0; i < sites; i++ {
			for j := i + 1; j < sites; j++ {
				if p.G.Clusters[i].Continent == p.G.Clusters[j].Continent {
					worse(&inter, p.G.Inter[i][j])
				} else {
					worse(&interCont, p.G.Inter[i][j])
				}
			}
		}
	}
	triBytes := 8 * float64(n) * float64(n+1) / 2
	group := procs / sites / d
	t := flops.GEQRF(m/domains, n) / float64(group) / p.rate(n)
	if group > 1 {
		t += 2 * float64(n) * flops.Log2(group) * intra.TransferTime(8*float64(n)/2)
	}
	mergeCost := flops.StackQR(n) / p.rate(n)
	perNode := d / nodes
	if perNode < 1 {
		perNode = 1
	}
	nodeGroups := d
	if nodeGroups > nodes {
		nodeGroups = nodes
	}
	sitesPerCont := (sites + continents - 1) / continents
	t += flops.Log2(perNode) * (p.G.IntraNode.TransferTime(triBytes) + mergeCost)
	t += flops.Log2(nodeGroups) * (intra.TransferTime(triBytes) + mergeCost)
	t += flops.Log2(sitesPerCont) * (inter.TransferTime(triBytes) + mergeCost)
	t += flops.Log2(continents) * (interCont.TransferTime(triBytes) + mergeCost)
	if wantQ {
		t *= 2 // Property 1
	}
	return t
}

// ScaLAPACKTime predicts the ScaLAPACK QR2 factorization time: 2N
// allreduces, each a binomial tree spanning all sites, plus the evenly
// divided factorization flops.
func (p Predictor) ScaLAPACKTime(m, n int, wantQ bool) float64 {
	sites := p.sites()
	procs := p.procs()
	intra, inter := p.links()
	// One allreduce = up+down the binomial tree: log₂(procs/sites)
	// intra-cluster hops and log₂(sites) inter-cluster hops, each way.
	hop := func(bytes float64) float64 {
		return 2 * (flops.Log2(procs/sites)*intra.TransferTime(bytes) +
			flops.Log2(sites)*inter.TransferTime(bytes))
	}
	avgMsg := 8 * float64(n) / 2 // average update-vector length in bytes
	t := 2 * float64(n) * hop(avgMsg)
	t += flops.GEQRF(m, n) / float64(procs) / p.rate(n)
	if wantQ {
		t *= 2
	}
	return t
}

package core

import "math/rand"

// merge is one edge of the reduction tree: domain src's R factor is sent
// to domain dst and folded in there. Merges are listed in a global order
// such that each domain's own merges appear in its correct local order;
// the index of a merge doubles as its message tag.
type merge struct {
	dst, src int // domain ids
}

// buildSchedule lays out the reduction tree over domains and returns the
// domain where the final R factor lands. When that is not domain 0, the
// caller transfers the result to world rank 0 with one extra message.
func buildSchedule(tree Tree, l *layout, seed int64) (ms []merge, root int) {
	ids := make([]int, len(l.domains))
	for i := range ids {
		ids[i] = i
	}
	switch tree {
	case TreeGrid:
		return clusterBinomial(ids, func(id int) int { return l.domains[id].cluster }), 0
	case TreeBinary:
		return binomialSchedule(ids), 0
	case TreeFlat:
		for _, id := range ids[1:] {
			ms = append(ms, merge{dst: 0, src: id})
		}
		return ms, 0
	case TreeBinaryShuffled:
		rng := rand.New(rand.NewSource(seed))
		rng.Shuffle(len(ids), func(i, j int) { ids[i], ids[j] = ids[j], ids[i] })
		return binomialSchedule(ids), ids[0]
	case TreeMultiLevel:
		return multiLevelSchedule(l)
	default:
		panic("core: unknown tree")
	}
}

// binomialSchedule reduces the listed domains onto ids[0] with a binomial
// tree: in round k (mask = 1<<k), the domain at list index i (i divisible
// by 2·mask) absorbs the one at i+mask. Rounds are emitted in order, so
// every participant sees its merges in dependency order.
func binomialSchedule(ids []int) []merge {
	var ms []merge
	n := len(ids)
	for mask := 1; mask < n; mask <<= 1 {
		for i := 0; i+mask < n; i += 2 * mask {
			ms = append(ms, merge{dst: ids[i], src: ids[i+mask]})
		}
	}
	return ms
}

// clusterBinomial is the paper's tuned tree over any ordered id list:
// a binomial reduction within each run of ids sharing a cluster, then a
// binomial reduction among the runs' roots, onto ids[0]. Only the second
// stage crosses clusters: C−1 inter-cluster messages. TreeGrid runs it
// over all domains; CAQR and FT-TSQR over the ranks still active
// or alive.
func clusterBinomial(ids []int, clusterOf func(id int) int) []merge {
	var ms []merge
	var roots []int
	for _, run := range groupBy(ids, clusterOf) {
		ms = append(ms, binomialSchedule(run)...)
		roots = append(roots, run[0])
	}
	return append(ms, binomialSchedule(roots)...)
}

// groupBy splits an ordered id list into consecutive runs with equal key,
// preserving order — the same run-grouping buildLayout applies to ranks.
func groupBy(ids []int, key func(id int) int) [][]int {
	var groups [][]int
	last := 0
	for i, id := range ids {
		if i == 0 || key(id) != last {
			groups = append(groups, nil)
			last = key(id)
		}
		groups[len(groups)-1] = append(groups[len(groups)-1], id)
	}
	return groups
}

// multiLevelSchedule reduces along the full platform hierarchy, one
// binomial stage per level from the bottom up:
//
//	domains sharing a node → node roots within a cluster →
//	cluster roots within a continent → continent roots.
//
// Each stage's merges ride a strictly cheaper network class than the
// next, so the schedule pays exactly sites−continents inter-site and
// continents−1 inter-continental messages. Stages are emitted in order,
// which keeps every domain's incoming merges ahead of its single
// outgoing send (each binomial stage absorbs a domain at most once, and
// an absorbed domain never re-appears upstream).
func multiLevelSchedule(l *layout) (ms []merge, root int) {
	var clusterRoots []int
	for _, ids := range l.perCluster {
		if len(ids) == 0 {
			continue
		}
		// Stage 1: binomial among each node's domains, on shared memory.
		var nodeRoots []int
		for _, nodeIDs := range groupBy(ids, func(id int) int { return l.domains[id].node }) {
			ms = append(ms, binomialSchedule(nodeIDs)...)
			nodeRoots = append(nodeRoots, nodeIDs[0])
		}
		// Stage 2: binomial among the cluster's node roots, on the switch.
		ms = append(ms, binomialSchedule(nodeRoots)...)
		clusterRoots = append(clusterRoots, nodeRoots[0])
	}
	// Stage 3: binomial among cluster roots within each continent.
	var continentRoots []int
	for _, contIDs := range groupBy(clusterRoots, func(id int) int { return l.domains[id].continent }) {
		ms = append(ms, binomialSchedule(contIDs)...)
		continentRoots = append(continentRoots, contIDs[0])
	}
	// Stage 4: binomial among continent roots, over the widest links.
	ms = append(ms, binomialSchedule(continentRoots)...)
	return ms, continentRoots[0]
}

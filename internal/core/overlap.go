package core

// Overlapped TSQR: the same reduction — every domain's R absorbed exactly
// once, C−1 inter-cluster messages for C sites — with the cross-site
// stage of the grid tree gone flat: every cluster root sends its fully
// reduced triangle directly to the global root. A binomial stage would
// also need C−1 inter-site messages but chains them — each round's
// transfer cannot start before the previous round's merge finished on
// some intermediate root. Flat, all C−1 triangles leave as soon as their
// clusters finish, so their (latency-dominated) flights run concurrently
// and the root merges triangle i while i+1, i+2, … are still on the wire.
//
// That schedule is all Config.Overlap selects: a flat cross-site stage on
// TreeGrid, nothing on other trees. The walk is reduction.run either way —
// the transport is eager, so a blocking receive issued after a merge pays
// only the flight time the merge did not already cover, which is exactly
// what posting the receives up front and waiting in order would pay.
//
// Message and flop counts are untouched: any reduction over d domains
// performs exactly d−1 merges of one packed triangle each, so
// perfmodel.TSQRExactTotals and TSQRExactCrossSite hold for the
// overlapped variant bit for bit.

// overlapSchedule is TreeGrid's schedule with a flat cross-site stage:
// binomial reduction among each cluster's domains, then every cluster
// root sends straight to the first cluster's root.
func overlapSchedule(l *layout) (ms []merge, root int) {
	var roots []int
	for _, ids := range l.perCluster {
		if len(ids) == 0 {
			continue
		}
		ms = append(ms, binomialSchedule(ids)...)
		roots = append(roots, ids[0])
	}
	for i := 1; i < len(roots); i++ {
		ms = append(ms, merge{dst: roots[0], src: roots[i]})
	}
	return ms, roots[0]
}

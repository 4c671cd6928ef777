package matching

// assignRows solves the maximum-weight assignment of nr rows to nc
// columns by shortest augmenting paths with potentials (the
// Jonker–Volgenant refinement of the Hungarian method of Kuhn and
// Munkres). Each row additionally owns a zero-weight dummy column, so
// a row may stay unassigned and negative-weight pairings are never
// forced (weights are clamped below at zero, which preserves the
// optimum of the partial-matching problem: a negative edge can always
// be dropped).
//
// The returned slice maps each row to its real column, or −1.
//
// Each of the nr phases initializes slack arrays over nc+nr columns,
// so the cost is Θ(nr·(nc+nr)) at best and O(nr·(nc+nr)²) in the
// worst case. Orientation therefore matters:
//
//   - the paper's method H runs rows = advertisers over the full
//     graph, whose Θ(n·(k+n)) ≥ Θ(n²) floor is exactly the
//     quadratic-in-n behavior that motivates the reduced algorithm;
//   - the reduced solve (method RH) runs rows = slots over the ≤ k²
//     candidates, giving the O(k⁵)-bounded tail of Section III-E.
//
// The solver body lives on Workspace.solveRows (workspace.go), over a
// cost matrix gathered once per solve, so the serving engine can run
// it allocation-free; this wrapper serves the one-shot callers.
func assignRows(nr, nc int, weight func(r, c int) float64) []int {
	return NewWorkspace().assignRows(nr, nc, weight)
}

// solveJV solves the advertiser×slot assignment with rows =
// advertisers (method H's orientation) and returns slot → advertiser.
func solveJV(n, k int, weight func(i, j int) float64) []int {
	slotOf := assignRows(n, k, weight)
	advOf := make([]int, k)
	for j := range advOf {
		advOf[j] = -1
	}
	for i, j := range slotOf {
		if j >= 0 {
			advOf[j] = i
		}
	}
	return advOf
}

// The reduced solve (rows = slots — the right orientation when
// advertisers vastly outnumber slots) runs through
// Workspace.AssignCandidatesInto.

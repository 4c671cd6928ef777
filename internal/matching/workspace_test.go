package matching

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/racetest"
	"repro/internal/topk"
)

// TestWorkspaceMatchesOneShot drives one long-lived Workspace over a
// stream of random instances of varying shape and demands bit-identical
// results to the one-shot MaxWeightReduced (which itself is validated
// against brute force in matching_test.go). Shape changes mid-stream
// exercise the buffer-growth paths.
func TestWorkspaceMatchesOneShot(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	ws := NewWorkspace()
	for trial := 0; trial < 300; trial++ {
		n := 1 + rng.Intn(40)
		k := 1 + rng.Intn(8)
		w := make([][]float64, n)
		for i := range w {
			w[i] = make([]float64, k)
			for j := range w[i] {
				w[i][j] = float64(rng.Intn(20)) - 2 // ties and negatives
			}
		}
		got := ws.MaxWeightReduced(w)
		want := MaxWeightReduced(w)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d (n=%d k=%d): workspace %+v != one-shot %+v", trial, n, k, got, want)
		}
	}
}

// TestWorkspaceAssignCandidatesInto checks the in-place variant against
// AssignCandidates on externally supplied candidate lists, including
// lists that only cover part of the advertiser population.
func TestWorkspaceAssignCandidatesInto(t *testing.T) {
	rng := rand.New(rand.NewSource(78))
	ws := NewWorkspace()
	for trial := 0; trial < 200; trial++ {
		n := 2 + rng.Intn(50)
		k := 1 + rng.Intn(6)
		w := make([][]float64, n)
		for i := range w {
			w[i] = make([]float64, k)
			for j := range w[i] {
				w[i][j] = rng.Float64() * 30
			}
		}
		weight := func(i, j int) float64 { return w[i][j] }
		lists := make([][]topk.Item, k)
		for j := 0; j < k; j++ {
			jj := j
			lists[j] = topk.Select(n, k+1, func(i int) float64 { return w[i][jj] })
		}
		wantAdv, wantVal := AssignCandidates(weight, lists)
		gotAdv := make([]int, k)
		gotVal := ws.AssignCandidatesInto(weight, lists, gotAdv)
		if !reflect.DeepEqual(gotAdv, wantAdv) || gotVal != wantVal {
			t.Fatalf("trial %d: got (%v, %g), want (%v, %g)", trial, gotAdv, gotVal, wantAdv, wantVal)
		}
	}
}

// TestWorkspaceSteadyStateAllocs: after one warmup call, repeated
// solves of same-shaped problems must not allocate, through either
// selection entry point. This is the micro-level guarantee behind the
// engine's allocation-free RH path.
func TestWorkspaceSteadyStateAllocs(t *testing.T) {
	if racetest.Enabled {
		t.Skip("allocation accounting is perturbed under -race")
	}
	const n, k = 500, 15
	cp := make([]float64, k*n) // slot-major
	bid := make([]float64, n)
	for i := range bid {
		bid[i] = float64(i%7 + 1)
		for j := 0; j < k; j++ {
			cp[j*n+i] = float64((i*131+j*37)%997) / 997
		}
	}
	weight := func(i, j int) float64 { return cp[j*n+i] * bid[i] }
	for _, tc := range []struct {
		name    string
		select_ func(ws *Workspace) [][]topk.Item
	}{
		{"closure", func(ws *Workspace) [][]topk.Item { return ws.SelectCandidates(n, k, k+1, weight) }},
		{"dense", func(ws *Workspace) [][]topk.Item { return ws.SelectDense(n, k, k+1, cp, bid) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ws := NewWorkspace()
			advOf := make([]int, k)
			ws.AssignCandidatesInto(weight, tc.select_(ws), advOf)
			allocs := testing.AllocsPerRun(50, func() {
				ws.AssignCandidatesInto(weight, tc.select_(ws), advOf)
			})
			if allocs != 0 {
				t.Fatalf("steady-state reduced solve allocates %.1f objects/op, want 0", allocs)
			}
		})
	}
}

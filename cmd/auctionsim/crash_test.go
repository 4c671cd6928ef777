package main

import (
	"bufio"
	"fmt"
	"math"
	"math/rand"
	"os"
	"os/exec"
	"strings"
	"testing"
	"time"

	"repro/internal/budget"
	"repro/internal/engine"
	"repro/internal/journal"
	"repro/internal/stream"
	"repro/internal/workload"
)

// The crash test re-execs this test binary as a child serving a
// budgeted stream into a journal, SIGKILLs it mid-traffic, and
// recovers. Parent and child share these parameters: the population
// is regenerated deterministically on both sides, exactly as a real
// operator restart regenerates it from the same flags.
const (
	crashChildEnv = "AUCTIONSIM_CRASH_CHILD"
	crashN        = 60
	crashKeywords = 6
	crashRefresh  = 8
)

func crashInstance() *workload.Instance {
	inst := workload.Generate(rand.New(rand.NewSource(501)), crashN, 4, crashKeywords)
	workload.AttachBudgets(rand.New(rand.NewSource(502)), inst, 50)
	return inst
}

func crashBudgetConfig() budget.Config {
	return budget.Config{Policy: budget.PolicyHard, RefreshEvery: crashRefresh}
}

// crashChild runs the victim: a budgeted streaming server journaling
// into the given directory, submitting forever and reporting progress
// on stdout until the parent kills it. Each progress line carries the
// journal's durable total at print time — the writer appends a record
// entirely before Stats can observe it, so with the default
// FsyncNever every reported cent has completed its write(2) into the
// kernel page cache and survives SIGKILL.
func crashChild(dir string) {
	inst := crashInstance()
	w, err := journal.Open(dir, journal.Options{SnapshotEvery: 1 << 16})
	if err != nil {
		fmt.Fprintln(os.Stderr, "child: ", err)
		os.Exit(1)
	}
	s := stream.NewServer(inst, stream.Config{
		Engine: engine.Config{Shards: 3, QueueDepth: 16, Method: engine.MethodRHTALU,
			ClickSeed: 11, Budget: crashBudgetConfig(), Journal: w},
		BudgetFlush: time.Millisecond,
	})
	rng := rand.New(rand.NewSource(503))
	for {
		for _, q := range inst.Queries(rng, 400) {
			s.Submit(q)
		}
		jst := w.Stats()
		sst := s.Stats()
		fmt.Printf("progress spend=%.17g records=%d exhausted=%d snapshots=%d\n",
			jst.TotalSpend, jst.Records, sst.BudgetExhausted, jst.Snapshots)
	}
}

// TestCrashRecoverySIGKILL is the ISSUE's fault-injected restart
// soak: kill a journaling server mid-traffic with no warning, recover,
// and check the durability contract — nothing the journal reported
// durable is lost, per-advertiser overspend stays inside the K·R·P
// staleness bound even across the crash boundary, and a restarted
// engine resumes from the recovered state whose own graceful shutdown
// then recovers bitwise.
func TestCrashRecoverySIGKILL(t *testing.T) {
	if testing.Short() {
		t.Skip("re-execs the test binary and serves real traffic")
	}
	dir := t.TempDir()
	cmd := exec.Command(os.Args[0])
	cmd.Env = append(os.Environ(), crashChildEnv+"="+dir)
	cmd.Stderr = os.Stderr
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}

	// Track the child's progress until budgets bind, then pull the
	// trigger between (or during — that is the point) appends.
	var lastSpend float64
	var lastRecords int64
	sc := bufio.NewScanner(stdout)
	deadline := time.After(30 * time.Second)
	progress := make(chan struct{}, 1)
	scanDone := make(chan struct{})
	go func() {
		defer close(scanDone)
		for sc.Scan() {
			var spend float64
			var records, exhausted, snapshots int64
			if _, err := fmt.Sscanf(sc.Text(), "progress spend=%g records=%d exhausted=%d snapshots=%d",
				&spend, &records, &exhausted, &snapshots); err != nil {
				continue
			}
			lastSpend, lastRecords = spend, records
			if exhausted > 0 && records > 20 {
				select {
				case progress <- struct{}{}:
				default:
				}
			}
		}
	}()
	select {
	case <-progress:
	case <-deadline:
		cmd.Process.Kill()
		cmd.Wait()
		t.Fatal("child never reported exhausted budgets under load")
	}
	if err := cmd.Process.Kill(); err != nil { // SIGKILL: no flush, no goodbye
		t.Fatal(err)
	}
	cmd.Wait()
	<-scanDone // pipe EOF: the scanner's last writes happen-before here

	rec, err := journal.Recover(dir)
	if err != nil {
		t.Fatalf("recover after SIGKILL: %v", err)
	}
	if rec.State == nil {
		t.Fatal("nothing recovered from a journal the child reported writing")
	}
	if rec.CorruptOffset >= 0 {
		// A kill between a frame's header and payload writes legally
		// tears the final record; recovery reports it and keeps the
		// prefix. Anything else would fail the spend floor below.
		t.Logf("torn tail at byte %d (%s) — recovered the prefix", rec.CorruptOffset, rec.CorruptReason)
	}
	inst := crashInstance()
	if int(rec.State.N) != inst.N || int(rec.State.Lanes) != inst.Keywords {
		t.Fatalf("recovered %dx%d, want %dx%d", rec.State.N, rec.State.Lanes, inst.N, inst.Keywords)
	}
	// Durability floor: everything reported appended before the kill
	// is in the recovered state (page cache survives SIGKILL). The
	// tolerance only covers float summation order, not lost records.
	got := rec.State.TotalSpend()
	if got < lastSpend-1e-6*math.Max(1, lastSpend) {
		t.Fatalf("recovered %.3f < last journaled report %.3f (records=%d): durable spend was lost", got, lastSpend, lastRecords)
	}
	// Staleness bound across the crash: a lane can overshoot by at
	// most its unflushed window, RefreshEvery auctions at the maximum
	// per-auction charge, on each of the K lanes.
	slack := float64(inst.Keywords) * crashRefresh * workload.MaxClickValue
	for i := 0; i < inst.N; i++ {
		if b := inst.Budget[i]; b > 0 && rec.State.Spent(i) > b+slack {
			t.Fatalf("advertiser %d recovered spend %.1f exceeds budget %.1f + K·R·P slack %.1f", i, rec.State.Spent(i), b, slack)
		}
	}

	// Restart: resume serving from the recovered state with a fresh
	// journal session, drain gracefully, and re-recover bitwise.
	w2, err := journal.Open(dir, journal.Options{SnapshotEvery: 1 << 16})
	if err != nil {
		t.Fatal(err)
	}
	e2 := engine.New(inst, engine.Config{Shards: 3, Method: engine.MethodRHTALU, ClickSeed: 11,
		Budget: crashBudgetConfig(), Journal: w2, Restore: rec.State})
	e2.Serve(inst.Queries(rand.New(rand.NewSource(504)), 3000))
	final := make([]uint64, inst.N)
	for i := 0; i < inst.N; i++ {
		final[i] = math.Float64bits(e2.Ledger().ExactSpent(i))
		if b := inst.Budget[i]; b > 0 && e2.Ledger().ExactSpent(i) > b+slack {
			t.Fatalf("advertiser %d post-restart spend %.1f breaks the cross-crash bound", i, e2.Ledger().ExactSpent(i))
		}
		if e2.Ledger().ExactSpent(i) < rec.State.Spent(i) {
			t.Fatalf("advertiser %d lost spend across the restart", i)
		}
	}
	e2.Close()
	rec2, err := journal.Recover(dir)
	if err != nil {
		t.Fatal(err)
	}
	if rec2.CorruptOffset >= 0 {
		t.Fatalf("graceful shutdown left a corrupt journal at %d (%s)", rec2.CorruptOffset, rec2.CorruptReason)
	}
	for i := 0; i < inst.N; i++ {
		if math.Float64bits(rec2.State.Spent(i)) != final[i] {
			t.Fatalf("advertiser %d: post-restart recovery not bitwise (%#x != %#x)",
				i, math.Float64bits(rec2.State.Spent(i)), final[i])
		}
	}
}

func TestMain(m *testing.M) {
	if dir := os.Getenv(crashChildEnv); dir != "" {
		crashChild(dir) // loops until the parent kills the process
		return
	}
	if dir := os.Getenv(netServeEnv); dir != "" {
		netServeChild(dir) // serves until a connect child drains it
		return
	}
	if addr := os.Getenv(netConnectEnv); addr != "" {
		netConnectChild(addr)
		return
	}
	if args := os.Getenv(modesArgsEnv); args != "" {
		os.Args = append([]string{"auctionsim"}, strings.Split(args, "\n")...)
		main()
		return
	}
	os.Exit(m.Run())
}

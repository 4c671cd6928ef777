package main

import (
	"bufio"
	"os"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// procSnap is what the harness reads about its own process around a
// measured window: getrusage CPU time and context switches, and the Go
// runtime's allocation and GC counters. The "process" layer of the
// per-layer table is the difference of two of these.
type procSnap struct {
	utime, stime time.Duration
	ctxSwitches  int64
	mallocs      uint64
	allocBytes   uint64
	gcCycles     uint32
	gcPause      time.Duration
}

func snapProc() procSnap {
	var ru syscall.Rusage
	// Getrusage(RUSAGE_SELF) cannot fail with a valid who and pointer.
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return procSnap{
		utime:       time.Duration(ru.Utime.Nano()),
		stime:       time.Duration(ru.Stime.Nano()),
		ctxSwitches: ru.Nvcsw + ru.Nivcsw,
		mallocs:     ms.Mallocs,
		allocBytes:  ms.TotalAlloc,
		gcCycles:    ms.NumGC,
		gcPause:     time.Duration(ms.PauseTotalNs),
	}
}

func (a procSnap) sub(b procSnap) procSnap {
	return procSnap{
		utime:       a.utime - b.utime,
		stime:       a.stime - b.stime,
		ctxSwitches: a.ctxSwitches - b.ctxSwitches,
		mallocs:     a.mallocs - b.mallocs,
		allocBytes:  a.allocBytes - b.allocBytes,
		gcCycles:    a.gcCycles - b.gcCycles,
		gcPause:     a.gcPause - b.gcPause,
	}
}

func (p procSnap) cpu() time.Duration { return p.utime + p.stime }

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// preciseSleeper sleeps on the calling goroutine's own OS thread with
// nanosleep and the thread's timer slack set to its minimum. The Go
// runtime's timers are only as fine as its idle poll (a millisecond on
// Linux when every P is idle), which at 3000 arrivals a second would
// bunch the open loop's arrivals into millisecond bursts.
type preciseSleeper struct{}

// newPreciseSleeper locks the goroutine to its thread; call unlock
// when the loop ends.
func newPreciseSleeper() preciseSleeper {
	runtime.LockOSThread()
	const prSetTimerSlack = 29
	// Best effort: without it the default 50us slack applies.
	_, _, _ = syscall.Syscall(syscall.SYS_PRCTL, prSetTimerSlack, 1, 0)
	return preciseSleeper{}
}

func (preciseSleeper) sleep(d time.Duration) {
	ts := syscall.NsecToTimespec(int64(d))
	// An early return (EINTR) is harmless: the caller re-reads the clock.
	_ = syscall.Nanosleep(&ts, nil)
}

func (preciseSleeper) unlock() { runtime.UnlockOSThread() }

// liveHeap returns HeapAlloc after a forced collection: the bytes the
// structures built so far actually retain.
func liveHeap() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// peakRSSMB reads the process's resident high-water mark (VmHWM) in
// MB; 0 when /proc is unavailable.
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "VmHWM:") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			return 0
		}
		kb, err := strconv.ParseFloat(fields[1], 64)
		if err != nil {
			return 0
		}
		return kb / 1024
	}
	return 0
}

// hostFingerprint identifies the machine a baseline entry was taken
// on, so a later reader never compares numbers across hosts unawares.
func hostFingerprint() map[string]any {
	fp := map[string]any{
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"os_arch":    runtime.GOOS + "/" + runtime.GOARCH,
	}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if strings.HasPrefix(line, "model name") {
				if _, v, ok := strings.Cut(line, ":"); ok {
					fp["cpu_model"] = strings.TrimSpace(v)
				}
				break
			}
		}
	}
	if b, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		fp["kernel"] = strings.TrimSpace(string(b))
	}
	return fp
}

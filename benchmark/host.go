package main

import (
	"bufio"
	"os"
	"runtime"
	"runtime/debug"
	"strings"
	"syscall"
	"time"
)

// machine identifies the box and toolchain a row was recorded on. Walls
// are only comparable between rows whose machine blocks agree.
type machine struct {
	CPUModel   string `json:"cpu_model"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	Commit     string `json:"commit"`
}

func machineInfo() machine {
	m := machine{
		CPUModel:   "unknown",
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		Commit:     "unknown",
	}
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		defer f.Close()
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
				m.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	// The driver's checkout is not a git repository, so the commit is
	// only known when the binary was built inside one.
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				m.Commit = s.Value
			}
		}
	}
	return m
}

// cpuSeconds returns the process's user+system CPU time. On a sharded
// run it carries barrier spinning and pipeline-worker time that the
// wall clock hides.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// mallocs returns the cumulative heap-object allocation count.
func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// liveHeap collects garbage and returns the bytes still reachable.
func liveHeap() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc)
}

// hostReading is one reading of the host-noise sentinel: two fixed
// loops whose work never changes, so a change in their duration is a
// change in the host, not in the code under test. Integer is eight
// independent multiply-add chains, enough parallel work to fill the
// core's issue width, so it slows when a neighbour runs on the sibling
// hardware thread (a single dependency chain does not: it leaves most of
// the core idle either way). Memory is a pointer chase over 4 MiB, past
// L2, so it sees the shared cache and memory system. On the design box
// each moves by a factor of two to three, independently on the two CPUs.
type hostReading struct {
	IntegerMS float64
	MemoryMS  float64
}

func (h hostReading) ms() float64 { return h.IntegerMS + h.MemoryMS }

// sentinelSink keeps the sentinel loops' results observable.
var sentinelSink uint64

// chase is a single random cycle over 1 Mi slots (Sattolo's algorithm):
// every load depends on the one before it.
var chase = func() []uint32 {
	buf := make([]uint32, 1<<20)
	for i := range buf {
		buf[i] = uint32(i)
	}
	x := uint64(88172645463325252)
	for i := len(buf) - 1; i > 0; i-- {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		j := int(x % uint64(i))
		buf[i], buf[j] = buf[j], buf[i]
	}
	return buf
}()

// senseHost takes one sentinel reading (about 11 ms on a quiet box).
func senseHost() hostReading {
	t0 := time.Now()
	a, b, c, d := uint64(1), uint64(2), uint64(3), uint64(4)
	e, f, g, h := uint64(5), uint64(6), uint64(7), uint64(8)
	for i := 0; i < 2_000_000; i++ {
		a = a*6364136223846793005 + 1
		b = b*6364136223846793005 + 3
		c = c*6364136223846793005 + 5
		d = d*6364136223846793005 + 7
		e += a ^ (e >> 3)
		f += b ^ (f >> 5)
		g += c ^ (g >> 7)
		h += d ^ (h >> 9)
	}
	x := a + b + c + d + e + f + g + h
	t1 := time.Now()
	idx := uint32(x) & uint32(len(chase)-1)
	for i := 0; i < 150_000; i++ {
		idx = chase[idx]
	}
	t2 := time.Now()
	sentinelSink += x + uint64(idx)
	return hostReading{
		IntegerMS: float64(t1.Sub(t0).Nanoseconds()) / 1e6,
		MemoryMS:  float64(t2.Sub(t1).Nanoseconds()) / 1e6,
	}
}

// hostNoise summarises the sentinel readings of one invocation, always
// on standard error, so that invocations can be told apart by the host
// they met. level is the mean of the fastest quarter of the readings in
// milliseconds, the sentinel's counterpart of the time estimator: over
// 20 invocations of each workload it followed the invocation's run_s
// with r = 0.76-0.81, so two invocations compare by it. spreadPct is how
// far the slowest reading lies above the fastest. It is printed without
// a verdict, because it supports none: some second of every invocation
// on a shared box is slow (40-270 % here), and neither it nor the
// fastest quarter's excess over the fastest reading followed run_s
// (r = -0.48..0.29 and -0.15..0.15): the disturbance that matters
// outlasts an invocation and moves all of its readings together.
func hostNoise(readings []hostReading) (level, spreadPct float64) {
	total := make([]float64, len(readings))
	lo, hi := readings[0], readings[0]
	for i, r := range readings {
		total[i] = r.ms()
		if r.ms() < lo.ms() {
			lo = r
		}
		if r.ms() > hi.ms() {
			hi = r
		}
	}
	level = fastQuarter(total)
	spreadPct = 100 * (hi.ms()/lo.ms() - 1)
	logf("host sentinel: level %.1f ms (fastest quarter of %d readings), fastest %.1f ms (integer %.1f + memory walk %.1f), slowest %.1f ms (%.1f + %.1f), spread %.0f%%",
		level, len(readings), lo.ms(), lo.IntegerMS, lo.MemoryMS, hi.ms(), hi.IntegerMS, hi.MemoryMS, spreadPct)
	return level, spreadPct
}

package main

import (
	"fmt"
	"io"
	"math/rand/v2"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// Host-speed calibration.
//
// The 2-vCPU VM this benchmark is sized for shares its machine, and the
// machine's speed for this memory-bound engine drifts: by 10–20% from one
// pass to the next, and by up to 2× over tens of minutes (plant7d ran at
// 350k rec/s and, an hour later, at 200k). Runs of the same code at
// different times then differ by more than any useful bound. So an
// untraced run times a fixed calibration workload, in a child process of
// this binary, before every pass and after the last, and reports every
// end-to-end time at a reference host speed: each sample is scaled by
// how much slower than calibNominal the calibrations on either side of
// it ran (run.atReference). A run on a host slowed by a third reads as it
// would on the reference host; a change that makes the engine a third
// slower still reads a third slower, because the calibration does not
// run the engine.
//
// The calibration runs in its own process, on its own heap, calls
// nothing from the repository and allocates nothing while it times, so no
// change to the program can move the yardstick: not its code, not the
// memory it keeps live, and not the garbage collection that memory costs.

// calibEnv, set to 1, makes this binary run the calibration workload
// calibReps times and print each time in nanoseconds instead of
// benchmarking.
const calibEnv = "BENCH_CALIBRATE"

const (
	// calibReps is how many times one calibration child times the
	// workload.
	calibReps = 10
	// calibNominal is the calibration workload's time on the reference
	// host. It only fixes the scale of the reported times, but changing
	// it moves every time metric, so it stays: it is about the
	// calibration's median on the 2-vCPU x86-64 VM the baseline in
	// README.md comes from, in that VM's fast stretches (its slow ones
	// read 20–26 ms).
	calibNominal = 16 * time.Millisecond
)

// calibrating reports whether this process is a calibration child.
func calibrating() bool { return os.Getenv(calibEnv) == "1" }

// calibMain is a calibration child's whole life: it fills the cache
// simulation, then prints the time of each of calibReps runs of the
// calibration workload. Nothing allocates while it times, so no garbage
// collection runs then.
func calibMain(w io.Writer) int {
	c := newSimCache(simCapacity)
	c.replay(4 * simRequests)
	runtime.GC()
	times := make([]string, calibReps)
	for i := range times {
		times[i] = strconv.FormatInt(c.calibrationWork().Nanoseconds(), 10)
	}
	fmt.Fprintln(w, strings.Join(times, " "))
	return 0
}

// calibrate runs one calibration child of this binary and returns the
// times it measured.
func calibrate() ([]time.Duration, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(exe)
	cmd.Env = append(os.Environ(), calibEnv+"=1")
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("calibration: %w", err)
	}
	var times []time.Duration
	for _, f := range strings.Fields(string(out)) {
		ns, err := strconv.ParseInt(f, 10, 64)
		if err != nil {
			return nil, fmt.Errorf("calibration: %w", err)
		}
		times = append(times, time.Duration(ns))
	}
	if len(times) != calibReps {
		return nil, fmt.Errorf("calibration: got %q, want %d times", out, calibReps)
	}
	return times, nil
}

// calibrationWork times the calibration workload once. Its two halves
// take about the same time on an idle host. A dependent integer chain
// follows the core's clock. An LRU cache simulation follows the memory
// system the way the engine uses it: a Zipf request stream into a map
// and a linked list of entries spread over several megabytes. When
// another tenant shares the core, the chain slows by a few percent and
// the simulation by up to two thirds, as the engine's memory-bound passes
// do.
func (c *simCache) calibrationWork() time.Duration {
	start := time.Now()
	x := uint64(1)
	for i := 0; i < 5_000_000; i++ {
		x = x*6364136223846793005 + 1442695040888963407
		x ^= x >> 17
	}
	hits := c.replay(simRequests)
	d := time.Since(start)
	if x == 0 || hits == 0 {
		panic("calibration workload computed nothing") // keeps both halves from being optimized away
	}
	return d
}

const (
	// simCapacity is the simulated cache's entries: 6.4 MB of them, plus
	// the map, more than a core's L2.
	simCapacity = 100_000
	// simRequests is one calibration's requests.
	simRequests = 60_000
)

// simEntry is one cached item of the calibration's cache simulation,
// linked by index so the entries hold no pointers.
type simEntry struct {
	key        uint64
	prev, next int32
	payload    [5]uint64
}

// simCache is an LRU cache whose entries and map are allocated up front.
type simCache struct {
	entries    []simEntry
	used       int32
	index      map[uint64]int32
	head, tail int32
}

func newSimCache(n int) *simCache {
	return &simCache{entries: make([]simEntry, n), index: make(map[uint64]int32, n), head: -1, tail: -1}
}

// replay runs n requests of a fixed Zipf stream through the cache and
// returns its hits.
func (c *simCache) replay(n int) int {
	z := rand.NewZipf(rand.New(rand.NewPCG(7, 11)), 1.1, 4, 1<<20)
	hits := 0
	for range n {
		k := z.Uint64()
		i, ok := c.index[k]
		switch {
		case ok && i == c.head:
		case ok:
			e := &c.entries[i]
			c.entries[e.prev].next = e.next
			if e.next >= 0 {
				c.entries[e.next].prev = e.prev
			} else {
				c.tail = e.prev
			}
			c.push(i)
		default:
			if int(c.used) < len(c.entries) {
				i = c.used
				c.used++
			} else {
				i = c.tail
				delete(c.index, c.entries[i].key)
				c.tail = c.entries[i].prev
				c.entries[c.tail].next = -1
			}
			c.entries[i] = simEntry{key: k}
			c.index[k] = i
			c.push(i)
		}
		if ok {
			hits++
			c.entries[i].payload[k%5]++
		}
	}
	return hits
}

// push makes entry i the most recently used.
func (c *simCache) push(i int32) {
	e := &c.entries[i]
	e.prev, e.next = -1, c.head
	if c.head >= 0 {
		c.entries[c.head].prev = i
	}
	c.head = i
	if c.tail < 0 {
		c.tail = i
	}
}

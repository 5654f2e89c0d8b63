// Package perf is the repo's performance-engineering subsystem: it
// captures CPU and heap profiles around Submit-driven runs and extracts
// top-N hot-symbol tables from them without external tooling.
//
// The package exists so performance work is mechanical rather than
// artisanal: `vodsim -profile-dir` drops cpu.pprof/heap.pprof next to
// any bounded run, TopTable turns them into the markdown tables
// EXPERIMENTS.md commits, and the benchmark (bench/) attributes a traced
// pass's CPU time to layers through Parse.
package perf

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
)

// CPUProfileName and HeapProfileName are the file names a Capture
// writes inside its directory.
const (
	CPUProfileName  = "cpu.pprof"
	HeapProfileName = "heap.pprof"
)

// Capture is an in-flight profile capture: CPU samples stream to
// dir/cpu.pprof from Start until Stop, and Stop additionally writes a
// heap profile (after a GC, so it reflects live memory, not garbage)
// to dir/heap.pprof.
type Capture struct {
	dir string
	cpu *os.File
}

// Start begins a CPU profile capture into dir, creating the directory
// if needed. Exactly one capture may be active per process (a
// limitation of runtime CPU profiling).
func Start(dir string) (*Capture, error) {
	if dir == "" {
		return nil, fmt.Errorf("perf: profile directory must not be empty")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("perf: %w", err)
	}
	f, err := os.Create(filepath.Join(dir, CPUProfileName))
	if err != nil {
		return nil, fmt.Errorf("perf: %w", err)
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, fmt.Errorf("perf: %w", err)
	}
	return &Capture{dir: dir, cpu: f}, nil
}

// Dir returns the capture's directory.
func (c *Capture) Dir() string { return c.dir }

// CPUPath and HeapPath return the profile file paths.
func (c *Capture) CPUPath() string  { return filepath.Join(c.dir, CPUProfileName) }
func (c *Capture) HeapPath() string { return filepath.Join(c.dir, HeapProfileName) }

// Stop ends the CPU capture and writes the heap profile. The Capture
// cannot be reused.
func (c *Capture) Stop() error {
	pprof.StopCPUProfile()
	if err := c.cpu.Close(); err != nil {
		return fmt.Errorf("perf: %w", err)
	}
	heap, err := os.Create(c.HeapPath())
	if err != nil {
		return fmt.Errorf("perf: %w", err)
	}
	defer heap.Close()
	runtime.GC() // flush garbage so the profile shows live allocations
	if err := pprof.Lookup("heap").WriteTo(heap, 0); err != nil {
		return fmt.Errorf("perf: %w", err)
	}
	return nil
}

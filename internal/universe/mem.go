package universe

import (
	"bufio"
	"os"
	"runtime"
	"strconv"
	"strings"
)

// Footprint is a point-in-time process memory reading.
type Footprint struct {
	// HeapLiveBytes is the live heap after a forced collection — the
	// number a scale run's memory is judged by, because it excludes
	// garbage awaiting collection and allocator slack.
	HeapLiveBytes uint64 `json:"heap_live_bytes"`

	// PeakRSSBytes is the process high-water resident set (VmHWM),
	// zero where /proc is unavailable. Process-wide and monotonic: it
	// includes the runtime, the binary, and every earlier phase of the
	// process, so it is context rather than a budget gate.
	PeakRSSBytes uint64 `json:"peak_rss_bytes"`
}

// MeasureFootprint forces a collection and reads the process footprint.
func MeasureFootprint() Footprint {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return Footprint{
		HeapLiveBytes: ms.HeapAlloc,
		PeakRSSBytes:  PeakRSS(),
	}
}

// PeakRSS reads the process high-water resident set (VmHWM) from
// /proc/self/status (Linux; 0 elsewhere). Cheap enough for a metrics
// scrape path.
func PeakRSS() uint64 {
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
		kb, err := strconv.ParseUint(fields[1], 10, 64)
		if err != nil {
			return 0
		}
		return kb * 1024
	}
	return 0
}

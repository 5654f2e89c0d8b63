// Package popularity holds the program-popularity analysis of Figure 12:
// how viewing of the most popular programs decays by day since each
// program's introduction. The LFU strategies' windowed access counts
// live with their scorers in the cache package.
package popularity

import (
	"time"

	"cablevod/internal/trace"
	"cablevod/internal/units"
)

// IntroductionDecay computes the Figure-12 series: the average number of
// concurrent sessions for the most popular programs, by day since each
// program's introduction (its first access in the trace).
//
// A program's first access only approximates its introduction when it
// happened well inside the trace window: programs already in the catalog
// at the start of the trace have their first access at trace-day 0 even
// though they may be months old. minIntro excludes those — only programs
// first accessed at or after minIntro contribute to the series.
//
// topN selects how many of the most-accessed qualifying programs to
// average over; days is the length of the returned series. Programs
// introduced too close to the end of the trace to observe a full aligned
// day are excluded from that day's average.
func IntroductionDecay(tr *trace.Trace, topN, days int, minIntro time.Duration) []float64 {
	if days <= 0 {
		return nil
	}
	first := tr.FirstAccess()
	_, traceEnd := tr.Span()
	top := tr.MostPopular(len(first))

	sums := make([]float64, days)
	counts := make([]int, days)
	taken := 0
	for _, p := range top {
		if taken >= topN {
			break
		}
		intro, ok := first[p]
		if !ok || intro < minIntro {
			continue
		}
		taken++
		// Align the program's viewing to days since introduction.
		perDay := make([]float64, days)
		for _, r := range tr.FilterProgram(p) {
			from, to := r.Start, r.End()
			for from < to {
				dayIdx := int((from - intro) / units.Day)
				dayEnd := intro + time.Duration(dayIdx+1)*units.Day
				if dayEnd > to {
					dayEnd = to
				}
				if dayIdx >= 0 && dayIdx < days {
					perDay[dayIdx] += (dayEnd - from).Seconds()
				}
				from = dayEnd
			}
		}
		for d := 0; d < days; d++ {
			// Only count days fully inside the trace.
			if intro+time.Duration(d+1)*units.Day > traceEnd {
				break
			}
			sums[d] += perDay[d] / units.Day.Seconds()
			counts[d]++
		}
	}
	out := make([]float64, days)
	for d := range out {
		if counts[d] > 0 {
			out[d] = sums[d] / float64(counts[d])
		}
	}
	return out
}

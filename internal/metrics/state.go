package metrics

import (
	"fmt"

	"cablevod/internal/units"
)

// Buckets returns a copy of the meter's absolute-hour bit buckets — the
// meter's complete serializable state. Untouched hours are omitted, so
// the serialized form is sparse regardless of the dense in-memory
// layout.
func (m *RateMeter) Buckets() map[int64]int64 { return m.BucketsInto(nil) }

// BucketsInto is Buckets filling dst, cleared first, in place of a new
// map (a nil dst gets one), so an exporter can reuse one map per meter.
func (m *RateMeter) BucketsInto(dst map[int64]int64) map[int64]int64 {
	if dst == nil {
		dst = make(map[int64]int64, len(m.bits))
	} else {
		clear(dst)
	}
	for idx, b := range m.bits {
		if b != 0 {
			dst[int64(idx)] = b
		}
	}
	return dst
}

// RestoreBuckets replaces the meter's contents with the given buckets
// (copied, so the caller's map stays independent). The meter grows to
// the largest hour it is given, so hours must lie in [0, maxHour], and
// bits must not be negative; otherwise the meter is left empty and an
// error returned.
func (m *RateMeter) RestoreBuckets(buckets map[int64]int64, maxHour int64) error {
	m.bits = nil
	for idx, b := range buckets {
		if idx < 0 || idx > maxHour {
			return fmt.Errorf("metrics: bucket for hour %d outside [0, %d]", idx, maxHour)
		}
		if b < 0 {
			return fmt.Errorf("metrics: hour %d has negative bits %d", idx, b)
		}
	}
	for idx, b := range buckets {
		if b != 0 {
			*m.bucket(idx) = b
		}
	}
	return nil
}

// HourWindowSamples returns the average rate of every absolute hour in
// [fromHour, toHour) whose hour-of-day satisfies keep (nil keeps all).
// Hours with no traffic yield zero samples, exactly like HourSamples —
// used to report rate statistics over an incident window rather than
// whole days.
func (m *RateMeter) HourWindowSamples(fromHour, toHour int64, keep func(hour int) bool) []units.BitRate {
	if toHour <= fromHour {
		return nil
	}
	var out []units.BitRate
	for h := fromHour; h < toHour; h++ {
		if h < 0 {
			continue
		}
		if keep != nil && !keep(int(h%24)) {
			continue
		}
		out = append(out, units.BitRate(float64(m.at(h))/3600))
	}
	return out
}

package synth

import "cablevod/internal/trace"

// NextHourRaw is nextHourRaw for the external tests: one hour in
// generation order, before NextHour sorts it.
func (s *Stream) NextHourRaw() ([]trace.Record, HourInfo, error) { return s.nextHourRaw() }

// Package units provides the value types used throughout cablevod for
// bit rates, byte sizes and simulated time, together with the canonical
// constants of the paper's system model (MPEG-2 SDTV stream rate, segment
// duration, coax channel capacities).
//
// All quantities are integer-backed so that accounting is exact: BitRate is
// bits per second, ByteSize is bytes. Conversions to floating point happen
// only at presentation time.
package units

import (
	"fmt"
	"math"
	"strconv"
	"strings"
	"time"
)

// BitRate is a data rate in bits per second.
type BitRate int64

// Bit-rate units.
const (
	BitPerSecond BitRate = 1
	Kbps                 = 1_000 * BitPerSecond
	Mbps                 = 1_000 * Kbps
	Gbps                 = 1_000 * Mbps
)

// Canonical rates from the paper (Section IV-B.1 and Section II).
const (
	// StreamRate is the broadcast rate of a single program stream:
	// 8.06 Mb/s, the minimum rate sustaining uninterrupted playback of
	// high-quality MPEG-2 standard-definition video.
	StreamRate = 8_060 * Kbps

	// CoaxDownstreamMin and CoaxDownstreamMax bound the downstream
	// capacity of a coaxial neighborhood network (4.9 - 6.6 Gb/s
	// depending on cable capacity).
	CoaxDownstreamMin = 4_900 * Mbps
	CoaxDownstreamMax = 6_600 * Mbps

	// CoaxTelevisionShare is the portion of downstream capacity consumed
	// by broadcast cable television (~3.3 Gb/s).
	CoaxTelevisionShare = 3_300 * Mbps

	// CoaxUpstream is the fixed, standardized upstream allocation of a
	// coaxial network (~215 Mb/s) shared by cable modems, set-top
	// control signals and VoIP.
	CoaxUpstream = 215 * Mbps
)

// Mbps returns the rate in megabits per second.
func (r BitRate) Mbps() float64 { return float64(r) / float64(Mbps) }

// Gbps returns the rate in gigabits per second.
func (r BitRate) Gbps() float64 { return float64(r) / float64(Gbps) }

// BytesIn returns the exact number of bytes transferred at rate r over d.
// It rounds down to whole bytes.
func (r BitRate) BytesIn(d time.Duration) ByteSize {
	if r < 0 {
		panic("units: negative bit rate")
	}
	if d < 0 {
		panic("units: negative duration")
	}
	// bits = r * seconds; work in big-ish arithmetic to avoid overflow:
	// r fits in ~36 bits for our rates, d.Seconds() up to months ~2^25,
	// so float64 is not exact. Use integer math on nanoseconds instead.
	// bytes = r * ns / (8 * 1e9). Split to avoid overflow for very long
	// durations: r*ns can overflow int64 when r is large and d is months.
	sec := int64(d / time.Second)
	rem := int64(d % time.Second) // nanoseconds
	bits := int64(r)*sec + int64(r)*rem/int64(time.Second)
	return ByteSize(bits / 8)
}

// String renders the rate with an adaptive unit, e.g. "8.06 Mb/s".
func (r BitRate) String() string {
	switch {
	case r >= Gbps:
		return trimFloat(r.Gbps()) + " Gb/s"
	case r >= Mbps:
		return trimFloat(r.Mbps()) + " Mb/s"
	case r >= Kbps:
		return trimFloat(float64(r)/float64(Kbps)) + " Kb/s"
	default:
		return strconv.FormatInt(int64(r), 10) + " b/s"
	}
}

// ByteSize is a storage or transfer amount in bytes.
type ByteSize int64

// Byte-size units (decimal, matching the paper's TB/GB usage).
const (
	Byte ByteSize = 1
	KB            = 1_000 * Byte
	MB            = 1_000 * KB
	GB            = 1_000 * MB
	TB            = 1_000 * GB
)

// Bytes returns the size as an int64 number of bytes.
func (s ByteSize) Bytes() int64 { return int64(s) }

// GB returns the size in decimal gigabytes.
func (s ByteSize) GB() float64 { return float64(s) / float64(GB) }

// TB returns the size in decimal terabytes.
func (s ByteSize) TB() float64 { return float64(s) / float64(TB) }

// DurationAt returns how long transferring s at rate r takes, rounded up to
// the nearest nanosecond. It returns 0 when s is zero and panics on a
// non-positive rate.
func (s ByteSize) DurationAt(r BitRate) time.Duration {
	if r <= 0 {
		panic("units: DurationAt requires a positive rate")
	}
	if s == 0 {
		return 0
	}
	if s < 0 {
		panic("units: negative byte size")
	}
	bits := float64(s) * 8
	sec := bits / float64(r)
	return time.Duration(math.Ceil(sec * float64(time.Second)))
}

// String renders the size with an adaptive unit, e.g. "10 GB", "1.5 TB".
func (s ByteSize) String() string {
	switch {
	case s >= TB:
		return trimFloat(s.TB()) + " TB"
	case s >= GB:
		return trimFloat(s.GB()) + " GB"
	case s >= MB:
		return trimFloat(float64(s)/float64(MB)) + " MB"
	case s >= KB:
		return trimFloat(float64(s)/float64(KB)) + " KB"
	default:
		return strconv.FormatInt(int64(s), 10) + " B"
	}
}

// ParseByteSize parses strings like "10GB", "1.5 TB", "500 MB", "302MB".
func ParseByteSize(s string) (ByteSize, error) {
	raw := strings.TrimSpace(s)
	upper := strings.ToUpper(raw)
	var mult ByteSize
	var numPart string
	switch {
	case strings.HasSuffix(upper, "TB"):
		mult, numPart = TB, upper[:len(upper)-2]
	case strings.HasSuffix(upper, "GB"):
		mult, numPart = GB, upper[:len(upper)-2]
	case strings.HasSuffix(upper, "MB"):
		mult, numPart = MB, upper[:len(upper)-2]
	case strings.HasSuffix(upper, "KB"):
		mult, numPart = KB, upper[:len(upper)-2]
	case strings.HasSuffix(upper, "B"):
		mult, numPart = Byte, upper[:len(upper)-1]
	default:
		return 0, fmt.Errorf("units: %q: missing size suffix (B/KB/MB/GB/TB)", s)
	}
	numPart = strings.TrimSpace(numPart)
	v, err := strconv.ParseFloat(numPart, 64)
	if err != nil {
		return 0, fmt.Errorf("units: parse %q: %w", s, err)
	}
	if v < 0 {
		return 0, fmt.Errorf("units: %q: negative size", s)
	}
	return ByteSize(math.Round(v * float64(mult))), nil
}

// ParseBitRate parses strings like "8.06Mb/s", "17 Gb/s", "215Mbps".
func ParseBitRate(s string) (BitRate, error) {
	raw := strings.TrimSpace(s)
	norm := strings.ToLower(strings.ReplaceAll(raw, " ", ""))
	norm = strings.TrimSuffix(norm, "ps")
	norm = strings.TrimSuffix(norm, "/s")
	var mult BitRate
	var numPart string
	switch {
	case strings.HasSuffix(norm, "gb"):
		mult, numPart = Gbps, norm[:len(norm)-2]
	case strings.HasSuffix(norm, "mb"):
		mult, numPart = Mbps, norm[:len(norm)-2]
	case strings.HasSuffix(norm, "kb"):
		mult, numPart = Kbps, norm[:len(norm)-2]
	case strings.HasSuffix(norm, "b"):
		mult, numPart = BitPerSecond, norm[:len(norm)-1]
	default:
		return 0, fmt.Errorf("units: %q: missing rate suffix (b/s, Kb/s, Mb/s, Gb/s)", s)
	}
	v, err := strconv.ParseFloat(numPart, 64)
	if err != nil {
		return 0, fmt.Errorf("units: parse %q: %w", s, err)
	}
	if v < 0 {
		return 0, fmt.Errorf("units: %q: negative rate", s)
	}
	return BitRate(math.Round(v * float64(mult))), nil
}

func trimFloat(v float64) string {
	s := strconv.FormatFloat(v, 'f', 2, 64)
	s = strings.TrimRight(s, "0")
	s = strings.TrimRight(s, ".")
	if s == "" || s == "-" {
		return "0"
	}
	return s
}

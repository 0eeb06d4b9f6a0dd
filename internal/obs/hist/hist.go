// Package hist is a fixed-size, lock-free latency histogram for the hot
// paths of the test generator: the engine's per-phase task latencies,
// the simulation kernel's per-analysis wall times, and the job server's
// queue and HTTP timings all record into it.
//
// The bucket scheme is log-linear (HDR-style): values below SubBuckets
// land in exact unit-wide buckets, and every power-of-two range above
// that is divided into SubBuckets linear sub-buckets. Bucket width is
// therefore always at most lower-bound/SubBuckets, which bounds the
// relative error of any reconstructed value (midpoint estimate) by
// RelativeError — the documented contract the property tests enforce.
//
// The record path is a handful of atomic adds on a fixed array: no
// allocation, no locks, no resizing, safe for any number of concurrent
// recorders. Snapshots are consistent-enough copies (buckets are read
// individually; a snapshot taken mid-record can be off by in-flight
// records, never torn within one counter), which is the usual histogram
// trade and fine for telemetry.
package hist

import (
	"math"
	"math/bits"
	"sync/atomic"
	"time"
)

const (
	// SubBucketBits sets the resolution: each power-of-two range is
	// split into 1<<SubBucketBits linear sub-buckets.
	SubBucketBits = 5
	// SubBuckets is the number of linear sub-buckets per octave (32).
	SubBuckets = 1 << SubBucketBits
	// NumBuckets is the fixed bucket count covering all of int64:
	// SubBuckets exact unit buckets plus SubBuckets per octave for the
	// 63−SubBucketBits octaves above (the top bucket's upper bound is
	// exactly MaxInt64).
	NumBuckets = (63 - SubBucketBits + 1) * SubBuckets
	// RelativeError bounds |estimate − recorded| / recorded for any
	// value reconstructed from its bucket midpoint (values below
	// SubBuckets are exact). The true midpoint bound is 1/(2·SubBuckets);
	// the exported constant keeps a 2× margin for integer rounding.
	RelativeError = 1.0 / SubBuckets
)

// Histogram is a fixed-size concurrent latency histogram. The zero
// value is NOT ready to use (min needs seeding); create with New. A nil
// *Histogram is the disabled histogram: Record is a no-op, Snapshot
// returns the zero Snapshot.
type Histogram struct {
	count   atomic.Uint64
	sum     atomic.Int64
	min     atomic.Int64
	max     atomic.Int64
	buckets [NumBuckets]atomic.Uint64
}

// New returns an empty histogram.
func New() *Histogram {
	h := &Histogram{}
	h.min.Store(math.MaxInt64)
	return h
}

// bucketIndex maps a non-negative value to its bucket. Values below
// SubBuckets map exactly; above, the top SubBucketBits bits below the
// leading one select a linear sub-bucket within the value's octave.
func bucketIndex(v int64) int {
	if v < SubBuckets {
		return int(v)
	}
	e := bits.Len64(uint64(v)) - 1 // floor(log2 v), ≥ SubBucketBits
	shift := e - SubBucketBits
	m := int((v >> shift) & (SubBuckets - 1))
	return (shift+1)*SubBuckets + m
}

// BucketBounds returns the inclusive [lower, upper] value range of
// bucket i.
func BucketBounds(i int) (lower, upper int64) {
	if i < SubBuckets {
		return int64(i), int64(i)
	}
	shift := i/SubBuckets - 1
	m := int64(i % SubBuckets)
	lower = (SubBuckets + m) << shift
	upper = lower + (1 << shift) - 1
	return lower, upper
}

// bucketMid returns the midpoint estimate for bucket i.
func bucketMid(i int) int64 {
	lo, hi := BucketBounds(i)
	return lo + (hi-lo)/2
}

// Record adds one observation. Negative values clamp to zero. The
// record path is allocation-free: a bucket add, a count add, a sum add,
// and (rarely, only while the extremes are still moving) a min/max CAS.
func (h *Histogram) Record(v int64) {
	if h == nil {
		return
	}
	if v < 0 {
		v = 0
	}
	h.buckets[bucketIndex(v)].Add(1)
	h.count.Add(1)
	h.sum.Add(v)
	for {
		cur := h.min.Load()
		if v >= cur || h.min.CompareAndSwap(cur, v) {
			break
		}
	}
	for {
		cur := h.max.Load()
		if v <= cur || h.max.CompareAndSwap(cur, v) {
			break
		}
	}
}

// RecordDuration records d in nanoseconds.
func (h *Histogram) RecordDuration(d time.Duration) { h.Record(int64(d)) }

// Merge adds the current contents of other into h. Concurrent Records
// on either side are safe; the merge observes each bucket once.
func (h *Histogram) Merge(other *Histogram) {
	if h == nil || other == nil {
		return
	}
	for i := range other.buckets {
		if n := other.buckets[i].Load(); n > 0 {
			h.buckets[i].Add(n)
			h.count.Add(n)
		}
	}
	h.sum.Add(other.sum.Load())
	if m := other.min.Load(); m != math.MaxInt64 {
		for {
			cur := h.min.Load()
			if m >= cur || h.min.CompareAndSwap(cur, m) {
				break
			}
		}
	}
	if m := other.max.Load(); m > 0 {
		for {
			cur := h.max.Load()
			if m <= cur || h.max.CompareAndSwap(cur, m) {
				break
			}
		}
	}
}

// Reset zeroes the histogram (tests and benchmark harnesses; not meant
// to race with recorders).
func (h *Histogram) Reset() {
	if h == nil {
		return
	}
	for i := range h.buckets {
		h.buckets[i].Store(0)
	}
	h.count.Store(0)
	h.sum.Store(0)
	h.min.Store(math.MaxInt64)
	h.max.Store(0)
}

// Bucket is one non-empty bucket of a snapshot: Count observations with
// values in [Lower, Upper] (inclusive).
type Bucket struct {
	Lower, Upper int64
	Count        uint64
}

// Snapshot is a point-in-time copy of a histogram: total count and sum,
// observed extremes, and the non-empty buckets in ascending value
// order. The zero Snapshot is an empty histogram.
type Snapshot struct {
	Count    uint64
	Sum      int64
	Min, Max int64
	Buckets  []Bucket
}

// Snapshot copies the histogram's current contents.
func (h *Histogram) Snapshot() Snapshot {
	if h == nil {
		return Snapshot{}
	}
	s := Snapshot{
		Count: h.count.Load(),
		Sum:   h.sum.Load(),
		Min:   h.min.Load(),
		Max:   h.max.Load(),
	}
	if s.Count == 0 {
		s.Min, s.Max = 0, 0
	}
	if s.Min == math.MaxInt64 {
		s.Min = 0
	}
	for i := range h.buckets {
		if n := h.buckets[i].Load(); n > 0 {
			lo, hi := BucketBounds(i)
			s.Buckets = append(s.Buckets, Bucket{Lower: lo, Upper: hi, Count: n})
		}
	}
	return s
}

// Mean returns the arithmetic mean of the recorded values (0 when
// empty).
func (s Snapshot) Mean() float64 {
	if s.Count == 0 {
		return 0
	}
	return float64(s.Sum) / float64(s.Count)
}

// Quantile returns the q-quantile (0 ≤ q ≤ 1) as a bucket-midpoint
// estimate clamped to the observed [Min, Max], so single-valued
// histograms report exactly and estimates never exceed the true
// extremes. The estimate is within RelativeError of the true quantile.
func (s Snapshot) Quantile(q float64) int64 {
	if s.Count == 0 || len(s.Buckets) == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := uint64(math.Ceil(q * float64(s.Count)))
	if rank == 0 {
		rank = 1
	}
	var cum uint64
	for _, b := range s.Buckets {
		cum += b.Count
		if cum >= rank {
			mid := b.Lower + (b.Upper-b.Lower)/2
			if mid < s.Min {
				mid = s.Min
			}
			if mid > s.Max {
				mid = s.Max
			}
			return mid
		}
	}
	return s.Max
}

// P50 is the conventional median telemetry percentile.
func (s Snapshot) P50() int64 { return s.Quantile(0.50) }

// P90 is the conventional tail telemetry percentile.
func (s Snapshot) P90() int64 { return s.Quantile(0.90) }

// P99 is the conventional extreme-tail telemetry percentile.
func (s Snapshot) P99() int64 { return s.Quantile(0.99) }

// Cumulative returns the snapshot's buckets as cumulative (upper bound,
// count ≤ bound) pairs — the Prometheus exposition shape.
func (s Snapshot) Cumulative() []Bucket {
	if len(s.Buckets) == 0 {
		return nil
	}
	out := make([]Bucket, len(s.Buckets))
	var cum uint64
	for i, b := range s.Buckets {
		cum += b.Count
		out[i] = Bucket{Lower: b.Lower, Upper: b.Upper, Count: cum}
	}
	return out
}

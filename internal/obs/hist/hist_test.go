package hist

import (
	"math"
	"math/rand"
	"sort"
	"sync"
	"testing"
	"time"
)

func TestBucketIndexRoundTrip(t *testing.T) {
	// Every bucket index must invert to bounds that contain exactly the
	// values mapping to it.
	for i := 0; i < NumBuckets; i++ {
		lo, hi := BucketBounds(i)
		if lo > hi {
			t.Fatalf("bucket %d: lower %d > upper %d", i, lo, hi)
		}
		if got := bucketIndex(lo); got != i {
			t.Fatalf("bucket %d: lower %d maps to bucket %d", i, lo, got)
		}
		if hi < math.MaxInt64 {
			if got := bucketIndex(hi); got != i {
				t.Fatalf("bucket %d: upper %d maps to bucket %d", i, hi, got)
			}
		}
	}
	// Bounds tile the axis with no gaps.
	for i := 1; i < NumBuckets; i++ {
		_, prevHi := BucketBounds(i - 1)
		lo, _ := BucketBounds(i)
		if lo != prevHi+1 {
			t.Fatalf("gap between bucket %d (upper %d) and %d (lower %d)", i-1, prevHi, i, lo)
		}
	}
}

// TestRelativeErrorBound is the property test of the documented
// contract: for any recorded value, the bucket-midpoint estimate is
// within RelativeError of the true value.
func TestRelativeErrorBound(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	check := func(v int64) {
		i := bucketIndex(v)
		lo, hi := BucketBounds(i)
		if v < lo || v > hi {
			t.Fatalf("value %d outside its bucket %d [%d, %d]", v, i, lo, hi)
		}
		mid := bucketMid(i)
		relErr := math.Abs(float64(mid-v)) / math.Max(float64(v), 1)
		if relErr > RelativeError {
			t.Fatalf("value %d: midpoint %d has relative error %.5f > %.5f", v, mid, relErr, RelativeError)
		}
	}
	for v := int64(0); v < 4*SubBuckets; v++ {
		check(v) // exhaustive over the linear region and first octaves
	}
	for i := 0; i < 200000; i++ {
		// Log-uniform values across the full dynamic range.
		e := rng.Float64() * 62
		check(int64(math.Pow(2, e)))
	}
	check(math.MaxInt64)
}

func TestQuantilesAgainstExact(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	h := New()
	vals := make([]int64, 5000)
	for i := range vals {
		// Latency-shaped: log-normal-ish mixture with a heavy tail.
		v := int64(math.Exp(rng.NormFloat64()*1.5+10)) + rng.Int63n(100)
		vals[i] = v
		h.Record(v)
	}
	sort.Slice(vals, func(i, j int) bool { return vals[i] < vals[j] })
	s := h.Snapshot()
	if s.Count != uint64(len(vals)) {
		t.Fatalf("count %d, want %d", s.Count, len(vals))
	}
	if s.Min != vals[0] || s.Max != vals[len(vals)-1] {
		t.Fatalf("min/max %d/%d, want %d/%d", s.Min, s.Max, vals[0], vals[len(vals)-1])
	}
	var sum int64
	for _, v := range vals {
		sum += v
	}
	if s.Sum != sum {
		t.Fatalf("sum %d, want %d", s.Sum, sum)
	}
	for _, q := range []float64{0.5, 0.9, 0.99} {
		rank := int(math.Ceil(q*float64(len(vals)))) - 1
		exact := vals[rank]
		got := s.Quantile(q)
		relErr := math.Abs(float64(got-exact)) / float64(exact)
		// The estimate may fall in a neighboring rank's bucket when
		// values tie around the cut; allow twice the per-value bound.
		if relErr > 2*RelativeError {
			t.Errorf("q%.2f: estimate %d vs exact %d (rel err %.5f)", q, got, exact, relErr)
		}
	}
}

func TestSingleValueQuantilesExact(t *testing.T) {
	h := New()
	const v = 123457
	for i := 0; i < 10; i++ {
		h.Record(v)
	}
	s := h.Snapshot()
	for _, q := range []float64{0, 0.5, 0.99, 1} {
		if got := s.Quantile(q); got != v {
			t.Fatalf("quantile %g of single-valued histogram: %d, want %d", q, got, v)
		}
	}
}

func TestEmptyAndNil(t *testing.T) {
	var nilH *Histogram
	nilH.Record(5) // must not panic
	nilH.RecordDuration(time.Second)
	if s := nilH.Snapshot(); s.Count != 0 || s.Min != 0 || s.Max != 0 {
		t.Fatalf("nil snapshot not zero: %+v", s)
	}
	if s := New().Snapshot(); s.Count != 0 || s.Min != 0 || s.Quantile(0.5) != 0 {
		t.Fatalf("empty snapshot not zero: %+v", s)
	}
	var nilR *Registry
	nilR.Observe("x", 1)
	if nilR.Snapshot() != nil {
		t.Fatal("nil registry snapshot not nil")
	}
}

func TestMerge(t *testing.T) {
	a, b := New(), New()
	for i := int64(1); i <= 100; i++ {
		a.Record(i)
		b.Record(i * 1000)
	}
	a.Merge(b)
	s := a.Snapshot()
	if s.Count != 200 {
		t.Fatalf("merged count %d, want 200", s.Count)
	}
	if s.Min != 1 || s.Max != 100000 {
		t.Fatalf("merged min/max %d/%d, want 1/100000", s.Min, s.Max)
	}
	var want int64
	for i := int64(1); i <= 100; i++ {
		want += i + i*1000
	}
	if s.Sum != want {
		t.Fatalf("merged sum %d, want %d", s.Sum, want)
	}
}

func TestCumulative(t *testing.T) {
	h := New()
	h.Record(1)
	h.Record(1)
	h.Record(1000)
	cum := h.Snapshot().Cumulative()
	if len(cum) != 2 {
		t.Fatalf("cumulative buckets %d, want 2", len(cum))
	}
	if cum[0].Count != 2 || cum[1].Count != 3 {
		t.Fatalf("cumulative counts %d/%d, want 2/3", cum[0].Count, cum[1].Count)
	}
}

// TestConcurrentRecordSnapshotMerge is the race hammer: recorders,
// snapshotters, mergers and registry readers all running concurrently
// must be race-free (run under -race in CI) and lose no records.
func TestConcurrentRecordSnapshotMerge(t *testing.T) {
	const (
		recorders = 8
		perG      = 20000
	)
	h := New()
	reg := NewRegistry()
	var wg sync.WaitGroup
	stop := make(chan struct{})
	// Snapshot + merge churn while records are in flight.
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			scratch := New()
			for {
				select {
				case <-stop:
					return
				default:
				}
				_ = h.Snapshot().Quantile(0.99)
				scratch.Merge(h)
				_ = reg.Snapshot()
			}
		}()
	}
	for g := 0; g < recorders; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for i := 0; i < perG; i++ {
				v := rng.Int63n(1 << 40)
				h.Record(v)
				reg.Observe("lane", v)
			}
		}(g)
	}
	// Wait for recorders (the first `recorders` goroutines started after
	// the churners); then stop churn.
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	for {
		if h.Snapshot().Count == recorders*perG {
			break
		}
		select {
		case <-done:
		default:
		}
		time.Sleep(time.Millisecond)
	}
	close(stop)
	<-done
	s := h.Snapshot()
	if s.Count != recorders*perG {
		t.Fatalf("lost records: %d, want %d", s.Count, recorders*perG)
	}
	var n uint64
	for _, b := range s.Buckets {
		n += b.Count
	}
	if n != s.Count {
		t.Fatalf("bucket sum %d != count %d", n, s.Count)
	}
	if rs := reg.Snapshot(); len(rs) != 1 || rs[0].Count != recorders*perG {
		t.Fatalf("registry lost records: %+v", rs)
	}
}

// TestRecordAllocs enforces the zero-alloc record-path contract.
func TestRecordAllocs(t *testing.T) {
	h := New()
	if n := testing.AllocsPerRun(1000, func() { h.Record(123456) }); n != 0 {
		t.Fatalf("Record allocates %.1f times per call, want 0", n)
	}
	reg := NewRegistry()
	reg.Get("warm") // created outside the measured loop
	if n := testing.AllocsPerRun(1000, func() { reg.Observe("warm", 77) }); n != 0 {
		t.Fatalf("Registry.Observe on a warm name allocates %.1f times per call, want 0", n)
	}
}

// BenchmarkRecord is the record-path budget benchmark: a few atomic
// adds, 0 allocs/op.
func BenchmarkRecord(b *testing.B) {
	h := New()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Record(int64(i) * 31)
	}
}

// BenchmarkRecordParallel measures contention across recorders.
func BenchmarkRecordParallel(b *testing.B) {
	h := New()
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		v := int64(1)
		for pb.Next() {
			h.Record(v * 127)
			v++
		}
	})
}

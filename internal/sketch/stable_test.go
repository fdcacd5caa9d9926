package sketch

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"sync"
	"testing"

	"repro/internal/rng"
)

// stableTruth computes exact ||f||_p^p for a frequency map.
func stableTruth(freqs map[uint64]int64, p float64) float64 {
	s := 0.0
	for _, c := range freqs {
		s += math.Pow(float64(c), p)
	}
	return s
}

func TestStableNormEstimates(t *testing.T) {
	freqs := zipfStream(500, 40000, 51)
	for _, p := range []float64{0.5, 1.0, 1.5, 2.0} {
		s := NewStable(p, 400, 53)
		for item, c := range freqs {
			s.AddCount(item, c)
		}
		truth := stableTruth(freqs, p)
		got := s.EstimateMoment()
		if math.Abs(got-truth)/truth > 0.3 {
			t.Fatalf("p=%v: moment %v, truth %v", p, got, truth)
		}
		normTruth := math.Pow(truth, 1/p)
		if gotN := s.EstimateNorm(); math.Abs(gotN-normTruth)/normTruth > 0.15 {
			t.Fatalf("p=%v: norm %v, truth %v", p, gotN, normTruth)
		}
	}
}

func TestStableLinearity(t *testing.T) {
	// Adding then removing an item must cancel exactly.
	s := NewStable(1.5, 50, 57)
	s.AddCount(99, 1000)
	s.AddCount(42, 7)
	s.AddCount(99, -1000)
	only := NewStable(1.5, 50, 57)
	only.AddCount(42, 7)
	if math.Abs(s.EstimateNorm()-only.EstimateNorm()) > 1e-6 {
		t.Fatalf("cancellation failed: %v vs %v", s.EstimateNorm(), only.EstimateNorm())
	}
}

func TestStableMerge(t *testing.T) {
	a := NewStable(0.5, 60, 59)
	b := NewStable(0.5, 60, 59)
	whole := NewStable(0.5, 60, 59)
	for i := uint64(0); i < 500; i++ {
		whole.AddCount(i, 3)
		if i%2 == 0 {
			a.AddCount(i, 3)
		} else {
			b.AddCount(i, 3)
		}
	}
	if err := a.Merge(b); err != nil {
		t.Fatal(err)
	}
	if math.Abs(a.EstimateNorm()-whole.EstimateNorm()) > 1e-9 {
		t.Fatal("merged stable sketch must equal whole-stream sketch")
	}
	if err := a.Merge(NewStable(0.6, 60, 59)); !errors.Is(err, ErrIncompatible) {
		t.Fatalf("p mismatch: %v", err)
	}
}

func TestStableSerializationRoundTrip(t *testing.T) {
	s := NewStable(1.2, 40, 61)
	src := rng.New(63)
	for i := 0; i < 200; i++ {
		s.AddCount(src.Uint64(), int64(src.Intn(10))+1)
	}
	data, err := s.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	var back Stable
	if err := back.UnmarshalBinary(data); err != nil {
		t.Fatal(err)
	}
	if back.EstimateNorm() != s.EstimateNorm() || back.P() != 1.2 || back.Reps() != 40 {
		t.Fatal("serialization round trip drifted")
	}
	if err := back.UnmarshalBinary(data[:5]); err == nil {
		t.Fatal("truncated payload must error")
	}
}

func TestStablePanics(t *testing.T) {
	for _, fn := range []func(){
		func() { NewStable(0, 10, 1) },
		func() { NewStable(2.5, 10, 1) },
		func() { NewStable(1, 2, 1) },
		func() { StableForEpsilon(1, 0, 1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("expected panic")
				}
			}()
			fn()
		}()
	}
}

func TestStableAbsMedianCached(t *testing.T) {
	// p = 1 is the analytic value 1 (median |Cauchy|).
	if v := stableAbsMedian(1); v != 1 {
		t.Fatalf("median |Cauchy| = %v", v)
	}
	// Repeated calls hit the cache and must agree exactly.
	a := stableAbsMedian(0.7)
	b := stableAbsMedian(0.7)
	if a != b {
		t.Fatal("cache must be deterministic")
	}
	// p = 2: |N(0,2)| has median sqrt(2)*z_{0.75} ≈ 0.9539.
	if v := stableAbsMedian(2); math.Abs(v-0.9539) > 0.01 {
		t.Fatalf("median |stable_2| = %v, want ≈0.954", v)
	}
}

func TestStableUnmarshalRejectsNaNOrder(t *testing.T) {
	s := NewStable(1.5, 5, 9)
	s.Add(42)
	blob, err := s.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	// The moment order p sits right after the 1-byte tag; NaN fails
	// every comparison, so a non-NaN-safe range check would admit it
	// and the decoded sketch would estimate NaN forever.
	binary.LittleEndian.PutUint64(blob[1:], math.Float64bits(math.NaN()))
	var dec Stable
	if err := dec.UnmarshalBinary(blob); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("NaN moment order must be corrupt, got %v", err)
	}
}

// goldenItems is a fixed stream with repeats, hitting the extremes of
// the item space.
var goldenItems = []uint64{
	3, 1 << 40, 3, 0xdeadbeefcafef00d, 7, 3, 0, 7, 1 << 40, 42, 3, 99,
	42, 0, 0xffffffffffffffff, 3, 7, 12345,
}

// TestStableGoldenSums pins the exact counter bits for every branch of
// rng.Stable (p = 1 Cauchy, p = 2 Gaussian, the general
// Chambers–Mallows–Stuck path otherwise). The batch-equals-row tests
// compare two paths through the same variate code, so only literal
// values catch a change in the variates themselves or in the order of
// the float additions.
func TestStableGoldenSums(t *testing.T) {
	for _, tc := range []struct {
		p    float64
		want [7]uint64
	}{
		{0.5, [7]uint64{0xc030ae2e2ce2304b, 0xc010382f3b5f733e, 0xc0687f55c952d8a2, 0x405f136ac6ea9ef0, 0xc0435066d96514c9, 0x4038e3c7c730240e, 0xc097e997a313266c}},
		{1, [7]uint64{0xc02e4f61c337b5bd, 0xc012a7e65fd4a3e4, 0xc01bc3d7b2cfcfa0, 0x4041d7cb8c96cbab, 0xc015d71931caff5d, 0x4005ddcd536c3770, 0xc05cd7b728da74cb}},
		{1.5, [7]uint64{0xc025c13aae6a70a7, 0xc015a54e002b556f, 0x3ff3e06b685c7c78, 0x4031fa8ebc3fc96e, 0xc007c69e536df28a, 0xc015bbf996bc5163, 0xc0444240ce9b87c4}},
		{2, [7]uint64{0xc00bccf37c3e09a1, 0xc024f31bd6685dde, 0xbfd421082a02c063, 0xc021d15686ce2cd3, 0x401add87a10e7c27, 0x401ce9993f0c6e8a, 0x40164c1abdc1ec1a}},
	} {
		s := NewStable(tc.p, 7, 0x5eed601d)
		s.AddBatch(goldenItems[:12])
		for _, it := range goldenItems[12:] {
			s.Add(it)
		}
		s.AddCount(goldenItems[0], -3)
		for j, v := range s.sums {
			if got := math.Float64bits(v); got != tc.want[j] {
				t.Errorf("p=%v: sums[%d] bits %#016x, want %#016x", tc.p, j, got, tc.want[j])
			}
		}
	}
}

// requireSameSums fails unless got and want hold bit-identical counters.
func requireSameSums(t *testing.T, label string, got, want *Stable) {
	t.Helper()
	for j := range want.sums {
		if g, w := math.Float64bits(got.sums[j]), math.Float64bits(want.sums[j]); g != w {
			t.Fatalf("%s: sums[%d] bits %#016x, want %#016x", label, j, g, w)
		}
	}
}

// TestStableAddBatchMatchesAdd pins the memo contract of AddBatch:
// whatever the repeat structure of a batch, the counters are
// bit-identical to one Add per item in order.
func TestStableAddBatchMatchesAdd(t *testing.T) {
	src := rng.New(71)
	draw := func(n int, space uint64) []uint64 {
		items := make([]uint64, n)
		for i := range items {
			items[i] = src.Uint64n(space)
		}
		return items
	}
	distinct := func(n int) []uint64 {
		items := make([]uint64, n)
		for i := range items {
			items[i] = src.Uint64()
		}
		return items
	}
	// Distinct items per memo generation at 60 repetitions.
	perMemo := stableMemoBytes / (8 * 60)
	cases := []struct {
		name    string
		reps    int
		batches [][]uint64
	}{
		{"heavy repeats", 60, [][]uint64{draw(512, 4), draw(256, 16)}},
		{"all distinct", 60, [][]uint64{distinct(256), distinct(300)}},
		{"empty and single", 60, [][]uint64{{}, {42}, nil, {42}}},
		// Budget resets mid-batch: ~3 memo generations of distinct
		// items, with repeats that straddle the resets.
		{"budget reset", 60, [][]uint64{draw(4*perMemo, uint64(3*perMemo))}},
		// One vector larger than the whole budget: the plain loop.
		{"reps over budget", stableMemoBytes/8 + 1, [][]uint64{{5, 9, 5, 5, 9}}},
	}
	for _, tc := range cases {
		for _, p := range []float64{0.5, 1, 1.5, 2} {
			batched := NewStable(p, tc.reps, 73)
			rowwise := NewStable(p, tc.reps, 73)
			for i, b := range tc.batches {
				batched.AddBatch(b)
				for _, item := range b {
					rowwise.Add(item)
				}
				// Interleave plain Adds between batches.
				batched.Add(uint64(i))
				rowwise.Add(uint64(i))
			}
			requireSameSums(t, fmt.Sprintf("%s p=%v", tc.name, p), batched, rowwise)
		}
	}
}

// TestStableAddBatchConcurrent runs AddBatch on distinct sketches from
// many goroutines at once; they share the pooled memo scratch, which
// the race detector checks, and each must still match its serial
// reference.
func TestStableAddBatchConcurrent(t *testing.T) {
	const workers = 8
	src := rng.New(79)
	items := make([]uint64, 256)
	for i := range items {
		items[i] = src.Uint64n(64)
	}
	want := make([]*Stable, workers)
	got := make([]*Stable, workers)
	for w := range want {
		want[w] = NewStable(2, 60, uint64(w))
		for _, item := range items {
			want[w].Add(item)
		}
		got[w] = NewStable(2, 60, uint64(w))
	}
	var wg sync.WaitGroup
	for w := range got {
		wg.Add(1)
		go func(s *Stable) {
			defer wg.Done()
			for lo := 0; lo < len(items); lo += 64 {
				s.AddBatch(items[lo : lo+64])
			}
		}(got[w])
	}
	wg.Wait()
	for w := range got {
		requireSameSums(t, fmt.Sprintf("worker %d", w), got[w], want[w])
	}
}

// TestStableIngestAllocationFree pins the allocation-free ingest path:
// a warmed AddBatch reuses pooled scratch and Add derives its
// generators on the stack.
func TestStableIngestAllocationFree(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop items at random")
	}
	s := NewStable(2, 60, 83)
	items := make([]uint64, 256)
	for i := range items {
		items[i] = uint64(i % 50)
	}
	s.AddBatch(items)
	if allocs := testing.AllocsPerRun(20, func() { s.AddBatch(items) }); allocs != 0 {
		t.Errorf("AddBatch allocates %v times per call", allocs)
	}
	if allocs := testing.AllocsPerRun(20, func() { s.Add(7) }); allocs != 0 {
		t.Errorf("Add allocates %v times per call", allocs)
	}
}

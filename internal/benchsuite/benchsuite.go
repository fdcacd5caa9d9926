// Package benchsuite holds the repository's reproducible benchmark
// workloads as plain functions over *testing.B, so the same code runs
// two ways: wrapped as ordinary Benchmark* functions in the root
// bench_test.go (go test -bench), and driven by cmd/bench through
// testing.Benchmark to produce the committed BENCH_<n>.json trajectory
// files. Every workload here times one row (ingestion benches) or one
// batch (query benches) per iteration, so ns/op convert directly to
// rows/sec or batches/sec.
package benchsuite

import (
	"os"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/rng"
	"repro/internal/store"
	"repro/internal/words"
)

const (
	benchDim   = 16
	benchQ     = 4
	benchPool  = 1 << 12 // distinct rows cycled through the benches
	ingestRows = 256     // batch size for batched ingestion
)

// benchEngine builds the standard bench engine: 4 shards over bounded
// reservoir-sample summaries, so per-row work is one RNG draw and the
// state (and hence merge cost) stays constant regardless of b.N — what
// the benches then measure is the engine machinery itself.
func benchEngine(b *testing.B, cfg engine.Config) *engine.Sharded {
	b.Helper()
	if cfg.Shards == 0 {
		cfg.Shards = 4
	}
	if cfg.Queue == 0 {
		cfg.Queue = 1024
	}
	eng, err := engine.NewSharded(func(shard int) (core.Summary, error) {
		return core.NewSample(benchDim, benchQ, 256, uint64(shard)+1, core.WithReservoir())
	}, cfg)
	if err != nil {
		b.Fatal(err)
	}
	return eng
}

// benchRows builds the shared row pool.
func benchRows() *words.Batch { return randomRows(benchDim, benchQ, benchPool, 35) }

// randomRows returns n uniform rows over d columns and alphabet q.
func randomRows(d, q, n int, seed uint64) *words.Batch {
	data := make([]uint16, n*d)
	src := rng.New(seed)
	for i := range data {
		data[i] = uint16(src.Intn(q))
	}
	return words.BatchOf(d, data)
}

// IngestRow times per-row engine ingestion (one clone, one atomic
// increment, one channel send per row). One iteration is one row.
func IngestRow(b *testing.B) {
	eng := benchEngine(b, engine.Config{})
	defer eng.Close()
	rows := benchRows()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng.Observe(rows.Row(i % benchPool))
	}
	if _, err := eng.Flush(); err != nil {
		b.Fatal(err)
	}
}

// IngestBatch times batched engine ingestion in chunks of 256 rows
// (one arena copy and one channel send per chunk). One iteration is
// one row, so ns/op compare directly with IngestRow.
func IngestBatch(b *testing.B) {
	eng := benchEngine(b, engine.Config{})
	defer eng.Close()
	rows := benchRows()
	b.ReportAllocs()
	b.ResetTimer()
	for lo := 0; lo < b.N; lo += ingestRows {
		n := ingestRows
		if lo+n > b.N {
			n = b.N - lo
		}
		eng.ObserveBatch(rows.Slice(0, n))
	}
	if _, err := eng.Flush(); err != nil {
		b.Fatal(err)
	}
}

// SketchIngest times the batched key pipeline through a sketch-backed
// summary: a Subset summary over the C(16, 2) = 120 subset KMVs
// consumes 256-row batches directly (no engine), so ns/op isolates the
// per-(member, row) projection + fingerprint + sketch cost that the
// member-major loops pay — the number the key-pipeline refactor moves.
// One iteration is one row (each row fans out to all 120 members).
func SketchIngest(b *testing.B) {
	sum, err := core.NewSubset(benchDim, benchQ, 2, 0.1, 42, 0)
	if err != nil {
		b.Fatal(err)
	}
	rows := benchRows()
	b.ReportAllocs()
	b.ResetTimer()
	for lo := 0; lo < b.N; lo += ingestRows {
		n := ingestRows
		if lo+n > b.N {
			n = b.N - lo
		}
		sum.ObserveBatch(rows.Slice(0, n))
	}
}

// The net ingestion workload runs at the daemon defaults (projfreqd
// -summary net: d = 12, Q = 2, ε = 0.05, α = 0.3, seed 1).
const (
	netDim    = 12
	netQ      = 2
	netPool   = 1 << 12 // distinct rows cycled through NetIngest
	netWarmup = 1 << 10 // rows fed before the timer starts
)

// NetIngest times the served net summary, built by
// engine.StandardSummary at the daemon defaults, consuming 256-row
// batches directly (no engine). Every row fans out to one F0 KMV and
// one 60-repetition F2 p-stable sketch per α-net member (158 members).
// The summary is warmed outside the timer with 1024 rows, enough
// distinct keys to fill the KMVs of the large members, so the timed
// loop measures the steady state. One iteration is one row.
func NetIngest(b *testing.B) {
	sum, err := engine.StandardSummary("net", netDim, netQ, 0.05, 0.01, 0.3, 1, 0)
	if err != nil {
		b.Fatal(err)
	}
	net := sum.(core.BatchObserver)
	rows := randomRows(netDim, netQ, netPool, 37)
	for lo := 0; lo < netWarmup; lo += ingestRows {
		net.ObserveBatch(rows.Slice(lo, lo+ingestRows))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for lo := 0; lo < b.N; lo += ingestRows {
		n := min(ingestRows, b.N-lo)
		off := lo % netPool
		net.ObserveBatch(rows.Slice(off, off+n))
	}
}

// benchQueries is a small mixed read batch over the bench engine's
// reservoir-sample shards: point-frequency probes across distinct
// projections (the class the sample summary answers).
func benchQueries() []engine.Query {
	var qs []engine.Query
	for i := 0; i < 4; i++ {
		c := words.MustColumnSet(benchDim, i, i+4, i+8)
		qs = append(qs, engine.Query{
			Kind:    engine.KindFrequency,
			Cols:    c,
			Pattern: make(words.Word, 3),
		})
	}
	return qs
}

// QueryWarm times QueryBatch against a settled engine: the epoch is
// current and the result cache is hot, so this is the read fast path.
// One iteration is one 4-query batch.
func QueryWarm(b *testing.B) {
	eng := benchEngine(b, engine.Config{})
	defer eng.Close()
	rows := benchRows()
	eng.ObserveBatch(rows.Slice(0, benchPool))
	qs := benchQueries()
	if res := eng.QueryBatch(qs); res[0].Err != nil {
		b.Fatal(res[0].Err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if res := eng.QueryBatch(qs); res[0].Err != nil {
			b.Fatal(res[0].Err)
		}
	}
}

// PlannerRouted times planner-routed query batches over a
// multi-subspace engine with a cold cache (CacheSize 1), so every
// iteration exercises plan → evaluate across exact, covering, and
// full-fallback routes. One iteration is one 16-query batch.
func PlannerRouted(b *testing.B) {
	eng, err := engine.NewSharded(func(int) (core.Summary, error) {
		return core.NewExact(12, 2)
	}, engine.Config{Shards: 4, CacheSize: 1})
	if err != nil {
		b.Fatal(err)
	}
	defer eng.Close()
	subspaces := [][]int{{0, 1, 2}, {3, 4, 5}, {6, 7, 8}, {9, 10, 11}}
	for _, cols := range subspaces {
		if err := eng.RegisterSubspace(words.MustColumnSet(12, cols...), func(int) (core.Summary, error) {
			return core.NewExact(12, 2)
		}); err != nil {
			b.Fatal(err)
		}
	}
	src := rng.New(33)
	w := make(words.Word, 12)
	for i := 0; i < 20000; i++ {
		for j := range w {
			w[j] = uint16(src.Intn(2))
		}
		eng.Observe(w)
	}
	var qs []engine.Query
	for i := 0; i < 4; i++ {
		exact := words.MustColumnSet(12, subspaces[i]...)
		cover := words.MustColumnSet(12, i, i+1)
		qs = append(qs,
			engine.Query{Kind: engine.KindF0, Cols: exact},
			engine.Query{Kind: engine.KindF0, Cols: cover},
			engine.Query{Kind: engine.KindFp, Cols: exact, P: 2},
			engine.Query{Kind: engine.KindFp, Cols: cover, P: 2})
	}
	if res := eng.QueryBatch(qs); res[0].Err != nil {
		b.Fatal(res[0].Err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if res := eng.QueryBatch(qs); res[0].Err != nil {
			b.Fatal(res[0].Err)
		}
	}
}

// WALAppend times write-ahead-log batch appends (256 rows per record,
// interval fsync — the daemon's default policy). One iteration is one
// row.
func WALAppend(b *testing.B) {
	dir, err := os.MkdirTemp("", "benchwal")
	if err != nil {
		b.Fatal(err)
	}
	defer os.RemoveAll(dir)
	wal, err := store.Open(store.Options{Dir: dir, Dim: benchDim, Alphabet: benchQ, Fsync: store.FsyncInterval})
	if err != nil {
		b.Fatal(err)
	}
	defer wal.Close()
	rows := benchRows()
	chunk := rows.Slice(0, ingestRows)
	b.ReportAllocs()
	b.ResetTimer()
	for lo := 0; lo < b.N; lo += ingestRows {
		if err := wal.AppendBatch(chunk); err != nil {
			b.Fatal(err)
		}
	}
}

// MixedMode selects the read-side configuration of MixedReadWrite.
type MixedMode int

// The mixed-workload variants. Comparing EpochReaders against
// IngestOnly measures how much the read load costs ingestion under the
// epoch read path; StrictReaders is the quiesce-on-every-read baseline
// the epoch refactor replaced.
const (
	// MixedIngestOnly runs the writer alone: the read-free ingestion
	// ceiling the other variants are measured against.
	MixedIngestOnly MixedMode = iota
	// MixedEpochReaders issues the read load against an engine with a
	// staleness budget: reads serve the published epoch lock-free.
	MixedEpochReaders
	// MixedStrictReaders issues the same read load against a strict
	// (zero-budget) engine: every read under write traffic rebuilds
	// through the worker quiesce barrier.
	MixedStrictReaders
)

// mixedReadEvery is the read cadence: one QueryBatch per this many
// ingested rows (a dashboard polling a busy writer, several hundred
// reads/sec at the measured ingest rates).
const mixedReadEvery = 8192

// mixedSampleT is the reservoir capacity of the mixed workload's
// summaries. It is deliberately large: per-row ingestion stays a
// cheap constant (one RNG draw), but cutting a snapshot merges four
// 8k-row reservoirs with the workers paused — the
// ingest-cheap/merge-expensive ratio where the quiesce barrier hurts
// most. Bounded state keeps the merge cost constant in b.N, which a
// benchmark requires (retain-everything summaries like Exact make
// rebuild cost grow with the iteration count and the numbers
// meaningless).
const mixedSampleT = 1 << 13

// MixedReadWrite times streaming row ingestion (the daemon's live
// /v1/observe path) under a fixed read load: one 4-query QueryBatch
// every 8192 ingested rows, issued between rows so the schedule is
// deterministic (time-based polling goroutines make single-core runs
// scheduler-noise-dominated; the -race stress test covers true
// read/write races). One iteration is one ingested row: ns/op is the
// cost of a row's share of the whole mixed workload, and the ns/read
// metric is the mean read latency.
//
// Under strict mode every read under write traffic pays a full
// rebuild — quiesce all workers, merge four reservoirs, re-evaluate
// the batch against a cold cache generation. Under a staleness budget
// rebuilds amortize to once per budget and the in-between reads are
// lock-free cache hits on the published epoch, so reads neither stall
// ingestion nor wait for it.
func MixedReadWrite(b *testing.B, mode MixedMode) {
	cfg := engine.Config{Shards: 4, Queue: 8}
	if mode == MixedEpochReaders {
		// Reads may lag ingestion by up to 1M rows before a rebuild
		// (under 200ms at the measured ingest rates); the benchmark's
		// answers stay bounded-stale, never wrong.
		cfg.MaxStalenessRows = 1 << 20
	}
	eng, err := engine.NewSharded(func(shard int) (core.Summary, error) {
		return core.NewSample(benchDim, benchQ, mixedSampleT, uint64(shard)+1, core.WithReservoir())
	}, cfg)
	if err != nil {
		b.Fatal(err)
	}
	defer eng.Close()
	rows := benchRows()
	eng.ObserveBatch(rows.Slice(0, benchPool)) // settle a first epoch
	qs := benchQueries()
	if res := eng.QueryBatch(qs); res[0].Err != nil {
		b.Fatal(res[0].Err)
	}

	var readNS, reads int64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng.Observe(rows.Row(i % benchPool))
		if mode != MixedIngestOnly && i%mixedReadEvery == 0 {
			t0 := time.Now()
			if res := eng.QueryBatch(qs); res[0].Err != nil {
				b.Fatal(res[0].Err)
			}
			readNS += int64(time.Since(t0))
			reads++
		}
	}
	// The final Flush stays inside the timed region: it waits for the
	// workers to fully process every enqueued row, so ns/op charges the
	// worker time reads steal (barrier pauses) instead of measuring
	// only the enqueue side, which a queue can hide.
	if _, err := eng.Flush(); err != nil {
		b.Fatal(err)
	}
	b.StopTimer()
	if reads > 0 {
		b.ReportMetric(float64(readNS)/float64(reads), "ns/read")
	}
}

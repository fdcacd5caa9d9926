package main

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/registry"
	"repro/internal/store"
	"repro/internal/words"
)

// perLayerMetrics are the BENCHMARK.json per-layer metrics, in report
// order, with their units. A traced run reports every one of them; a
// layer that the workload's requests do not reach reads 0.
var perLayerMetrics = []struct{ name, unit string }{
	{"projfreqd.observe_self_us_per_row", "us"},
	{"projfreqd.query_self_ms", "ms"},
	{"projfreqd.observe_request_bytes_per_row", "bytes"},
	{"router.observe_self_ms", "ms"},
	{"router.upstream_observe_ms", "ms"},
	{"router.fanout_bytes_per_row", "bytes"},
	{"router.query_self_ms", "ms"},
	{"store.append_ns_per_row", "ns"},
	{"store.log_bytes_per_row", "bytes"},
	{"store.checkpoint_ms", "ms"},
	{"store.checkpoints", "count"},
	{"engine.observe_ns_per_row", "ns"},
	{"engine.flush_ms", "ms"},
	{"engine.epoch_rebuild_ms", "ms"},
	{"engine.epoch_rebuilds", "count"},
	{"engine.query_eval_ms", "ms"},
	{"engine.cache_hit_ratio", "ratio"},
	{"registry.plan_ns_per_query", "ns"},
	{"registry.route_share.exact", "ratio"},
	{"registry.route_share.covering", "ratio"},
	{"registry.route_share.full", "ratio"},
	{"core.exact.observe_ns_per_row", "ns"},
	{"core.sample.observe_ns_per_row", "ns"},
	{"core.net.observe_ns_per_row", "ns"},
	{"core.exact.eval_ms.f0", "ms"},
	{"core.exact.eval_ms.fp", "ms"},
	{"core.exact.eval_ms.freq", "ms"},
	{"core.exact.eval_ms.hh", "ms"},
	{"core.marshal_ms", "ms"},
	{"core.marshal_bytes", "bytes"},
	{"core.unmarshal_ms", "ms"},
	{"freq.vector_ms", "ms"},
	{"freq.distinct_keys", "count"},
	{"cluster.partition_ns_per_row", "ns"},
	{"cluster.pull_rounds", "count"},
	{"cluster.pull_changed_share", "ratio"},
	{"cluster.ship_bytes", "bytes"},
	{"cluster.absorb_ms", "ms"},
	{"input.distinct_row_share", "ratio"},
	{"input.batch_key_repeat_share", "ratio"},
	{"input.batch_key_repeat_share.c2", "ratio"},
	{"input.batch_key_repeat_share.c4", "ratio"},
	{"input.batch_key_repeat_share.c8", "ratio"},
	{"input.batch_key_repeat_share.c12", "ratio"},
	{"loadgen.writer_lag_ms", "ms"},
	{"trace.overhead_share", "ratio"},
	{"sample_rows_per_s", "rows/s"},
	{"net_rows_per_s", "rows/s"},
	{"share.router", "ratio"},
	{"share.projfreqd", "ratio"},
	{"share.store", "ratio"},
	{"share.engine", "ratio"},
	{"share.registry", "ratio"},
	{"share.core", "ratio"},
	{"share.freq", "ratio"},
	{"share.cluster", "ratio"},
	{"share.unattributed", "ratio"},
}

// engineChunkRows is the engine's default routing chunk
// (engine.Config.BatchChunk): a batch reaches min(chunks, shards)
// shard workers.
const engineChunkRows = 256

// shareLayers are the layers end-to-end time is attributed to.
var shareLayers = []string{"router", "projfreqd", "store", "engine", "registry", "core", "freq", "cluster"}

// layers accumulates the traced run's per-layer numbers: summed times
// (and counts) per named quantity, and the attribution of end-to-end
// time to layers.
type layers struct {
	total  map[string]time.Duration
	count  map[string]float64
	values map[string]float64
	share  map[string]time.Duration
	e2e    time.Duration
	replay *tracer
}

func newLayers() *layers {
	return &layers{
		total:  map[string]time.Duration{},
		count:  map[string]float64{},
		values: map[string]float64{},
		share:  map[string]time.Duration{},
		replay: &tracer{},
	}
}

// timed runs f, records its duration as a replay span and under name,
// and returns the duration.
func (lm *layers) timed(req, parent int, name string, f func()) (time.Duration, int) {
	start := time.Now()
	f()
	end := time.Now()
	id := lm.replay.add(span{Name: name, Req: req, Parent: parent, Start: start, End: end})
	lm.total[name] += end.Sub(start)
	lm.count[name]++
	return end.Sub(start), id
}

// meanMS is name's mean duration in milliseconds (0 if never timed).
func (lm *layers) meanMS(name string) float64 {
	if lm.count[name] == 0 {
		return 0
	}
	return ms(lm.total[name]) / lm.count[name]
}

// perRowNS is name's total duration per row, in nanoseconds.
func (lm *layers) perRowNS(name string, rows float64) float64 {
	if rows == 0 {
		return 0
	}
	return float64(lm.total[name].Nanoseconds()) / rows
}

// runTraced gives the per-layer numbers: untraced trials for half the
// time (the overhead baseline), traced trials for the other half,
// then an in-process replay of the last traced trial's requests.
func runTraced(e *env, w *workload, in *inputs, rep *report) *result {
	half := e.seconds / 2
	base := newMeasure()
	trials(e, w, in, base, nil, half, 1)
	tr := &tracer{}
	tm := newMeasure()
	if base.failed == 0 {
		trials(e, w, in, tm, tr, half, 1)
	}
	lm := newLayers()
	if base.failed+tm.failed == 0 {
		if err := w.replay(e, in, tm.last, lm); err != nil {
			tm.fail(fmt.Errorf("replay: %w", err))
		}
	}
	res := &result{
		Correct:   base.failed+tm.failed == 0,
		Attempted: base.attempted + tm.attempted,
		Failed:    base.failed + tm.failed,
		Metrics:   map[string]metric{},
	}
	for _, f := range append(base.failures, tm.failures...) {
		rep.note("failure: " + f)
	}
	if !res.Correct {
		return res
	}

	v := lm.values
	v["input.distinct_row_share"] = in.props.distinctRowShare
	for _, k := range colSizes {
		x := in.props.repeatShare[k]
		v[fmt.Sprintf("input.batch_key_repeat_share.c%d", k)] = x
		v["input.batch_key_repeat_share"] += x / float64(len(colSizes))
	}
	v["loadgen.writer_lag_ms"] = percentile(tm.lag, 0.5)
	if len(tm.lag) == 0 {
		v["loadgen.writer_lag_ms"] = 0
	}
	v["trace.overhead_share"] = tm.typicalOp()/base.typicalOp() - 1
	for _, kind := range []string{"sample", "net"} {
		if t := tm.kindTime[kind]; t > 0 {
			v[kind+"_rows_per_s"] = float64(tm.kindRows[kind]) / t.Seconds()
		}
	}
	if lm.e2e > 0 {
		attributed := time.Duration(0)
		for _, l := range shareLayers {
			v["share."+l] = float64(lm.share[l]) / float64(lm.e2e)
			attributed += lm.share[l]
		}
		v["share.unattributed"] = float64(lm.e2e-attributed) / float64(lm.e2e)
	}
	// Per-layer figures come from the one replayed trial: its request
	// count is their sample count.
	for _, pm := range perLayerMetrics {
		res.Metrics[pm.name] = metric{Value: v[pm.name], Unit: pm.unit}
		rep.metric(pm.name, v[pm.name], pm.unit, len(tm.last.ops))
	}
	rep.note(fmt.Sprintf("end-to-end time of the traced trial: %.1f ms over %d client requests; shares above divide it", ms(lm.e2e), len(tm.last.ops)))
	rep.Spans = append(tr.snapshot(), lm.replay.snapshot()...)
	return res
}

// --- in-process composition ------------------------------------------

// timedLog is the engine's durability tee around a real store, timing
// every batch append (the engine serializes appends, so no lock).
type timedLog struct {
	st    *store.Store
	spent time.Duration
}

func (l *timedLog) AppendBatch(b *words.Batch) error {
	t0 := time.Now()
	err := l.st.AppendBatch(b)
	l.spent += time.Since(t0)
	return err
}

func (l *timedLog) AppendSummary(blob []byte) error { return l.st.AppendSummary(blob) }
func (l *timedLog) LSN() uint64                     { return l.st.LSN() }

// newEngine builds the engine projfreqd builds for -summary kind at
// the daemon defaults, with a timed store when log is non-nil.
func newEngine(kind string, log *timedLog) (*engine.Sharded, error) {
	cfg := engine.Config{}
	if log != nil {
		cfg.Log = log
	}
	return engine.NewSharded(standardFactory(kind), cfg)
}

// standardFactory builds kind's summaries with the daemon defaults.
func standardFactory(kind string) engine.Factory {
	return func(shard int) (core.Summary, error) {
		return engine.StandardSummary(kind, dim, alphabet, defaultEps, defaultDelta, defaultAlpha, defaultSeed, shard)
	}
}

// subspaceFactory mirrors the factories projfreqd's /v1/subspaces
// endpoint registers.
func subspaceFactory(kind string, c words.ColumnSet, summary string) engine.Factory {
	if summary == "registered" {
		return func(int) (core.Summary, error) {
			return core.NewRegistered(dim, alphabet, []words.ColumnSet{c}, core.RegisteredConfig{Epsilon: defaultEps, Seed: defaultSeed})
		}
	}
	return standardFactory(kind)
}

func toEngineQuery(q query) (engine.Query, error) {
	c, err := words.NewColumnSet(dim, q.Cols...)
	if err != nil {
		return engine.Query{}, err
	}
	eq := engine.Query{Cols: c, P: q.P, Phi: q.Phi}
	switch q.Kind {
	case "f0":
		eq.Kind = engine.KindF0
	case "fp":
		eq.Kind = engine.KindFp
	case "freq":
		eq.Kind = engine.KindFrequency
		eq.Pattern = words.Word(q.Pattern)
	case "hh":
		eq.Kind = engine.KindHeavyHitters
	default:
		return eq, fmt.Errorf("unknown query kind %q", q.Kind)
	}
	return eq, nil
}

// replayer re-runs one daemon's side of a request in-process.
type replayer struct {
	lm      *layers
	eng     *engine.Sharded
	log     *timedLog
	lastSeq uint64
	rows    float64 // rows observed through the engine
	queries float64
	cached  float64
	wal     *store.Store
	// ckpts are the log cuts at which the daemon checkpointed; the
	// replay checkpoints at the same points of the request sequence.
	ckpts []uint64
}

// observe replays one write and returns its in-process time.
func (r *replayer) observe(req, parent int, rows []uint16) (time.Duration, error) {
	before := r.log.spentOrZero()
	var err error
	d, id := r.lm.timed(req, parent, "engine.observe", func() { err = r.eng.ObserveBatchDurable(batchOf(rows)) })
	if err != nil {
		return 0, err
	}
	appendTime := r.log.spentOrZero() - before
	if appendTime > 0 {
		r.lm.replay.add(span{Name: "store.append", Req: req, Parent: id, Start: time.Now().Add(-appendTime), End: time.Now()})
		r.lm.total["store.append"] += appendTime
		r.lm.count["store.append"]++
	}
	r.lm.share["store"] += appendTime
	r.lm.share["engine"] += d - appendTime
	r.rows += float64(len(rows) / dim)
	return d, r.maybeCheckpoint(req)
}

func (l *timedLog) spentOrZero() time.Duration {
	if l == nil {
		return 0
	}
	return l.spent
}

// maybeCheckpoint cuts a checkpoint once the log reaches the next cut
// the daemon checkpointed at, as projfreqd's checkpoint loop does
// (engine.CheckpointState, then store.WriteCheckpoint). The daemon's
// loop runs beside the requests and stalls only the few that arrive
// while it quiesces the workers, so its time is reported as
// store.checkpoint_ms and not charged to any request's share.
func (r *replayer) maybeCheckpoint(req int) error {
	if r.wal == nil || len(r.ckpts) == 0 || r.wal.LSN() < r.ckpts[0] {
		return nil
	}
	r.ckpts = r.ckpts[1:]
	var err error
	r.lm.timed(req, 0, "store.checkpoint", func() {
		var cs engine.CheckpointState
		if cs, err = r.eng.CheckpointState(); err == nil {
			err = r.wal.WriteCheckpoint(&store.Checkpoint{LSN: cs.LSN, Next: cs.Next, Rows: cs.Rows, Absorbs: uint64(cs.Absorbs), Shards: cs.Shards})
		}
	})
	return err
}

// barrier replays a strict read that waits for the shard workers (the
// /v1/stats read after a sketch write, or a query's epoch refresh).
func (r *replayer) barrier(req, parent int) (time.Duration, core.Summary, error) {
	var snap core.Summary
	var err error
	d, _ := r.lm.timed(req, parent, "engine.flush", func() { snap, err = r.eng.Flush() })
	if err != nil {
		return 0, nil, err
	}
	if _, info, err := r.eng.SnapshotInfo(); err == nil && info.Seq != r.lastSeq {
		r.lastSeq = info.Seq
		r.lm.total["engine.epoch_rebuild"] += d
		r.lm.count["engine.epoch_rebuild"]++
	}
	r.lm.share["engine"] += d
	return d, snap, nil
}

// query replays one query batch: the strict epoch refresh, the
// engine's planned batch evaluation, then — outside that span, one
// query at a time — planning and evaluation again so their costs can
// be split out of the engine span.
func (r *replayer) query(req int, qs []query) (time.Duration, error) {
	fd, snap, err := r.barrier(req, 0)
	if err != nil {
		return 0, err
	}
	eqs := make([]engine.Query, len(qs))
	for i, q := range qs {
		if eqs[i], err = toEngineQuery(q); err != nil {
			return 0, err
		}
	}
	var results []engine.Result
	qd, id := r.lm.timed(req, 0, "engine.query", func() { results, _ = r.eng.QueryBatchInfo(eqs) })
	for _, res := range results {
		if res.Err != nil && !errors.Is(res.Err, core.ErrUnsupported) {
			return 0, res.Err
		}
		r.queries++
		if res.Cached {
			r.cached++
		}
	}
	reg, ok := snap.(*registry.Registry)
	if !ok {
		return 0, fmt.Errorf("snapshot is %T, not a registry", snap)
	}
	var plan, eval, vec time.Duration
	for _, q := range eqs {
		p, e, v := r.detail(req, id, reg, q)
		plan, eval, vec = plan+p, eval+e, vec+v
	}
	// Evaluation inside QueryBatchInfo runs on parallel workers, so the
	// one-at-a-time details can add up to more than the engine span;
	// scale them into it.
	scale := 1.0
	if plan+eval > qd {
		scale = float64(qd) / float64(plan+eval)
	}
	sc := func(d time.Duration) time.Duration { return time.Duration(float64(d) * scale) }
	if vec > eval {
		vec = eval // measured separately; the vector build is part of evaluation
	}
	r.lm.share["registry"] += sc(plan)
	r.lm.share["freq"] += sc(vec)
	r.lm.share["core"] += sc(eval - vec)
	r.lm.share["engine"] += qd - sc(plan) - sc(eval)
	return fd + qd, nil
}

// detail plans one query and evaluates it on its target, timing the
// registry plan, the summary's evaluation, and — on an exact target —
// the frequency-vector build inside it.
func (r *replayer) detail(req, parent int, reg *registry.Registry, q engine.Query) (plan, eval, vec time.Duration) {
	const planReps = 1000
	var t registry.Target
	t0 := time.Now()
	for i := 0; i < planReps; i++ {
		t = reg.Plan(q.Cols)
	}
	plan = time.Since(t0) / planReps
	r.lm.total["registry.plan"] += plan
	r.lm.count["registry.plan"]++
	r.lm.count["registry.route."+t.Match.String()]++
	target := t.Summary
	if _, err := evaluate(target, q); errors.Is(err, core.ErrUnsupported) {
		target = reg.Full()
	}
	class := q.Kind.String()
	eval, _ = r.lm.timed(req, parent, "core.eval."+class, func() { _, _ = evaluate(target, q) })
	if ex, ok := target.(*core.Exact); ok {
		r.lm.total["core.exact.eval."+class] += eval
		r.lm.count["core.exact.eval."+class]++
		var fv interface{ Support() int64 }
		vec, _ = r.lm.timed(req, parent, "freq.vector", func() { fv = ex.Vector(q.Cols) })
		r.lm.values["freq.distinct_keys.sum"] += float64(fv.Support())
	}
	return plan, eval, vec
}

// evaluate answers one query on one summary.
func evaluate(s core.Summary, q engine.Query) (float64, error) {
	switch q.Kind {
	case engine.KindF0:
		if a, ok := s.(interface {
			F0(words.ColumnSet) (float64, error)
		}); ok {
			return a.F0(q.Cols)
		}
	case engine.KindFp:
		if a, ok := s.(interface {
			Fp(words.ColumnSet, float64) (float64, error)
		}); ok {
			return a.Fp(q.Cols, q.P)
		}
	case engine.KindFrequency:
		if a, ok := s.(interface {
			Frequency(words.ColumnSet, words.Word) (float64, error)
		}); ok {
			return a.Frequency(q.Cols, q.Pattern)
		}
	case engine.KindHeavyHitters:
		if a, ok := s.(interface {
			HeavyHitters(words.ColumnSet, float64, float64) ([]core.HeavyHitter, error)
		}); ok {
			hits, err := a.HeavyHitters(q.Cols, q.P, q.Phi)
			return float64(len(hits)), err
		}
	}
	return 0, core.ErrUnsupported
}

// finish turns a replayer's totals into its per-layer metrics.
func (r *replayer) finish(snapshotBlob []byte) error {
	lm := r.lm
	v := lm.values
	v["engine.observe_ns_per_row"] = lm.perRowNS("engine.observe", r.rows) - lm.perRowNS("store.append", r.rows)
	v["engine.flush_ms"] = lm.meanMS("engine.flush")
	v["engine.epoch_rebuild_ms"] = lm.meanMS("engine.epoch_rebuild")
	v["engine.epoch_rebuilds"] = lm.count["engine.epoch_rebuild"]
	v["engine.query_eval_ms"] = lm.meanMS("engine.query")
	if r.queries > 0 {
		v["engine.cache_hit_ratio"] = r.cached / r.queries
	}
	if r.log != nil {
		v["store.append_ns_per_row"] = lm.perRowNS("store.append", r.rows)
		v["store.checkpoint_ms"] = lm.meanMS("store.checkpoint")
	}
	plans := lm.count["registry.plan"]
	if plans > 0 {
		v["registry.plan_ns_per_query"] = float64(lm.total["registry.plan"].Nanoseconds()) / plans
		for _, m := range []string{"exact", "covering", "full"} {
			v["registry.route_share."+m] = lm.count["registry.route."+m] / plans
		}
	}
	for _, class := range []string{"f0", "fp", "freq", "hh"} {
		v["core.exact.eval_ms."+class] = lm.meanMS("core.exact.eval." + class)
	}
	v["freq.vector_ms"] = lm.meanMS("freq.vector")
	if n := lm.count["freq.vector"]; n > 0 {
		v["freq.distinct_keys"] = v["freq.distinct_keys.sum"] / n
	}
	delete(v, "freq.distinct_keys.sum")
	return measureCodec(lm, snapshotBlob)
}

// measureCodec times decoding the served summary blob and re-encoding
// the decoded summary.
func measureCodec(lm *layers, blob []byte) error {
	if len(blob) == 0 {
		return nil
	}
	var sum core.Summary
	var err error
	d, _ := lm.timed(0, 0, "core.unmarshal", func() { sum, err = core.UnmarshalSummary(blob) })
	if err != nil {
		return fmt.Errorf("decoding the served summary: %w", err)
	}
	lm.values["core.unmarshal_ms"] = ms(d)
	var out []byte
	d, _ = lm.timed(0, 0, "core.marshal", func() { out, err = core.MarshalSummary(sum) })
	if err != nil {
		return err
	}
	lm.values["core.marshal_ms"] = ms(d)
	lm.values["core.marshal_bytes"] = float64(len(out))
	return nil
}

// summaryObserveCost times one fresh summary of kind observing rows,
// as core.<kind>.observe_ns_per_row.
func summaryObserveCost(lm *layers, kind string, batches [][]uint16) error {
	s, err := standardFactory(kind)(0)
	if err != nil {
		return err
	}
	bo := s.(core.BatchObserver)
	rows := 0
	d, _ := lm.timed(0, 0, "core."+kind+".observe", func() {
		for _, b := range batches {
			bo.ObserveBatch(batchOf(b))
			rows += len(b) / dim
		}
	})
	lm.values["core."+kind+".observe_ns_per_row"] = float64(d.Nanoseconds()) / float64(rows)
	return nil
}

// attributeDirect charges each client request's remainder — its span
// minus the replayed in-process time — to the daemon's HTTP layer.
// That remainder is an estimate: it also holds loopback transport and
// the load generator's own send and receive.
func attributeDirect(lm *layers, c call, replayed time.Duration) time.Duration {
	lm.e2e += c.dur()
	self := c.dur() - replayed
	if self < 0 {
		self = 0
	}
	lm.share["projfreqd"] += self
	return self
}

// --- per-workload replays --------------------------------------------

func replayIngestExact(e *env, in *inputs, lg *trialLog, lm *layers) error {
	dir, err := e.trialDir()
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	wal, err := store.Open(store.Options{Dir: filepath.Join(dir, "data"), Dim: dim, Alphabet: alphabet})
	if err != nil {
		return err
	}
	defer wal.Close()
	tl := &timedLog{st: wal}
	eng, err := newEngine("exact", tl)
	if err != nil {
		return err
	}
	defer eng.Close()
	r := &replayer{lm: lm, eng: eng, log: tl, wal: wal, ckpts: lg.checkpoints}
	var obsSelf time.Duration
	var reqBytes, rows float64
	var querySelf time.Duration
	var queries float64
	var logBytes int64
	for i, o := range lg.ops {
		switch o.kind {
		case "observe":
			before := wal.Stats().LogBytes
			d, err := r.observe(i+1, 0, o.rows)
			if err != nil {
				return err
			}
			if grown := wal.Stats().LogBytes - before; grown > 0 {
				logBytes += grown
			}
			obsSelf += attributeDirect(lm, o.c, d)
			reqBytes += float64(o.c.reqBytes)
			rows += ingestBatchRows
		case "barrier":
			d, _, err := r.barrier(i+1, 0)
			if err != nil {
				return err
			}
			attributeDirect(lm, o.c, d)
		case "query":
			d, err := r.query(i+1, o.queries)
			if err != nil {
				return err
			}
			querySelf += attributeDirect(lm, o.c, d)
			queries++
		}
	}
	v := lm.values
	v["projfreqd.observe_self_us_per_row"] = float64(obsSelf.Microseconds()) / rows
	v["projfreqd.observe_request_bytes_per_row"] = reqBytes / rows
	if queries > 0 {
		v["projfreqd.query_self_ms"] = ms(querySelf) / queries
	}
	v["store.log_bytes_per_row"] = float64(logBytes) / rows
	v["store.checkpoints"] = float64(len(lg.checkpoints))
	if err := summaryObserveCost(lm, "exact", in.batches); err != nil {
		return err
	}
	return r.finish(lg.blob)
}

func replayMixed(e *env, in *inputs, lg *trialLog, lm *layers) error {
	mi := in.mixed
	eng, err := newEngine("exact", nil)
	if err != nil {
		return err
	}
	defer eng.Close()
	for _, sub := range []struct {
		cols []int
		kind string
	}{{mi.mirror, "mirror"}, {mi.registered, "registered"}} {
		c, err := words.NewColumnSet(dim, sub.cols...)
		if err != nil {
			return err
		}
		if err := eng.RegisterSubspace(c, subspaceFactory("exact", c, sub.kind)); err != nil {
			return err
		}
	}
	for _, rows := range mi.preloadRows {
		eng.ObserveBatch(batchOf(rows))
	}
	r := &replayer{lm: lm, eng: eng}
	if _, _, err := r.barrier(0, 0); err != nil {
		return err
	}
	lm.total, lm.count, lm.share = map[string]time.Duration{}, map[string]float64{}, map[string]time.Duration{}
	ops := append([]op(nil), lg.ops...)
	sort.SliceStable(ops, func(i, j int) bool { return ops[i].c.start.Before(ops[j].c.start) })
	var obsSelf, querySelf time.Duration
	var rows, reqBytes, queries float64
	for i, o := range ops {
		switch o.kind {
		case "observe":
			d, err := r.observe(i+1, 0, o.rows)
			if err != nil {
				return err
			}
			obsSelf += attributeDirect(lm, o.c, d)
			rows += float64(len(o.rows) / dim)
			reqBytes += float64(o.c.reqBytes)
		case "query":
			d, err := r.query(i+1, o.queries)
			if err != nil {
				return err
			}
			querySelf += attributeDirect(lm, o.c, d)
			queries++
		}
	}
	v := lm.values
	v["projfreqd.observe_self_us_per_row"] = float64(obsSelf.Microseconds()) / rows
	v["projfreqd.observe_request_bytes_per_row"] = reqBytes / rows
	v["projfreqd.query_self_ms"] = ms(querySelf) / queries
	var batches [][]uint16
	batches = append(append(batches, mi.preloadRows...), mi.writes...)
	if err := summaryObserveCost(lm, "exact", batches); err != nil {
		return err
	}
	return r.finish(lg.blob)
}

func replaySketch(e *env, in *inputs, lg *trialLog, lm *layers) error {
	si := in.sketch
	if err := summaryObserveCost(lm, "sample", si.sampleRows[:1]); err != nil {
		return err
	}
	if err := summaryObserveCost(lm, "net", si.netRows[:1]); err != nil {
		return err
	}
	kinds := []string{"sample", "net"}
	var rs []*replayer
	for _, kind := range kinds {
		eng, err := newEngine(kind, nil)
		if err != nil {
			return err
		}
		defer eng.Close()
		rs = append(rs, &replayer{lm: lm, eng: eng})
	}
	var obsSelf, querySelf time.Duration
	var rows, reqBytes, queries float64
	for i := 0; i < len(lg.ops); i++ {
		o := lg.ops[i]
		r := rs[o.target]
		switch o.kind {
		case "observe":
			// A write and its barrier are one operation.
			b := lg.ops[i+1]
			d, err := r.observe(i+1, 0, o.rows)
			if err != nil {
				return err
			}
			fd, _, err := r.barrier(i+1, 0)
			if err != nil {
				return err
			}
			// The barrier waits for the shard workers to apply the rows:
			// that wait is the summaries' own update work, which runs
			// on as many shards as the write had chunks.
			n := len(o.rows) / dim
			par := (n + engineChunkRows - 1) / engineChunkRows
			if shards := r.eng.NumShards(); par > shards {
				par = shards
			}
			work := time.Duration(lm.values["core."+kinds[o.target]+".observe_ns_per_row"] * float64(n) / float64(par))
			if work > fd {
				work = fd
			}
			lm.share["engine"] -= work
			lm.share["core"] += work
			pair := call{start: o.c.start, end: b.c.end, reqBytes: o.c.reqBytes}
			obsSelf += attributeDirect(lm, pair, d+fd)
			rows += float64(len(o.rows) / dim)
			reqBytes += float64(o.c.reqBytes)
			i++
		case "query":
			d, err := r.query(i+1, o.queries)
			if err != nil {
				return err
			}
			querySelf += attributeDirect(lm, o.c, d)
			queries++
		}
	}
	v := lm.values
	v["projfreqd.observe_self_us_per_row"] = float64(obsSelf.Microseconds()) / rows
	v["projfreqd.observe_request_bytes_per_row"] = reqBytes / rows
	v["projfreqd.query_self_ms"] = ms(querySelf) / queries
	// Both daemons' engine totals are pooled; the marshal figures are
	// the net daemon's summary, the larger of the two.
	snap, err := rs[1].eng.Flush()
	if err != nil {
		return err
	}
	blob, err := core.MarshalSummary(snap)
	if err != nil {
		return err
	}
	r := &replayer{lm: lm, eng: rs[0].eng, rows: rs[0].rows + rs[1].rows, queries: rs[0].queries + rs[1].queries, cached: rs[0].cached + rs[1].cached}
	return r.finish(blob)
}

func replayRouterExact(e *env, in *inputs, lg *trialLog, lm *layers) error {
	ring, err := cluster.NewRing(lg.ringNodes)
	if err != nil {
		return err
	}
	var nodes []*replayer
	for range lg.ringNodes {
		eng, err := newEngine("exact", nil)
		if err != nil {
			return err
		}
		defer eng.Close()
		nodes = append(nodes, &replayer{lm: lm, eng: eng})
	}
	nodeOf := map[string]int{}
	for i, u := range lg.ringNodes {
		nodeOf[u] = i
	}
	// Proxy spans by hop.
	var toNode, toAgg, pulls []span
	for _, s := range lg.upstream {
		switch {
		case strings.HasPrefix(s.Name, "router->node"):
			toNode = append(toNode, s)
		case strings.HasPrefix(s.Name, "router->aggregator"):
			toAgg = append(toAgg, s)
		case strings.HasPrefix(s.Name, "aggregator->node"):
			pulls = append(pulls, s)
		}
	}
	within := func(c call, spans []span, prefix string) []span {
		var out []span
		for _, s := range spans {
			if !s.Start.Before(c.start) && !s.End.After(c.end) && strings.Contains(s.Name, prefix) {
				out = append(out, s)
			}
		}
		return out
	}
	var routerSelf, upstreamWall, routerQuerySelf, nodeSelf, aggSelf time.Duration
	var rows, fanout, observes, queries float64
	agg, err := newEngine("exact", nil)
	if err != nil {
		return err
	}
	defer agg.Close()
	ar := &replayer{lm: lm, eng: agg}
	absorbed := false
	for i, o := range lg.ops {
		root := span{Start: o.c.start, End: o.c.end}
		switch o.kind {
		case "observe":
			b := batchOf(o.rows)
			var parts map[string]*words.Batch
			pd, _ := lm.timed(i+1, 0, "cluster.partition", func() { parts = ring.PartitionBatch(b) })
			var slowest, all time.Duration
			for url, part := range parts {
				d, err := nodes[nodeOf[url]].observe(i+1, 0, part.Symbols())
				if err != nil {
					return err
				}
				all += d
				if d > slowest {
					slowest = d
				}
			}
			// The nodes ingest concurrently: only the slower one is on
			// the request's critical path.
			lm.share["engine"] -= all - slowest
			ups := within(o.c, toNode, "/v1/observe")
			wall := covered(root, ups)
			for _, s := range ups {
				fanout += float64(s.ReqBytes)
			}
			lm.e2e += o.c.dur()
			rself := selfTime(root, ups)
			self := rself - pd
			if self < 0 {
				self = 0
			}
			routerSelf += rself
			upstreamWall += wall
			lm.share["router"] += self
			lm.share["cluster"] += pd
			ns := wall - slowest
			if ns < 0 {
				ns = 0
			}
			nodeSelf += ns
			lm.share["projfreqd"] += ns
			rows += float64(b.Len())
			observes++
		case "query":
			if !absorbed {
				for j, blob := range lg.nodeBlobs {
					var sum core.Summary
					var err error
					_, _ = lm.timed(i+1, 0, "core.unmarshal.node", func() { sum, err = core.UnmarshalSummary(blob) })
					if err != nil {
						return err
					}
					_, _ = lm.timed(i+1, 0, "cluster.absorb", func() { err = agg.AbsorbSource(lg.ringNodes[j], sum) })
					if err != nil {
						return err
					}
				}
				absorbed = true
			}
			d, err := ar.query(i+1, o.queries)
			if err != nil {
				return err
			}
			ups := within(o.c, toAgg, "/v1/query")
			wall := covered(root, ups)
			lm.e2e += o.c.dur()
			lm.share["router"] += selfTime(root, ups)
			routerQuerySelf += selfTime(root, ups)
			self := wall - d
			if self < 0 {
				self = 0
			}
			lm.share["projfreqd"] += self
			aggSelf += self
			queries++
		}
	}
	v := lm.values
	if observes > 0 {
		v["router.observe_self_ms"] = ms(routerSelf) / observes
		v["router.upstream_observe_ms"] = ms(upstreamWall) / observes
		v["projfreqd.observe_self_us_per_row"] = float64(nodeSelf.Microseconds()) / rows
	}
	if queries > 0 {
		v["router.query_self_ms"] = ms(routerQuerySelf) / queries
		v["projfreqd.query_self_ms"] = ms(aggSelf) / queries
	}
	v["router.fanout_bytes_per_row"] = fanout / rows
	v["projfreqd.observe_request_bytes_per_row"] = fanout / rows
	v["cluster.partition_ns_per_row"] = lm.perRowNS("cluster.partition", rows)
	v["cluster.absorb_ms"] = lm.meanMS("cluster.absorb")
	perSource := map[string]float64{}
	var changed, shipped float64
	for _, s := range pulls {
		perSource[strings.Fields(s.Name)[0]]++
		if s.Status == 200 {
			changed++
			shipped += float64(s.RespBytes)
		}
	}
	for _, n := range perSource {
		if n > v["cluster.pull_rounds"] {
			v["cluster.pull_rounds"] = n
		}
	}
	if len(pulls) > 0 {
		v["cluster.pull_changed_share"] = changed / float64(len(pulls))
	}
	v["cluster.ship_bytes"] = shipped
	if err := summaryObserveCost(lm, "exact", in.batches); err != nil {
		return err
	}
	// engine.observe_ns_per_row divides both nodes' observe time by
	// both nodes' rows.
	for _, n := range nodes {
		ar.rows += n.rows
	}
	return ar.finish(lg.blob)
}

package main

import (
	"fmt"
	"math/rand/v2"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
)

// Daemon configuration shared by every workload: -d 12 -q 2 and
// otherwise the daemon defaults, which the oracles mirror.
const (
	defaultEps   = 0.05
	defaultDelta = 0.01
	defaultAlpha = 0.3
	defaultSeed  = 1
)

var shapeArgs = []string{"-d", fmt.Sprint(dim), "-q", fmt.Sprint(alphabet)}

// workload is one traffic mix. prepare builds the seeded inputs and
// the oracle's expected answers (outside any timed window); trial
// starts fresh daemons, drives one repeat of the inputs, verifies the
// answers and stops every process; replay re-runs a traced trial's
// requests in-process for the per-layer numbers.
type workload struct {
	name      string
	why       string
	minTrials int
	prepare   func(e *env) (*inputs, error)
	trial     func(e *env, in *inputs, m *measure, tr *tracer) error
	replay    func(e *env, in *inputs, lg *trialLog, lm *layers) error
}

// workloadList holds the workloads in BENCHMARK.json order.
var workloadList = []*workload{
	{
		name:      "ingest-exact",
		why:       "durable exact daemon fed 4096-row batches; observe decode, WAL append, checkpoints and the exact table append carry the work, queries barely run",
		minTrials: 3,
		prepare: func(e *env) (*inputs, error) {
			return prepareUniform(e, ingestDistinct, ingestStreamLen, exactTailBatches)
		},
		trial:  ingestExactTrial,
		replay: replayIngestExact,
	},
	{
		name:      "mixed-exact",
		why:       "open-loop 256-row writer beside a paced reader under strict epochs; epoch rebuild, planning, exact evaluation and encoding dominate",
		minTrials: 3,
		prepare:   prepareMixed,
		trial:     mixedExactTrial,
		replay:    replayMixed,
	},
	{
		name:      "router-exact",
		why:       "router in front of two exact nodes and an aggregator; the router hop and anti-entropy shipping dominate, and against ingest-exact it isolates the router",
		minTrials: 2,
		prepare: func(e *env) (*inputs, error) {
			return prepareUniform(e, routerDistinct, routerStreamLen, routerTailBatches)
		},
		trial:  routerExactTrial,
		replay: replayRouterExact,
	},
	{
		name:      "ingest-sketch",
		why:       "sample and net daemons fed in turn; their per-row summary updates dominate, and no other workload serves these kinds",
		minTrials: 3,
		prepare:   prepareSketch,
		trial:     ingestSketchTrial,
		replay:    replaySketch,
	},
}

// inputs are one run's generated inputs and expected answers.
type inputs struct {
	props inputProps

	// The observe stream: batches[stream[i]] is the i-th batch sent
	// (bodies holds the encoded form).
	batches [][]uint16
	bodies  [][]byte
	stream  []int

	// tail is the closing query batches and want their answers.
	tail [][]query
	want [][]resultJSON

	// Workload-specific state.
	mixed  *mixedInputs
	sketch *sketchInputs
}

// op is one request of a trial, kept for the traced replay.
type op struct {
	kind    string // "observe", "query" or "barrier"
	target  int    // which daemon, for workloads that drive two
	rows    []uint16
	queries []query
	c       call
}

// trialLog is one trial's request sequence and what the processes
// reported about it.
type trialLog struct {
	ops         []op
	checkpoints []uint64 // log cuts of the automatic checkpoints the daemon logged
	ringNodes   []string // ingest URLs the router hashed rows over
	nodeBlobs   [][]byte // each ingest node's final summary
	blob        []byte   // the served summary at the end of the trial
	upstream    []span   // timing-proxy spans between processes (traced router-exact)
	mu          sync.Mutex
}

func (lg *trialLog) add(o op) {
	if lg == nil {
		return
	}
	lg.mu.Lock()
	lg.ops = append(lg.ops, o)
	lg.mu.Unlock()
}

// startDaemon spawns one projfreqd and notes its GOMAXPROCS.
func (e *env) startDaemon(name string, args ...string) (*proc, error) {
	p, err := spawn(e.dir, name, filepath.Join(e.bin, "projfreqd"), "/v1/stats", append(append([]string{}, shapeArgs...), args...)...)
	if err == nil {
		e.gmp[name] = p.gomaxprocs()
	}
	return p, err
}

// trialDir is a fresh scratch directory for one trial's data.
func (e *env) trialDir() (string, error) {
	return os.MkdirTemp(e.dir, "trial-")
}

// checkpointLSNs lists the log cuts of the automatic checkpoints a
// daemon logged, in order.
func checkpointLSNs(p *proc) []uint64 {
	b, err := os.ReadFile(p.log.Name())
	if err != nil {
		return nil
	}
	var out []uint64
	for _, line := range strings.Split(string(b), "\n") {
		if _, rest, ok := strings.Cut(line, "projfreqd: checkpoint at LSN "); ok {
			var lsn uint64
			if _, err := fmt.Sscan(rest, &lsn); err == nil {
				out = append(out, lsn)
			}
		}
	}
	return out
}

// --- ingest-exact --------------------------------------------------

const (
	ingestBatchRows   = 4096
	ingestDistinct    = 64
	ingestStreamLen   = 512 // 2^21 rows: past the default 2^20-row checkpoint trigger
	exactTailBatches  = 3
	routerTailBatches = 6
	routerDistinct    = 16
	routerStreamLen   = 256 // 2^20 rows through the router
	ingestStartOffset = 500 * time.Millisecond
	convergeTimeout   = 60 * time.Second
	convergePollEvery = 20 * time.Millisecond
)

// prepareUniform draws distinct uniform batches, a stream cycling
// through them, the closing query batches, and their exact answers.
func prepareUniform(e *env, distinct, streamLen, tailBatches int) (*inputs, error) {
	r := newRand(e.seed, 1)
	in := &inputs{}
	for i := 0; i < distinct; i++ {
		rows := uniformRows(r, ingestBatchRows)
		in.batches = append(in.batches, rows)
		in.bodies = append(in.bodies, encodeObserve(rows))
	}
	for i := 0; i < streamLen; i++ {
		in.stream = append(in.stream, i%distinct)
	}
	in.props = measureInput(in.batches)
	in.props.distinctRowShare *= float64(distinct) / float64(streamLen)

	qr := newRand(e.seed, 2)
	ex, err := core.NewExact(dim, alphabet)
	if err != nil {
		return nil, err
	}
	for _, i := range in.stream {
		ex.ObserveBatch(batchOf(in.batches[i]))
	}
	weights := make([]int64, distinct)
	for _, i := range in.stream {
		weights[i]++
	}
	for i := 0; i < tailBatches; i++ {
		qs := mixedBatch(qr, i)
		in.tail = append(in.tail, qs)
		want, err := exactAnswers(ex, qs)
		if err != nil {
			return nil, err
		}
		if err := crossCheck(qs, want, countAnswers(in.batches, weights, qs)); err != nil {
			return nil, err
		}
		in.want = append(in.want, want)
	}
	return in, nil
}

// ingestExactTrial: one durable exact daemon, a closed-loop writer of
// 4096-row batches, then the verified query tail.
func ingestExactTrial(e *env, in *inputs, m *measure, tr *tracer) error {
	dir, err := e.trialDir()
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	t0 := time.Now()
	p, err := e.startDaemon("projfreqd", "-summary", "exact", "-data-dir", filepath.Join(dir, "data"))
	if err != nil {
		return err
	}
	setup := time.Since(t0)
	defer p.stop()
	lg := newTrialLog(tr)
	c := newClient(tr)
	defer c.close()
	// The daemon's checkpoint loop ticks once a second from start-up
	// and checkpoints once 2^20 rows have arrived. Starting the stream
	// half a second in puts that tick in the middle of the stream, not
	// on the boundary between the stream and the query tail.
	time.Sleep(time.Until(t0.Add(ingestStartOffset)))
	if err := writeStream(c, p.URL(), in, m, lg); err != nil {
		return err
	}
	// Let the checkpoint finish, then take the first strict read — it
	// pays the epoch rebuild over the whole table — outside the tail,
	// so every tail batch measures planning and evaluation alone.
	if err := awaitCheckpoint(c, p.URL()); err != nil {
		return err
	}
	bc, _, err := c.stats(p.URL())
	if err != nil {
		return err
	}
	lg.add(op{kind: "barrier", c: bc})
	if err := exactTail(c, p.URL(), in, m, lg); err != nil {
		return err
	}
	if len(m.summaryBytes) == 0 || lg != nil {
		blob, err := c.summary(p.URL())
		if err != nil {
			return err
		}
		m.summaryBytes = append(m.summaryBytes, float64(len(blob)))
		if lg != nil {
			lg.blob = blob
		}
	}
	m.cur().setup = setup.Seconds()
	p.stop()
	if lg != nil {
		lg.checkpoints = checkpointLSNs(p)
		m.last = lg
	}
	return nil
}

// writeStream sends the input stream from one closed-loop writer and
// records it as the trial's write stream.
func writeStream(c *client, base string, in *inputs, m *measure, lg *trialLog) error {
	begin := time.Now()
	for _, i := range in.stream {
		cl, err := c.observe(base, in.bodies[i], ingestBatchRows)
		if err != nil {
			return err
		}
		m.observed(cl, ingestBatchRows)
		lg.add(op{kind: "observe", rows: in.batches[i], c: cl})
	}
	m.addStream(len(in.stream)*ingestBatchRows, time.Since(begin))
	return nil
}

// awaitCheckpoint waits until the durable daemon has written its first
// checkpoint.
func awaitCheckpoint(c *client, base string) error {
	deadline := time.Now().Add(convergeTimeout)
	for {
		_, st, err := c.stats(base)
		if err != nil {
			return err
		}
		if st.Store != nil && st.Store.Checkpoints > 0 {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("no checkpoint within %v of %d rows", convergeTimeout, st.Rows)
		}
		time.Sleep(convergePollEvery)
	}
}

// exactTail sends the closing query batches and checks every answer
// against the exact oracle.
func exactTail(c *client, base string, in *inputs, m *measure, lg *trialLog) error {
	for j, qs := range in.tail {
		cl, qr, err := c.queryBatch(base, qs)
		if err != nil {
			return err
		}
		if err := checkExactBatch(qs, qr.Results, in.want[j]); err != nil {
			return err
		}
		m.queried(cl)
		lg.add(op{kind: "query", queries: qs, c: cl})
	}
	return nil
}

func newTrialLog(tr *tracer) *trialLog {
	if tr == nil {
		return nil
	}
	return &trialLog{}
}

// routerExactTrial: projfreq-router in front of two in-memory exact
// ingest nodes and one aggregator pulling at its default interval.
// A closed-loop writer streams 4096-row batches through the router;
// after the aggregator has converged the query tail runs through the
// router.
func routerExactTrial(e *env, in *inputs, m *measure, tr *tracer) error {
	var procs []*proc
	var proxies []*timingProxy
	defer func() {
		stopAll(procs)
		for _, px := range proxies {
			px.close()
		}
	}()
	// hop returns the URL one process uses to reach another: the
	// target itself, or a timing proxy in front of it in a traced run.
	hop := func(name, target string) (string, error) {
		if tr == nil {
			return target, nil
		}
		px, err := startProxy(name, target, tr)
		if err != nil {
			return "", err
		}
		proxies = append(proxies, px)
		return px.URL(), nil
	}
	t0 := time.Now()
	var nodes, routerSide, aggSide []string
	for i := 1; i <= 2; i++ {
		p, err := e.startDaemon(fmt.Sprintf("node%d", i), "-summary", "exact")
		if err != nil {
			return err
		}
		procs = append(procs, p)
		nodes = append(nodes, p.URL())
		rs, err := hop(fmt.Sprintf("router->node%d", i), p.URL())
		if err != nil {
			return err
		}
		as, err := hop(fmt.Sprintf("aggregator->node%d", i), p.URL())
		if err != nil {
			return err
		}
		routerSide, aggSide = append(routerSide, rs), append(aggSide, as)
	}
	aggStart := time.Now()
	agg, err := e.startDaemon("aggregator", "-summary", "exact", "-pull-from", strings.Join(aggSide, ","))
	if err != nil {
		return err
	}
	procs = append(procs, agg)
	aggURL, err := hop("router->aggregator", agg.URL())
	if err != nil {
		return err
	}
	router, err := spawn(e.dir, "router", filepath.Join(e.bin, "projfreq-router"), "/v1/router/stats",
		"-ingest", strings.Join(routerSide, ","), "-aggregators", aggURL)
	if err != nil {
		return err
	}
	e.gmp["router"] = router.gomaxprocs()
	procs = append(procs, router)
	setup := time.Since(t0)

	lg := newTrialLog(tr)
	c := newClient(tr)
	defer c.close()
	// The aggregator pulls at start-up and then once a second. Starting
	// the stream half a second in puts every later pull at the same
	// point of each trial's stream, half-way between two seconds, not
	// on the stream's start or end.
	time.Sleep(time.Until(aggStart.Add(ingestStartOffset)))
	if err := writeStream(c, router.URL(), in, m, lg); err != nil {
		return err
	}
	want := int64(len(in.stream) * ingestBatchRows)
	if err := awaitMerged(c, router.URL(), want); err != nil {
		return err
	}
	if err := exactTail(c, router.URL(), in, m, lg); err != nil {
		return err
	}
	if len(m.summaryBytes) == 0 || lg != nil {
		blob, err := c.summary(router.URL())
		if err != nil {
			return err
		}
		m.summaryBytes = append(m.summaryBytes, float64(len(blob)))
		if lg != nil {
			lg.blob = blob
			lg.ringNodes = routerSide
			for _, n := range nodes {
				b, err := c.summary(n)
				if err != nil {
					return err
				}
				lg.nodeBlobs = append(lg.nodeBlobs, b)
			}
		}
	}
	m.cur().setup = setup.Seconds()
	if lg != nil {
		for _, s := range tr.snapshot() {
			if s.Start.After(t0) && strings.Contains(s.Name, "->") {
				lg.upstream = append(lg.upstream, s)
			}
		}
		m.last = lg
	}
	return nil
}

// awaitMerged polls the aggregator (through the router) until its
// epoch serves want rows.
func awaitMerged(c *client, base string, want int64) error {
	probe := []query{{Kind: "f0", Cols: []int{0}}}
	deadline := time.Now().Add(convergeTimeout)
	for {
		_, qr, err := c.queryBatch(base, probe)
		if err == nil && qr.Epoch != nil && qr.Epoch.MergedRows == want {
			return nil
		}
		if qr.Epoch != nil && qr.Epoch.MergedRows > want {
			return fmt.Errorf("aggregator serves %d rows, more than the %d written", qr.Epoch.MergedRows, want)
		}
		if time.Now().After(deadline) {
			got := int64(-1)
			if qr.Epoch != nil {
				got = qr.Epoch.MergedRows
			}
			return fmt.Errorf("aggregator did not converge to %d rows in %v (serves %d, last error %v)", want, convergeTimeout, got, err)
		}
		time.Sleep(convergePollEvery)
	}
}

// --- mixed-exact ---------------------------------------------------

const (
	mixedPreloadBatches = 64 // 2^18 rows preloaded
	mixedWriteRows      = 256
	mixedWritePeriod    = 20 * time.Millisecond
	mixedWindow         = 2 * time.Second
	mixedReadPeriod     = 200 * time.Millisecond
	mixedReaderPool     = 64
	mixedVerified       = 4 // reader answers verified per trial, besides the final batch
)

type mixedInputs struct {
	mirror, registered []int
	writes             [][]uint16 // the open-loop writer's batches, in order
	writeBodies        [][]byte
	preloadRows        [][]uint16
	preloadBodies      [][]byte // sent during set-up
	reads              [][]query
	final              []query
	finalWant          []resultJSON
	vr                 *rand.Rand
}

func prepareMixed(e *env) (*inputs, error) {
	r := newRand(e.seed, 1)
	qr := newRand(e.seed, 2)
	mi := &mixedInputs{mirror: randomCols(qr, 8), registered: randomCols(qr, 4), vr: newRand(e.seed, 3)}
	in := &inputs{mixed: mi}
	var all [][]uint16
	for i := 0; i < mixedPreloadBatches; i++ {
		rows := zipfRows(r, ingestBatchRows)
		mi.preloadRows = append(mi.preloadRows, rows)
		mi.preloadBodies = append(mi.preloadBodies, encodeObserve(rows))
		all = append(all, rows)
	}
	n := int(mixedWindow / mixedWritePeriod)
	for i := 0; i < n; i++ {
		rows := zipfRows(r, mixedWriteRows)
		mi.writes = append(mi.writes, rows)
		mi.writeBodies = append(mi.writeBodies, encodeObserve(rows))
		all = append(all, rows)
	}
	in.props = measureInput(all)
	for i := 0; i < mixedReaderPool; i++ {
		mi.reads = append(mi.reads, mixedReadBatch(qr, mi))
	}
	mi.final = mixedReadBatch(qr, mi)
	ex, err := exactPrefix(mi, len(mi.writes))
	if err != nil {
		return nil, err
	}
	if mi.finalWant, err = exactAnswers(ex, mi.final); err != nil {
		return nil, err
	}
	// The registered route's F0 is an estimate, so the cross-check
	// covers the exact routes only.
	counted := countAnswers(all, ones(len(all)), mi.final)
	if err := crossCheck(mi.final[1:], mi.finalWant[1:], counted[1:]); err != nil {
		return nil, err
	}
	return in, nil
}

func ones(n int) []int64 {
	w := make([]int64, n)
	for i := range w {
		w[i] = 1
	}
	return w
}

// mixedReadBatch is one reader batch whose four queries take the
// planner's three routes: F0 on the "registered" subspace (exact
// match), F2 on the mirror subspace (exact match), a point frequency
// on two of the mirror's columns (covering), and heavy hitters on a
// set no subspace covers (full).
func mixedReadBatch(r *rand.Rand, mi *mixedInputs) []query {
	sub := append([]int(nil), mi.mirror...)
	r.Shuffle(len(sub), func(i, j int) { sub[i], sub[j] = sub[j], sub[i] })
	cover := slices.Sorted(slices.Values(sub[:2]))
	var full []int
	for {
		full = randomCols(r, 6)
		if !subsetOf(full, mi.mirror) && !slices.Equal(full, mi.registered) {
			break
		}
	}
	return []query{
		makeQuery(r, "f0", mi.registered),
		makeQuery(r, "fp", mi.mirror),
		makeQuery(r, "freq", cover),
		makeQuery(r, "hh", full),
	}
}

// exactPrefix is the exact oracle over the preload plus the first k
// writer batches.
func exactPrefix(mi *mixedInputs, k int) (*core.Exact, error) {
	ex, err := core.NewExact(dim, alphabet)
	if err != nil {
		return nil, err
	}
	for _, rows := range mi.preloadRows {
		ex.ObserveBatch(batchOf(rows))
	}
	for _, rows := range mi.writes[:k] {
		ex.ObserveBatch(batchOf(rows))
	}
	return ex, nil
}

// readSample is one reader answer kept for verification. The epoch
// reports the rows accepted at its cut, a lower bound: its merge may
// also hold a write that was routed but not yet acknowledged. So the
// answer must match the prefix of some k writer batches with
// lo ≤ k ≤ hi, hi counting every write that had started before the
// answer arrived.
type readSample struct {
	lo, hi  int
	queries []query
	got     []resultJSON
}

// mixedExactTrial: one in-memory exact daemon with two subspaces and a
// Zipf preload; an open-loop writer sends a 256-row batch every 20ms
// (each timed from when it was due) while a closed-loop reader sends
// four-query batches.
func mixedExactTrial(e *env, in *inputs, m *measure, tr *tracer) error {
	mi := in.mixed
	t0 := time.Now()
	p, err := e.startDaemon("projfreqd", "-summary", "exact")
	if err != nil {
		return err
	}
	defer p.stop()
	setupClient := newClient(nil)
	defer setupClient.close()
	if err := setupClient.registerSubspace(p.URL(), mi.mirror, "mirror"); err != nil {
		return err
	}
	if err := setupClient.registerSubspace(p.URL(), mi.registered, "registered"); err != nil {
		return err
	}
	// The open-loop writer's wall time is set by its schedule, so the
	// trial's ingest rate is the closed-loop preload's.
	begin := time.Now()
	for _, body := range mi.preloadBodies {
		cl, err := setupClient.observe(p.URL(), body, ingestBatchRows)
		if err != nil {
			return err
		}
		m.addObserve(cl.dur(), ingestBatchRows, "")
	}
	m.addStream(mixedPreloadBatches*ingestBatchRows, time.Since(begin))
	if _, _, err := setupClient.stats(p.URL()); err != nil {
		return err
	}
	setup := time.Since(t0)

	lg := newTrialLog(tr)
	wc, rc := newClient(tr), newClient(tr)
	defer wc.close()
	defer rc.close()
	preloaded := int64(mixedPreloadBatches * ingestBatchRows)
	var acked atomic.Int64 // writer batches acknowledged
	var werr error
	var wg sync.WaitGroup
	done := make(chan struct{})
	type wsample struct {
		c            call
		fromDue, lag time.Duration
	}
	var writes []wsample
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(done)
		start := time.Now()
		for k, body := range mi.writeBodies {
			due := start.Add(time.Duration(k) * mixedWritePeriod)
			if d := time.Until(due); d > 0 {
				time.Sleep(d)
			}
			cl, err := wc.observe(p.URL(), body, mixedWriteRows)
			if err != nil {
				werr = err
				return
			}
			writes = append(writes, wsample{c: cl, fromDue: cl.end.Sub(due), lag: cl.start.Sub(due)})
			acked.Add(1)
			lg.add(op{kind: "observe", rows: mi.writes[k], c: cl})
		}
	}()
	var reads []readSample
	read := func(qs []query) error {
		before := acked.Load()
		cl, qr, err := rc.queryBatch(p.URL(), qs)
		if err != nil {
			return err
		}
		if qr.Epoch == nil {
			return fmt.Errorf("query: no epoch block")
		}
		// Strict reads: the answering epoch covers every row
		// acknowledged before the read was sent.
		k := int((qr.Epoch.Rows - preloaded) / mixedWriteRows)
		if int64(k) < before || qr.Epoch.Rows != preloaded+int64(k)*mixedWriteRows {
			return fmt.Errorf("stale or torn read: epoch rows %d, %d writer batches acknowledged before the read", qr.Epoch.Rows, before)
		}
		m.queried(cl)
		hi := int(acked.Load()) + 1
		if hi > len(mi.writes) {
			hi = len(mi.writes)
		}
		reads = append(reads, readSample{lo: k, hi: hi, queries: qs, got: qr.Results})
		lg.add(op{kind: "query", queries: qs, c: cl})
		return nil
	}
	// The reader waits for each answer and starts its next batch at
	// the next mixedReadPeriod tick, or at once when the answer came
	// late.
	var rerr error
	readStart := time.Now()
	for i := 0; rerr == nil; i++ {
		select {
		case <-done:
		case <-time.After(time.Until(readStart.Add(time.Duration(i) * mixedReadPeriod))):
			rerr = read(mi.reads[i%len(mi.reads)])
			continue
		}
		break
	}
	if rerr != nil {
		<-done
	}
	wg.Wait()
	if werr != nil {
		return werr
	}
	if rerr != nil {
		return rerr
	}
	for _, w := range writes {
		m.addObserve(w.c.dur(), mixedWriteRows, "")
		m.addLatency(w.fromDue)
		m.lag.add(w.lag)
	}
	// The closing batch sees every write.
	cl, qr, err := rc.queryBatch(p.URL(), mi.final)
	if err != nil {
		return err
	}
	if err := checkMixedBatch(mi.final, qr.Results, mi.finalWant); err != nil {
		return fmt.Errorf("closing batch: %w", err)
	}
	m.queried(cl)
	lg.add(op{kind: "query", queries: mi.final, c: cl})
	if len(m.summaryBytes) == 0 || lg != nil {
		blob, err := rc.summary(p.URL())
		if err != nil {
			return err
		}
		m.summaryBytes = append(m.summaryBytes, float64(len(blob)))
		if lg != nil {
			lg.blob = blob
		}
	}
	m.cur().setup = setup.Seconds()
	p.stop()
	if lg != nil {
		m.last = lg
	}
	return verifyReads(mi, reads)
}

// verifyReads checks a seeded choice of the reader's answers against
// the exact oracle at the prefix each answering epoch covered.
func verifyReads(mi *mixedInputs, reads []readSample) error {
	if len(reads) == 0 {
		return nil
	}
	picked := map[int]bool{}
	for len(picked) < mixedVerified && len(picked) < len(reads) {
		picked[mi.vr.IntN(len(reads))] = true
	}
	for i := range reads {
		if !picked[i] {
			continue
		}
		rs := reads[i]
		var err error
		for k := rs.lo; k <= rs.hi; k++ {
			var ex *core.Exact
			var want []resultJSON
			if ex, err = exactPrefix(mi, k); err != nil {
				return err
			}
			if want, err = exactAnswers(ex, rs.queries); err != nil {
				return err
			}
			if err = checkMixedBatch(rs.queries, rs.got, want); err == nil {
				break
			}
		}
		if err != nil {
			return fmt.Errorf("reader answer matches no prefix of %d..%d writer batches: %w", rs.lo, rs.hi, err)
		}
	}
	return nil
}

// --- ingest-sketch -------------------------------------------------

const (
	sketchRounds     = 4
	sampleBatchRows  = 4096
	netBatchRows     = 256
	sketchTailRounds = 4 // the first is a verified warm-up, not timed
	// sampleHHPhi is low enough that every key of two uniform binary
	// columns (a quarter of the rows each) lies above (φ+ε)n and must
	// be reported.
	sampleHHPhi = 0.1
)

type sketchInputs struct {
	sampleRows [][]uint16
	sampleBody [][]byte
	netRows    [][]uint16
	netBody    [][]byte
	// The query tail: per round one batch for each daemon.
	sampleTail, netTail [][]query
	sampleWant, netWant [][]resultJSON
	ex                  *core.Exact // ground truth of the sample daemon's rows
}

func prepareSketch(e *env) (*inputs, error) {
	r := newRand(e.seed, 1)
	qr := newRand(e.seed, 2)
	si := &sketchInputs{}
	in := &inputs{sketch: si}
	var all [][]uint16
	for i := 0; i < sketchRounds; i++ {
		rows := uniformRows(r, sampleBatchRows)
		si.sampleRows = append(si.sampleRows, rows)
		si.sampleBody = append(si.sampleBody, encodeObserve(rows))
		rows = uniformRows(r, netBatchRows)
		si.netRows = append(si.netRows, rows)
		si.netBody = append(si.netBody, encodeObserve(rows))
		all = append(all, si.sampleRows[i], rows)
	}
	in.props = measureInput(all)

	// Oracles: exact ground truth for the sample daemon, and one
	// unsharded Net with the daemon's configuration for the net daemon.
	ex, err := core.NewExact(dim, alphabet)
	if err != nil {
		return nil, err
	}
	for _, rows := range si.sampleRows {
		ex.ObserveBatch(batchOf(rows))
	}
	si.ex = ex
	netSum, err := standardFactory("net")(0)
	if err != nil {
		return nil, err
	}
	net := netSum.(*core.Net)
	for _, rows := range si.netRows {
		net.ObserveBatch(batchOf(rows))
	}
	for i := 0; i < sketchTailRounds; i++ {
		qs := []query{
			makeQuery(qr, "freq", randomCols(qr, 2)),
			makeQuery(qr, "freq", randomCols(qr, 4)),
			{Kind: "hh", Cols: randomCols(qr, 2), P: 1, Phi: sampleHHPhi},
		}
		want, err := exactAnswers(ex, qs)
		if err != nil {
			return nil, err
		}
		if err := crossCheck(qs, want, countAnswers(si.sampleRows, ones(len(si.sampleRows)), qs)); err != nil {
			return nil, err
		}
		si.sampleTail, si.sampleWant = append(si.sampleTail, qs), append(si.sampleWant, want)
		qs = []query{
			makeQuery(qr, "f0", randomCols(qr, 2)),
			makeQuery(qr, "f0", randomCols(qr, 8)),
			makeQuery(qr, "fp", randomCols(qr, 4)),
			makeQuery(qr, "fp", randomCols(qr, 12)),
		}
		if want, err = netAnswers(net, qs); err != nil {
			return nil, err
		}
		si.netTail, si.netWant = append(si.netTail, qs), append(si.netWant, want)
	}
	return in, nil
}

// ingestSketchTrial: one sample and one net daemon and a closed-loop
// writer that alternates between them, 4096 rows to sample then 256
// rows to net. The daemons hand observed rows to their shard workers
// asynchronously, so each write is followed by a strict /v1/stats read
// that returns only once the workers have absorbed the rows; a write
// and its barrier engage one daemon only. One round (both writes) is
// the operation whose latency is reported, and each kind's own rate
// comes from its own writes. The query tail likewise pairs one batch
// per daemon.
func ingestSketchTrial(e *env, in *inputs, m *measure, tr *tracer) error {
	si := in.sketch
	t0 := time.Now()
	sp, err := e.startDaemon("sample", "-summary", "sample")
	if err != nil {
		return err
	}
	defer sp.stop()
	np, err := e.startDaemon("net", "-summary", "net")
	if err != nil {
		return err
	}
	defer np.stop()
	setup := time.Since(t0)
	lg := newTrialLog(tr)
	c := newClient(tr)
	defer c.close()
	write := func(target int, base string, body []byte, rows []uint16, kind string) (call, error) {
		n := len(rows) / dim
		cl, err := c.observe(base, body, n)
		if err != nil {
			return cl, err
		}
		bc, _, err := c.stats(base)
		if err != nil {
			return bc, err
		}
		pair := call{start: cl.start, end: bc.end}
		m.addObserve(pair.dur(), n, kind)
		lg.add(op{kind: "observe", target: target, rows: rows, c: cl})
		lg.add(op{kind: "barrier", target: target, c: bc})
		return pair, nil
	}
	begin := time.Now()
	rows := 0
	for r := 0; r < sketchRounds; r++ {
		s, err := write(0, sp.URL(), si.sampleBody[r], si.sampleRows[r], "sample")
		if err != nil {
			return err
		}
		n, err := write(1, np.URL(), si.netBody[r], si.netRows[r], "net")
		if err != nil {
			return err
		}
		m.addLatency(n.end.Sub(s.start))
		rows += (len(si.sampleRows[r]) + len(si.netRows[r])) / dim
	}
	m.addStream(rows, time.Since(begin))
	for j := range si.sampleTail {
		sc, sr, err := c.queryBatch(sp.URL(), si.sampleTail[j])
		if err != nil {
			return err
		}
		if err := checkSampleBatch(si.sampleTail[j], sr.Results, si.sampleWant[j], si.ex); err != nil {
			return err
		}
		nc, nr, err := c.queryBatch(np.URL(), si.netTail[j])
		if err != nil {
			return err
		}
		if err := checkNetBatch(si.netTail[j], nr.Results, si.netWant[j]); err != nil {
			return err
		}
		if j == 0 {
			// Each daemon's first query pays one-off lazy set-up
			// (about ten times a steady query); it is checked but not
			// timed.
			m.attempted++
			continue
		}
		m.queried(call{start: sc.start, end: nc.end})
		lg.add(op{kind: "query", target: 0, queries: si.sampleTail[j], c: sc})
		lg.add(op{kind: "query", target: 1, queries: si.netTail[j], c: nc})
	}
	if len(m.summaryBytes) == 0 || lg != nil {
		total := 0
		for _, p := range []*proc{sp, np} {
			blob, err := c.summary(p.URL())
			if err != nil {
				return err
			}
			total += len(blob)
		}
		m.summaryBytes = append(m.summaryBytes, float64(total))
	}
	m.cur().setup = setup.Seconds()
	if lg != nil {
		m.last = lg
	}
	return nil
}

func subsetOf(a, b []int) bool {
	in := map[int]bool{}
	for _, x := range b {
		in[x] = true
	}
	for _, x := range a {
		if !in[x] {
			return false
		}
	}
	return true
}

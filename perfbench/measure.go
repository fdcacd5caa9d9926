package main

import (
	"cmp"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strings"
	"time"
)

// endToEndMetrics are the BENCHMARK.json end-to-end metrics, in
// report order, with their units.
var endToEndMetrics = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"ingest_rows_per_s", "rows/s"},
	{"observe_p50_ms", "ms"},
	{"query_p50_ms", "ms"},
	{"summary_bytes", "bytes"},
}

// measure accumulates one run's end-to-end samples across trials.
type measure struct {
	obs          dist // observe (write) latency, ms
	qry          dist // query-batch latency, ms
	summaryBytes []float64
	lag          dist // open-loop writer lateness, ms
	kindRows     map[string]int
	kindTime     map[string]time.Duration
	attempted    int
	failed       int
	failures     []string
	last         *trialLog // the newest trial's request log (traced runs)
	per          []*trialStats
}

// trialStats are one trial's samples. Rates, percentiles and set-up
// times are taken per trial and the run reports them over its quiet
// trials (see quietTrials).
type trialStats struct {
	setup float64 // seconds
	obs   dist
	qry   dist
	wall  time.Duration
	steal float64 // share of CPU time the hypervisor stole during the trial
	// rows were acknowledged by the trial's closed-loop writer in
	// streamTime, the stream's wall time from first send to last ack.
	rows       int
	streamTime time.Duration
}

// rate is the trial's ingest rate: its rows over its stream time.
// Every stall inside the stream — a checkpoint, an aggregator pull, a
// collection — counts in full.
func (t *trialStats) rate() float64 {
	if t.streamTime <= 0 {
		return math.NaN()
	}
	return float64(t.rows) / t.streamTime.Seconds()
}

func newMeasure() *measure {
	return &measure{kindRows: map[string]int{}, kindTime: map[string]time.Duration{}}
}

// beginTrial opens the per-trial sample set the next samples go to.
func (m *measure) beginTrial() {
	m.per = append(m.per, &trialStats{})
}

func (m *measure) cur() *trialStats {
	if len(m.per) == 0 {
		m.beginTrial()
	}
	return m.per[len(m.per)-1]
}

// addObserve records one acknowledged write of a kind ("" when the
// workload serves one kind): its service time and its rows.
func (m *measure) addObserve(service time.Duration, rows int, kind string) {
	m.attempted++
	if kind != "" {
		m.kindRows[kind] += rows
		m.kindTime[kind] += service
	}
}

// addStream adds rows acknowledged in d to the trial's write stream.
func (m *measure) addStream(rows int, d time.Duration) {
	t := m.cur()
	t.rows += rows
	t.streamTime += d
}

// addLatency records one write operation's latency: for a closed loop
// its duration, for an open loop the time from when it was due.
func (m *measure) addLatency(lat time.Duration) {
	m.obs.add(lat)
	m.cur().obs.add(lat)
}

// quietTrials is the half of the trials (rounded up) during which the
// hypervisor stole the least CPU time. The run's figures come from
// them. Steal slows a trial without any change to the code, and it is
// measured outside the program, so choosing trials by it rather than
// by their results keeps the program's own stalls in the figures while
// leaving out the host's worst moments.
func (m *measure) quietTrials() []*trialStats {
	ts := slices.Clone(m.per)
	slices.SortStableFunc(ts, func(a, b *trialStats) int { return cmp.Compare(a.steal, b.steal) })
	return ts[:(len(ts)+1)/2]
}

// perTrial is the mean of f over the quiet trials (NaN when there are
// none), skipping those f cannot measure (NaN).
func (m *measure) perTrial(f func(t *trialStats) float64) float64 {
	var xs []float64
	for _, t := range m.quietTrials() {
		if v := f(t); !math.IsNaN(v) {
			xs = append(xs, v)
		}
	}
	if len(xs) == 0 {
		return math.NaN()
	}
	return mean(xs)
}

// quietSamples counts the samples n finds in the quiet trials.
func (m *measure) quietSamples(n func(t *trialStats) int) int {
	total := 0
	for _, t := range m.quietTrials() {
		total += n(t)
	}
	return total
}

func obsP50(t *trialStats) float64 { return percentile(t.obs, 0.5) }
func qryP50(t *trialStats) float64 { return percentile(t.qry, 0.5) }

// fail records one failed operation.
func (m *measure) fail(err error) {
	m.attempted++
	m.failed++
	m.failures = append(m.failures, err.Error())
	fmt.Fprintln(os.Stderr, "perfbench: FAILED:", err)
}

// observed records one acknowledged closed-loop write of rows rows.
func (m *measure) observed(c call, rows int) {
	m.addObserve(c.dur(), rows, "")
	m.addLatency(c.dur())
}

// queried records one answered and verified query batch.
func (m *measure) queried(c call) {
	m.attempted++
	m.qry.add(c.dur())
	m.cur().qry.add(c.dur())
}

// typicalOp is the basis of the tracing-overhead comparison: the mean
// of the run's median write and median query latencies, each taken as
// the end-to-end metrics take them.
func (m *measure) typicalOp() float64 {
	return (m.perTrial(obsP50) + m.perTrial(qryP50)) / 2
}

// endToEnd turns the samples into the BENCHMARK.json end-to-end
// metrics and adds the report-only ones to rep.
func (m *measure) endToEnd(rep *report) *result {
	res := &result{Metrics: map[string]metric{}}
	if m.attempted == 0 {
		m.fail(errors.New("no operation was attempted"))
	}
	type value struct {
		v float64
		n int
	}
	quiet := m.quietTrials()
	var setups []float64
	for _, t := range quiet {
		setups = append(setups, t.setup)
	}
	obsN := m.quietSamples(func(t *trialStats) int { return len(t.obs) })
	qryN := m.quietSamples(func(t *trialStats) int { return len(t.qry) })
	values := map[string]value{
		"setup_s":           {median(setups), len(quiet)},
		"ingest_rows_per_s": {m.perTrial((*trialStats).rate), len(quiet)},
		"observe_p50_ms":    {m.perTrial(obsP50), obsN},
		"query_p50_ms":      {m.perTrial(qryP50), qryN},
		"summary_bytes":     {median(m.summaryBytes), len(m.summaryBytes)},
	}
	for _, em := range endToEndMetrics {
		x := values[em.name]
		if math.IsNaN(x.v) || math.IsInf(x.v, 0) {
			if m.failed == 0 {
				m.fail(fmt.Errorf("%s was not measured", em.name))
			}
			continue
		}
		res.Metrics[em.name] = metric{Value: x.v, Unit: em.unit}
		rep.metric(em.name, x.v, em.unit, x.n)
	}
	// Printed but not gated: on a small shared host the slowest tenth
	// of requests moves with the host, not the code (see README.md).
	obs90 := m.perTrial(func(t *trialStats) float64 { return percentile(t.obs, 0.9) })
	rep.tail("observe_p90_ms", obs90, obsN)
	rep.tail("query_p90_ms", percentile(m.qry, 0.9), len(m.qry))
	m.reportOnly(rep)
	res.Correct, res.Attempted, res.Failed = m.failed == 0, m.attempted, m.failed
	if !res.Correct {
		for name := range res.Metrics {
			delete(res.Metrics, name)
		}
	}
	return res
}

// reportOnly adds the numbers that are printed but are not
// BENCHMARK.json end-to-end metrics: the error rate (carried by
// attempted/failed in the result line), the per-kind ingest rates, and
// the open-loop writer's lateness.
func (m *measure) reportOnly(rep *report) {
	rate := 0.0
	if m.attempted > 0 {
		rate = float64(m.failed) / float64(m.attempted)
	}
	rep.metric("error_rate", rate, "ratio", m.attempted)
	for _, kind := range []string{"sample", "net"} {
		if t := m.kindTime[kind]; t > 0 {
			rep.metric(kind+"_rows_per_s", float64(m.kindRows[kind])/t.Seconds(), "rows/s", m.kindRows[kind])
		}
	}
	if len(m.lag) > 0 {
		rep.metric("loadgen.writer_lag_p50_ms", percentile(m.lag, 0.5), "ms", len(m.lag))
		rep.metric("loadgen.writer_lag_p90_ms", percentile(m.lag, 0.9), "ms", len(m.lag))
	}
	var steal []float64
	for _, t := range m.per {
		steal = append(steal, t.steal)
	}
	rep.metric("host.cpu_steal_share", mean(steal), "ratio", len(steal))
	for i, t := range m.per {
		rep.Trials = append(rep.Trials, trialSamples{ObserveMS: t.obs, QueryMS: t.qry})
		rep.note(fmt.Sprintf("trial %d: %.1fs, cpu steal %.1f%%, ingest %.0f rows/s, %d write ops observe p50 %.3f p90 %.3f ms, %d query batches p50 %.3f ms",
			i, t.wall.Seconds(), 100*t.steal, t.rate(), len(t.obs), percentile(t.obs, 0.5), percentile(t.obs, 0.9), len(t.qry), percentile(t.qry, 0.5)))
	}
	for _, f := range m.failures {
		rep.note("failure: " + f)
	}
}

// report is everything a run prints before its result line, and the
// JSON file it leaves in the results directory.
type report struct {
	Workload string             `json:"workload"`
	Seed     uint64             `json:"seed"`
	Traced   bool               `json:"traced"`
	Host     map[string]string  `json:"host"`
	Inputs   map[string]float64 `json:"inputs"`
	Metrics  []reportMetric     `json:"metrics"`
	Notes    []string           `json:"notes,omitempty"`
	Trials   []trialSamples     `json:"trials,omitempty"`
	Spans    []span             `json:"spans,omitempty"`
}

// trialSamples are one trial's raw latencies in the saved report.
type trialSamples struct {
	ObserveMS []float64 `json:"observe_ms"`
	QueryMS   []float64 `json:"query_ms"`
}

type reportMetric struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n"`
}

func newReport(workload string, seed uint64, traced bool) *report {
	return &report{Workload: workload, Seed: seed, Traced: traced, Host: map[string]string{}, Inputs: map[string]float64{}}
}

func (r *report) metric(name string, v float64, unit string, n int) {
	r.Metrics = append(r.Metrics, reportMetric{name, v, unit, n})
}

func (r *report) note(s string) { r.Notes = append(r.Notes, s) }

// tail reports a p90 only when at least ten samples lie beyond it.
func (r *report) tail(name string, v float64, n int) {
	if beyond(n, 0.9) < 10 {
		r.note(fmt.Sprintf("%s not reported: %d samples leave fewer than ten beyond the 90th percentile", name, n))
		return
	}
	r.metric(name, v, "ms", n)
}

// fingerprint records the host: CPU model, CPU count, the GOMAXPROCS
// of every process, the Go version, and which code ran.
func (r *report) fingerprint(e *env) {
	r.Host["cpu"] = cpuModel()
	r.Host["nproc"] = fmt.Sprint(runtime.NumCPU())
	r.Host["go"] = runtime.Version()
	r.Host["gomaxprocs.loadgen"] = fmt.Sprint(runtime.GOMAXPROCS(0))
	for name, n := range e.gmp {
		r.Host["gomaxprocs."+name] = fmt.Sprint(n)
	}
	r.Host["commit"] = commit()
}

// inputs records the input properties.
func (r *report) inputs(p inputProps) {
	r.Inputs["input.distinct_row_share"] = p.distinctRowShare
	for _, k := range colSizes {
		r.Inputs[fmt.Sprintf("input.batch_key_repeat_share.c%d", k)] = p.repeatShare[k]
	}
}

// print writes the human-readable report: one line per metric with
// its unit and sample count.
func (r *report) print(w io.Writer) {
	fmt.Fprintf(w, "workload %s seed %d trace %v\n", r.Workload, r.Seed, r.Traced)
	var keys []string
	for k := range r.Host {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var host []string
	for _, k := range keys {
		host = append(host, k+"="+r.Host[k])
	}
	fmt.Fprintf(w, "host %s\n", strings.Join(host, " "))
	keys = keys[:0]
	for k := range r.Inputs {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(w, "input %-40s %.4f\n", k, r.Inputs[k])
	}
	for _, m := range r.Metrics {
		fmt.Fprintf(w, "metric %-40s %14.4f %-8s n=%d\n", m.Name, m.Value, m.Unit, m.N)
	}
	for _, n := range r.Notes {
		fmt.Fprintf(w, "note %s\n", n)
	}
}

// save writes the report (with the spans of a traced run) as JSON.
func (r *report) save(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(r, "", " ")
	if err != nil {
		return err
	}
	trace := 0
	if r.Traced {
		trace = 1
	}
	return os.WriteFile(filepath.Join(dir, fmt.Sprintf("%s-seed%d-trace%d.json", r.Workload, r.Seed, trace)), b, 0o644)
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.ReplaceAll(strings.TrimSpace(v), " ", "_")
		}
	}
	return "unknown"
}

// commit names the code under test: PERFBENCH_COMMIT when the build
// script found a git revision, otherwise the digest of the sources the
// build script hashed.
func commit() string {
	if c := os.Getenv("PERFBENCH_COMMIT"); c != "" {
		return c
	}
	return "unknown"
}

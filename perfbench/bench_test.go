package main

import (
	"encoding/json"
	"errors"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/words"
)

func TestPercentileNearestRank(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3, 10, 9, 8, 7, 6}
	for _, c := range []struct {
		q    float64
		want float64
	}{{0.1, 1}, {0.5, 5}, {0.9, 9}, {0.91, 10}, {1, 10}} {
		if got := percentile(xs, c.q); got != c.want {
			t.Errorf("percentile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if !math.IsNaN(percentile(nil, 0.5)) {
		t.Error("percentile of no samples should be NaN")
	}
	// A bimodal set: nearest rank returns a measured value, not the
	// midpoint between the modes.
	if got := percentile([]float64{1, 1, 100, 100}, 0.5); got != 1 {
		t.Errorf("bimodal p50 = %v, want 1", got)
	}
	if xs[0] != 5 {
		t.Error("percentile must not reorder its input")
	}
}

func TestSamplesBeyondPercentile(t *testing.T) {
	// p90 of 100 samples is the 90th value: ten samples lie beyond it.
	if got := beyond(100, 0.9); got != 10 {
		t.Errorf("beyond(100, 0.9) = %d, want 10", got)
	}
	if got := beyond(9, 0.9); got != 0 {
		t.Errorf("beyond(9, 0.9) = %d, want 0", got)
	}
	if got := beyond(20, 0.5); got != 10 {
		t.Errorf("beyond(20, 0.5) = %d, want 10", got)
	}
}

func TestMedian(t *testing.T) {
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("median = %v, want 2.5", m)
	}
	if m := median([]float64{5, 1, 4}); m != 4 {
		t.Errorf("median = %v, want 4", m)
	}
}

func TestFiguresComeFromTheQuietTrials(t *testing.T) {
	m := newMeasure()
	// Five trials: the three with the least steal are 0, 2 and 4, and
	// trial 2, the slowest, counts although its own result is worst.
	for i, c := range []struct {
		steal, setup, obs float64
		stream            time.Duration
	}{
		{0.01, 0.010, 1, 100 * time.Millisecond},
		{0.30, 0.001, 9, 10 * time.Millisecond},
		{0.00, 0.030, 5, 400 * time.Millisecond},
		{0.20, 0.001, 9, 10 * time.Millisecond},
		{0.02, 0.020, 3, 200 * time.Millisecond},
	} {
		m.beginTrial()
		tr := m.cur()
		tr.steal, tr.setup = c.steal, c.setup
		tr.obs = dist{c.obs, c.obs}
		m.addStream(4000, c.stream)
		if len(m.per) != i+1 {
			t.Fatal("beginTrial did not open a trial")
		}
	}
	if got := len(m.quietTrials()); got != 3 {
		t.Fatalf("%d quiet trials of 5, want 3", got)
	}
	if got := m.perTrial(obsP50); got != 3 {
		t.Errorf("observe p50 = %v, want 3 (mean of 1, 5, 3)", got)
	}
	want := (40000 + 10000 + 20000) / 3.0
	if got := m.perTrial((*trialStats).rate); math.Abs(got-want) > 1e-6 {
		t.Errorf("rate = %v, want %v", got, want)
	}
	if got := m.quietSamples(func(t *trialStats) int { return len(t.obs) }); got != 6 {
		t.Errorf("%d quiet samples, want 6", got)
	}
	if got := m.perTrial(qryP50); !math.IsNaN(got) {
		t.Errorf("query p50 without queries = %v, want NaN", got)
	}
}

func TestTrialRateIsRowsOverStreamTime(t *testing.T) {
	m := newMeasure()
	m.beginTrial()
	m.addStream(4096, 10*time.Millisecond)
	m.addStream(4096, 30*time.Millisecond)
	if got, want := m.cur().rate(), 8192/0.04; math.Abs(got-want) > 1e-6 {
		t.Errorf("rate = %v, want %v", got, want)
	}
	// A stalled stream counts in full.
	m.addStream(0, 40*time.Millisecond)
	if got, want := m.cur().rate(), 8192/0.08; math.Abs(got-want) > 1e-6 {
		t.Errorf("rate after a stall = %v, want %v", got, want)
	}
	m.beginTrial()
	if !math.IsNaN(m.cur().rate()) {
		t.Error("a trial without a stream should have no rate")
	}
}

func at(ms int) time.Time { return time.Unix(0, 0).Add(time.Duration(ms) * time.Millisecond) }

func TestSelfTimeOverlappingChildren(t *testing.T) {
	parent := span{Start: at(0), End: at(100)}
	children := []span{
		{Start: at(10), End: at(40)},  // overlaps the next one
		{Start: at(30), End: at(50)},  // union so far: 10..50
		{Start: at(45), End: at(48)},  // nested inside the union
		{Start: at(90), End: at(130)}, // sticks out of the parent
		{Start: at(-20), End: at(-5)}, // entirely before the parent
	}
	// covered: 10..50 (40ms) + 90..100 (10ms) = 50ms.
	if got := covered(parent, children); got != 50*time.Millisecond {
		t.Errorf("covered = %v, want 50ms", got)
	}
	if got := selfTime(parent, children); got != 50*time.Millisecond {
		t.Errorf("selfTime = %v, want 50ms", got)
	}
	if got := selfTime(parent, nil); got != 100*time.Millisecond {
		t.Errorf("selfTime without children = %v, want 100ms", got)
	}
	full := []span{{Start: at(-1), End: at(101)}}
	if got := selfTime(parent, full); got != 0 {
		t.Errorf("selfTime fully covered = %v, want 0", got)
	}
}

func TestTracerKeepsSpansInOrder(t *testing.T) {
	tr := &tracer{}
	root := tr.add(span{Name: "client", Req: 1, Start: at(0), End: at(10)})
	child := tr.add(span{Name: "child", Req: 1, Parent: root, Start: at(2), End: at(4)})
	spans := tr.snapshot()
	if len(spans) != 2 || spans[0].ID != root || spans[1].ID != child || spans[1].Parent != root {
		t.Fatalf("spans %+v", spans)
	}
	var off *tracer
	if id := off.add(span{}); id != 0 || off.snapshot() != nil {
		t.Error("a nil tracer must record nothing")
	}
}

func TestProxyPassesThroughUnchanged(t *testing.T) {
	const etag = `"v1"`
	body := strings.Repeat("x", 12345)
	backend := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("ETag", etag)
		if r.Header.Get("If-None-Match") == etag {
			w.WriteHeader(http.StatusNotModified)
			return
		}
		if r.URL.Path == "/teapot" {
			w.WriteHeader(http.StatusTeapot)
			_, _ = io.WriteString(w, "short and stout")
			return
		}
		got, _ := io.ReadAll(r.Body)
		w.Header().Set("X-Got-Bytes", strings.Repeat("1", len(got)%7))
		_, _ = io.WriteString(w, body)
	}))
	defer backend.Close()
	tr := &tracer{}
	px, err := startProxy("hop", backend.URL, tr)
	if err != nil {
		t.Fatal(err)
	}
	defer px.close()

	resp, err := http.Post(px.URL()+"/v1/summary", "application/octet-stream", strings.NewReader("abcdefghij"))
	if err != nil {
		t.Fatal(err)
	}
	got, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != 200 || string(got) != body || resp.Header.Get("ETag") != etag || resp.Header.Get("X-Got-Bytes") != "111" {
		t.Fatalf("200 through proxy: status %d, %d body bytes, ETag %q, X-Got-Bytes %q",
			resp.StatusCode, len(got), resp.Header.Get("ETag"), resp.Header.Get("X-Got-Bytes"))
	}

	req, _ := http.NewRequest("GET", px.URL()+"/v1/summary", nil)
	req.Header.Set("If-None-Match", etag)
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	got, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotModified || len(got) != 0 || resp.Header.Get("ETag") != etag {
		t.Fatalf("conditional GET through proxy: status %d, %d body bytes, ETag %q", resp.StatusCode, len(got), resp.Header.Get("ETag"))
	}

	resp, err = http.Get(px.URL() + "/teapot")
	if err != nil {
		t.Fatal(err)
	}
	got, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusTeapot || string(got) != "short and stout" {
		t.Fatalf("error status through proxy: %d %q", resp.StatusCode, got)
	}

	spans := tr.snapshot()
	if len(spans) != 3 {
		t.Fatalf("%d spans, want 3", len(spans))
	}
	if s := spans[0]; s.Status != 200 || s.ReqBytes != 10 || s.RespBytes != int64(len(body)) || s.Name != "hop /v1/summary" {
		t.Errorf("200 span: %+v", s)
	}
	if s := spans[1]; s.Status != http.StatusNotModified || s.RespBytes != 0 {
		t.Errorf("304 span: %+v", s)
	}
	if s := spans[2]; s.Status != http.StatusTeapot {
		t.Errorf("418 span: %+v", s)
	}
}

func TestEncodeObserveIsTheDaemonSchema(t *testing.T) {
	rows := []uint16{0, 1, 0, 1, 1, 1, 0, 0, 1, 0, 1, 0, 1, 1, 1, 1, 0, 0, 0, 0, 1, 1, 1, 0}
	var got struct {
		Rows [][]uint16 `json:"rows"`
	}
	if err := json.Unmarshal(encodeObserve(rows), &got); err != nil {
		t.Fatal(err)
	}
	if len(got.Rows) != 2 || len(got.Rows[1]) != dim || got.Rows[1][0] != 1 || got.Rows[0][1] != 1 {
		t.Fatalf("decoded %v", got.Rows)
	}
}

func TestInputsAreSeeded(t *testing.T) {
	a := uniformRows(newRand(7, 1), 100)
	b := uniformRows(newRand(7, 1), 100)
	c := uniformRows(newRand(8, 1), 100)
	if !equalRows(a, b) || equalRows(a, c) {
		t.Fatal("uniform rows must depend on the seed and only on it")
	}
	z1, z2 := zipfRows(newRand(7, 1), 500), zipfRows(newRand(7, 1), 500)
	if !equalRows(z1, z2) {
		t.Fatal("zipf rows must be reproducible")
	}
	props := measureInput([][]uint16{z1})
	if props.distinctRowShare <= 0 || props.distinctRowShare >= 1 || props.repeatShare[2] < props.repeatShare[12] {
		t.Fatalf("input properties %+v", props)
	}
}

func equalRows(a, b []uint16) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// exactOracle builds an exact summary over seeded rows and the
// answers to one mixed batch.
func exactOracle(t *testing.T) (*core.Exact, []query, []resultJSON) {
	t.Helper()
	ex, err := core.NewExact(dim, alphabet)
	if err != nil {
		t.Fatal(err)
	}
	ex.ObserveBatch(batchOf(zipfRows(newRand(3, 1), 2000)))
	qs := mixedBatch(newRand(3, 2), 0)
	want, err := exactAnswers(ex, qs)
	if err != nil {
		t.Fatal(err)
	}
	return ex, qs, want
}

func clone(rs []resultJSON) []resultJSON {
	out := make([]resultJSON, len(rs))
	for i, r := range rs {
		out[i] = r
		out[i].Hits = append([]hitJSON(nil), r.Hits...)
	}
	return out
}

func TestIndependentCountMatchesCoreExact(t *testing.T) {
	r := newRand(11, 1)
	batches := [][]uint16{zipfRows(r, 700), uniformRows(r, 300)}
	weights := []int64{3, 1}
	ex, err := core.NewExact(dim, alphabet)
	if err != nil {
		t.Fatal(err)
	}
	for b, rows := range batches {
		for k := int64(0); k < weights[b]; k++ {
			ex.ObserveBatch(batchOf(rows))
		}
	}
	qr := newRand(11, 2)
	for i := 0; i < 8; i++ {
		qs := mixedBatch(qr, i)
		want, err := exactAnswers(ex, qs)
		if err != nil {
			t.Fatal(err)
		}
		if err := crossCheck(qs, want, countAnswers(batches, weights, qs)); err != nil {
			t.Fatal(err)
		}
	}
	qs := mixedBatch(qr, 0)
	want, _ := exactAnswers(ex, qs)
	counted := countAnswers(batches, []int64{3, 2}, qs)
	if err := crossCheck(qs, want, counted); !errors.Is(err, errWrong) {
		t.Fatalf("a count over different rows passed the cross-check (%v)", err)
	}
}

func TestExactOracleRejectsPerturbedAnswers(t *testing.T) {
	_, qs, want := exactOracle(t)
	if err := checkExactBatch(qs, clone(want), want); err != nil {
		t.Fatalf("the oracle rejects its own answers: %v", err)
	}
	for i := range qs {
		got := clone(want)
		got[i].Value++
		if err := checkExactBatch(qs, got, want); !errors.Is(err, errWrong) {
			t.Errorf("query %d (%s): value off by one accepted (%v)", i, qs[i].Kind, err)
		}
	}
	got := clone(want)
	got[2].Error = "boom"
	if err := checkExactBatch(qs, got, want); !errors.Is(err, errWrong) {
		t.Errorf("a daemon error was accepted (%v)", err)
	}
	for i, q := range qs {
		if q.Kind != "hh" || len(want[i].Hits) == 0 {
			continue
		}
		got := clone(want)
		got[i].Hits[0].Estimate++
		if err := checkExactBatch(qs, got, want); !errors.Is(err, errWrong) {
			t.Errorf("a perturbed heavy hitter was accepted (%v)", err)
		}
		got = clone(want)
		got[i].Hits = got[i].Hits[1:]
		if err := checkExactBatch(qs, got, want); !errors.Is(err, errWrong) {
			t.Errorf("a missing heavy hitter was accepted (%v)", err)
		}
	}
}

func TestMixedOracleBoundsTheRegisteredEstimate(t *testing.T) {
	_, qs, want := exactOracle(t)
	got := clone(want)
	got[0].Value = want[0].Value * (1 + defaultEps/2)
	if err := checkMixedBatch(qs, got, want); err != nil {
		t.Fatalf("an estimate within ε was rejected: %v", err)
	}
	got[0].Value = want[0].Value * (1 + 2*defaultEps)
	if err := checkMixedBatch(qs, got, want); !errors.Is(err, errWrong) {
		t.Fatalf("an estimate outside ε was accepted (%v)", err)
	}
	got = clone(want)
	got[1].Value++
	if err := checkMixedBatch(qs, got, want); !errors.Is(err, errWrong) {
		t.Fatalf("a wrong mirror answer was accepted (%v)", err)
	}
}

func TestNetOracleRejectsPerturbedAnswers(t *testing.T) {
	s, err := engine.StandardSummary("net", dim, alphabet, defaultEps, defaultDelta, defaultAlpha, defaultSeed, 0)
	if err != nil {
		t.Fatal(err)
	}
	net := s.(*core.Net)
	net.ObserveBatch(batchOf(uniformRows(newRand(5, 1), 40)))
	qs := []query{{Kind: "f0", Cols: []int{0, 3}}, {Kind: "fp", Cols: []int{1, 2, 5, 7}, P: 2}}
	want, err := netAnswers(net, qs)
	if err != nil {
		t.Fatal(err)
	}
	got := clone(want)
	got[1].Value *= 1 + 1e-12
	if err := checkNetBatch(qs, got, want); err != nil {
		t.Fatalf("Fp within 1e-9 was rejected: %v", err)
	}
	got[1].Value = want[1].Value * (1 + 1e-6)
	if err := checkNetBatch(qs, got, want); !errors.Is(err, errWrong) {
		t.Fatalf("Fp off by 1e-6 was accepted (%v)", err)
	}
	got = clone(want)
	got[0].Value = math.Nextafter(want[0].Value, math.Inf(1))
	if err := checkNetBatch(qs, got, want); !errors.Is(err, errWrong) {
		t.Fatalf("a different F0 was accepted (%v)", err)
	}
}

func TestSampleOracleEnforcesEpsilonN(t *testing.T) {
	ex, err := core.NewExact(dim, alphabet)
	if err != nil {
		t.Fatal(err)
	}
	ex.ObserveBatch(batchOf(uniformRows(newRand(9, 1), 1000)))
	qs := []query{
		{Kind: "freq", Cols: []int{0, 1}, Pattern: []uint16{1, 0}},
		{Kind: "hh", Cols: []int{2, 3}, P: 1, Phi: sampleHHPhi},
	}
	want, err := exactAnswers(ex, qs)
	if err != nil {
		t.Fatal(err)
	}
	if len(want[1].Hits) != 4 {
		t.Fatalf("%d heavy hitters on two uniform binary columns, want all 4", len(want[1].Hits))
	}
	bound := defaultEps * float64(ex.Rows())
	got := clone(want)
	got[0].Value += bound / 2
	for i := range got[1].Hits {
		got[1].Hits[i].Estimate -= bound / 2
	}
	if err := checkSampleBatch(qs, got, want, ex); err != nil {
		t.Fatalf("estimates within εn were rejected: %v", err)
	}
	got[0].Value = want[0].Value + 2*bound
	if err := checkSampleBatch(qs, got, want, ex); !errors.Is(err, errWrong) {
		t.Fatalf("a frequency outside εn was accepted (%v)", err)
	}
	got = clone(want)
	got[1].Hits[0].Estimate += 2 * bound
	if err := checkSampleBatch(qs, got, want, ex); !errors.Is(err, errWrong) {
		t.Fatalf("a heavy hitter estimate outside εn was accepted (%v)", err)
	}
	got = clone(want)
	got[1].Hits = got[1].Hits[1:]
	if err := checkSampleBatch(qs, got, want, ex); !errors.Is(err, errWrong) {
		t.Fatalf("a truncated heavy-hitter list was accepted (%v)", err)
	}
	got = clone(want)
	got[1].Hits = nil
	if err := checkSampleBatch(qs, got, want, ex); !errors.Is(err, errWrong) {
		t.Fatalf("an empty heavy-hitter list was accepted (%v)", err)
	}
	// A key far below (φ−ε)n reported with an estimate within εn of its
	// true count: a false positive.
	light := []query{{Kind: "hh", Cols: []int{0, 1, 2, 3, 4, 5}, P: 1, Phi: 0.2}}
	lightWant, err := exactAnswers(ex, light)
	if err != nil {
		t.Fatal(err)
	}
	c, err := words.NewColumnSet(dim, light[0].Cols...)
	if err != nil {
		t.Fatal(err)
	}
	pattern := []uint16{0, 0, 0, 0, 0, 0}
	truth, err := ex.Frequency(c, words.Word(pattern))
	if err != nil {
		t.Fatal(err)
	}
	lightGot := clone(lightWant)
	lightGot[0].Hits = append(lightGot[0].Hits, hitJSON{Pattern: pattern, Estimate: truth})
	if err := checkSampleBatch(light, lightGot, lightWant, ex); !errors.Is(err, errWrong) {
		t.Fatalf("a heavy hitter below (φ−ε)n was accepted (%v)", err)
	}
}

func TestCPUList(t *testing.T) {
	for list, want := range map[string]int{"0-1": 2, "0": 1, "0-3,6,8-9": 7, "": 0} {
		if got := cpuListLen(list); got != want {
			t.Errorf("cpuListLen(%q) = %d, want %d", list, got, want)
		}
	}
}

// TestBenchmarkJSONMatchesTheProgram keeps BENCHMARK.json and the
// metrics and workloads this program reports in step.
func TestBenchmarkJSONMatchesTheProgram(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Command   []string `json:"command"`
		Workloads []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloadList) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program %d", len(spec.Workloads), len(workloadList))
	}
	for i, w := range spec.Workloads {
		if pw := workloadList[i]; pw.name != w.Name || pw.why != w.Why {
			t.Errorf("workload %d: BENCHMARK.json %q (%q), program %q (%q)", i, w.Name, w.Why, pw.name, pw.why)
		}
	}
	if len(spec.EndToEnd) != len(endToEndMetrics) {
		t.Fatalf("BENCHMARK.json lists %d end-to-end metrics, the program %d", len(spec.EndToEnd), len(endToEndMetrics))
	}
	for i, m := range spec.EndToEnd {
		if m.Name != endToEndMetrics[i].name || m.Unit != endToEndMetrics[i].unit {
			t.Errorf("end-to-end metric %d: BENCHMARK.json %s/%s, program %s/%s", i, m.Name, m.Unit, endToEndMetrics[i].name, endToEndMetrics[i].unit)
		}
	}
	if len(spec.PerLayer) != len(perLayerMetrics) {
		t.Fatalf("BENCHMARK.json lists %d per-layer metrics, the program %d", len(spec.PerLayer), len(perLayerMetrics))
	}
	for i, m := range spec.PerLayer {
		if m.Name != perLayerMetrics[i].name || m.Unit != perLayerMetrics[i].unit {
			t.Errorf("per-layer metric %d: BENCHMARK.json %s/%s, program %s/%s", i, m.Name, m.Unit, perLayerMetrics[i].name, perLayerMetrics[i].unit)
		}
	}
}

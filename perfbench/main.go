// Command perfbench is the end-to-end benchmark of the served projfreq
// system: it spawns the real projfreqd and projfreq-router binaries,
// drives them over loopback HTTP from this one process, checks every
// answer against an in-process oracle, and prints the metrics named in
// BENCHMARK.json. With -trace 1 it instead reports per-layer numbers
// from a traced run (timing proxies between processes plus an
// in-process replay of the same requests). See README.md.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

func main() {
	var (
		name    = flag.String("workload", "", "workload: "+strings.Join(workloadNames(), ", ")+", or all")
		seed    = flag.Uint64("seed", 1, "input seed")
		seconds = flag.Int("seconds", 25, "measured seconds per run")
		trace   = flag.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run")
		bin     = flag.String("bin", ".bench_build/perfbench/bin", "directory holding projfreqd and projfreq-router")
		work    = flag.String("work", ".bench_build/perfbench/work", "scratch directory for data dirs, logs and results")
	)
	flag.Parse()
	ws := workloadList
	if *name != "all" {
		w := findWorkload(*name)
		if w == nil {
			fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (want one of %s, or all)\n", *name, strings.Join(workloadNames(), ", "))
			os.Exit(2)
		}
		ws = []*workload{w}
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(os.Stderr, "perfbench: -trace must be 0 or 1")
		os.Exit(2)
	}
	// With one workload the result line is that workload's; with all of
	// them it joins theirs, each metric named <workload>/<metric>.
	var out *result
	for _, w := range ws {
		res, err := run(w, *seed, time.Duration(*seconds)*time.Second, *trace == 1, *bin, *work)
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		if len(ws) == 1 {
			out = res
			break
		}
		if out == nil {
			out = &result{Correct: true, Metrics: map[string]metric{}}
		}
		out.Correct = out.Correct && res.Correct
		out.Attempted += res.Attempted
		out.Failed += res.Failed
		for k, v := range res.Metrics {
			out.Metrics[w.name+"/"+k] = v
		}
	}
	b, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(b))
	if !out.Correct {
		os.Exit(1)
	}
}

// result is the final stdout line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// env is one run's context.
type env struct {
	seed    uint64
	seconds time.Duration
	bin     string
	dir     string         // per-run scratch directory
	gmp     map[string]int // GOMAXPROCS of each spawned process, by role
}

func run(w *workload, seed uint64, seconds time.Duration, traced bool, bin, work string) (*result, error) {
	for _, b := range []string{"projfreqd", "projfreq-router"} {
		if _, err := os.Stat(filepath.Join(bin, b)); err != nil {
			return nil, fmt.Errorf("missing daemon binary (build it first, see README.md): %w", err)
		}
	}
	if err := os.MkdirAll(work, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(work, w.name+"-")
	if err != nil {
		return nil, err
	}
	e := &env{seed: seed, seconds: seconds, bin: bin, dir: dir, gmp: map[string]int{}}
	in, err := w.prepare(e)
	if errors.Is(err, errWrong) {
		// The oracle's own cross-check failed: the run cannot be
		// trusted, and that is a failed operation, not a crash.
		fmt.Fprintln(os.Stderr, "perfbench: FAILED:", err)
		os.RemoveAll(dir)
		return &result{Attempted: 1, Failed: 1, Metrics: map[string]metric{}}, nil
	}
	if err != nil {
		os.RemoveAll(dir)
		return nil, fmt.Errorf("preparing %s: %w", w.name, err)
	}

	rep := newReport(w.name, seed, traced)
	var res *result
	if traced {
		res = runTraced(e, w, in, rep)
	} else {
		res = runUntraced(e, w, in, rep)
	}
	rep.fingerprint(e)
	rep.inputs(in.props)
	rep.print(os.Stdout)
	if err := rep.save(filepath.Join(work, "results")); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: saving report:", err)
	}
	if res.Correct {
		os.RemoveAll(dir)
	} else {
		fmt.Fprintf(os.Stderr, "perfbench: logs kept in %s\n", dir)
	}
	return res, nil
}

// runUntraced runs trials until the measured time is spent and
// reports the end-to-end metrics.
func runUntraced(e *env, w *workload, in *inputs, rep *report) *result {
	m := newMeasure()
	trials(e, w, in, m, nil, e.seconds, w.minTrials)
	return m.endToEnd(rep)
}

// trials runs the workload's trial until at least minTrials have run
// and budget has elapsed. Every trial starts fresh daemons and sends
// the same inputs, so trials are repeats of one another. A trial that
// fails — a refused request, a wrong answer, a daemon that will not
// start — is recorded as a failed operation and ends the run.
func trials(e *env, w *workload, in *inputs, m *measure, tr *tracer, budget time.Duration, minTrials int) {
	start := time.Now()
	for i := 0; i < minTrials || time.Since(start) < budget; i++ {
		// Collect the load generator's garbage (the oracle's inputs,
		// the previous trial's verification) before the trial, not
		// during it.
		runtime.GC()
		m.beginTrial()
		t0 := time.Now()
		c0, s0 := cpuTimes()
		err := w.trial(e, in, m, tr)
		c1, s1 := cpuTimes()
		m.cur().wall = time.Since(t0)
		m.cur().steal = stealShare(c0, s0, c1, s1)
		if err != nil {
			m.fail(err)
			return
		}
	}
}

func workloadNames() []string {
	var out []string
	for _, w := range workloadList {
		out = append(out, w.name)
	}
	return out
}

func findWorkload(name string) *workload {
	for _, w := range workloadList {
		if w.name == name {
			return w
		}
	}
	return nil
}

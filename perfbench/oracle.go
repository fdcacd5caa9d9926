package main

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/words"
)

// batchOf views a flat row slice as a batch.
func batchOf(rows []uint16) *words.Batch { return words.BatchOf(dim, rows) }

// errWrong marks an answer that disagrees with the oracle.
var errWrong = errors.New("wrong answer")

// summaryAnswerer is the query surface the oracles evaluate.
type summaryAnswerer interface {
	F0(c words.ColumnSet) (float64, error)
	Fp(c words.ColumnSet, p float64) (float64, error)
}

// exactAnswers evaluates a query batch on an in-process exact summary
// fed the same rows as the daemon.
func exactAnswers(ex *core.Exact, qs []query) ([]resultJSON, error) {
	out := make([]resultJSON, len(qs))
	for i, q := range qs {
		c, err := words.NewColumnSet(dim, q.Cols...)
		if err != nil {
			return nil, err
		}
		switch q.Kind {
		case "f0":
			out[i].Value, err = ex.F0(c)
		case "fp":
			out[i].Value, err = ex.Fp(c, q.P)
		case "freq":
			out[i].Value, err = ex.Frequency(c, words.Word(q.Pattern))
		case "hh":
			var hits []core.HeavyHitter
			hits, err = ex.HeavyHitters(c, q.P, q.Phi)
			for _, h := range hits {
				out[i].Hits = append(out[i].Hits, hitJSON{Pattern: h.Pattern, Estimate: h.Estimate})
			}
		default:
			err = fmt.Errorf("unknown query kind %q", q.Kind)
		}
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// countAnswers is the oracle's independent exact evaluator: it counts
// projected keys of weighted batches directly and shares no code with
// internal/core or internal/freq, so a defect there cannot hide by
// agreeing with itself. weights[i] is how often batches[i] was sent.
func countAnswers(batches [][]uint16, weights []int64, qs []query) []resultJSON {
	out := make([]resultJSON, len(qs))
	for i, q := range qs {
		counts := map[string]int64{}
		key := make([]byte, len(q.Cols))
		for b, rows := range batches {
			for r := 0; r < len(rows); r += dim {
				for j, c := range q.Cols {
					key[j] = byte(rows[r+c])
				}
				counts[string(key)] += weights[b]
			}
		}
		moment := func(p float64) float64 {
			s := 0.0
			for _, c := range counts {
				s += math.Pow(float64(c), p)
			}
			return s
		}
		switch q.Kind {
		case "f0":
			out[i].Value = float64(len(counts))
		case "fp":
			out[i].Value = moment(q.P)
		case "freq":
			for j, v := range q.Pattern {
				key[j] = byte(v)
			}
			out[i].Value = float64(counts[string(key)])
		case "hh":
			thresh := q.Phi * math.Pow(moment(q.P), 1/q.P)
			for k, c := range counts {
				if float64(c) >= thresh {
					pattern := make([]uint16, len(k))
					for j := range k {
						pattern[j] = uint16(k[j])
					}
					out[i].Hits = append(out[i].Hits, hitJSON{Pattern: pattern, Estimate: float64(c)})
				}
			}
		}
	}
	return out
}

// crossCheck requires the in-process core.Exact answers to equal the
// independent count's before either is used as the oracle.
func crossCheck(qs []query, fromCore, counted []resultJSON) error {
	if err := checkExactBatch(qs, fromCore, counted); err != nil {
		return fmt.Errorf("in-process core.Exact disagrees with an independent count: %w", err)
	}
	return nil
}

// netAnswers evaluates F0 and Fp queries on an unsharded Net built
// with the daemon's configuration.
func netAnswers(s summaryAnswerer, qs []query) ([]resultJSON, error) {
	out := make([]resultJSON, len(qs))
	for i, q := range qs {
		c, err := words.NewColumnSet(dim, q.Cols...)
		if err != nil {
			return nil, err
		}
		switch q.Kind {
		case "f0":
			out[i].Value, err = s.F0(c)
		case "fp":
			out[i].Value, err = s.Fp(c, q.P)
		default:
			err = fmt.Errorf("net oracle: unsupported query kind %q", q.Kind)
		}
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

func wrong(i int, q query, format string, args ...interface{}) error {
	return fmt.Errorf("%w: query %d (%s on %v): %s", errWrong, i, q.Kind, q.Cols, fmt.Sprintf(format, args...))
}

// checkExactBatch requires the daemon's answers to equal the exact
// oracle's: values and heavy-hitter sets alike.
func checkExactBatch(qs []query, got, want []resultJSON) error {
	for i := range qs {
		if err := checkExact(i, qs[i], got[i], want[i]); err != nil {
			return err
		}
	}
	return nil
}

func checkExact(i int, q query, got, want resultJSON) error {
	if got.Error != "" {
		return wrong(i, q, "daemon error %q", got.Error)
	}
	if !closeRel(got.Value, want.Value, 1e-12) {
		return wrong(i, q, "value %v, want %v", got.Value, want.Value)
	}
	if len(got.Hits) != len(want.Hits) {
		return wrong(i, q, "%d heavy hitters, want %d", len(got.Hits), len(want.Hits))
	}
	wantHits := map[string]float64{}
	for _, h := range want.Hits {
		wantHits[fmt.Sprint(h.Pattern)] = h.Estimate
	}
	for _, h := range got.Hits {
		w, ok := wantHits[fmt.Sprint(h.Pattern)]
		if !ok || w != h.Estimate {
			return wrong(i, q, "heavy hitter %v with %v, want %v (present %v)", h.Pattern, h.Estimate, w, ok)
		}
	}
	return nil
}

// checkMixedBatch checks a mixed-exact reader batch: F0 on the
// "registered" subspace is a KMV estimate and must lie within the
// daemon's ε of the truth; every other query routes to an exact
// summary (mirror or catch-all) and must be exact.
func checkMixedBatch(qs []query, got, want []resultJSON) error {
	for i, q := range qs {
		if i == 0 {
			if got[i].Error != "" {
				return wrong(i, q, "daemon error %q", got[i].Error)
			}
			if math.Abs(got[i].Value-want[i].Value) > defaultEps*want[i].Value {
				return wrong(i, q, "registered F0 %v outside ε=%v of %v", got[i].Value, defaultEps, want[i].Value)
			}
			continue
		}
		if err := checkExact(i, q, got[i], want[i]); err != nil {
			return err
		}
	}
	return nil
}

// checkNetBatch is the sharded-net contract: F0 equal to, and Fp
// within 1e-9 relative of, the unsharded Net's answer.
func checkNetBatch(qs []query, got, want []resultJSON) error {
	for i, q := range qs {
		if got[i].Error != "" {
			return wrong(i, q, "daemon error %q", got[i].Error)
		}
		tol := 0.0
		if q.Kind == "fp" {
			tol = 1e-9
		}
		if !closeRel(got[i].Value, want[i].Value, tol) {
			return wrong(i, q, "value %v, unsharded net says %v", got[i].Value, want[i].Value)
		}
	}
	return nil
}

// checkSampleBatch is the sampler's (ε, δ) contract against exact
// ground truth ex (with n rows): every frequency estimate, and every
// reported heavy hitter's estimate, within εn of the true count; every
// key with a true count of at least (φ+ε)n reported, and none below
// (φ−ε)n.
func checkSampleBatch(qs []query, got, want []resultJSON, ex *core.Exact) error {
	n := float64(ex.Rows())
	bound := defaultEps * n
	for i, q := range qs {
		if got[i].Error != "" {
			return wrong(i, q, "daemon error %q", got[i].Error)
		}
		switch q.Kind {
		case "freq":
			if math.Abs(got[i].Value-want[i].Value) > bound {
				return wrong(i, q, "estimate %v, true %v, bound εn=%v", got[i].Value, want[i].Value, bound)
			}
		case "hh":
			c, err := words.NewColumnSet(dim, q.Cols...)
			if err != nil {
				return err
			}
			reported := map[string]bool{}
			for _, h := range got[i].Hits {
				t, err := ex.Frequency(c, words.Word(h.Pattern))
				if err != nil {
					return wrong(i, q, "heavy hitter %v: %v", h.Pattern, err)
				}
				if math.Abs(h.Estimate-t) > bound {
					return wrong(i, q, "heavy hitter %v estimate %v, true %v, bound εn=%v", h.Pattern, h.Estimate, t, bound)
				}
				if t < (q.Phi-defaultEps)*n {
					return wrong(i, q, "heavy hitter %v has true count %v, below (φ−ε)n=%v", h.Pattern, t, (q.Phi-defaultEps)*n)
				}
				reported[fmt.Sprint(h.Pattern)] = true
			}
			for _, h := range want[i].Hits {
				if h.Estimate >= (q.Phi+defaultEps)*n && !reported[fmt.Sprint(h.Pattern)] {
					return wrong(i, q, "heavy hitter %v with true count %v ≥ (φ+ε)n=%v not reported", h.Pattern, h.Estimate, (q.Phi+defaultEps)*n)
				}
			}
		}
	}
	return nil
}

// closeRel reports |a−b| ≤ tol·|b| (exact equality when tol is 0).
func closeRel(a, b, tol float64) bool {
	if tol == 0 {
		return a == b
	}
	return math.Abs(a-b) <= tol*math.Abs(b)
}

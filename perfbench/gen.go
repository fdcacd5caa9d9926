package main

import (
	"math/rand/v2"
	"sort"
	"strconv"
)

// Shape of every workload's rows: the daemons run at -d 12 -q 2.
const (
	dim      = 12
	alphabet = 2
)

// newRand is the workload's seeded generator; stream separates the
// independent draws of one seed (rows, queries, schedule).
func newRand(seed uint64, stream uint64) *rand.Rand {
	return rand.New(rand.NewPCG(seed, 0x9e3779b97f4a7c15^stream))
}

// uniformRows draws n rows with independent uniform symbols, flat
// with stride dim.
func uniformRows(r *rand.Rand, n int) []uint16 {
	out := make([]uint16, n*dim)
	for i := range out {
		out[i] = uint16(r.IntN(alphabet))
	}
	return out
}

// zipfRows draws n rows whose identities follow a Zipf law (exponent
// 1.1) over a seeded permutation of all q^d rows, so a few rows are
// heavy and most are rare.
func zipfRows(r *rand.Rand, n int) []uint16 {
	universe := 1
	for i := 0; i < dim; i++ {
		universe *= alphabet
	}
	perm := r.Perm(universe)
	z := rand.NewZipf(r, 1.1, 1, uint64(universe-1))
	out := make([]uint16, 0, n*dim)
	for i := 0; i < n; i++ {
		x := perm[z.Uint64()]
		for j := 0; j < dim; j++ {
			out = append(out, uint16(x%alphabet))
			x /= alphabet
		}
	}
	return out
}

// encodeObserve renders rows as a /v1/observe body.
func encodeObserve(rows []uint16) []byte {
	b := make([]byte, 0, 10+len(rows)*2+len(rows)/dim*3)
	b = append(b, `{"rows":[`...)
	for i := 0; i < len(rows); i += dim {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, '[')
		for j := 0; j < dim; j++ {
			if j > 0 {
				b = append(b, ',')
			}
			b = strconv.AppendUint(b, uint64(rows[i+j]), 10)
		}
		b = append(b, ']')
	}
	return append(b, "]}"...)
}

// query is one /v1/query question, in the daemon's wire schema.
type query struct {
	Kind    string   `json:"kind"`
	Cols    []int    `json:"cols"`
	P       float64  `json:"p,omitempty"`
	Phi     float64  `json:"phi,omitempty"`
	Pattern []uint16 `json:"pattern,omitempty"`
}

// colSizes are the projection sizes |C| the query pool and the input
// properties use.
var colSizes = []int{2, 4, 8, 12}

// randomCols draws a sorted k-subset of the columns.
func randomCols(r *rand.Rand, k int) []int {
	cols := r.Perm(dim)[:k]
	sort.Ints(cols)
	return cols
}

func randomPattern(r *rand.Rand, k int) []uint16 {
	p := make([]uint16, k)
	for i := range p {
		p[i] = uint16(r.IntN(alphabet))
	}
	return p
}

// mixedBatch is a four-query batch with one query per kind (f0, fp,
// freq, hh) and one per projection size in colSizes, rotated by i so
// every batch costs about the same whatever the seed draws.
func mixedBatch(r *rand.Rand, i int) []query {
	kinds := []string{"f0", "fp", "freq", "hh"}
	out := make([]query, len(kinds))
	for j, kind := range kinds {
		k := colSizes[(i+j)%len(colSizes)]
		out[j] = makeQuery(r, kind, randomCols(r, k))
	}
	return out
}

// makeQuery fills the class-specific fields of one query.
func makeQuery(r *rand.Rand, kind string, cols []int) query {
	q := query{Kind: kind, Cols: cols}
	switch kind {
	case "fp":
		q.P = 2
	case "freq":
		q.Pattern = randomPattern(r, len(cols))
	case "hh":
		q.P, q.Phi = 2, 0.1
	}
	return q
}

// inputProps are the input properties every result records: how many
// rows are distinct, and how often a row's projected key repeats an
// earlier row of the same observe batch, per projection size.
type inputProps struct {
	distinctRowShare float64
	repeatShare      map[int]float64
}

// measureInput computes inputProps over the observe batches (each a
// flat row slice), projecting onto the first k columns.
func measureInput(batches [][]uint16) inputProps {
	props := inputProps{repeatShare: map[int]float64{}}
	all := map[string]struct{}{}
	total := 0
	for _, b := range batches {
		for i := 0; i < len(b); i += dim {
			all[key(b[i:i+dim], dim)] = struct{}{}
			total++
		}
	}
	if total == 0 {
		return props
	}
	props.distinctRowShare = float64(len(all)) / float64(total)
	for _, k := range colSizes {
		repeats := 0
		for _, b := range batches {
			seen := map[string]struct{}{}
			for i := 0; i < len(b); i += dim {
				kk := key(b[i:i+dim], k)
				if _, ok := seen[kk]; ok {
					repeats++
				} else {
					seen[kk] = struct{}{}
				}
			}
		}
		props.repeatShare[k] = float64(repeats) / float64(total)
	}
	return props
}

func key(row []uint16, k int) string {
	b := make([]byte, k)
	for i := 0; i < k; i++ {
		b[i] = byte(row[i])
	}
	return string(b)
}

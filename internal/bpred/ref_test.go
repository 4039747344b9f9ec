package bpred

import (
	"testing"

	"repro/internal/rng"
)

// refTable and refPerceptron are the int16, branchy perceptron the packed
// int8 table replaced, kept as the reference its predictions must match.
type refTable struct {
	rows   [][historyLen + 1]int16
	mask   uint64
	clamps int // updates a bound held back, so tests can see saturation ran
}

type refPerceptron struct {
	table   *refTable
	history uint64
}

func newRefShared(rows, n int) []*refPerceptron {
	size := 1
	for size < rows {
		size <<= 1
	}
	t := &refTable{rows: make([][historyLen + 1]int16, size), mask: uint64(size - 1)}
	out := make([]*refPerceptron, n)
	for i := range out {
		out[i] = &refPerceptron{table: t}
	}
	return out
}

func (t *refTable) output(pc, h uint64) int32 {
	w := &t.rows[(pc>>2)&t.mask]
	y := int32(w[0])
	for i := 0; i < historyLen; i++ {
		if h>>uint(i)&1 == 1 {
			y += int32(w[i+1])
		} else {
			y -= int32(w[i+1])
		}
	}
	return y
}

func (p *refPerceptron) Predict(pc uint64) bool { return p.table.output(pc, p.history) >= 0 }

func (p *refPerceptron) Update(pc uint64, taken bool) {
	t := p.table
	y := t.output(pc, p.history)
	if (y >= 0) != taken || abs32(y) <= perceptronTheta {
		w := &t.rows[(pc>>2)&t.mask]
		w[0] = t.saturate(w[0], taken)
		for i := 0; i < historyLen; i++ {
			agree := (p.history>>uint(i)&1 == 1) == taken
			w[i+1] = t.saturate(w[i+1], agree)
		}
	}
	p.history = p.history<<1 | b2u(taken)
}

func (t *refTable) saturate(w int16, up bool) int16 {
	if up {
		if w < weightMax {
			return w + 1
		}
		t.clamps++
		return w
	}
	if w > weightMin {
		return w - 1
	}
	t.clamps++
	return w
}

// TestPerceptronMatchesReference drives the packed predictor and the
// reference with the same seeded Predict/Update streams from 1-4 threads
// over one shared table. Odd seeds start both tables at zero, as a run
// does; even seeds start them from the same seeded weights, half of them
// at a bound, so updates keep stepping into saturation. The streams mix
// strongly biased and random branches over more PCs than rows, so threads
// alias rows.
func TestPerceptronMatchesReference(t *testing.T) {
	for threads := 1; threads <= 4; threads++ {
		for seed := uint64(1); seed <= 4; seed++ {
			got, ref := ResetShared(nil, 64, threads), newRefShared(64, threads)
			r := rng.New(seed*10 + uint64(threads))
			preload := seed%2 == 0
			if preload {
				preloadWeights(r, got[0].table, ref[0].table)
			}
			for step := 0; step < 40000; step++ {
				tid := r.Intn(threads)
				pc := uint64(r.Intn(512) * 4)
				taken := r.Bool(0.5)
				if pc%16 == 0 {
					taken = r.Bool(0.97)
				}
				if g, w := got[tid].Predict(pc), ref[tid].Predict(pc); g != w {
					t.Fatalf("%d threads seed %d step %d: predict %v, reference %v", threads, seed, step, g, w)
				}
				got[tid].Update(pc, taken)
				ref[tid].Update(pc, taken)
			}
			for i, row := range got[0].table.rows {
				for j, w := range ref[0].table.rows[i] {
					if int16(row[j]) != w {
						t.Fatalf("%d threads seed %d: row %d weight %d = %d, reference %d", threads, seed, i, j, row[j], w)
					}
				}
			}
			if preload && ref[0].table.clamps == 0 {
				t.Fatalf("%d threads seed %d: no update reached a bound; the stream does not exercise saturation", threads, seed)
			}
		}
	}
}

// preloadWeights gives both tables the same seeded weights, half of them
// at one of the two bounds.
func preloadWeights(r *rng.Source, got *perceptronTable, ref *refTable) {
	for i := range got.rows {
		for j := 0; j <= historyLen; j++ {
			w := int16(weightMin + r.Intn(weightMax-weightMin+1))
			if r.Bool(0.5) {
				w = weightMin
				if r.Bool(0.5) {
					w = weightMax
				}
			}
			got.rows[i][j], ref.rows[i][j] = int8(w), w
		}
	}
}

// Package bpred implements the branch direction predictor used by the
// simulator's fetch stage.
//
// The paper's baseline (Table 1) uses a perceptron predictor, implemented
// here after Jiménez & Lin, "Dynamic branch prediction with perceptrons"
// (HPCA 2001). Predict(pc) returns the guess; Update(pc, taken) trains
// after resolution, in program order. In an SMT the weight table is shared
// between threads (as in the real machines the paper models); the global
// history register, however, is per-thread, which callers obtain by
// building one Perceptron per hardware context over a common table with
// ResetShared, which builds new ones when given nil.
package bpred

const (
	// historyLen is the global history length. 28 bits is within the range
	// the perceptron paper evaluates for ~4KB budgets.
	historyLen = 28
	// weightMax/weightMin saturate the 8-bit signed weights.
	weightMax = 127
	weightMin = -128
	// rowLen is a row's stride: the bias weight and historyLen history
	// weights, padded to 32 bytes so no row straddles a 64-byte host line.
	rowLen = 32
)

// A row must hold the bias weight plus one weight per history bit.
var _ [rowLen - (historyLen + 1)]struct{}

// perceptronTheta is the optimal training threshold from the perceptron
// paper, floor(1.93*h + 14), computed for historyLen at init time (the
// expression is float-valued so it cannot be a typed integer constant).
var perceptronTheta = func() int32 {
	h := float64(historyLen)
	return int32(1.93*h + 14)
}()

// perceptronTable is the shared weight storage. Separate from the
// per-thread history so SMT contexts can share it.
type perceptronTable struct {
	rows  [][rowLen]int8
	mask  uint64
	theta int32
}

// Perceptron is a perceptron branch predictor with a per-instance global
// history register (one instance per hardware thread) over a (possibly
// shared) weight table.
type Perceptron struct {
	table   *perceptronTable
	history uint64 // bit i = outcome of i-th most recent branch (1 = taken)
}

// NewPerceptron builds a private-table perceptron predictor with the given
// number of perceptron rows (rounded up to a power of two).
func NewPerceptron(rows int) *Perceptron {
	t := &perceptronTable{}
	t.reset(rows)
	return &Perceptron{table: t}
}

// ResetShared returns n predictors (one per thread) over one shared weight
// table, every weight and history zero. Given nil it builds them; given an
// earlier call's predictors it reuses them, and the table's storage when
// rows fit in it.
func ResetShared(ps []*Perceptron, rows, n int) []*Perceptron {
	t := &perceptronTable{}
	if len(ps) > 0 {
		t = ps[0].table
	}
	t.reset(rows)
	if cap(ps) < n {
		ps = append(make([]*Perceptron, 0, n), ps...)
	}
	ps = ps[:n]
	for i, p := range ps {
		if p == nil {
			p = &Perceptron{}
			ps[i] = p
		}
		*p = Perceptron{table: t}
	}
	return ps
}

// reset empties t and sizes it to rows rounded up to a power of two,
// keeping its storage when that fits.
func (t *perceptronTable) reset(rows int) {
	n := 1
	for n < rows {
		n <<= 1
	}
	if cap(t.rows) >= n {
		t.rows = t.rows[:n]
		clear(t.rows)
	} else {
		t.rows = make([][rowLen]int8, n)
	}
	t.mask = uint64(n - 1)
	t.theta = perceptronTheta
}

// index hashes a PC to a table row.
func (t *perceptronTable) index(pc uint64) uint64 {
	return (pc >> 2) & t.mask
}

// output computes the perceptron dot product for pc under history h: the
// bias weight plus each history weight, added where its history bit is set
// and subtracted where it is clear. The sign is applied without a branch,
// as a multiply by 2b-1 for history bit b.
func (t *perceptronTable) output(pc, h uint64) int32 {
	w := &t.rows[t.index(pc)]
	y := int32(w[0]) // bias weight
	for _, wi := range w[1 : historyLen+1] {
		y += int32(wi) * (int32(h&1)*2 - 1)
		h >>= 1
	}
	return y
}

// Predict returns the sign of the perceptron output.
func (p *Perceptron) Predict(pc uint64) bool {
	return p.table.output(pc, p.history) >= 0
}

// Update trains weights when the prediction was wrong or weakly confident,
// then shifts the outcome into this thread's history register.
func (p *Perceptron) Update(pc uint64, taken bool) {
	t := p.table
	y := t.output(pc, p.history)
	pred := y >= 0
	if pred != taken || abs32(y) <= t.theta {
		// The bias weight moves toward the outcome; a history weight moves
		// up where its bit agrees with the outcome and down where it
		// disagrees. x is 0 on agreement, so 1-2x is the +1/-1 step.
		w := &t.rows[t.index(pc)]
		tk := b2u(taken)
		w[0] = saturate(w[0], int32(2*tk)-1)
		h := p.history
		for i := 1; i <= historyLen; i++ {
			x := int32(h&1 ^ tk)
			h >>= 1
			w[i] = saturate(w[i], 1-2*x)
		}
	}
	p.history = p.history<<1 | b2u(taken)
}

// --- helpers ----------------------------------------------------------------

func abs32(x int32) int32 {
	if x < 0 {
		return -x
	}
	return x
}

// saturate steps w by d (+1 or -1), clamped to [weightMin, weightMax].
func saturate(w int8, d int32) int8 {
	return int8(max(min(int32(w)+d, weightMax), weightMin))
}

func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// Package metrics implements the paper's evaluation metrics (§5):
// IPC throughput (eq. 1), the fairness/performance balance (eq. 2, the
// harmonic mean of per-thread IPC speedups over single-threaded
// execution, from Luo et al.), and the Energy-Delay² efficiency proxy of
// §5.3 (executed instructions × CPI²).
package metrics

// Throughput is eq. 1: the average of per-thread multithreaded IPCs.
func Throughput(ipcMT []float64) float64 { return Mean(ipcMT) }

// Mean returns the arithmetic mean of xs (0 for none).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// Fairness is eq. 2: n / Σ(IPC_ST,i / IPC_MT,i) — the harmonic mean of
// each thread's multithreaded-over-singlethreaded speedup. It is 1.0 when
// every thread runs as fast as it would alone, and collapses toward 0
// when any thread is starved. It returns 0 on degenerate input (zero
// IPCs, mismatched lengths).
func Fairness(ipcST, ipcMT []float64) float64 {
	n := len(ipcMT)
	if n == 0 || len(ipcST) != n {
		return 0
	}
	var sum float64
	for i := 0; i < n; i++ {
		if ipcMT[i] <= 0 || ipcST[i] <= 0 {
			return 0
		}
		sum += ipcST[i] / ipcMT[i]
	}
	return float64(n) / sum
}

// ED2 is the §5.3 efficiency proxy: executed instructions (every
// instruction that occupied a functional unit, including runahead and
// squashed work — the energy) times the square of the average CPI (the
// delay). The paper reports it normalized to ICOUNT; Normalize does that.
func ED2(executed uint64, cycles uint64, committed uint64) float64 {
	if committed == 0 || cycles == 0 {
		return 0
	}
	cpi := float64(cycles) / float64(committed)
	return float64(executed) * cpi * cpi
}

// Normalize returns v/base, or 0 when the base is degenerate.
func Normalize(v, base float64) float64 {
	if base == 0 {
		return 0
	}
	return v / base
}

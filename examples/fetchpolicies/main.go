// Fetch-policy shootout: run one memory-bound workload (art+mcf, the
// paper's canonical MEM2 pair) under every evaluated policy and render
// Figure-1-style bars for throughput and fairness.
//
// This example shows the paper's central tension: STALL and FLUSH buy the
// fast thread's throughput by starving the memory-bound thread (fairness
// collapses), while Runahead Threads speed up the memory-bound thread
// itself.
//
// Run with:
//
//	go run ./examples/fetchpolicies
package main

import (
	"fmt"
	"log"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/report"
	"repro/internal/workload"
)

func main() {
	w := workload.MustByGroup("MEM2")[1] // art+mcf

	cfg := core.DefaultConfig()
	cfg.TraceLen = 12_000
	// Single-thread reference IPCs (IPC_ST of the fairness metric) are
	// policy-independent: compute them once, before the policy loop.
	stv := make([]float64, len(w.Benchmarks))
	for i, b := range w.Benchmarks {
		res, err := core.RunSingle(cfg, b)
		if err != nil {
			log.Fatal(err)
		}
		stv[i] = res.Threads[0].IPC
	}

	type row struct {
		policy core.PolicyKind
		thru   float64
		fair   float64
	}
	var rows []row
	var maxThru, maxFair float64
	for _, pol := range core.Policies() {
		cfg.Policy = pol
		res, err := core.Run(cfg, w)
		if err != nil {
			log.Fatal(err)
		}
		r := row{
			policy: pol,
			thru:   metrics.Throughput(res.IPCs()),
			fair:   metrics.Fairness(stv, res.IPCs()),
		}
		rows = append(rows, r)
		if r.thru > maxThru {
			maxThru = r.thru
		}
		if r.fair > maxFair {
			maxFair = r.fair
		}
	}

	fmt.Printf("workload %s on the Table 1 machine\n\n", w.Name())
	fmt.Println("throughput (avg IPC):")
	for _, r := range rows {
		fmt.Println("  " + report.Bar(string(r.policy), r.thru, maxThru, 32))
	}
	fmt.Println("\nfairness (harmonic mean of per-thread speedups):")
	for _, r := range rows {
		fmt.Println("  " + report.Bar(string(r.policy), r.fair, maxFair, 32))
	}
}

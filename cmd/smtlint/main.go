// Command smtlint runs the repo's invariant-checker suite — the
// nowallclock analyzer of internal/analysis, which keeps wall clocks and
// global math/rand out of the simulation packages — over a set of
// package patterns, alongside the standard go vet passes.
//
//	go run ./cmd/smtlint ./...          # the CI lint gate
//	go run ./cmd/smtlint -vet=false ./internal/core
//	go run ./cmd/smtlint -list
//	go run ./cmd/smtlint -json ./...    # one JSON object per finding, per line
//
// With -json each finding prints as a single-line JSON object on stdout —
// {"file":...,"line":...,"analyzer":...,"message":...} — for editors and
// CI annotators; the human summary still goes to stderr and the exit
// codes are unchanged.
//
// Findings print in the usual file:line:col form and make the process
// exit 1; a clean tree exits 0. There is no suppression directive.
//
// Exit status: 0 clean, 1 findings (smtlint or vet), 2 usage or load
// failure.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"time"

	"repro/internal/analysis"
	"repro/internal/analysis/lint"
)

// jsonFinding is the -json wire form of one diagnostic: one object per
// line, stable field set, so CI annotators and editors can consume
// findings without parsing the human file:line:col rendering.
type jsonFinding struct {
	File     string `json:"file"`
	Line     int    `json:"line"`
	Analyzer string `json:"analyzer"`
	Message  string `json:"message"`
}

func main() {
	vet := flag.Bool("vet", true, "also run the standard go vet passes over the same patterns")
	list := flag.Bool("list", false, "list the suite's analyzers and exit")
	jsonOut := flag.Bool("json", false, "print findings as one JSON object per line instead of file:line:col text")
	flag.Parse()

	analyzers := analysis.Analyzers()
	if *list {
		for _, a := range analyzers {
			fmt.Printf("%-12s %s\n", a.Name, a.Doc)
		}
		return
	}
	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	failed := false
	if *vet {
		cmd := exec.Command("go", append([]string{"vet"}, patterns...)...)
		cmd.Stdout = os.Stdout
		cmd.Stderr = os.Stderr
		if err := cmd.Run(); err != nil {
			if _, ok := err.(*exec.ExitError); !ok {
				fmt.Fprintf(os.Stderr, "smtlint: go vet: %v\n", err)
				os.Exit(2)
			}
			failed = true
		}
	}

	start := time.Now()
	pkgs, err := lint.Load(".", patterns...)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	res, err := lint.Run(pkgs, analyzers)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	elapsed := time.Since(start).Round(time.Millisecond)

	for _, d := range res.Diagnostics {
		if *jsonOut {
			line, _ := json.Marshal(jsonFinding{
				File:     d.Pos.Filename,
				Line:     d.Pos.Line,
				Analyzer: d.Analyzer,
				Message:  d.Message,
			})
			fmt.Println(string(line))
		} else {
			fmt.Println(d)
		}
	}
	if n := len(res.Diagnostics); n > 0 {
		fmt.Fprintf(os.Stderr, "smtlint: %d finding(s) across %d package(s) in %s\n", n, len(pkgs), elapsed)
		failed = true
	} else {
		fmt.Fprintf(os.Stderr, "smtlint: clean — %d package(s), %d analyzer(s) in %s\n", len(pkgs), len(analyzers), elapsed)
	}
	if failed {
		os.Exit(1)
	}
}

package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"testing"
	"time"
)

// TestReferenceHonorsContext locks the context fix: the in-process
// reference run threads its context into the session, so a canceled
// smtload (Ctrl-C) stops simulating reference grids instead of running
// every remaining spec to completion. Before the fix, reference() called
// RunScenario — the non-Ctx variant, since removed — and cancellation
// could not reach the sweep at all.
func TestReferenceHonorsContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	g := newGen(1, 0, 1500)
	start := time.Now()
	_, err := reference(ctx, g)
	if err == nil {
		t.Fatal("reference() with a canceled context succeeded; want context.Canceled")
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("reference() error = %v; want context.Canceled", err)
	}
	// The full 6-cell grid takes seconds; a canceled run must not
	// simulate anything. The generous bound only catches "ran anyway".
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("canceled reference() took %v; cancellation did not thread through", elapsed)
	}
}

// TestNewGenPure locks the generator contract reference-checking relies
// on: newGen must be a pure function of (seed, index, traceLen), because
// it is invoked once on the request path and once on the verification
// path and both must describe the same sweep.
func TestNewGenPure(t *testing.T) {
	for i := 0; i < 8; i++ {
		a, b := newGen(7, i, 900), newGen(7, i, 900)
		if a.format != b.format {
			t.Fatalf("spec %d: formats diverge: %q vs %q", i, a.format, b.format)
		}
		ja, err := json.Marshal(a.spec)
		if err != nil {
			t.Fatal(err)
		}
		jb, err := json.Marshal(b.spec)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(ja, jb) {
			t.Fatalf("spec %d: two generations differ:\n%s\n%s", i, ja, jb)
		}
	}
}

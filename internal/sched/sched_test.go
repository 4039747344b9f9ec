package sched

import (
	"bytes"
	"context"
	"encoding/json"
	"strings"
	"testing"

	"repro/internal/leakcheck"
)

// drain pops every queued job with an immediate Done — a one-worker
// system with instant service — and returns the payloads in pop order.
func drain(t *testing.T, s *Queue[string]) []string {
	t.Helper()
	var order []string
	for {
		j, ok := s.Pop()
		if !ok {
			return order
		}
		order = append(order, j.Payload)
		s.Done(j)
	}
}

func TestNewValidates(t *testing.T) {
	for _, policy := range []string{"", PolicyFair} {
		if q, err := New[string](policy); err != nil || q == nil {
			t.Errorf("New(%q) = %v, %v", policy, q, err)
		}
	}
	for _, policy := range []string{"bogus", "fifo"} {
		_, err := New[string](policy)
		if err == nil {
			t.Fatalf("unknown policy %q accepted", policy)
		}
		if !strings.Contains(err.Error(), PolicyFair) {
			t.Errorf("error %q does not list the valid policy", err)
		}
	}
}

func TestRequesterContext(t *testing.T) {
	ctx := context.Background()
	if got := Requester(ctx); got != "" {
		t.Errorf("unstamped context requester = %q, want empty", got)
	}
	if got := Requester(WithRequester(ctx, "alice")); got != "alice" {
		t.Errorf("requester = %q, want alice", got)
	}
	// Empty id is a no-op, not a stamp of "".
	if WithRequester(ctx, "") != ctx {
		t.Error("WithRequester(ctx, \"\") allocated a new context")
	}
}

func push(s *Queue[string], requester, payload string, cells int) {
	s.Push(Job[string]{Requester: requester, Cells: cells, Payload: payload})
}

// TestSingleRequesterPopsInArrivalOrder: a lone requester — the
// anonymous "" bucket every unstamped context lands in, or one named
// client — pops its jobs in push order, whatever their weights, with and
// without jobs left in service.
func TestSingleRequesterPopsInArrivalOrder(t *testing.T) {
	for _, req := range []string{"", "client-a"} {
		for _, done := range []bool{true, false} {
			s := &Queue[string]{}
			want := []string{"j1", "j2", "j3", "j4"}
			for i, p := range want {
				push(s, req, p, 1+7*(i%2))
			}
			var got []string
			for {
				j, ok := s.Pop()
				if !ok {
					break
				}
				got = append(got, j.Payload)
				if done {
					s.Done(j)
				}
			}
			if strings.Join(got, ",") != strings.Join(want, ",") {
				t.Errorf("requester %q (done=%v): order = %v, want %v", req, done, got, want)
			}
		}
	}
}

// TestFairInterleavesRequesters is the head-of-line starvation fix in
// miniature: with one worker and instant service, queued requesters
// alternate round-robin instead of draining in arrival order.
func TestFairInterleavesRequesters(t *testing.T) {
	s := &Queue[string]{}
	for _, p := range []string{"a1", "a2", "a3"} {
		push(s, "a", p, 8)
	}
	push(s, "b", "b1", 8)
	push(s, "b", "b2", 8)
	push(s, "c", "c1", 8)
	got := drain(t, s)
	want := []string{"a1", "b1", "c1", "a2", "b2", "a3"}
	if len(got) != len(want) {
		t.Fatalf("popped %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("fair order = %v, want %v", got, want)
		}
	}
}

// TestFairPrefersFewestCellsInService is the ICOUNT analogy proper:
// with jobs still in service (no Done), the requester with the fewest
// in-service cells pops first, whatever the arrival order.
func TestFairPrefersFewestCellsInService(t *testing.T) {
	s := &Queue[string]{}
	push(s, "heavy", "h1", 8)
	push(s, "heavy", "h2", 8)
	push(s, "light", "l1", 1)
	push(s, "light", "l2", 1)

	var got []string
	for i := 0; i < 4; i++ {
		j, ok := s.Pop()
		if !ok {
			t.Fatal("queue empty early")
		}
		got = append(got, j.Payload)
	}
	// h1 first (arrival order, all tied at zero in service), then light
	// twice (0 then 1 in-service cells, both below heavy's 8), then h2.
	want := []string{"h1", "l1", "l2", "h2"}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("fair in-service order = %v, want %v", got, want)
		}
	}
}

// TestFairLateArrivalNotStarved: a one-cell job queued behind a long
// backlog is served at the very next pop once the current job completes.
func TestFairLateArrivalNotStarved(t *testing.T) {
	s := &Queue[string]{}
	for i := 0; i < 100; i++ {
		push(s, "big", "big-job", 8)
	}
	first, _ := s.Pop() // the worker is busy on big's first job...
	push(s, "small", "small-job", 1)
	s.Done(first)
	j, ok := s.Pop() // ...and small preempts the remaining 99.
	if !ok || j.Payload != "small-job" {
		t.Fatalf("next pop = %+v, want small-job", j)
	}
}

func TestSnapshotAccounting(t *testing.T) {
	t.Run(PolicyFair, func(t *testing.T) {
		s := &Queue[string]{}
		if snap := s.Snapshot(); snap.QueuedJobs != 0 || len(snap.Clients) != 0 {
			t.Fatalf("idle snapshot not empty: %+v", snap)
		}
		push(s, "a", "a1", 8)
		push(s, "a", "a2", 4)
		push(s, "b", "b1", 1)

		snap := s.Snapshot()
		if snap.QueuedJobs != 3 || snap.QueuedCells != 13 || snap.InServiceCells != 0 {
			t.Errorf("queued snapshot = %+v, want 3 jobs / 13 cells / 0 in service", snap)
		}
		if a := snap.Clients["a"]; a.QueuedJobs != 2 || a.QueuedCells != 12 {
			t.Errorf("client a = %+v, want 2 jobs / 12 cells queued", a)
		}

		j, _ := s.Pop()
		snap = s.Snapshot()
		if snap.QueuedJobs != 2 || snap.QueuedCells != 13-j.Cells || snap.InServiceCells != j.Cells {
			t.Errorf("post-pop snapshot = %+v (popped %d cells)", snap, j.Cells)
		}
		if got := snap.Clients[j.Requester].InServiceCells; got != j.Cells {
			t.Errorf("client %q in service = %d, want %d", j.Requester, got, j.Cells)
		}

		s.Done(j)
		for {
			j, ok := s.Pop()
			if !ok {
				break
			}
			s.Done(j)
		}
		if snap := s.Snapshot(); snap.QueuedJobs != 0 || snap.QueuedCells != 0 ||
			snap.InServiceCells != 0 || len(snap.Clients) != 0 {
			t.Errorf("drained snapshot not empty: %+v (idle requesters must be forgotten)", snap)
		}
	})
}

// TestEveryPushIsPopped is the no-lost-work contract over a mixed
// population.
func TestEveryPushIsPopped(t *testing.T) {
	defer leakcheck.Check(t)
	s := &Queue[string]{}
	want := map[string]int{}
	for i, req := range []string{"a", "b", "", "c", "a", "b", "a", ""} {
		push(s, req, req, 1+i%3)
		want[req]++
	}
	got := map[string]int{}
	for _, p := range drain(t, s) {
		got[p]++
	}
	for req, n := range want {
		if got[req] != n {
			t.Errorf("requester %q popped %d jobs, want %d", req, got[req], n)
		}
	}
}

// TestSnapshotSerializesByteStable locks the claim behind the
// //lint:deterministic directive on the Snapshot builder: the client map
// it ranges over is key-addressed and reaches clients only as sorted-key
// JSON, so two identically driven queues serialize to identical bytes,
// with jobs queued and in service.
func TestSnapshotSerializesByteStable(t *testing.T) {
	drive := func(t *testing.T) []byte {
		s := &Queue[string]{}
		for _, r := range []string{"carol", "alice", "bob", "dave", "erin"} {
			push(s, r, r+"-1", 4)
			push(s, r, r+"-2", 2)
		}
		for i := 0; i < 3; i++ {
			if _, ok := s.Pop(); !ok {
				t.Fatal("queue drained early")
			}
		}
		b, err := json.Marshal(s.Snapshot())
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	a, b := drive(t), drive(t)
	if !bytes.Equal(a, b) {
		t.Errorf("identically driven snapshots serialize differently:\n a: %s\n b: %s", a, b)
	}
}

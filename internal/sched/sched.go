// Package sched provides the pluggable scheduling policies behind the
// experiment session's work queue.
//
// The session's dispatch used to be a single FIFO: one max-size sweep
// ahead of you meant your one-cell request waited for the entire sweep
// to drain — head-of-line starvation in a daemon that exists to simulate
// SMT fetch policies designed to prevent exactly that. The Scheduler
// interface makes the dispatch policy pluggable, and the fair policy
// applies the paper's own ICOUNT idea to the serving layer: just as
// ICOUNT fetches from the thread with the fewest instructions in the
// pipeline, the fair scheduler pops the next job from the requester with
// the fewest grid cells currently in service, so light requesters flow
// past heavy ones while heavy ones still progress — ties rotate
// round-robin (least recently served first), so no active requester is
// ever skipped indefinitely.
//
// Scheduling only reorders execution; it can never change results. Every
// simulation is a deterministic pure function of (workload, canonical
// config) and reductions collect in a fixed order, so any pop order
// yields bit-identical output — the same argument that makes worker
// count invisible.
//
// Requester identity rides the context: the smtsimd daemon stamps each
// request's context with WithRequester (the X-Client header, or the
// client's remote address), the context threads unchanged through
// scenario.ExecuteStreamCtx into Session.StartRunCtx — grid cells and
// single-thread fairness references alike — and the
// session recovers the identity with Requester at dispatch time. Code
// that never stamps a context (the figure CLIs) lands in the single
// anonymous "" bucket, where every policy degenerates to FIFO.
//
// Implementations are not safe for concurrent use: the session
// serializes every call under its own mutex, which also keeps
// Push/Pop/Done atomic with the worker-count bookkeeping.
package sched

import (
	"context"
	"fmt"
	"strings"
)

// Policy names accepted by New.
const (
	PolicyFIFO = "fifo"
	PolicyFair = "fair"
)

// Default is the policy New selects for the empty string.
const Default = PolicyFair

// Names lists the valid policy names.
func Names() []string { return []string{PolicyFIFO, PolicyFair} }

// Job is one queued unit of work: an opaque payload plus the accounting
// identity the scheduler orders by. Cells is the job's weight — the grid
// cells it will execute — which the fair policy's in-service accounting
// sums per requester.
type Job[T any] struct {
	// Requester identifies who asked for this job ("" = anonymous).
	Requester string
	// Cells is the number of grid cells the job carries.
	Cells int
	// Payload is the scheduler-opaque work item.
	Payload T
}

// Scheduler orders queued jobs for dispatch. The contract: every Push is
// eventually Popped (no policy may drop work), and the caller pairs each
// Pop with exactly one Done once the job's cells have left service —
// Pop moves a job's cells into the requester's in-service account, Done
// releases them. Implementations are not safe for concurrent use; the
// caller serializes all calls (the session holds its mutex).
type Scheduler[T any] interface {
	// Name returns the policy name ("fifo", "fair").
	Name() string
	// Push enqueues a job.
	Push(j Job[T])
	// Pop removes and returns the next job per the policy, accounting
	// its cells as in service; ok is false when nothing is queued.
	Pop() (j Job[T], ok bool)
	// Done releases the in-service accounting of a popped job.
	Done(j Job[T])
	// Snapshot reports the current queue and per-requester accounting.
	Snapshot() Snapshot
}

// New builds a scheduler by policy name; "" selects Default.
func New[T any](policy string) (Scheduler[T], error) {
	switch policy {
	case PolicyFIFO:
		return &fifo[T]{inService: map[string]int{}}, nil
	case "", PolicyFair:
		return &fair[T]{clients: map[string]*fairClient[T]{}}, nil
	}
	return nil, fmt.Errorf("sched: unknown policy %q (valid: %s)",
		policy, strings.Join(Names(), ", "))
}

// ClientStat is one requester's accounting inside a Snapshot.
type ClientStat struct {
	// QueuedJobs/QueuedCells count work accepted but not yet popped.
	QueuedJobs  int `json:"queuedJobs"`
	QueuedCells int `json:"queuedCells"`
	// InServiceCells counts cells popped by a worker and not yet Done.
	InServiceCells int `json:"inServiceCells"`
}

// Snapshot is a point-in-time view of the scheduler, shaped for direct
// JSON emission by the smtsimd /v1/metrics endpoint. Clients holds one
// entry per active requester — one with queued or in-service work; idle
// requesters are forgotten, so the map cannot grow without bound.
type Snapshot struct {
	Policy         string                `json:"policy"`
	QueuedJobs     int                   `json:"queuedJobs"`
	QueuedCells    int                   `json:"queuedCells"`
	InServiceCells int                   `json:"inServiceCells"`
	Clients        map[string]ClientStat `json:"clients,omitempty"`
}

// requesterKey carries the requester identity in a context.
type requesterKey struct{}

// WithRequester stamps ctx with a requester identity for downstream
// dispatch accounting; an empty id leaves ctx unchanged.
func WithRequester(ctx context.Context, id string) context.Context {
	if id == "" {
		return ctx
	}
	return context.WithValue(ctx, requesterKey{}, id)
}

// Requester recovers the identity stamped by WithRequester, or "" when
// the context carries none.
func Requester(ctx context.Context) string {
	id, _ := ctx.Value(requesterKey{}).(string)
	return id
}

// fifo is the original single-queue policy: jobs pop in arrival order,
// whoever queued them. Kept as the baseline scheduler — and the policy
// the starvation regression test proves the problem against.
type fifo[T any] struct {
	queue     []Job[T]
	cells     int
	inService map[string]int
	totalIn   int
}

func (f *fifo[T]) Name() string { return PolicyFIFO }

func (f *fifo[T]) Push(j Job[T]) {
	f.queue = append(f.queue, j)
	f.cells += j.Cells
}

func (f *fifo[T]) Pop() (Job[T], bool) {
	if len(f.queue) == 0 {
		return Job[T]{}, false
	}
	j := f.queue[0]
	f.queue[0] = Job[T]{} // drop the array's reference to the popped job
	f.queue = f.queue[1:]
	if len(f.queue) == 0 {
		f.queue = nil // release the drained backing array
	}
	f.cells -= j.Cells
	f.inService[j.Requester] += j.Cells
	f.totalIn += j.Cells
	return j, true
}

func (f *fifo[T]) Done(j Job[T]) {
	if n := f.inService[j.Requester] - j.Cells; n > 0 {
		f.inService[j.Requester] = n
	} else {
		delete(f.inService, j.Requester)
	}
	f.totalIn -= j.Cells
}

func (f *fifo[T]) Snapshot() Snapshot {
	s := Snapshot{
		Policy:         PolicyFIFO,
		QueuedJobs:     len(f.queue),
		QueuedCells:    f.cells,
		InServiceCells: f.totalIn,
	}
	clients := map[string]ClientStat{}
	for _, j := range f.queue {
		c := clients[j.Requester]
		c.QueuedJobs++
		c.QueuedCells += j.Cells
		clients[j.Requester] = c
	}
	//lint:deterministic merges per-client counters into a map; the result is key-addressed and serialized via encoding/json, which sorts keys, so iteration order is unobservable
	for id, n := range f.inService {
		c := clients[id]
		c.InServiceCells = n
		clients[id] = c
	}
	if len(clients) > 0 {
		s.Clients = clients
	}
	return s
}

// fairClient is one requester's state under the fair policy.
type fairClient[T any] struct {
	queue       []Job[T]
	queuedCells int
	inService   int    // cells popped, not yet Done
	lastPop     uint64 // stamp of the most recent pop (0 = never served)
	arrival     uint64 // stamp of the first push while active
}

// fair is the ICOUNT-style policy: Pop serves the active requester with
// the fewest cells in service (the analogue of ICOUNT's
// fewest-instructions-in-pipeline fetch priority), breaking ties
// round-robin toward the least recently served, then toward the earliest
// arrival. Within one requester, jobs stay FIFO, so a single requester
// observes exactly the old behavior. A requester with no queued jobs and
// nothing in service is forgotten (its stamps reset), bounding the state
// to active requesters.
type fair[T any] struct {
	clients     map[string]*fairClient[T]
	stamp       uint64 // shared arrival/pop stamp source
	queuedJobs  int
	queuedCells int
	totalIn     int
}

func (f *fair[T]) Name() string { return PolicyFair }

func (f *fair[T]) Push(j Job[T]) {
	c := f.clients[j.Requester]
	if c == nil {
		f.stamp++
		c = &fairClient[T]{arrival: f.stamp}
		f.clients[j.Requester] = c
	}
	c.queue = append(c.queue, j)
	c.queuedCells += j.Cells
	f.queuedJobs++
	f.queuedCells += j.Cells
}

// next returns the queued requester Pop should serve, nil when idle.
// The comparison key (inService, lastPop, arrival) is a total order over
// distinct clients — pop stamps are unique and arrival stamps are unique
// among never-served clients — so the choice does not depend on map
// iteration order.
func (f *fair[T]) next() *fairClient[T] {
	var best *fairClient[T]
	//lint:deterministic the (inService, lastPop, arrival) key documented above is a total order over distinct clients, so the minimum is unique and iteration order cannot change the winner
	for _, c := range f.clients {
		if len(c.queue) == 0 {
			continue
		}
		if best == nil ||
			c.inService < best.inService ||
			(c.inService == best.inService &&
				(c.lastPop < best.lastPop ||
					(c.lastPop == best.lastPop && c.arrival < best.arrival))) {
			best = c
		}
	}
	return best
}

func (f *fair[T]) Pop() (Job[T], bool) {
	c := f.next()
	if c == nil {
		return Job[T]{}, false
	}
	j := c.queue[0]
	c.queue[0] = Job[T]{}
	c.queue = c.queue[1:]
	if len(c.queue) == 0 {
		c.queue = nil
	}
	c.queuedCells -= j.Cells
	c.inService += j.Cells
	f.stamp++
	c.lastPop = f.stamp
	f.queuedJobs--
	f.queuedCells -= j.Cells
	f.totalIn += j.Cells
	return j, true
}

func (f *fair[T]) Done(j Job[T]) {
	c := f.clients[j.Requester]
	if c == nil {
		return
	}
	if c.inService -= j.Cells; c.inService < 0 {
		c.inService = 0
	}
	f.totalIn -= j.Cells
	if c.inService == 0 && len(c.queue) == 0 {
		delete(f.clients, j.Requester)
	}
}

func (f *fair[T]) Snapshot() Snapshot {
	s := Snapshot{
		Policy:         PolicyFair,
		QueuedJobs:     f.queuedJobs,
		QueuedCells:    f.queuedCells,
		InServiceCells: f.totalIn,
	}
	if len(f.clients) > 0 {
		s.Clients = make(map[string]ClientStat, len(f.clients))
		//lint:deterministic builds a key-addressed map serialized via encoding/json (sorted keys); iteration order is unobservable
		for id, c := range f.clients {
			s.Clients[id] = ClientStat{
				QueuedJobs:     len(c.queue),
				QueuedCells:    c.queuedCells,
				InServiceCells: c.inService,
			}
		}
	}
	return s
}

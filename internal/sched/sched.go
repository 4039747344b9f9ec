// Package sched provides the fair work queue behind the experiment
// session's dispatch.
//
// A single FIFO queue starves light requesters: one max-size sweep ahead
// of you means your one-cell request waits for the entire sweep to drain
// — head-of-line starvation in a daemon that exists to simulate SMT fetch
// policies designed to prevent exactly that. Queue applies the paper's
// own ICOUNT idea to the serving layer: just as ICOUNT fetches from the
// thread with the fewest instructions in the pipeline, Queue pops the
// next job from the requester with the fewest grid cells currently in
// service, so light requesters flow past heavy ones while heavy ones
// still progress — ties rotate round-robin (least recently served
// first), so no active requester is ever skipped indefinitely.
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
// scenario.ExecuteStreamCtx (running the request's scenario.Plan) into
// Session.StartRunCtx — grid cells and
// single-thread fairness references alike — and the session recovers
// the identity with Requester at dispatch time. Code that never stamps a
// context (the figure CLIs) lands in the single anonymous "" bucket,
// which pops in push order.
//
// A Queue is not safe for concurrent use: the session serializes every
// call under its own mutex, which also keeps Push/Pop/Done atomic with
// the worker-count bookkeeping.
package sched

import (
	"context"
	"fmt"
)

// PolicyFair names the one scheduling policy New accepts.
const PolicyFair = "fair"

// Job is one queued unit of work: an opaque payload plus the accounting
// identity the queue orders by. Cells is the job's weight — the grid
// cells it will execute — which the in-service accounting sums per
// requester.
type Job[T any] struct {
	// Requester identifies who asked for this job ("" = anonymous).
	Requester string
	// Cells is the number of grid cells the job carries.
	Cells int
	// Payload is the queue-opaque work item.
	Payload T
}

// New returns an empty Queue. policy must be "" or PolicyFair.
func New[T any](policy string) (*Queue[T], error) {
	if policy != "" && policy != PolicyFair {
		return nil, fmt.Errorf("sched: unknown policy %q (valid: %s)", policy, PolicyFair)
	}
	return &Queue[T]{}, nil
}

// ClientStat is one requester's accounting inside a Snapshot.
type ClientStat struct {
	// QueuedJobs/QueuedCells count work accepted but not yet popped.
	QueuedJobs  int `json:"queuedJobs"`
	QueuedCells int `json:"queuedCells"`
	// InServiceCells counts cells popped by a worker and not yet Done.
	InServiceCells int `json:"inServiceCells"`
}

// Snapshot is a point-in-time view of the queue, shaped for direct JSON
// emission by the smtsimd /v1/metrics endpoint. Clients holds one entry
// per active requester — one with queued or in-service work; idle
// requesters are forgotten, so the map cannot grow without bound.
type Snapshot struct {
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

// client is one requester's state in the queue.
type client[T any] struct {
	queue       []Job[T]
	queuedCells int
	inService   int    // cells popped, not yet Done
	lastPop     uint64 // stamp of the most recent pop (0 = never served)
	arrival     uint64 // stamp of the first push while active
}

// Queue is the ICOUNT-style fair work queue: Pop serves the active
// requester with the fewest cells in service (the analogue of ICOUNT's
// fewest-instructions-in-pipeline fetch priority), breaking ties
// round-robin toward the least recently served, then toward the earliest
// arrival. Within one requester, jobs pop in push order. A requester
// with no queued jobs and nothing in service is forgotten (its stamps
// reset), bounding the state to active requesters.
//
// The contract: every Push is eventually Popped (no job is dropped), and
// the caller pairs each Pop with exactly one Done once the job's cells
// have left service — Pop moves a job's cells into the requester's
// in-service account, Done releases them. The zero Queue is empty and
// ready to use.
type Queue[T any] struct {
	clients     map[string]*client[T]
	stamp       uint64 // shared arrival/pop stamp source
	queuedJobs  int
	queuedCells int
	totalIn     int
}

// Push enqueues a job.
func (q *Queue[T]) Push(j Job[T]) {
	c := q.clients[j.Requester]
	if c == nil {
		if q.clients == nil {
			q.clients = map[string]*client[T]{}
		}
		q.stamp++
		c = &client[T]{arrival: q.stamp}
		q.clients[j.Requester] = c
	}
	c.queue = append(c.queue, j)
	c.queuedCells += j.Cells
	q.queuedJobs++
	q.queuedCells += j.Cells
}

// next returns the queued requester Pop should serve, nil when idle.
// The comparison key (inService, lastPop, arrival) is a total order over
// distinct clients — pop stamps are unique and arrival stamps are unique
// among never-served clients — so the choice does not depend on map
// iteration order.
func (q *Queue[T]) next() *client[T] {
	var best *client[T]
	for _, c := range q.clients {
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

// Pop removes and returns the next job, accounting its cells as in
// service; ok is false when nothing is queued.
func (q *Queue[T]) Pop() (j Job[T], ok bool) {
	c := q.next()
	if c == nil {
		return Job[T]{}, false
	}
	j = c.queue[0]
	c.queue[0] = Job[T]{} // drop the array's reference to the popped job
	c.queue = c.queue[1:]
	if len(c.queue) == 0 {
		c.queue = nil // release the drained backing array
	}
	c.queuedCells -= j.Cells
	c.inService += j.Cells
	q.stamp++
	c.lastPop = q.stamp
	q.queuedJobs--
	q.queuedCells -= j.Cells
	q.totalIn += j.Cells
	return j, true
}

// Done releases the in-service accounting of a popped job.
func (q *Queue[T]) Done(j Job[T]) {
	c := q.clients[j.Requester]
	if c == nil {
		return
	}
	if c.inService -= j.Cells; c.inService < 0 {
		c.inService = 0
	}
	q.totalIn -= j.Cells
	if c.inService == 0 && len(c.queue) == 0 {
		delete(q.clients, j.Requester)
	}
}

// Snapshot reports the current queue and per-requester accounting.
func (q *Queue[T]) Snapshot() Snapshot {
	s := Snapshot{
		QueuedJobs:     q.queuedJobs,
		QueuedCells:    q.queuedCells,
		InServiceCells: q.totalIn,
	}
	if len(q.clients) > 0 {
		s.Clients = make(map[string]ClientStat, len(q.clients))
		for id, c := range q.clients {
			s.Clients[id] = ClientStat{
				QueuedJobs:     len(c.queue),
				QueuedCells:    c.queuedCells,
				InServiceCells: c.inService,
			}
		}
	}
	return s
}

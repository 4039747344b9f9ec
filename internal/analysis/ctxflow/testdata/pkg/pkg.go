// Package ctxtest exercises ctxflow in a module-internal package:
// context.Background() and context.TODO() outside main are flagged, a
// threaded context and a justified directive pass.
package ctxtest

import "context"

// StepCtx accepts its caller's context.
func StepCtx(ctx context.Context) { _ = ctx }

// threaded is the correct shape.
func threaded(ctx context.Context) {
	StepCtx(ctx)
}

// orphan manufactures an uncancellable context outside main.
func orphan() {
	StepCtx(context.Background()) // want "context.Background"
}

// later leaves the context for a future change to thread.
func later() {
	StepCtx(context.TODO()) // want "context.TODO"
}

// detached carries a directive: work that must complete even if the
// requester dies is the one sanctioned reason to drop a context.
func detached() {
	//lint:ctxflow the spawned work must outlive its requester by design
	StepCtx(context.Background()) // want-suppressed "context.Background"
}

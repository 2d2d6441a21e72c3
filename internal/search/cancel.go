package search

import (
	"context"
	"fmt"
)

// Cancelled is the error a search returns when its context is
// cancelled — a SIGINT/SIGTERM from the batch scheduler, an expired
// wall-clock budget, or a hard cancellation after the drain grace
// period. It implements Abort, so the batched evaluation layer flushes
// the completed deterministic prefix to the log (and journal) and
// salvages completed sibling results before returning it: a cancelled
// run's journal is always an exact, resumable prefix of the
// uninterrupted run's.
//
// Above the Evaluator interface a cancellation travels as this error;
// beneath it (an evaluator cut short by a hard cancellation) it is
// raised by panic, like *resilience.AbortError, and batchEval turns it
// back into the error.
type Cancelled struct {
	// Err is the context error that triggered the stop
	// (context.Canceled for a signal, context.DeadlineExceeded for a
	// wall-clock budget).
	Err error
}

// NewCancelled wraps a context error (nil is normalized to
// context.Canceled so a Cancelled always explains itself).
func NewCancelled(err error) *Cancelled {
	if err == nil {
		err = context.Canceled
	}
	return &Cancelled{Err: err}
}

func (c *Cancelled) Error() string {
	return fmt.Sprintf("search: cancelled: %v", c.Err)
}

// SearchAbort implements Abort: a cancellation is a deliberate,
// supervised termination, so completed sibling evaluations are salvaged
// on the way out.
func (c *Cancelled) SearchAbort() string { return c.Error() }

// Unwrap exposes the underlying context error to errors.Is.
func (c *Cancelled) Unwrap() error { return c.Err }

// checkCancelled returns a *Cancelled when ctx is done, and nil
// otherwise. A nil ctx never cancels.
func checkCancelled(ctx context.Context) *Cancelled {
	if ctx != nil && ctx.Err() != nil {
		return NewCancelled(ctx.Err())
	}
	return nil
}

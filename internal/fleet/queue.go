package fleet

import (
	"context"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/search"
	"repro/internal/transform"
)

// outcome resolves one submitted job: exactly one of ev/fault is set.
type outcome struct {
	ev    *search.Evaluation
	fault *WorkerFault
}

// Job states.
const (
	jobPending = iota // queued, no lease
	jobLeased         // held by a live lease
	jobDone           // resolved (result, fault, or withdrawn)
)

// job is one submitted evaluation awaiting a worker.
type job struct {
	key     string
	a       transform.Assignment
	attempt int
	// span is the submitter's fleet.lease span ID, propagated to the
	// worker in the lease grant so worker-side spans parent under it
	// (0 when tracing is off).
	span obs.SpanID
	// done receives the job's single resolution. Buffered so the
	// resolving goroutine never blocks on a slow submitter.
	done chan outcome

	// state/lease are guarded by the queue mutex.
	state int
	lease int64
}

// lease is one grant of a job to a worker, identified by a monotonic
// ID. The ID is the exactly-once pivot: completing or failing a lease
// whose ID is no longer the job's current lease is a stale operation
// and is refused — a worker that finishes after its lease expired and
// was reassigned cannot double-resolve the job, so the journal sees
// each evaluation exactly once.
type lease struct {
	id       int64
	worker   int
	deadline time.Time
	job      *job
}

// queue is the coordinator's lease-based work queue.
type queue struct {
	mu      sync.Mutex
	pending []*job
	leases  map[int64]*lease
	nextID  int64
	// notify carries "work may be available" wakeups to blocked
	// acquirers; capacity 1, non-blocking sends (see acquire for the
	// re-notify that prevents lost wakeups).
	notify chan struct{}
	// clock supplies lease deadlines; tests inject a fake one to pin
	// TTL edge cases without sleeping.
	clock func() time.Time
}

func newQueue() *queue {
	return &queue{leases: make(map[int64]*lease), notify: make(chan struct{}, 1), clock: time.Now}
}

// submit enqueues one evaluation and returns its job handle.
func (q *queue) submit(a transform.Assignment, key string, attempt int, span obs.SpanID) *job {
	j := &job{key: key, a: a, attempt: attempt, span: span, done: make(chan outcome, 1)}
	q.mu.Lock()
	q.pending = append(q.pending, j)
	q.mu.Unlock()
	q.wake()
	return j
}

func (q *queue) wake() {
	select {
	case q.notify <- struct{}{}:
	default:
	}
}

// acquire blocks until a pending job is available and grants a lease on
// it, or returns nil when ctx is cancelled.
func (q *queue) acquire(ctx context.Context, worker int, ttl time.Duration) *lease {
	for {
		q.mu.Lock()
		if len(q.pending) > 0 {
			j := q.pending[0]
			q.pending = q.pending[1:]
			more := len(q.pending) > 0
			q.nextID++
			l := &lease{id: q.nextID, worker: worker, deadline: q.clock().Add(ttl), job: j}
			j.state = jobLeased
			j.lease = l.id
			q.leases[l.id] = l
			q.mu.Unlock()
			if more {
				// We may have consumed the only wakeup token while other
				// acquirers sleep on remaining work; hand the token back.
				q.wake()
			}
			return l
		}
		q.mu.Unlock()
		select {
		case <-q.notify:
		case <-ctx.Done():
			return nil
		}
	}
}

// resolve settles the lease with an outcome if it is still the job's
// current lease. It reports false — and delivers nothing — for a stale
// lease: the job expired and was reassigned (or already resolved), and
// this late completion must be dropped.
func (q *queue) resolve(id int64, o outcome) bool {
	q.mu.Lock()
	l, ok := q.leases[id]
	if !ok || l.job.state != jobLeased || l.job.lease != id {
		q.mu.Unlock()
		return false
	}
	delete(q.leases, id)
	l.job.state = jobDone
	q.mu.Unlock()
	l.job.done <- o
	return true
}

// complete resolves a lease with a successful evaluation; false when
// the lease is stale.
func (q *queue) complete(id int64, ev *search.Evaluation) bool {
	return q.resolve(id, outcome{ev: ev})
}

// fail resolves a lease with a fault; false when the lease is stale.
func (q *queue) fail(id int64, f *WorkerFault) bool {
	return q.resolve(id, outcome{fault: f})
}

// withdraw removes a still-pending job (the degrade-to-local path pulls
// unleased work back for in-process evaluation). Reports false if the
// job is leased or resolved — the caller must then await its outcome.
func (q *queue) withdraw(j *job) bool {
	q.mu.Lock()
	defer q.mu.Unlock()
	if j.state != jobPending {
		return false
	}
	for i, p := range q.pending {
		if p == j {
			q.pending = append(q.pending[:i], q.pending[i+1:]...)
			break
		}
	}
	j.state = jobDone
	return true
}

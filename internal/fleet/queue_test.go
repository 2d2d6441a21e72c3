package fleet

import (
	"context"
	"testing"
	"time"

	"repro/internal/search"
)

func TestQueueExactlyOnceDedup(t *testing.T) {
	q := newQueue()
	j := q.submit(asn(1), asn(1).Key(), 1, 0)
	l := q.acquire(context.Background(), 0, time.Minute)
	if l == nil || l.job != j {
		t.Fatal("acquire did not grant the submitted job")
	}
	// The lease is failed (as lease expiry would): the job resolves with
	// the fault, and the original lease ID goes stale.
	if !q.fail(l.id, &WorkerFault{Key: j.key, Msg: "expired"}) {
		t.Fatal("first fail refused")
	}
	o := <-j.done
	if o.fault == nil {
		t.Fatal("job resolved without the fault")
	}
	// A late completion on the stale lease must be refused and deliver
	// nothing — the exactly-once pivot.
	if q.complete(l.id, &search.Evaluation{Status: search.StatusPass}) {
		t.Fatal("stale complete accepted")
	}
	select {
	case o := <-j.done:
		t.Fatalf("stale complete delivered a second outcome: %+v", o)
	default:
	}
	// So must a second fault.
	if q.fail(l.id, &WorkerFault{Key: j.key, Msg: "late"}) {
		t.Fatal("stale fail accepted")
	}
}

// TestResultRacingExpiryIsRefusedExactlyOnce races a lease's result
// against its own expiry, both orders: whichever resolution lands
// first wins, the loser is refused, and the job sees exactly one
// outcome.
func TestResultRacingExpiryIsRefusedExactlyOnce(t *testing.T) {
	ev := &search.Evaluation{Status: search.StatusPass}

	// Order 1: the expiry fails the lease first; the worker's result,
	// racing in just behind it, must be refused.
	q := newQueue()
	now := time.Unix(1_000_000, 0)
	q.clock = func() time.Time { return now }
	j := q.submit(asn(1), asn(1).Key(), 1, 0)
	l := q.acquire(context.Background(), 0, time.Minute)
	now = now.Add(2 * time.Minute)
	if !q.fail(l.id, &WorkerFault{Key: j.key, Msg: "expired"}) {
		t.Fatal("expiry fail refused")
	}
	if q.complete(l.id, ev) {
		t.Fatal("result accepted after its lease expired and was failed")
	}
	if o := <-j.done; o.fault == nil {
		t.Fatal("expiry outcome lost")
	}
	select {
	case o := <-j.done:
		t.Fatalf("second outcome delivered: %+v", o)
	default:
	}

	// Order 2: the result lands first (the coordinator's expiry tick
	// had not fired yet); the expiry's fail must then be refused.
	q2 := newQueue()
	q2.clock = func() time.Time { return now }
	j2 := q2.submit(asn(2), asn(2).Key(), 1, 0)
	l2 := q2.acquire(context.Background(), 0, time.Minute)
	now = now.Add(2 * time.Minute)
	if !q2.complete(l2.id, ev) {
		t.Fatal("result refused before any expiry resolution")
	}
	if q2.fail(l2.id, &WorkerFault{Key: j2.key, Msg: "expired"}) {
		t.Fatal("expiry fail accepted after the result resolved the lease")
	}
	if o := <-j2.done; o.ev == nil {
		t.Fatal("result outcome lost")
	}
	select {
	case o := <-j2.done:
		t.Fatalf("second outcome delivered: %+v", o)
	default:
	}
}

func TestQueueAcquireOrderAndCancel(t *testing.T) {
	q := newQueue()
	j1 := q.submit(asn(1), "k1", 1, 0)
	j2 := q.submit(asn(2), "k2", 1, 0)
	l1 := q.acquire(context.Background(), 0, time.Minute)
	l2 := q.acquire(context.Background(), 1, time.Minute)
	if l1.job != j1 || l2.job != j2 {
		t.Error("leases not granted in submission order")
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if l := q.acquire(ctx, 2, time.Minute); l != nil {
		t.Error("acquire on a cancelled context returned a lease")
	}
}

func TestQueueWithdraw(t *testing.T) {
	q := newQueue()
	j := q.submit(asn(1), "k", 1, 0)
	if !q.withdraw(j) {
		t.Fatal("withdraw of a pending job refused")
	}
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if l := q.acquire(ctx, 0, time.Minute); l != nil {
		t.Error("withdrawn job still leased")
	}

	j2 := q.submit(asn(2), "k2", 1, 0)
	l := q.acquire(context.Background(), 0, time.Minute)
	if l == nil {
		t.Fatal("acquire failed")
	}
	if q.withdraw(j2) {
		t.Error("withdraw of a leased job accepted; its lease holder must resolve it")
	}
}

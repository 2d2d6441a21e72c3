package fleet

import (
	"errors"
	"fmt"
	"io"
	"os"
	"strconv"
	"sync"
	"syscall"
	"time"

	"repro/internal/journal"
	"repro/internal/obs"
	"repro/internal/search"
	"repro/internal/transform"
)

// WorkerFaults configures process-level fault injection in a worker —
// the subprocess extension of search.FaultInjector's flaky/crash modes.
// Every decision is a pure function of (Seed, key, attempt) via
// search.FaultFrac, so injected deaths are deterministic and
// independent of which worker draws the lease: the byte-identical-
// journal invariant can be tested under real SIGKILLs.
type WorkerFaults struct {
	// KillRate SIGKILLs the worker process before evaluating a lease
	// with this probability per (key, attempt).
	KillRate float64
	// Seed drives the KillRate hash.
	Seed int64
	// CrashKey SIGKILLs the worker on every lease for this key — a
	// variant that reliably kills its host (e.g. an OOM), which the
	// supervisor must quarantine after the retry budget.
	CrashKey string
	// WedgeKey wedges the worker — heartbeats and all — on the first
	// attempt of this key, exercising the heartbeat-loss detector.
	WedgeKey string
	// SlowKey delays the result of this key's first attempt by Slow,
	// exercising lease expiry and the late-result dedup.
	SlowKey string
	// Slow is the SlowKey delay.
	Slow time.Duration
}

// ServeConfig configures one worker process's serve loop.
type ServeConfig struct {
	// Transport carries the lease protocol (required); typically
	// NewPipeTransport(os.Stdin, os.Stdout).
	Transport Transport
	// Eval evaluates leases (required); in `prose worker` it is the
	// worker's own core.Tuner.
	Eval search.Evaluator
	// Fingerprint is the evaluation fingerprint sent in the handshake
	// (required); the coordinator retires workers that disagree.
	Fingerprint string
	// Heartbeat is the liveness interval while evaluating (default
	// DefaultHeartbeat; must match the coordinator's).
	Heartbeat time.Duration
	// Fault is the fault-injection configuration (zero = none).
	Fault WorkerFaults
}

// MetricsAttacher is optionally implemented by evaluators that can
// adopt a metrics registry after construction. A fleet worker's
// evaluator starts uninstrumented; when the first lease arrives with
// trace context asking for metrics, the worker creates a registry and
// attaches it here so interpreter counters (interp_runs, numeric_*, …)
// start flowing. core.Tuner implements it.
type MetricsAttacher interface {
	AttachMetrics(*obs.Registry)
}

// Serve runs a pipe worker's lease loop until the coordinator says
// shutdown or the transport closes (EOF is an orderly end: the
// coordinator died or dropped us, and our process has no further
// purpose). Evaluation panics are caught and answered as fault frames —
// the process survives them; only injected faults and real crashes
// kill it. A pipe is a link that never redials, so Serve runs the same
// loop as ServeNet: its handshake carries no session, and its first
// failed heartbeat send stops the beater.
func Serve(cfg ServeConfig) error {
	if cfg.Transport == nil || cfg.Eval == nil {
		return fmt.Errorf("fleet: Serve needs Transport and Eval")
	}
	if cfg.Heartbeat <= 0 {
		cfg.Heartbeat = DefaultHeartbeat
	}
	lk := &link{fingerprint: cfg.Fingerprint, heartbeat: cfg.Heartbeat, missLimit: 1, tr: cfg.Transport}
	return lk.serve(cfg.Eval, cfg.Fault)
}

// link is a worker's connection to its coordinator: one live transport
// plus the session state (in-flight lease, pending reply) that must
// survive a reconnect so the handshake can resume the session instead
// of abandoning its work. A network link redials; a pipe link has no
// dial, so its redial fails at once with the error that broke it.
type link struct {
	fingerprint string
	// session identifies a network worker across reconnects; empty
	// for a pipe, whose identity is the pipe itself.
	session   string
	heartbeat time.Duration
	// missLimit is how many consecutive failed heartbeat sends declare
	// the link dead.
	missLimit int
	// dial opens a fresh transport (nil for a pipe). Dial attempts back
	// off capped-exponentially from backoff, up to maxDials per redial.
	dial     func() (Transport, error)
	backoff  time.Duration
	maxDials int

	// mu serializes redials; gen increments per established
	// connection so concurrent failure observers (the heartbeat
	// goroutine, the main loop) trigger at most one redial each. err
	// is set once the dial budget is spent: the link is gone for good.
	mu  sync.Mutex
	tr  Transport
	gen int
	err error

	// stateMu guards the resume state carried across reconnects.
	stateMu   sync.Mutex
	lastLease int64
	pending   *Msg
}

// current returns the live transport and its generation.
func (lk *link) current() (Transport, int) {
	lk.mu.Lock()
	defer lk.mu.Unlock()
	return lk.tr, lk.gen
}

// setLease records a newly granted lease. A new grant also proves the
// previous pending reply was delivered (or its lease superseded), so
// it is dropped.
func (lk *link) setLease(id int64) {
	lk.stateMu.Lock()
	lk.lastLease = id
	lk.pending = nil
	lk.stateMu.Unlock()
}

// setPending records the reply for the in-flight lease so a reconnect
// can re-offer it: the reply is either the first delivery or a
// duplicate the coordinator's dedup refuses — never lost.
func (lk *link) setPending(m Msg) {
	lk.stateMu.Lock()
	lk.pending = &m
	lk.stateMu.Unlock()
}

// resume snapshots the session state for a handshake.
func (lk *link) resume() (int64, *Msg) {
	lk.stateMu.Lock()
	defer lk.stateMu.Unlock()
	return lk.lastLease, lk.pending
}

// open makes the first connection: a pipe handshakes on its one
// transport, a network link dials.
func (lk *link) open() error {
	if lk.dial == nil {
		lk.gen = 1
		return lk.handshake(lk.tr)
	}
	_, err := lk.redial(0, nil)
	return err
}

// redial re-establishes the link after the connection of generation
// gen failed with cause. Single-flight: a concurrent observer of the
// same dead generation blocks and then reuses the fresh connection. A
// pipe cannot come back, so its redial returns cause. A network link's
// dial attempts back off capped-exponentially up to maxDials; past
// that the worker gives up and the error is returned.
func (lk *link) redial(gen int, cause error) (Transport, error) {
	lk.mu.Lock()
	defer lk.mu.Unlock()
	if lk.err != nil {
		return nil, lk.err
	}
	if lk.gen != gen {
		return lk.tr, nil
	}
	if lk.dial == nil {
		return nil, cause
	}
	if lk.tr != nil {
		lk.tr.Close()
		lk.tr = nil
	}
	backoff := lk.backoff
	for attempt := 1; ; attempt++ {
		tr, err := lk.dialOnce()
		if err == nil {
			lk.tr = tr
			lk.gen++
			return tr, nil
		}
		if attempt >= lk.maxDials {
			lk.err = fmt.Errorf("fleet: giving up after %d dial attempt(s): %w", attempt, err)
			return nil, lk.err
		}
		time.Sleep(backoff)
		if backoff < 32*lk.backoff {
			backoff *= 2
		}
	}
}

// dialOnce makes one connection and resumes the session on it.
func (lk *link) dialOnce() (Transport, error) {
	tr, err := lk.dial()
	if err != nil {
		return nil, err
	}
	if err := lk.handshake(tr); err != nil {
		tr.Close()
		return nil, err
	}
	return tr, nil
}

// handshake sends ready with the fingerprint, the session ID, and the
// in-flight lease, then re-offers a pending reply (the coordinator's
// dedup refuses it if the first copy landed).
func (lk *link) handshake(tr Transport) error {
	last, pending := lk.resume()
	if err := tr.Send(Msg{Type: MsgReady, Fingerprint: lk.fingerprint,
		Session: lk.session, LastLease: last}); err != nil {
		return err
	}
	if pending != nil {
		return tr.Send(*pending)
	}
	return nil
}

// sendReply delivers a lease's reply, reconnecting on failure (the
// redial's handshake re-offers the pending reply itself).
func (lk *link) sendReply(m Msg) error {
	tr, gen := lk.current()
	if tr == nil {
		// A heartbeat's redial already spent the dial budget.
		_, err := lk.redial(gen, nil)
		return err
	}
	if err := tr.Send(m); err != nil {
		_, rerr := lk.redial(gen, err)
		return rerr
	}
	return nil
}

// heartbeats beats on the link until stopped; the returned stop waits
// for the beater to exit so a heartbeat can never trail the lease's
// result frame. missLimit consecutive failed sends declare the link
// dead and redial it: a network link rides out flaky sends and
// reconnects, while a pipe (limit 1, no redial) stops beating at the
// first failure, because the coordinator is gone. Each beat
// piggybacks the worker's pending observability payload when shipping
// is on.
func (lk *link) heartbeats(lease int64, wo *workerObs) (stop func()) {
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		t := time.NewTicker(lk.heartbeat)
		defer t.Stop()
		misses := 0
		for {
			select {
			case <-t.C:
				tr, gen := lk.current()
				if tr == nil {
					return
				}
				hb := Msg{Type: MsgHeartbeat, Lease: lease}
				if wo != nil {
					wo.attach(&hb)
				}
				if err := tr.Send(hb); err != nil {
					misses++
					if misses >= lk.missLimit {
						misses = 0
						if _, rerr := lk.redial(gen, err); rerr != nil {
							return
						}
					}
					continue
				}
				misses = 0
			case <-done:
				return
			}
		}
	}()
	return func() {
		close(done)
		wg.Wait()
	}
}

// serve runs the lease loop on the link: handshake, serve leases, and
// ride out connection losses by reconnecting with session resume —
// in-flight work is never abandoned, and its reply is delivered
// exactly once (the coordinator's monotonic-lease dedup refuses
// duplicates). It returns nil on an orderly shutdown frame or EOF on a
// link that cannot come back, and an error when the link is gone
// otherwise.
func (lk *link) serve(eval search.Evaluator, fault WorkerFaults) error {
	if err := lk.open(); err != nil {
		return err
	}
	wo := &workerObs{}
	// gotFrame tracks whether the current connection delivered anything:
	// a connection dropped before its first frame (a full pool, a
	// partition window) earns a backoff so redials cannot hot-spin.
	gotFrame := false
	lastGen := 1
	for {
		tr, gen := lk.current()
		if gen != lastGen {
			lastGen, gotFrame = gen, false
		}
		m, err := tr.Recv()
		if err != nil {
			if !gotFrame && lk.dial != nil {
				time.Sleep(lk.backoff)
			}
			if _, rerr := lk.redial(gen, err); rerr != nil {
				if errors.Is(rerr, io.EOF) || errors.Is(rerr, io.ErrClosedPipe) {
					return nil
				}
				return rerr
			}
			continue
		}
		gotFrame = true
		switch m.Type {
		case MsgShutdown:
			tr.Close()
			return nil
		case MsgLease:
			if last, pending := lk.resume(); m.Lease == last && last != 0 {
				// A duplicated grant of work this session already holds:
				// re-offer the reply if it is done, ignore otherwise.
				if pending != nil {
					if err := lk.sendReply(*pending); err != nil {
						return err
					}
				}
				continue
			}
			lk.setLease(m.Lease)
			wo.enable(m.Obs, eval)
			fault.preEval(m.Key, m.Attempt)
			stop := lk.heartbeats(m.Lease, wo)
			sp := wo.leaseSpan(m)
			ev, msg, faulted, persistent := runEval(eval, m.Assignment, sp, wo.registry())
			fault.preReply(m.Key, m.Attempt)
			stop()
			var reply Msg
			if faulted {
				reply = Msg{Type: MsgFault, Lease: m.Lease, Fault: msg, Persistent: persistent}
			} else {
				rec := journal.FromEvaluation(lk.fingerprint, ev)
				reply = Msg{Type: MsgResult, Lease: m.Lease, Result: &rec}
			}
			// Overflow span batches go out best-effort on the live link
			// (a dead link loses them; the reply itself is what session
			// resume protects). The reply's own obs payload is attached
			// before setPending so a re-offered duplicate carries the
			// same sequence number and the coordinator splices it at
			// most once.
			wo.shipOverflow(func(hb Msg) {
				if tr, _ := lk.current(); tr != nil {
					_ = tr.Send(hb)
				}
			}, m.Lease)
			wo.attach(&reply)
			lk.setPending(reply)
			if err := lk.sendReply(reply); err != nil {
				return err
			}
		}
	}
}

// workerObs is a worker process's observability state: a local tracer
// and registry brought up lazily by the first lease that carries an
// ObsCtx (until then the worker allocates nothing on obs's account),
// plus the pending span buffer and the monotonic obs sequence the
// coordinator uses to drop stale or duplicated shipments. The mutex
// covers the heartbeat goroutine attaching to frames while the main
// loop evaluates.
type workerObs struct {
	mu      sync.Mutex
	tracer  *obs.Tracer
	reg     *obs.Registry
	pending []obs.SpanRecord
	seq     int64
}

// enable brings up the tracer (and registry, when asked for) on the
// first instrumented lease. The registry is handed to the evaluator via
// MetricsAttacher so interpreter counters flow into it; worker leases
// run sequentially, so attaching between leases is safe.
func (wo *workerObs) enable(ctx *ObsCtx, eval search.Evaluator) {
	if ctx == nil {
		return
	}
	var attach *obs.Registry
	wo.mu.Lock()
	if wo.tracer == nil {
		wo.tracer = obs.NewTracer(ctx.Fingerprint)
	}
	if ctx.Metrics && wo.reg == nil {
		wo.reg = obs.NewRegistry()
		attach = wo.reg
	}
	wo.mu.Unlock()
	if attach != nil {
		if ma, ok := eval.(MetricsAttacher); ok {
			ma.AttachMetrics(attach)
		}
	}
}

// registry returns the worker registry (nil while metrics are off).
func (wo *workerObs) registry() *obs.Registry {
	wo.mu.Lock()
	defer wo.mu.Unlock()
	return wo.reg
}

// leaseSpan opens the worker.eval span for one lease, parented under
// the coordinator's propagated fleet.lease span so the two processes'
// traces splice into one tree. Nil (no-op) while tracing is off.
func (wo *workerObs) leaseSpan(m Msg) *obs.Span {
	wo.mu.Lock()
	tracer := wo.tracer
	wo.mu.Unlock()
	if tracer == nil || m.Obs == nil || m.Obs.SpanID == "" {
		// Metrics-only leases (coordinator has a registry but no tracer)
		// carry no parent span; opening one here would only ship spans
		// the coordinator has no tracer to splice.
		return nil
	}
	parent, _ := strconv.ParseUint(m.Obs.SpanID, 16, 64)
	sp := tracer.ChildOf(obs.SpanID(parent), obs.SpanWorkerEval)
	sp.Attr("key", m.Key)
	sp.AttrInt("attempt", int64(m.Attempt))
	sp.AttrInt("lease", m.Lease)
	return sp
}

// attach piggybacks the worker's observability payload on an outgoing
// frame: up to MaxSpanBatch drained spans (with the tracer-epoch
// timestamp the coordinator rebases against), the current registry
// snapshot, and the next obs sequence number. No-op while obs is off,
// so uninstrumented frames are byte-for-byte what they always were.
func (wo *workerObs) attach(m *Msg) {
	wo.mu.Lock()
	defer wo.mu.Unlock()
	if wo.tracer == nil {
		return
	}
	wo.pending = append(wo.pending, wo.tracer.Drain()...)
	n := len(wo.pending)
	if n > MaxSpanBatch {
		n = MaxSpanBatch
	}
	if n > 0 {
		m.Spans = append([]obs.SpanRecord(nil), wo.pending[:n]...)
		wo.pending = wo.pending[n:]
		m.TraceNow = int64(wo.tracer.Now())
	}
	if wo.reg != nil {
		snap := wo.reg.Snapshot()
		m.MetricsSnap = &snap
	}
	if m.Spans == nil && m.MetricsSnap == nil {
		return
	}
	wo.seq++
	m.ObsSeq = wo.seq
}

// shipOverflow flushes span batches beyond what the next reply frame
// can carry as extra heartbeat frames, keeping every frame under
// MaxFrame no matter how many spans one evaluation produced.
func (wo *workerObs) shipOverflow(send func(Msg), lease int64) {
	for {
		wo.mu.Lock()
		if wo.tracer != nil {
			wo.pending = append(wo.pending, wo.tracer.Drain()...)
		}
		over := len(wo.pending) > MaxSpanBatch
		wo.mu.Unlock()
		if !over {
			return
		}
		hb := Msg{Type: MsgHeartbeat, Lease: lease}
		wo.attach(&hb)
		send(hb)
	}
}

// preEval fires pre-evaluation injected faults: self-SIGKILL (the
// coordinator sees EOF, exactly like a scheduler or OOM kill) or a full
// wedge (heartbeats never start; the coordinator's silence detector
// must kill us).
func (f *WorkerFaults) preEval(key string, attempt int) {
	if f.CrashKey != "" && key == f.CrashKey {
		killSelf()
	}
	if f.KillRate > 0 && search.FaultFrac(f.Seed, key, int64(attempt)) < f.KillRate {
		killSelf()
	}
	if f.WedgeKey != "" && key == f.WedgeKey && attempt == 1 {
		select {} // wedge forever; the coordinator kills us
	}
}

// preReply fires the slow-result injection: the evaluation is done and
// heartbeats still flow, but the result is held past the lease
// deadline, so the coordinator reassigns the lease and must dedup our
// late completion.
func (f *WorkerFaults) preReply(key string, attempt int) {
	if f.SlowKey != "" && key == f.SlowKey && attempt == 1 && f.Slow > 0 {
		time.Sleep(f.Slow)
	}
}

// killSelf delivers an uncatchable SIGKILL to this process, simulating
// the batch scheduler's kill without any goodbye on the pipe.
func killSelf() {
	syscall.Kill(os.Getpid(), syscall.SIGKILL)
	select {} // unreachable; SIGKILL cannot be handled
}

// runEval evaluates one lease, converting a panic into a fault reply.
// The Transient contract of the panic value survives the wire via the
// persistent flag, so the coordinator's WorkerFault re-classifies
// identically to an in-process run. When the lease carried trace
// context, sp is the worker.eval span (the evaluator hangs interp.run
// under it) and reg the worker registry feeding eval_run_ns.
func runEval(eval search.Evaluator, asn map[string]int, sp *obs.Span, reg *obs.Registry) (ev *search.Evaluation, fault string, faulted, persistent bool) {
	a := transform.Assignment(asn)
	if a == nil {
		a = transform.Assignment{}
	}
	defer func() {
		if r := recover(); r != nil {
			faulted = true
			if err, ok := r.(error); ok {
				fault = err.Error()
			} else {
				fault = fmt.Sprint(r)
			}
			if t, ok := r.(interface{ Transient() bool }); ok && !t.Transient() {
				persistent = true
			}
		}
	}()
	defer sp.End()
	start := time.Now()
	ev = search.Evaluate(eval, sp, a)
	reg.Histogram(obs.HistEvalRunNS).Observe(float64(time.Since(start)))
	return
}

package fleet

import (
	"fmt"
	"net"
	"time"

	"repro/internal/obs"
	"repro/internal/resilience"
)

// NetConfig makes the coordinator accept dialing network workers
// (`prose worker -connect`) instead of spawning subprocesses. The
// same JSONL Msg protocol runs over the accepted connections; workers
// register into the same lease queue, authenticate with the same
// fingerprint handshake, and are health-checked by the same
// heartbeat/TTL machinery — a partitioned worker degrades exactly
// like a SIGKILLed one, except that its session may reconnect and
// re-adopt its in-flight lease.
type NetConfig struct {
	// Listener accepts worker connections (required). The coordinator
	// owns it: it is closed when the fleet shuts down.
	Listener net.Listener
	// SendTimeout bounds one frame's write per connection (default
	// DefaultSendTimeout).
	SendTimeout time.Duration
	// Chaos injects deterministic network faults on every accepted
	// connection (nil = none); see ChaosConfig and the
	// `-fleet-chaos-*` flags.
	Chaos *ChaosConfig
}

// acceptLoop admits worker connections until the listener closes
// (which the shutdown path guarantees on ctx cancellation).
func (c *Coordinator) acceptLoop() {
	defer c.wg.Done()
	for {
		conn, err := c.cfg.Net.Listener.Accept()
		if err != nil {
			if c.ctx.Err() != nil {
				return
			}
			// Transient accept failure (e.g. EMFILE); brief pause.
			select {
			case <-time.After(10 * time.Millisecond):
			case <-c.ctx.Done():
				return
			}
			continue
		}
		c.wg.Add(1)
		go c.admit(conn)
	}
}

// admit performs the handshake on one freshly accepted connection and
// routes it to a worker slot: back to its session's bound slot on a
// reconnect, else to the first free one. The ready frame is read off
// the raw transport — before chaos wrapping — so an injected fault can
// never starve the handshake and reconnects always make progress.
func (c *Coordinator) admit(conn net.Conn) {
	defer c.wg.Done()
	// Abort a handshake in flight when the fleet shuts down.
	hsDone := make(chan struct{})
	defer close(hsDone)
	go func() {
		select {
		case <-c.ctx.Done():
			conn.Close()
		case <-hsDone:
		}
	}()

	if c.nchaos.partitioned() {
		// A hard partition window is open: the network "eats" the dial.
		conn.Close()
		return
	}
	raw := NewNetTransport(conn, c.cfg.Net.SendTimeout)
	conn.SetReadDeadline(time.Now().Add(c.cfg.ReadyTimeout))
	m, err := raw.Recv()
	if err != nil || m.Type != MsgReady || m.Session == "" {
		conn.Close()
		return
	}
	conn.SetReadDeadline(time.Time{})
	if m.Fingerprint != c.rt.Fingerprint {
		detail := fmt.Sprintf("worker fingerprint %.12s... does not match coordinator %.12s... (its evaluations would not reproduce the journal)",
			m.Fingerprint, c.rt.Fingerprint)
		c.event(Event{Type: EventFingerprintMismatch, Worker: -1, Detail: detail})
		conn.Close()
		return
	}
	tr := newReplayTransport(c.nchaos.wrap(raw, func() { conn.Close() }), m)
	wl := &workerLink{tr: tr, raw: conn, lastLease: m.LastLease}

	c.mu.Lock()
	if c.ctx.Err() != nil {
		c.mu.Unlock()
		conn.Close()
		return
	}
	s := c.sessions[m.Session]
	if s == nil {
		for _, cand := range c.slots {
			if cand.session == "" && cand.state != StateDead {
				s = cand
				break
			}
		}
		if s == nil {
			// Pool full: every slot is bound or retired.
			c.mu.Unlock()
			conn.Close()
			return
		}
		s.session = m.Session
		c.sessions[m.Session] = s
	}
	if s.state == StateDead {
		c.mu.Unlock()
		conn.Close()
		return
	}
	reconnect := c.seenSessions[m.Session]
	c.seenSessions[m.Session] = true
	// The newest dial wins: drop an unclaimed queued connection and
	// sever the live one so its serve loop winds down.
	select {
	case old := <-s.netCh:
		old.tr.Close()
	default:
	}
	if s.netLive != nil {
		s.netLive.Close()
		s.netLive = nil
	}
	s.netCh <- wl
	sid := s.id
	c.mu.Unlock()

	c.counter(obs.MetricFleetNetSessions).Add(1)
	if reconnect {
		c.counter(obs.MetricFleetNetReconnects).Add(1)
		c.statAdd(func(st *Stats) { st.Reconnects++ })
		c.event(Event{Type: EventWorkerReconnect, Worker: sid,
			Detail: fmt.Sprintf("session %s reconnected", m.Session)})
	}
}

// parkOrphan holds a lease whose connection was lost, pending the
// session's reconnect. The orphan timer fails it at the lease's
// original deadline — parking never extends the TTL, so a lease is
// either re-adopted intact or expires exactly when it always would.
func (c *Coordinator) parkOrphan(s *slot, l *lease) {
	c.mu.Lock()
	s.orphan = l
	s.orphanTimer = time.AfterFunc(time.Until(l.deadline), func() { c.expireOrphan(s, l) })
	c.mu.Unlock()
}

// expireOrphan fires when a parked lease reaches its deadline without
// its worker reconnecting: the lease is failed for reassignment and
// the session unbound.
func (c *Coordinator) expireOrphan(s *slot, l *lease) {
	if c.ctx.Err() != nil {
		return
	}
	c.mu.Lock()
	if s.orphan != l {
		// Adopted (or superseded) in the meantime.
		c.mu.Unlock()
		return
	}
	s.orphan = nil
	s.orphanTimer = nil
	if s.netLive == nil && len(s.netCh) == 0 && s.session != "" {
		delete(c.sessions, s.session)
		s.session = ""
	}
	c.mu.Unlock()
	c.failOrphan(s, l)
}

// failOrphan fails a parked lease as a hang fault (the supervised
// retry reassigns it) and records the partition expiry. The fault
// message is deterministic — no session IDs, slots, or timing — so a
// quarantine that eventually records it keeps the journal
// byte-identical across runs.
func (c *Coordinator) failOrphan(s *slot, l *lease) {
	if !c.q.fail(l.id, &WorkerFault{Key: l.job.key, Kind: resilience.KindHang,
		Msg: fmt.Sprintf("fleet: lease on %q was lost to a network partition; reassigning", l.job.key)}) {
		return
	}
	c.counter(obs.MetricFleetNetPartitionExpired).Add(1)
	c.statAdd(func(st *Stats) { st.PartitionExpired++ })
	c.event(Event{Type: EventPartitionExpired, Worker: s.id, Key: l.job.key, Attempt: l.job.attempt,
		Kind: resilience.KindHang, Detail: "parked lease expired before its worker reconnected"})
}

// adoptOrphan hands a reconnecting session its parked lease back —
// but only if the worker still holds exactly that lease in flight. A
// mismatch means the worker restarted (or never got the grant): the
// parked work cannot complete, so it is expired immediately rather
// than waiting out the TTL.
func (c *Coordinator) adoptOrphan(s *slot, lastLease int64) *lease {
	c.mu.Lock()
	l := s.orphan
	if l == nil {
		c.mu.Unlock()
		return nil
	}
	s.orphan = nil
	if s.orphanTimer != nil {
		s.orphanTimer.Stop()
		s.orphanTimer = nil
	}
	c.mu.Unlock()
	if lastLease != l.id {
		c.failOrphan(s, l)
		return nil
	}
	c.mu.Lock()
	s.state = StateBusy
	s.currentKey = l.job.key
	s.lastBeat = time.Now()
	c.mu.Unlock()
	return l
}

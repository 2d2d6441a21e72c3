package fleet

import (
	"crypto/rand"
	"encoding/hex"
	"fmt"
	"net"
	"time"

	"repro/internal/search"
)

// Network-worker defaults.
const (
	// DefaultHeartbeatMissLimit is how many consecutive failed
	// heartbeat sends make the worker treat its link as dead and
	// reconnect (rather than exit — flaky links are survivable).
	DefaultHeartbeatMissLimit = 3
	// DefaultDialTimeout bounds one connection attempt.
	DefaultDialTimeout = 5 * time.Second
	// DefaultReconnectBackoff is the base of the capped-exponential
	// backoff between dial attempts (doubling, capped at 32x).
	DefaultReconnectBackoff = 200 * time.Millisecond
	// DefaultMaxDials bounds one reconnect's dial attempts; past it
	// the worker gives up and ServeNet returns the dial error.
	DefaultMaxDials = 10
)

// NetServeConfig configures a dialing network worker (`prose worker
// -connect`).
type NetServeConfig struct {
	// Addr is the coordinator's listen address (required unless Dial
	// is set).
	Addr string
	// Eval evaluates leases (required); in `prose worker` it is the
	// worker's own core.Tuner.
	Eval search.Evaluator
	// Fingerprint is the evaluation fingerprint sent in the handshake
	// (required); the coordinator rejects workers that disagree.
	Fingerprint string
	// Session identifies this worker across reconnects (default: a
	// random hex ID). The coordinator routes a reconnecting session
	// back to its slot so a parked lease can be re-adopted.
	Session string
	// Heartbeat is the liveness interval while evaluating (default
	// DefaultHeartbeat; must match the coordinator's).
	Heartbeat time.Duration
	// HeartbeatMissLimit is how many consecutive failed heartbeat
	// sends trigger a reconnect (default DefaultHeartbeatMissLimit).
	HeartbeatMissLimit int
	// SendTimeout bounds one frame's write (default DefaultSendTimeout).
	SendTimeout time.Duration
	// DialTimeout bounds one connection attempt (default
	// DefaultDialTimeout).
	DialTimeout time.Duration
	// ReconnectBackoff is the base backoff between dial attempts
	// (default DefaultReconnectBackoff; doubles, capped at 32x).
	ReconnectBackoff time.Duration
	// MaxDials bounds one reconnect's attempts (default DefaultMaxDials).
	MaxDials int
	// Fault is the fault-injection configuration (zero = none).
	Fault WorkerFaults
	// Dial overrides the TCP dial (tests inject failing or recording
	// transports here). The returned transport carries no handshake;
	// the link layer sends ready itself.
	Dial func() (Transport, error)
}

func (cfg *NetServeConfig) withDefaults() {
	if cfg.Heartbeat <= 0 {
		cfg.Heartbeat = DefaultHeartbeat
	}
	if cfg.HeartbeatMissLimit <= 0 {
		cfg.HeartbeatMissLimit = DefaultHeartbeatMissLimit
	}
	if cfg.DialTimeout <= 0 {
		cfg.DialTimeout = DefaultDialTimeout
	}
	if cfg.ReconnectBackoff <= 0 {
		cfg.ReconnectBackoff = DefaultReconnectBackoff
	}
	if cfg.MaxDials <= 0 {
		cfg.MaxDials = DefaultMaxDials
	}
	if cfg.Session == "" {
		var b [8]byte
		rand.Read(b[:])
		cfg.Session = hex.EncodeToString(b[:])
	}
}

// ServeNet runs a dialing network worker's lease loop: connect,
// handshake, serve leases, and ride out connection losses by
// reconnecting with session resume — in-flight work is never
// abandoned, and its reply is delivered exactly once (the
// coordinator's monotonic-lease dedup refuses duplicates). It returns
// nil on an orderly shutdown frame and an error when the coordinator
// stays unreachable past the dial budget.
func ServeNet(cfg NetServeConfig) error {
	if cfg.Eval == nil {
		return fmt.Errorf("fleet: ServeNet needs Eval")
	}
	if cfg.Addr == "" && cfg.Dial == nil {
		return fmt.Errorf("fleet: ServeNet needs Addr or Dial")
	}
	cfg.withDefaults()
	if cfg.Dial == nil {
		addr, dialTO, sendTO := cfg.Addr, cfg.DialTimeout, cfg.SendTimeout
		cfg.Dial = func() (Transport, error) {
			conn, err := net.DialTimeout("tcp", addr, dialTO)
			if err != nil {
				return nil, err
			}
			return NewNetTransport(conn, sendTO), nil
		}
	}
	return newNetLink(&cfg).serve(cfg.Eval, cfg.Fault)
}

// newNetLink returns the redialing link a network worker serves over.
func newNetLink(cfg *NetServeConfig) *link {
	return &link{
		fingerprint: cfg.Fingerprint,
		session:     cfg.Session,
		heartbeat:   cfg.Heartbeat,
		missLimit:   cfg.HeartbeatMissLimit,
		dial:        cfg.Dial,
		backoff:     cfg.ReconnectBackoff,
		maxDials:    cfg.MaxDials,
	}
}

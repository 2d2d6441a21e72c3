package fleet

import (
	"net"
	"sync"
	"time"
)

// DefaultSendTimeout bounds one frame's write on a network transport.
// A link that cannot accept a frame in this window is treated as
// partitioned: the send errors, the connection is severed, and the
// normal reconnect/lease-recovery machinery takes over.
const DefaultSendTimeout = 5 * time.Second

// NewNetTransport wraps an established connection in the JSONL
// transport, with a per-frame send deadline of sendTimeout (≤ 0
// selects DefaultSendTimeout).
func NewNetTransport(conn net.Conn, sendTimeout time.Duration) Transport {
	if sendTimeout <= 0 {
		sendTimeout = DefaultSendTimeout
	}
	return &streamTransport{fr: newFrameReader(conn), w: conn, close: conn.Close,
		arm: func() error { return conn.SetWriteDeadline(time.Now().Add(sendTimeout)) }}
}

// replayTransport re-delivers a frame already consumed from the inner
// transport. The coordinator reads the ready handshake off a raw
// connection before admitting it (so handshakes bypass chaos and
// session routing happens first); the serve loop then sees the same
// handshake via the replay.
type replayTransport struct {
	Transport
	mu    sync.Mutex
	first *Msg
}

func newReplayTransport(inner Transport, first Msg) Transport {
	return &replayTransport{Transport: inner, first: &first}
}

func (t *replayTransport) Recv() (Msg, error) {
	t.mu.Lock()
	if m := t.first; m != nil {
		t.first = nil
		t.mu.Unlock()
		return *m, nil
	}
	t.mu.Unlock()
	return t.Transport.Recv()
}

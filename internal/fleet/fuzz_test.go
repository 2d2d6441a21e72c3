package fleet

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"testing"

	"repro/internal/journal"
	"repro/internal/obs"
)

// These fuzz targets cover the two inputs a -listen coordinator reads
// from the network: raw frames, and the result records inside them.
// Run one target at a time, e.g.
//
//	go test -run '^$' -fuzz '^FuzzFrameReader$' -fuzztime 30s ./internal/fleet/

// resultFrame returns a well-formed result frame for asn(n), exactly as
// a healthy stub worker sends it.
func resultFrame(tb testing.TB, lease int64, n int) []byte {
	tb.Helper()
	rec := journal.FromEvaluation(stubFingerprint, stubEval{}.Evaluate(asn(n)))
	b, err := marshalFrame(Msg{Type: MsgResult, Lease: lease, Result: &rec, ObsSeq: 3,
		MetricsSnap: &obs.Snapshot{Counters: map[string]int64{"interp_runs": 1}}})
	if err != nil {
		tb.Fatal(err)
	}
	return b
}

func FuzzFrameReader(f *testing.F) {
	// The cases of TestFrameReaderCapsAndTypedErrors and real protocol
	// frames. The oversized frame stays in the unit test: a corpus entry
	// larger than the reader's 64 KiB buffer stalled the fuzzer at zero
	// executions per second.
	f.Add([]byte("{\"type\":\"ready\"}\nnot json\n"))
	f.Add([]byte("\n\n{\"type\":\"heartbeat\"}\n"))
	f.Add([]byte("{\"type\":\"rea"))
	f.Add(resultFrame(f, 7, 3))
	for _, m := range []Msg{
		{Type: MsgReady, Fingerprint: stubFingerprint, Session: "s1", LastLease: 4},
		{Type: MsgLease, Lease: 5, Key: asn(2).Key(), Attempt: 2, Assignment: asn(2), DeadlineMS: 60000,
			Obs: &ObsCtx{SpanID: "1f", Fingerprint: "fp", Metrics: true}},
		{Type: MsgShutdown},
	} {
		b, err := marshalFrame(m)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		fr := newFrameReader(bytes.NewReader(data))
		for {
			m, err := fr.next()
			if err != nil {
				var fe *FrameError
				if err != io.EOF && !errors.As(err, &fe) {
					t.Fatalf("error %v (%T) is neither io.EOF nor *FrameError", err, err)
				}
				return
			}
			// A decoded frame must survive a round trip. Equality is
			// judged on the wire: omitempty folds an empty map or slice
			// into an absent field, which decodes as nil.
			b1, err := marshalFrame(m)
			if err != nil {
				t.Fatalf("decoded frame does not re-marshal: %v", err)
			}
			m2, err := newFrameReader(bytes.NewReader(b1)).next()
			if err != nil {
				t.Fatalf("re-marshaled frame does not decode: %v\n%s", err, b1)
			}
			b2, err := marshalFrame(m2)
			if err != nil || !bytes.Equal(b1, b2) {
				t.Fatalf("round trip changed the frame (err %v):\n%s\n%s", err, b1, b2)
			}
		}
	})
}

func FuzzDecodeResult(f *testing.F) {
	good := resultFrame(f, 7, 3)
	key := asn(3).Key()
	f.Add(stubFingerprint, key, good)
	f.Add(stubFingerprint, asn(2).Key(), good)                         // answers another lease
	f.Add("other-fingerprint", key, good)                              // fails the content-key check
	f.Add(stubFingerprint, key, []byte(`{"type":"result","lease":7}`)) // no payload
	f.Add(stubFingerprint, key, bytes.Replace(good, []byte(`"status":"pass"`), []byte(`"status":"bogus"`), 1))
	f.Fuzz(func(t *testing.T, fp, wantKey string, frame []byte) {
		var m Msg
		if json.Unmarshal(frame, &m) != nil {
			return
		}
		rec, err := decodeResult(fp, wantKey, m)
		if err != nil {
			return
		}
		if rec.AKey != wantKey {
			t.Fatalf("accepted a record for %q on a lease for %q", rec.AKey, wantKey)
		}
		if want := journal.RecordKey(fp, rec.AKey); rec.Key != want {
			t.Fatalf("accepted content key %q, want %q", rec.Key, want)
		}
		rec.Evaluation()
	})
}

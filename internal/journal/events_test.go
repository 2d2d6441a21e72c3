package journal

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func eventsHeader() Header { return Header{Fingerprint: Fingerprint("events-test"), Model: "m"} }

// TestEventsAppendReopenReplay: records written to the sidecar come back
// on reopen, with quarantine folding (last wins) and salvage
// deduplication (first wins).
func TestEventsAppendReopenReplay(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j.jsonl.events")
	h := eventsHeader()
	e, err := CreateEvents(path, h)
	if err != nil {
		t.Fatal(err)
	}
	rec1 := Record{AKey: "a1", Index: 0, Status: "pass", Speedup: 1.5}
	rec2 := Record{AKey: "a1", Index: 0, Status: "pass", Speedup: 9.9}
	appends := []EventRecord{
		{Type: EventRetry, AKey: "a1", Attempt: 1, Fault: "boom"},
		{Type: EventQuarantine, AKey: "a2", Attempt: 3, Fault: "first"},
		{Type: EventSalvaged, AKey: "a1", Rec: &rec1},
		{Type: EventSalvaged, AKey: "a1", Rec: &rec2},                    // dup: first wins
		{Type: EventQuarantine, AKey: "a2", Attempt: 4, Fault: "second"}, // last wins
		{Type: EventBreakerTrip, AKey: "a2", Fault: "second"},
	}
	for _, r := range appends {
		if err := e.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}

	e2, err := OpenEvents(path, h)
	if err != nil {
		t.Fatal(err)
	}
	defer e2.Close()
	if got := len(e2.Records()); got != len(appends) {
		t.Fatalf("replayed %d records, want %d", got, len(appends))
	}
	q := e2.QuarantinedKeys()
	if len(q) != 1 || q["a2"] != "second" {
		t.Errorf("QuarantinedKeys = %v, want a2 -> second", q)
	}
	s := e2.SalvagedRecords()
	if len(s) != 1 || s[0].Speedup != 1.5 {
		t.Errorf("SalvagedRecords = %+v, want the first a1 record only", s)
	}
	if s[0].Key != RecordKey(h.Fingerprint, "a1") {
		t.Error("salvage payload content key not filled on append")
	}
}

// TestEventsCreateTruncatesStale: a fresh run must not inherit a stale
// quarantine from a previous experiment.
func TestEventsCreateTruncatesStale(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j.jsonl.events")
	h := eventsHeader()
	e, err := CreateEvents(path, h)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Append(EventRecord{Type: EventQuarantine, AKey: "old", Fault: "stale"}); err != nil {
		t.Fatal(err)
	}
	e.Close()

	e2, err := CreateEvents(path, h)
	if err != nil {
		t.Fatal(err)
	}
	defer e2.Close()
	if len(e2.Records()) != 0 {
		t.Error("CreateEvents kept stale records")
	}
	e2.Close()
	e3, err := OpenEvents(path, h)
	if err != nil {
		t.Fatal(err)
	}
	defer e3.Close()
	if q := e3.QuarantinedKeys(); len(q) != 0 {
		t.Errorf("stale quarantine survived re-create: %v", q)
	}
}

// TestEventsOpenMissingCreates: resuming with no sidecar (e.g. the prior
// run was unsupervised) starts a fresh one.
func TestEventsOpenMissingCreates(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j.jsonl.events")
	e, err := OpenEvents(path, eventsHeader())
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	if len(e.Records()) != 0 {
		t.Error("missing sidecar replayed records")
	}
	if _, err := os.Stat(path); err != nil {
		t.Error("sidecar file not created")
	}
}

// TestEventsOpenRejectsForeignFingerprint: a sidecar recorded for a
// different configuration must not leak its quarantines into this run.
func TestEventsOpenRejectsForeignFingerprint(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j.jsonl.events")
	e, err := CreateEvents(path, eventsHeader())
	if err != nil {
		t.Fatal(err)
	}
	e.Close()
	other := Header{Fingerprint: Fingerprint("other-config"), Model: "m"}
	if _, err := OpenEvents(path, other); err == nil {
		t.Fatal("foreign-fingerprint sidecar accepted")
	} else if !strings.Contains(err.Error(), "different configuration") {
		t.Errorf("unhelpful error: %v", err)
	}
}

// TestEventsTornTailDropped: a crash mid-append leaves a torn final
// line; reopening drops it and appends continue cleanly.
func TestEventsTornTailDropped(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j.jsonl.events")
	h := eventsHeader()
	e, err := CreateEvents(path, h)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Append(EventRecord{Type: EventQuarantine, AKey: "a1", Fault: "kept"}); err != nil {
		t.Fatal(err)
	}
	e.Close()
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"type":"quarantine","akey":"torn`); err != nil {
		t.Fatal(err)
	}
	f.Close()

	e2, err := OpenEvents(path, h)
	if err != nil {
		t.Fatal(err)
	}
	if len(e2.Records()) != 1 {
		t.Fatalf("replayed %d records, want 1 (torn tail dropped)", len(e2.Records()))
	}
	if err := e2.Append(EventRecord{Type: EventQuarantine, AKey: "a2", Fault: "after"}); err != nil {
		t.Fatal(err)
	}
	e2.Close()
	e3, err := OpenEvents(path, h)
	if err != nil {
		t.Fatal(err)
	}
	defer e3.Close()
	q := e3.QuarantinedKeys()
	if len(q) != 2 || q["a1"] != "kept" || q["a2"] != "after" {
		t.Errorf("after torn-tail recovery, quarantines = %v", q)
	}
}

// TestEventsRejectsCorruptSalvagePayload: a salvage record whose content
// key fails validation (copied from another journal, or corrupt) is
// rejected rather than silently replayed into the warm cache.
func TestEventsRejectsCorruptSalvagePayload(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j.jsonl.events")
	h := eventsHeader()
	e, err := CreateEvents(path, h)
	if err != nil {
		t.Fatal(err)
	}
	rec := Record{AKey: "a1", Status: "pass", Key: RecordKey("not-this-journal", "a1")}
	if err := e.Append(EventRecord{Type: EventSalvaged, AKey: "a1", Rec: &rec}); err != nil {
		t.Fatal(err)
	}
	e.Close()
	if _, err := OpenEvents(path, h); err == nil {
		t.Fatal("corrupt salvage payload accepted")
	}
}

// TestEventsWorkerFieldRoundTrip: the fleet worker slot survives the
// wire in its 1-based encoding, so worker 0 is distinguishable from "no
// worker" under omitempty.
func TestEventsWorkerFieldRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j.jsonl.events")
	h := eventsHeader()
	e, err := CreateEvents(path, h)
	if err != nil {
		t.Fatal(err)
	}
	withWorker := EventRecord{Type: "worker_exit", AKey: "a1"}
	withWorker.SetWorker(0)
	withoutWorker := EventRecord{Type: "degraded_to_local"}
	withoutWorker.SetWorker(-1)
	for _, r := range []EventRecord{withWorker, withoutWorker} {
		if err := e.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	e2, err := OpenEvents(path, h)
	if err != nil {
		t.Fatal(err)
	}
	defer e2.Close()
	recs := e2.Records()
	if len(recs) != 2 {
		t.Fatalf("replayed %d records, want 2", len(recs))
	}
	if got := recs[0].WorkerID(); got != 0 {
		t.Errorf("worker 0 round-tripped as %d", got)
	}
	if got := recs[1].WorkerID(); got >= 0 {
		t.Errorf("no-worker event reports worker %d", got)
	}
	// Worker 0 must actually occupy bytes on the wire (omitempty would
	// silently drop a 0-valued field).
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(raw), `"worker":1`) {
		t.Error("worker 0 not encoded on the wire")
	}
}

// TestEventsSyncModes pins the durability contract: every append is
// written through to the file before Append returns, so a record
// appended without Close — the process-crash case — is visible to a
// fresh open.
func TestEventsSyncModes(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j.jsonl.events")
	h := eventsHeader()
	e, err := CreateEvents(path, h)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	if err := e.Append(EventRecord{Type: EventRetry, AKey: "a1", Attempt: 1}); err != nil {
		t.Fatal(err)
	}
	e2, err := OpenEvents(path, h)
	if err != nil {
		t.Fatal(err)
	}
	defer e2.Close()
	if got := len(e2.Records()); got != 1 {
		t.Errorf("after append without close: %d records, want 1", got)
	}
}

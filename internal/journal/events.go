package journal

import (
	"fmt"
	"os"
)

// EventsKind identifies the resilience-events sidecar file format.
const EventsKind = "prose-resilience-events"

// EventsPath returns the conventional events-sidecar path for a journal.
func EventsPath(journalPath string) string { return journalPath + ".events" }

// Event record types. Retry/quarantine/breaker records mirror
// resilience.Event; salvaged records carry a full evaluation Record
// rescued from an aborted batch.
//
// The worker fleet appends its own vocabulary to the same sidecar
// (see internal/fleet: lease_grant, worker_exit, …, and the network
// transport's worker_reconnect, partition_expired, dup_refused) —
// this package treats types it does not know as opaque, so the fleet
// can grow events without touching the journal layer.
const (
	EventRetry        = "retry"
	EventQuarantine   = "quarantine"
	EventBreakerTrip  = "breaker_trip"
	EventWatchdog     = "watchdog"
	EventBreakerOpen  = "breaker_open"
	EventBreakerProbe = "breaker_probe"
	EventBreakerClose = "breaker_close"
	EventSalvaged     = "salvaged"
	// EventCancelled records an orderly shutdown — a SIGINT/SIGTERM or
	// an expired wall-clock budget. It lives in the sidecar, never the
	// journal proper: an interrupted-then-resumed run must still produce
	// a byte-identical evaluation journal.
	EventCancelled = "cancelled"
)

// EventRecord is one journaled resilience event (one JSON line of the
// events sidecar).
//
// The sidecar exists precisely because these records must NOT live in
// the evaluation journal proper: the journal of a run that absorbed
// transient faults is byte-identical to a fault-free run's, so retry
// noise is kept out-of-band. Two record types carry resume-critical
// state:
//
//   - quarantine: the assignment is poisoned; a resumed supervisor
//     preloads it and answers StatusInfra without re-crashing.
//   - salvaged: a completed evaluation whose deterministic journal slot
//     was never reached because an earlier slot aborted; a resumed
//     search serves it from the warm cache and journals it at its
//     proper index, so the paid-for work is not repeated.
type EventRecord struct {
	Type string `json:"type"`
	// AKey is the canonical assignment key the event concerns.
	AKey string `json:"akey,omitempty"`
	// Attempt is the faulted attempt (retry) or total attempts spent
	// (quarantine).
	Attempt int `json:"attempt,omitempty"`
	// Fault is the rendered fault value.
	Fault string `json:"fault,omitempty"`
	// Kind is the fault's class label (retry/quarantine/watchdog
	// events), so telemetry can aggregate per class without re-deriving
	// the classification.
	Kind string `json:"kind,omitempty"`
	// BackoffNS is the backoff delay in nanoseconds slept before a retry
	// (retry events only).
	BackoffNS int64 `json:"backoff_ns,omitempty"`
	// Worker is the fleet worker slot the event concerns (fleet events
	// only; 1-based on the wire — see EventRecord.SetWorker — so worker
	// 0 survives omitempty).
	Worker int `json:"worker,omitempty"`
	// Rec is the salvaged evaluation (EventSalvaged only).
	Rec *Record `json:"rec,omitempty"`
}

// SetWorker records a fleet worker slot ID (0-based, -1 = none) in the
// 1-based wire encoding.
func (r *EventRecord) SetWorker(id int) {
	if id >= 0 {
		r.Worker = id + 1
	}
}

// WorkerID returns the 0-based fleet worker slot ID, or -1 if the
// event carries none.
func (r *EventRecord) WorkerID() int { return r.Worker - 1 }

// EventLog is an open events sidecar. Append is safe for concurrent
// use: the supervisor emits events from evaluation workers.
type EventLog struct {
	lineFile
	header  Header
	records []EventRecord
}

// Records returns the records replayed when the log was opened.
func (e *EventLog) Records() []EventRecord { return e.records }

// QuarantinedKeys folds the replayed records into the quarantine map:
// assignment key -> rendered fault (last quarantine wins).
func (e *EventLog) QuarantinedKeys() map[string]string {
	out := make(map[string]string)
	for _, r := range e.records {
		if r.Type == EventQuarantine {
			out[r.AKey] = r.Fault
		}
	}
	return out
}

// SalvagedRecords returns the salvaged evaluation records replayed when
// the log was opened, in append order (deduplicated by assignment key,
// first wins — salvage order is deterministic batch order).
func (e *EventLog) SalvagedRecords() []Record {
	seen := make(map[string]bool)
	var out []Record
	for _, r := range e.records {
		if r.Type != EventSalvaged || r.Rec == nil || seen[r.Rec.AKey] {
			continue
		}
		seen[r.Rec.AKey] = true
		out = append(out, *r.Rec)
	}
	return out
}

func fillEventsHeader(h *Header) {
	h.Kind = EventsKind
	h.Version = Version
}

// CreateEvents starts a fresh events sidecar at path, truncating any
// prior file: unlike the evaluation journal, events are derived
// observability/resume state, and a fresh run must not inherit a stale
// quarantine from an earlier experiment.
func CreateEvents(path string, h Header) (*EventLog, error) {
	fillEventsHeader(&h)
	e := &EventLog{header: h}
	if err := e.create(path, h); err != nil {
		return nil, err
	}
	return e, nil
}

// OpenEvents opens the events sidecar at path for resumption,
// validating its header against want exactly as Open validates the
// evaluation journal. A missing file starts a fresh sidecar. A
// truncated final line — a crash mid-append — is dropped and the file
// truncated back to the last complete record.
func OpenEvents(path string, want Header) (*EventLog, error) {
	fillEventsHeader(&want)
	raw, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return CreateEvents(path, want)
	}
	if err != nil {
		return nil, err
	}
	h, recs, err := parseEvents(raw)
	if err != nil {
		return nil, fmt.Errorf("journal: events %s: %w", path, err)
	}
	if h.Kind != want.Kind || h.Version != want.Version {
		return nil, fmt.Errorf("journal: %s is not a %s v%d file (found %q v%d)",
			path, want.Kind, want.Version, h.Kind, h.Version)
	}
	if h.Fingerprint != want.Fingerprint {
		return nil, fmt.Errorf("journal: events %s were recorded for a different configuration (fingerprint %.12s..., want %.12s...) — remove the sidecar or restore the original configuration",
			path, h.Fingerprint, want.Fingerprint)
	}
	e := &EventLog{header: h, records: recs}
	if err := e.reopen(path, raw); err != nil {
		return nil, err
	}
	return e, nil
}

// parseEvents splits raw sidecar bytes into header and complete
// records, ignoring a truncated trailing line. Salvaged payloads are
// integrity-checked like journal records (content key over fingerprint
// and assignment key); indices are not checked — events interleave
// nondeterministically under parallel evaluation.
func parseEvents(raw []byte) (Header, []EventRecord, error) {
	return parseLines(raw, "event", func(h Header, r *EventRecord, n int) error {
		if r.Rec != nil && r.Rec.Key != RecordKey(h.Fingerprint, r.Rec.AKey) {
			return fmt.Errorf("event %d salvage payload fails its content-key check (corrupt or copied from another journal)", n)
		}
		return nil
	})
}

// Append serializes one event record, appends it as a line, and fsyncs
// before returning: a quarantine acknowledged here must survive the
// very crash it protects the next run from, and a fleet
// lease/restart/degrade trail must survive the coordinator dying
// mid-tune.
func (e *EventLog) Append(r EventRecord) error {
	if r.Rec != nil && r.Rec.Key == "" {
		r.Rec.Key = RecordKey(e.header.Fingerprint, r.Rec.AKey)
	}
	return e.writeLine(r)
}

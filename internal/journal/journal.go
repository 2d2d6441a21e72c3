// Package journal provides the crash-safety layer of the tuning cycle:
// an append-only JSONL evaluation journal plus an atomic checkpoint of
// search state.
//
// The paper's MOM6 search died on Derecho's 12-hour job limit and lost
// every evaluated variant (§IV-B, Table II). Each variant evaluation is
// an expensive artifact — transform, compile, run — so the journal
// treats it as one: every distinct evaluation is serialized as a single
// JSON line and fsync'd before the search proceeds. A killed run leaves
// a journal whose records are exactly the completed prefix of the
// deterministic evaluation order; reopening it warm-starts the search
// (see search.Options.Warm), which replays to the point of death without
// re-running anything and then continues. The resumed journal is
// byte-identical to the journal of an uninterrupted run.
//
// Journal layout:
//
//	line 1:  Header  — format kind/version plus a baseline fingerprint
//	line 2+: Record  — one evaluation each, in evaluation-log order
//
// The fingerprint is a content hash over everything that shapes the
// evaluation stream (program source, machine model, noise seed, search
// options); Open rejects a journal whose fingerprint does not match
// instead of silently reusing stale results from a different program or
// seed. Each record is additionally keyed by a content hash of the
// fingerprint and the variant's canonical assignment key, so records
// remain self-validating when copied between files.
//
// A crash can leave a truncated final line; Open drops it and truncates
// the file back to the last complete record, so appends continue cleanly.
package journal

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"strings"

	"repro/internal/search"
)

// Kind identifies the journal file format.
const Kind = "prose-evaluation-journal"

// Version is the current journal format version.
const Version = 1

// Header is the first line of a journal file.
type Header struct {
	Kind        string `json:"kind"`
	Version     int    `json:"version"`
	Fingerprint string `json:"fingerprint"`
	Model       string `json:"model,omitempty"`
}

// Record is one journaled variant evaluation (one JSON line).
type Record struct {
	// Key is RecordKey(header fingerprint, AKey): a content hash tying
	// the record to both the baseline configuration and the variant.
	Key string `json:"key"`
	// AKey is the variant's canonical assignment key
	// (transform.Assignment.Key()).
	AKey       string  `json:"akey"`
	Index      int     `json:"index"` // 1-based evaluation-log order
	Status     string  `json:"status"`
	Speedup    float64 `json:"speedup"`
	RelError   float64 `json:"rel_error"`
	Lowered    int     `json:"lowered"`
	TotalAtoms int     `json:"total_atoms"`
	Detail     string  `json:"detail,omitempty"`
}

// Fingerprint hashes the given parts into a hex digest. Parts are
// length-prefixed, so no concatenation of parts collides with another
// split of the same bytes.
func Fingerprint(parts ...string) string {
	h := sha256.New()
	for _, p := range parts {
		fmt.Fprintf(h, "%d:", len(p))
		h.Write([]byte(p))
	}
	return hex.EncodeToString(h.Sum(nil))
}

// RecordKey hashes a journal fingerprint and a canonical assignment key
// into the per-record content key.
func RecordKey(fingerprint, akey string) string {
	h := sha256.Sum256([]byte(fingerprint + "\x00" + akey))
	return hex.EncodeToString(h[:16])
}

var statusFromName = map[string]search.Status{
	search.StatusPass.String():    search.StatusPass,
	search.StatusFail.String():    search.StatusFail,
	search.StatusTimeout.String(): search.StatusTimeout,
	search.StatusError.String():   search.StatusError,
	search.StatusInfra.String():   search.StatusInfra,
}

// FromEvaluation converts a search evaluation to its journal record.
func FromEvaluation(fingerprint string, ev *search.Evaluation) Record {
	akey := ev.Assignment.Key()
	return Record{
		Key:        RecordKey(fingerprint, akey),
		AKey:       akey,
		Index:      ev.Index,
		Status:     ev.Status.String(),
		Speedup:    ev.Speedup,
		RelError:   ev.RelError,
		Lowered:    ev.Lowered,
		TotalAtoms: ev.TotalAtoms,
		Detail:     ev.Detail,
	}
}

// Evaluation converts a record back to a search evaluation. The
// Assignment field is left nil: a warm-started search re-proposes the
// assignment itself and attaches it when the record is replayed.
func (r Record) Evaluation() (*search.Evaluation, error) {
	st, ok := statusFromName[r.Status]
	if !ok {
		return nil, fmt.Errorf("journal: record %d has unknown status %q", r.Index, r.Status)
	}
	return &search.Evaluation{
		Status:     st,
		Speedup:    r.Speedup,
		RelError:   r.RelError,
		Lowered:    r.Lowered,
		TotalAtoms: r.TotalAtoms,
		Detail:     r.Detail,
		Index:      r.Index,
	}, nil
}

// Journal is an open journal file. Append is safe for concurrent use.
type Journal struct {
	lineFile
	header  Header
	records []Record
}

// Header returns the journal's header.
func (j *Journal) Header() Header { return j.header }

// Records returns the records replayed when the journal was opened.
// Records appended later are not included.
func (j *Journal) Records() []Record { return j.records }

// Create starts a fresh journal at path, writing and fsyncing the
// header. It refuses to overwrite an existing journal that already
// holds evaluation records — resuming (Open) or removing the file is an
// explicit decision the caller must make.
func Create(path string, h Header) (*Journal, error) {
	fillHeader(&h)
	if existing, err := os.ReadFile(path); err == nil {
		if strings.TrimSpace(string(existing)) != "" {
			if _, recs, err := parse(existing); err == nil && len(recs) > 0 {
				return nil, fmt.Errorf("journal: %s already holds %d evaluation(s); resume it or remove it", path, len(recs))
			}
		}
	}
	j := &Journal{header: h}
	if err := j.create(path, h); err != nil {
		return nil, err
	}
	return j, nil
}

// Open opens the journal at path for resumption, validating its header
// against want (a fingerprint mismatch means the journal belongs to a
// different program, machine model, seed, or search configuration and
// is rejected). A missing file starts a fresh journal, so resuming is
// safe on the very first run. A truncated final line — the signature of
// a crash mid-append — is dropped and the file truncated back to the
// last complete record.
func Open(path string, want Header) (*Journal, error) {
	fillHeader(&want)
	raw, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return Create(path, want)
	}
	if err != nil {
		return nil, err
	}
	h, recs, err := parse(raw)
	if err != nil {
		return nil, fmt.Errorf("journal: %s: %w", path, err)
	}
	if h.Kind != want.Kind || h.Version != want.Version {
		return nil, fmt.Errorf("journal: %s is not a %s v%d file (found %q v%d)",
			path, want.Kind, want.Version, h.Kind, h.Version)
	}
	if h.Fingerprint != want.Fingerprint {
		return nil, fmt.Errorf("journal: %s was recorded for a different configuration (model %q, fingerprint %.12s..., want %.12s...): the program source, machine model, seed, or search options changed — remove the journal or restore the original configuration",
			path, h.Model, h.Fingerprint, want.Fingerprint)
	}
	j := &Journal{header: h, records: recs}
	if err := j.reopen(path, raw); err != nil {
		return nil, err
	}
	return j, nil
}

// fillHeader applies the format constants.
func fillHeader(h *Header) {
	h.Kind = Kind
	h.Version = Version
}

// parse splits raw journal bytes into header and complete records,
// ignoring a truncated trailing line. Records are integrity-checked:
// their content keys must match the header fingerprint and their
// indices must be contiguous from 1.
func parse(raw []byte) (Header, []Record, error) {
	return parseLines(raw, "record", func(h Header, r *Record, n int) error {
		if r.Key != RecordKey(h.Fingerprint, r.AKey) {
			return fmt.Errorf("record %d fails its content-key check (corrupt or copied from another journal)", n)
		}
		if r.Index != n {
			return fmt.Errorf("record %d has index %d (journal reordered or spliced)", n, r.Index)
		}
		return nil
	})
}

// Append serializes one record, appends it as a line, and fsyncs before
// returning, so a record acknowledged here survives any later crash.
func (j *Journal) Append(r Record) error {
	if r.Key == "" {
		r.Key = RecordKey(j.header.Fingerprint, r.AKey)
	}
	return j.writeLine(r)
}

package journal

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"sync"
)

// maxLine bounds one journal or sidecar line. A longer line is rejected
// rather than silently ending the parse.
const maxLine = 16 * 1024 * 1024

// lineFile is an open append-only JSONL file, the storage of both the
// journal and its events sidecar. Every line is fsync'd before the
// append returns. Its methods are safe for concurrent use.
type lineFile struct {
	path string
	mu   sync.Mutex
	f    *os.File
}

// create starts a fresh file at path, truncating any prior one, and
// writes and fsyncs the header line.
func (l *lineFile) create(path string, h Header) error {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	l.path, l.f = path, f
	if err := l.writeLine(h); err != nil {
		f.Close()
		return err
	}
	return nil
}

// reopen opens the file at path, whose contents are raw, for appending
// after its last complete line: a torn final line is truncated away.
func (l *lineFile) reopen(path string, raw []byte) error {
	goodLen := int64(completeLen(raw))
	f, err := os.OpenFile(path, os.O_RDWR, 0o644)
	if err != nil {
		return err
	}
	if err := f.Truncate(goodLen); err != nil {
		f.Close()
		return err
	}
	if _, err := f.Seek(goodLen, 0); err != nil {
		f.Close()
		return err
	}
	l.path, l.f = path, f
	return nil
}

func (l *lineFile) writeLine(v any) error {
	b, err := json.Marshal(v)
	if err != nil {
		return err
	}
	b = append(b, '\n')
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.f == nil {
		return fmt.Errorf("journal: %s is closed", l.path)
	}
	if _, err := l.f.Write(b); err != nil {
		return fmt.Errorf("journal: append to %s: %w", l.path, err)
	}
	if err := l.f.Sync(); err != nil {
		return fmt.Errorf("journal: fsync %s: %w", l.path, err)
	}
	return nil
}

// Path returns the file's path.
func (l *lineFile) Path() string { return l.path }

// Close releases the file. Appended lines are already durable; Close
// only invalidates the handle.
func (l *lineFile) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.f == nil {
		return nil
	}
	err := l.f.Close()
	l.f = nil
	return err
}

// parseLines splits raw file bytes into the header and the complete
// records, ignoring a torn trailing line and blank lines. check
// validates the n-th record (1-based) against the header; noun names a
// record in errors.
func parseLines[R any](raw []byte, noun string, check func(h Header, r *R, n int) error) (Header, []R, error) {
	sc := bufio.NewScanner(bytes.NewReader(raw[:completeLen(raw)]))
	sc.Buffer(nil, maxLine)
	if !sc.Scan() {
		return Header{}, nil, fmt.Errorf("empty file")
	}
	var h Header
	if err := json.Unmarshal(sc.Bytes(), &h); err != nil {
		return Header{}, nil, fmt.Errorf("bad header: %w", err)
	}
	var recs []R
	for sc.Scan() {
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		var r R
		if err := json.Unmarshal(line, &r); err != nil {
			return Header{}, nil, fmt.Errorf("bad %s %d: %w", noun, len(recs)+1, err)
		}
		if err := check(h, &r, len(recs)+1); err != nil {
			return Header{}, nil, err
		}
		recs = append(recs, r)
	}
	if err := sc.Err(); err != nil {
		return Header{}, nil, fmt.Errorf("%s %d: %w", noun, len(recs)+1, err)
	}
	return h, recs, nil
}

// completeLen returns the length of raw up to and including its last
// newline: everything after it is a torn partial write.
func completeLen(raw []byte) int {
	return bytes.LastIndexByte(raw, '\n') + 1
}

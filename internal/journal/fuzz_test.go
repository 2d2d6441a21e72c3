package journal

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// fuzzSeeds seeds a target with the extra files, the checked-in funarc
// file name (a real tune's journal or fleet events sidecar), that file
// cut mid-line and that file with one byte flipped, each paired with a
// torn tail.
func fuzzSeeds(f *testing.F, name string, extra ...[]byte) {
	raw, err := os.ReadFile(filepath.Join("testdata", name))
	if err != nil {
		f.Fatal(err)
	}
	for _, seed := range append(extra, raw, raw[:len(raw)/2], flipByte(raw, len(raw)/3)) {
		f.Add(seed, []byte(`{"index":9`))
	}
	f.Add([]byte{}, []byte{})
	f.Add([]byte("\n\n"), []byte("x"))
}

func flipByte(raw []byte, i int) []byte {
	out := bytes.Clone(raw)
	out[i] ^= 0x20
	return out
}

// tornTail strips newlines so the bytes can only ever be a partial
// final line.
func tornTail(tail []byte) []byte {
	return bytes.ReplaceAll(tail, []byte("\n"), nil)
}

// FuzzJournalParse: parse never panics, every journal it accepts is
// integrity-checked (content keys match the header, indices run from
// 1), a rejected one yields no records, and a torn tail appended to any
// input changes nothing.
func FuzzJournalParse(f *testing.F) {
	path := filepath.Join(f.TempDir(), "w.jsonl")
	j, err := Create(path, mkHeader(Fingerprint("fuzz")))
	if err != nil {
		f.Fatal(err)
	}
	for i := 1; i <= 3; i++ {
		if err := j.Append(mkRecord(Fingerprint("fuzz"), i)); err != nil {
			f.Fatal(err)
		}
	}
	j.Close()
	written, err := os.ReadFile(path)
	if err != nil {
		f.Fatal(err)
	}
	fuzzSeeds(f, "funarc.jsonl", written)

	f.Fuzz(func(t *testing.T, data, tail []byte) {
		h, recs, err := parse(data)
		if err != nil {
			if recs != nil {
				t.Fatalf("rejected journal returned %d records", len(recs))
			}
		} else {
			for i, r := range recs {
				if r.Index != i+1 || r.Key != RecordKey(h.Fingerprint, r.AKey) {
					t.Fatalf("accepted record %d fails integrity: %+v", i+1, r)
				}
			}
		}
		h2, recs2, err2 := parse(append(bytes.Clone(data), tornTail(tail)...))
		if (err == nil) != (err2 == nil) || h != h2 || !reflect.DeepEqual(recs, recs2) {
			t.Fatalf("torn tail changed the parse: (%v, %d recs) vs (%v, %d recs)", err, len(recs), err2, len(recs2))
		}
	})
}

// FuzzEventsParse: parseEvents never panics, every salvage payload it
// accepts passes its content-key check, a rejected sidecar yields no
// records, and a torn tail appended to any input changes nothing.
func FuzzEventsParse(f *testing.F) {
	path := filepath.Join(f.TempDir(), "w.jsonl.events")
	h := eventsHeader()
	e, err := CreateEvents(path, h)
	if err != nil {
		f.Fatal(err)
	}
	rec := mkRecord(h.Fingerprint, 4)
	for _, r := range []EventRecord{
		{Type: EventRetry, AKey: "a", Attempt: 1, Fault: "boom", Kind: "scheduler-kill", BackoffNS: 1000},
		{Type: EventQuarantine, AKey: "b", Attempt: 3, Fault: "poisoned"},
		{Type: EventSalvaged, AKey: rec.AKey, Rec: &rec},
		{Type: EventCancelled, Fault: "search: cancelled: context canceled"},
		{Type: "worker_exit", Worker: 2},
	} {
		if err := e.Append(r); err != nil {
			f.Fatal(err)
		}
	}
	e.Close()
	written, err := os.ReadFile(path)
	if err != nil {
		f.Fatal(err)
	}
	fuzzSeeds(f, "funarc.jsonl.events", written)

	f.Fuzz(func(t *testing.T, data, tail []byte) {
		h, recs, err := parseEvents(data)
		if err != nil {
			if recs != nil {
				t.Fatalf("rejected sidecar returned %d records", len(recs))
			}
		} else {
			for i, r := range recs {
				if r.Rec != nil && r.Rec.Key != RecordKey(h.Fingerprint, r.Rec.AKey) {
					t.Fatalf("accepted event %d carries a corrupt salvage payload: %+v", i+1, r.Rec)
				}
			}
		}
		h2, recs2, err2 := parseEvents(append(bytes.Clone(data), tornTail(tail)...))
		if (err == nil) != (err2 == nil) || h != h2 || !reflect.DeepEqual(recs, recs2) {
			t.Fatalf("torn tail changed the parse: (%v, %d recs) vs (%v, %d recs)", err, len(recs), err2, len(recs2))
		}
	})
}

// FuzzLoadCheckpoint: LoadCheckpoint never panics, a rejected
// checkpoint is reported as not loaded with no state, and an accepted
// one survives SaveCheckpoint and a reload unchanged. (A checkpoint is
// replaced by atomic rename, so it has no torn tail to tolerate.)
func FuzzLoadCheckpoint(f *testing.F) {
	raw, err := os.ReadFile(filepath.Join("testdata", "funarc.jsonl.ckpt"))
	if err != nil {
		f.Fatal(err)
	}
	for _, seed := range [][]byte{raw, raw[:len(raw)/2], flipByte(raw, len(raw)/3), {}, []byte("{}"), []byte("null"), []byte(`{"minimal":[]}`)} {
		f.Add(seed)
	}
	dir := f.TempDir()
	path, resaved := filepath.Join(dir, "w.jsonl.ckpt"), filepath.Join(dir, "resaved.ckpt")
	f.Fuzz(func(t *testing.T, data []byte) {
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		c, ok, err := LoadCheckpoint(path)
		if err != nil {
			if ok || !reflect.DeepEqual(c, Checkpoint{}) {
				t.Fatalf("rejected checkpoint returned ok=%v, %+v", ok, c)
			}
			return
		}
		if !ok {
			t.Fatal("an existing checkpoint file reported as missing")
		}
		if err := SaveCheckpoint(resaved, c); err != nil {
			t.Fatal(err)
		}
		c2, ok2, err := LoadCheckpoint(resaved)
		if err != nil || !ok2 {
			t.Fatalf("reloading a saved checkpoint: ok=%v, %v", ok2, err)
		}
		a, _ := json.Marshal(c)
		b, _ := json.Marshal(c2)
		if !bytes.Equal(a, b) {
			t.Fatalf("checkpoint changed across save and reload:\n%s\n%s", a, b)
		}
	})
}

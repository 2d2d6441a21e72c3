package ledger

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// fuzzSeeds seeds a target with the extra files, the checked-in file
// name (a real funarc tune's decision log or ledger manifest), that
// file cut mid-line and that file with one byte flipped, each paired
// with a torn tail.
func fuzzSeeds(f *testing.F, name string, extra ...[]byte) {
	raw, err := os.ReadFile(filepath.Join("testdata", name))
	if err != nil {
		f.Fatal(err)
	}
	for _, seed := range append(extra, raw, raw[:len(raw)/2], flipByte(raw, len(raw)/3)) {
		f.Add(seed, []byte(`{"ev":"round`))
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

// completePrefix is raw up to and including its last newline.
func completePrefix(raw []byte) []byte {
	return raw[:bytes.LastIndexByte(raw, '\n')+1]
}

// FuzzReadDecisionLog: ReadDecisionLog never panics, a rejected log
// yields no events, and a torn tail appended to any input changes
// nothing.
func FuzzReadDecisionLog(f *testing.F) {
	written := filepath.Join(f.TempDir(), "d.jsonl")
	raw := func() []byte {
		path := filepath.Join(f.TempDir(), "sample.jsonl")
		dl, err := CreateDecisionLog(path, "fp-1", "funarc")
		if err != nil {
			f.Fatal(err)
		}
		dl.RoundStart(1, 1)
		if err := dl.Close(); err != nil {
			f.Fatal(err)
		}
		b, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		return b
	}()
	fuzzSeeds(f, "funarc.jsonl.decisions", raw, append(bytes.Clone(raw), "{\"ev\":\"candidate\"}\nnot json\n"...))

	read := func(t *testing.T, data []byte) (DecisionHeader, []DecisionEvent, error) {
		if err := os.WriteFile(written, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return ReadDecisionLog(written)
	}
	f.Fuzz(func(t *testing.T, data, tail []byte) {
		h, evs, err := read(t, data)
		if err != nil && evs != nil {
			t.Fatalf("rejected log returned %d events", len(evs))
		}
		h2, evs2, err2 := read(t, append(bytes.Clone(data), tornTail(tail)...))
		if (err == nil) != (err2 == nil) || h != h2 || !reflect.DeepEqual(evs, evs2) {
			t.Fatalf("torn tail changed the read: (%v, %d events) vs (%v, %d events)", err, len(evs), err2, len(evs2))
		}
	})
}

// FuzzLoadManifest: LoadManifest never panics and accepts only
// run-manifest documents; the same bytes read as a ledger's index.jsonl
// list without error, every listed run has an ID, and a torn tail after
// the complete lines never changes the runs listed before it. (A
// manifest itself is written by atomic rename, so it has no torn tail
// to tolerate.)
func FuzzLoadManifest(f *testing.F) {
	// Manifests archived before the engine left the manifest carry an
	// "engine" key; they must still load.
	if _, err := LoadManifest(filepath.Join("testdata", "funarc.manifest.json")); err != nil {
		f.Fatalf("manifest with an engine key: %v", err)
	}
	canon, err := CanonicalJSON(sampleManifest(1.5, 10))
	if err != nil {
		f.Fatal(err)
	}
	index, err := os.ReadFile(filepath.Join("testdata", "index.jsonl"))
	if err != nil {
		f.Fatal(err)
	}
	fuzzSeeds(f, "funarc.manifest.json", canon, index, append(bytes.Clone(index), "{}\n{\"id\":\"x\"}\n"...))

	dir := f.TempDir()
	led, err := Open(dir)
	if err != nil {
		f.Fatal(err)
	}
	manifest := filepath.Join(dir, "m.json")
	list := func(t *testing.T, data []byte) []IndexEntry {
		if err := os.WriteFile(filepath.Join(dir, indexFile), data, 0o644); err != nil {
			t.Fatal(err)
		}
		entries, err := led.List()
		if err != nil {
			t.Fatalf("listing an existing index: %v", err)
		}
		for i, e := range entries {
			if e.ID == "" {
				t.Fatalf("listed run %d has no ID", i+1)
			}
		}
		return entries
	}
	f.Fuzz(func(t *testing.T, data, tail []byte) {
		if err := os.WriteFile(manifest, data, 0o644); err != nil {
			t.Fatal(err)
		}
		m, err := LoadManifest(manifest)
		if err == nil && m.Kind != ManifestKind {
			t.Fatalf("accepted a %q document", m.Kind)
		}
		if err != nil && m != nil {
			t.Fatal("rejected manifest returned a document")
		}

		list(t, data)
		complete := completePrefix(data)
		before := list(t, complete)
		after := list(t, append(bytes.Clone(complete), tornTail(tail)...))
		if len(after) < len(before) || len(before) > 0 && !reflect.DeepEqual(before, after[:len(before)]) {
			t.Fatalf("torn tail changed the listed runs: %d before, %d after", len(before), len(after))
		}
	})
}

package main

import (
	"sort"
	"time"
)

// span is one timed interval the benchmark recorded around a call into
// a layer of the program. parent is the index of the enclosing span, or
// -1 for a root.
type span struct {
	name       string
	parent     int
	start, end time.Duration // offsets from the recorder's origin
}

// recorder keeps spans in memory; spans nest by begin/end order. It is
// used by one goroutine at a time (a traced tune's hook runs on the
// search's goroutine while the caller waits in Run).
type recorder struct {
	origin time.Time
	spans  []span
	open   []int
}

func newRecorder() *recorder { return &recorder{origin: time.Now()} }

// begin opens a span as a child of the innermost open span. A nil
// recorder records nothing (begin returns -1, end ignores it).
func (r *recorder) begin(name string) int {
	if r == nil {
		return -1
	}
	parent := -1
	if n := len(r.open); n > 0 {
		parent = r.open[n-1]
	}
	r.spans = append(r.spans, span{name: name, parent: parent, start: time.Since(r.origin)})
	id := len(r.spans) - 1
	r.open = append(r.open, id)
	return id
}

// end closes span id (and any span still open inside it) and returns
// its duration.
func (r *recorder) end(id int) time.Duration {
	if r == nil || id < 0 {
		return 0
	}
	now := time.Since(r.origin)
	for n := len(r.open); n > 0; n = len(r.open) {
		top := r.open[n-1]
		r.open = r.open[:n-1]
		r.spans[top].end = now
		if top == id {
			break
		}
	}
	return r.spans[id].end - r.spans[id].start
}

// add records a closed span from timestamps taken elsewhere (the
// Progress callback) as a child of parent.
func (r *recorder) add(name string, parent int, start, end time.Time) {
	r.spans = append(r.spans, span{name: name, parent: parent, start: start.Sub(r.origin), end: end.Sub(r.origin)})
}

// timed runs fn inside a span named name and returns the span's
// duration.
func (r *recorder) timed(name string, fn func()) time.Duration {
	id := r.begin(name)
	fn()
	return r.end(id)
}

// selfTimes returns each span's self time: its duration minus the part
// of its interval covered by the union of its children's intervals.
func selfTimes(spans []span) []time.Duration {
	children := make([][]int, len(spans))
	for i, s := range spans {
		if s.parent >= 0 {
			children[s.parent] = append(children[s.parent], i)
		}
	}
	self := make([]time.Duration, len(spans))
	for i, s := range spans {
		type iv struct{ a, b time.Duration }
		var ivs []iv
		for _, c := range children[i] {
			a, b := spans[c].start, spans[c].end
			if a < s.start {
				a = s.start
			}
			if b > s.end {
				b = s.end
			}
			if b > a {
				ivs = append(ivs, iv{a, b})
			}
		}
		sort.Slice(ivs, func(x, y int) bool { return ivs[x].a < ivs[y].a })
		var covered time.Duration
		var cur iv
		for k, v := range ivs {
			switch {
			case k == 0:
				cur = v
			case v.a <= cur.b:
				if v.b > cur.b {
					cur.b = v.b
				}
			default:
				covered += cur.b - cur.a
				cur = v
			}
		}
		if len(ivs) > 0 {
			covered += cur.b - cur.a
		}
		self[i] = s.end - s.start - covered
	}
	return self
}

// selfByName sums self times per span name.
func selfByName(spans []span) map[string]time.Duration {
	out := make(map[string]time.Duration)
	for i, d := range selfTimes(spans) {
		out[spans[i].name] += d
	}
	return out
}

// durations lists the durations of every span named name, in order.
func durations(spans []span, name string) []time.Duration {
	var out []time.Duration
	for _, s := range spans {
		if s.name == name {
			out = append(out, s.end-s.start)
		}
	}
	return out
}

package main

import (
	"bufio"
	"context"
	"fmt"
	"os"
	"runtime"
	"sort"
	"sync"
	"time"
)

// epoch anchors every timestamp the benchmark takes: nanoseconds since
// process start on the monotonic clock.
var epoch = time.Now()

func nowNs() int64 { return int64(time.Since(epoch)) }

// span is one timed call into a layer. Spans of one request live in that
// request's reqTrace; parent indexes into the same slice (-1 for the root).
type span struct {
	name       string
	start, end int64
	parent     int32
}

// reqTrace holds the spans of one request. Every layer call of a request
// runs on the goroutine that issued it, so begin/end need no lock and the
// open spans form a stack: a span's parent is whichever span is open when
// it begins.
type reqTrace struct {
	id    int64
	kind  string // the request's binding or op class, e.g. "soap", "publish"
	op    string // the operation it invokes
	due   int64  // scheduled arrival
	spans []span
	open  []int32
}

func (rt *reqTrace) begin(name string) int32 {
	parent := int32(-1)
	if n := len(rt.open); n > 0 {
		parent = rt.open[n-1]
	}
	idx := int32(len(rt.spans))
	rt.spans = append(rt.spans, span{name: name, start: nowNs(), parent: parent})
	rt.open = append(rt.open, idx)
	return idx
}

func (rt *reqTrace) end(idx int32) {
	rt.spans[idx].end = nowNs()
	rt.open = rt.open[:len(rt.open)-1]
}

// selfTimes returns each span's duration minus the time its children
// cover. Children of a span never overlap (they run on one goroutine,
// one after another), so the covered part is the sum of their durations.
func (rt *reqTrace) selfTimes() []int64 {
	self := make([]int64, len(rt.spans))
	for i, s := range rt.spans {
		self[i] += s.end - s.start
		if s.parent >= 0 {
			self[s.parent] -= s.end - s.start
		}
	}
	return self
}

// tracer collects the request traces of one traced phase. The durable
// layers (registry.Directory, wal.FS) take no context, so their wrappers
// find the request through the issuing goroutine instead.
type tracer struct {
	byGoroutine bool // also bind each request to its goroutine
	every       int  // trace one request in every; the rest run untraced
	mu          sync.Mutex
	reqs        []*reqTrace
	byG         sync.Map // goroutine id -> *reqTrace
}

type traceKey struct{}

// sampled reports whether op k is traced.
func (t *tracer) sampled(k int) bool { return t != nil && k%t.every == 0 }

// start opens a request trace and binds it to ctx and, when byGoroutine
// is set, to the calling goroutine; finish must then run on the same
// goroutine.
func (t *tracer) start(ctx context.Context, id int64, kind, op string, due int64) (context.Context, *reqTrace) {
	rt := &reqTrace{id: id, kind: kind, op: op, due: due, spans: make([]span, 0, 8), open: make([]int32, 0, 8)}
	if t.byGoroutine {
		t.byG.Store(goid(), rt)
	}
	t.mu.Lock()
	t.reqs = append(t.reqs, rt)
	t.mu.Unlock()
	return context.WithValue(ctx, traceKey{}, rt), rt
}

func (t *tracer) finish() {
	if t.byGoroutine {
		t.byG.Delete(goid())
	}
}

// current returns the trace bound to the calling goroutine, or nil.
func (t *tracer) current() *reqTrace {
	if t == nil {
		return nil
	}
	v, ok := t.byG.Load(goid())
	if !ok {
		return nil
	}
	return v.(*reqTrace)
}

func traceFrom(ctx context.Context) *reqTrace {
	rt, _ := ctx.Value(traceKey{}).(*reqTrace)
	return rt
}

// goid parses the calling goroutine's id from its stack header
// ("goroutine 42 [running]:"). It costs about a microsecond and runs only
// in traced phases.
func goid() int64 {
	var buf [32]byte
	n := runtime.Stack(buf[:], false)
	var id int64
	for _, c := range buf[len("goroutine "):n] {
		if c < '0' || c > '9' {
			break
		}
		id = id*10 + int64(c-'0')
	}
	return id
}

// writeSpans dumps every span as CSV: request, kind, op, span, parent, name,
// start and end in nanoseconds since process start.
func (t *tracer) writeSpans(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "req,kind,op,span,parent,name,start_ns,end_ns")
	for _, rt := range t.reqs {
		for i, s := range rt.spans {
			fmt.Fprintf(w, "%d,%s,%s,%d,%d,%s,%d,%d\n", rt.id, rt.kind, rt.op, i, s.parent, s.name, s.start, s.end)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// layerRows attributes every traced request's time to layers: its lag
// (issue minus due) and the self time of each of its spans, the row of a
// span being rowOf(kind, span name).
type layerRows struct {
	order []string           // rows in first-seen order
	total map[string]float64 // summed self time, ns
	n     int                // requests
}

func (t *tracer) rows(rowOf func(kind, name string) string) layerRows {
	lr := layerRows{total: map[string]float64{}}
	add := func(row string, ns int64) {
		if _, ok := lr.total[row]; !ok {
			lr.order = append(lr.order, row)
		}
		lr.total[row] += float64(ns)
	}
	for _, rt := range t.reqs {
		if len(rt.spans) == 0 {
			continue
		}
		add("loadgen.lag", rt.spans[0].start-rt.due)
		for i, ns := range rt.selfTimes() {
			add(rowOf(rt.kind, rt.spans[i].name), ns)
		}
		lr.n++
	}
	return lr
}

// misnested describes the first traced request whose spans do not nest:
// a span left open, one that ends before it starts or a child outside its
// parent. Any of these makes a
// self time meaningless, though the rows still sum to the end-to-end
// figure, which they do by construction. It returns "" when all nest.
func (t *tracer) misnested() string {
	for _, rt := range t.reqs {
		if len(rt.open) > 0 {
			return fmt.Sprintf("request %d: span %s left open", rt.id, rt.spans[rt.open[len(rt.open)-1]].name)
		}
		for i, s := range rt.spans {
			if s.end < s.start {
				return fmt.Sprintf("request %d: span %s ends before it starts", rt.id, s.name)
			}
			if p := s.parent; p >= 0 && (s.start < rt.spans[p].start || s.end > rt.spans[p].end) {
				return fmt.Sprintf("request %d: span %s (%d) lies outside its parent %s", rt.id, s.name, i, rt.spans[p].name)
			}
		}
	}
	return ""
}

// mean returns the row's mean per request in µs.
func (lr layerRows) mean(row string) float64 {
	if lr.n == 0 {
		return 0
	}
	return lr.total[row] / float64(lr.n) / 1e3
}

// sum returns the sum of all row means in µs.
func (lr layerRows) sum() float64 {
	var s float64
	for _, row := range lr.order {
		s += lr.mean(row)
	}
	return s
}

// spanStats gathers, per request, the summed duration (or self time) of
// the spans pick selects and returns the per-request values in µs.
func (t *tracer) spanStats(pick func(rt *reqTrace, i int) bool, self bool) []float64 {
	var out []float64
	for _, rt := range t.reqs {
		var st []int64
		if self {
			st = rt.selfTimes()
		}
		var sum int64
		found := false
		for i, s := range rt.spans {
			if !pick(rt, i) {
				continue
			}
			found = true
			if self {
				sum += st[i]
			} else {
				sum += s.end - s.start
			}
		}
		if found {
			out = append(out, float64(sum)/1e3)
		}
	}
	return out
}

// eachSpan returns the duration in µs of every span pick selects.
func (t *tracer) eachSpan(pick func(rt *reqTrace, i int) bool) []float64 {
	var out []float64
	for _, rt := range t.reqs {
		for i, s := range rt.spans {
			if pick(rt, i) {
				out = append(out, float64(s.end-s.start)/1e3)
			}
		}
	}
	return out
}

func named(names ...string) func(rt *reqTrace, i int) bool {
	return func(rt *reqTrace, i int) bool {
		for _, n := range names {
			if rt.spans[i].name == n {
				return true
			}
		}
		return false
	}
}

// hasChild reports whether span i of rt has a child called name.
func (rt *reqTrace) hasChild(i int, name string) bool {
	for _, s := range rt.spans {
		if int(s.parent) == i && s.name == name {
			return true
		}
	}
	return false
}

// quantile returns the q-quantile of xs (nearest rank), 0 when empty.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(q*float64(len(s)-1) + 0.5)
	return s[i]
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

package main

import (
	"context"
	"encoding/json"
	"os"
	"testing"
	"time"

	"soc/internal/registry"
)

// small returns the named workload at a tenth of its rate, for tests.
func small(t *testing.T, name string) *workload {
	t.Helper()
	for _, w := range workloads {
		if w.name == name {
			w.nominal /= 10
			return &w
		}
	}
	t.Fatalf("no workload %q", name)
	return nil
}

// TestMetricsMatchBenchmarkJSON runs every workload briefly, timed and
// traced, and checks that each prints exactly the metrics BENCHMARK.json
// names, with the units it gives, and that every op succeeded.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	for _, wl := range spec.Workloads {
		for _, traced := range []bool{false, true} {
			want := spec.EndToEnd
			if traced {
				want = spec.PerLayer
			}
			r, err := measure(small(t, wl.Name), 7, 2*time.Second, traced, t.TempDir())
			if err != nil {
				t.Fatalf("%s traced=%v: %v", wl.Name, traced, err)
			}
			if !r.Correct || r.Failed != 0 || r.Attempted < 1 {
				t.Errorf("%s traced=%v: correct=%v failed=%d attempted=%d %v", wl.Name, traced, r.Correct, r.Failed, r.Attempted, r.problems)
			}
			if len(r.Metrics) != len(want) {
				t.Errorf("%s traced=%v: printed %d metrics, BENCHMARK.json names %d", wl.Name, traced, len(r.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := r.Metrics[m.Name]
				if !ok || got.Unit != m.Unit {
					t.Errorf("%s traced=%v: metric %s printed as %+v (found %v), want unit %s", wl.Name, traced, m.Name, got, ok, m.Unit)
				}
			}
		}
	}
}

// TestVerifierCatchesWrongAnswer corrupts one reference answer and
// expects the reply check to fail that op and no other.
func TestVerifierCatchesWrongAnswer(t *testing.T) {
	for _, mk := range []func(int64) (*gwInputs, error){hotInputs, coldInputs} {
		in, err := mk(3)
		if err != nil {
			t.Fatal(err)
		}
		g, err := newGateway(in, nil, 3)
		if err != nil {
			t.Fatal(err)
		}
		for k := 0; k < 50; k++ {
			if _, _, err := g.op(context.Background(), k, nowNs()); err != nil {
				t.Fatalf("op %d with the true reference: %v", k, err)
			}
		}
		g.spec(50).want++
		if _, _, err := g.op(context.Background(), 50, nowNs()); err == nil {
			t.Errorf("op 50 passed against a corrupted reference (%s %s)", g.spec(50).binding, g.spec(50).op)
		}
		if probs := g.verify(); len(probs) != 0 {
			t.Errorf("front-door ledger: %v", probs)
		}
	}
}

// TestVerifierCatchesDroppedWrite checks a directory against
// acknowledged writes it does and does not hold.
func TestVerifierCatchesDroppedWrite(t *testing.T) {
	reg := registry.New(registry.WithLease(leaseTerm))
	in, err := durableInputs(1, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range in.entries {
		if err := reg.Publish(e); err != nil {
			t.Fatal(err)
		}
	}
	e := in.entries[5]
	e.Endpoint = endpoint(5, 42)
	wall := time.Now()
	issue := nowNs()
	if err := reg.Publish(e); err != nil {
		t.Fatal(err)
	}
	kept := []acked{{name: 5, version: 42, issue: issue, ack: nowNs(), wall: wall}}
	if probs := checkDurable(reg, kept); len(probs) != 0 {
		t.Fatalf("durable state flagged: %v", probs)
	}
	dropped := append(kept, acked{name: 5, version: 43, issue: nowNs(), ack: nowNs(), wall: time.Now()})
	if probs := checkDurable(reg, dropped); len(probs) == 0 {
		t.Error("a dropped acknowledged publish went unnoticed")
	}
	renewed := append(kept, acked{name: 5, version: -1, issue: nowNs(), ack: nowNs(), wall: time.Now().Add(time.Minute)})
	if probs := checkDurable(reg, renewed); len(probs) == 0 {
		t.Error("a dropped acknowledged heartbeat went unnoticed")
	}
}

// TestDurableReopen runs durable-mixed ops against real directories and
// checks that everything acknowledged survives the reopen.
func TestDurableReopen(t *testing.T) {
	in, err := durableInputs(2, 300)
	if err != nil {
		t.Fatal(err)
	}
	d, err := newDurable(in, nil, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer d.close()
	d.perJournal = 16 // spread the starts over several journals
	if err := d.warm(300); err != nil {
		t.Fatal(err)
	}
	if len(d.acks) == 0 || len(d.journals) < 2 {
		t.Fatalf("no writes acknowledged (%d) or starts spread over %d journals", len(d.acks), len(d.journals))
	}
	if probs := d.verify(); len(probs) != 0 {
		t.Fatalf("reopen: %v", probs)
	}
	last := d.journals[len(d.journals)-1]
	last.completed = append(last.completed, "wf-never-started")
	d.closed = true
	if probs := d.verify(); len(probs) == 0 {
		t.Error("an instance missing after reopen went unnoticed")
	}
}

// TestSelfTimes checks self-time arithmetic on a hand-made trace.
func TestSelfTimes(t *testing.T) {
	rt := &reqTrace{spans: []span{
		{name: "client", start: 0, end: 100, parent: -1},
		{name: "frontdoor", start: 10, end: 90, parent: 0},
		{name: "replica", start: 20, end: 80, parent: 1},
		{name: "service", start: 30, end: 40, parent: 2},
		{name: "service", start: 50, end: 60, parent: 2},
	}}
	want := []int64{20, 20, 40, 10, 10}
	for i, got := range rt.selfTimes() {
		if got != want[i] {
			t.Errorf("span %d (%s): self %d, want %d", i, rt.spans[i].name, got, want[i])
		}
	}
}

// TestMisnestedSpans checks that a span left open or one outside its
// parent invalidates a trace.
func TestMisnestedSpans(t *testing.T) {
	good := &reqTrace{spans: []span{{name: "client", start: 0, end: 100, parent: -1}, {name: "frontdoor", start: 10, end: 90, parent: 0}}}
	if bad := (&tracer{reqs: []*reqTrace{good}}).misnested(); bad != "" {
		t.Errorf("nested spans flagged: %s", bad)
	}
	outside := &reqTrace{spans: []span{{name: "client", start: 0, end: 100, parent: -1}, {name: "frontdoor", start: 10, end: 120, parent: 0}}}
	open := &reqTrace{spans: []span{{name: "client", start: 0, parent: -1}}, open: []int32{0}}
	for _, rt := range []*reqTrace{outside, open} {
		if (&tracer{reqs: []*reqTrace{rt}}).misnested() == "" {
			t.Errorf("misnested trace %+v went unnoticed", rt.spans)
		}
	}
}

// TestRowsSumToEndToEnd traces a short gateway phase and checks that the
// per-layer rows add up to the traced requests' latency from due.
func TestRowsSumToEndToEnd(t *testing.T) {
	in, err := hotInputs(4)
	if err != nil {
		t.Fatal(err)
	}
	tr := &tracer{every: 3}
	g, err := newGateway(in, tr, 4)
	if err != nil {
		t.Fatal(err)
	}
	ph := runPhase(context.Background(), 2000, time.Second, 0, 1, g.op, 0)
	if f := ph.failed.Load(); f != 0 {
		t.Fatalf("%d ops failed: %v", f, ph.errs)
	}
	rows := tr.rows(gatewayRow)
	e2e := ph.meanUs(tr.reqs)
	if rows.n == 0 || e2e <= 0 {
		t.Fatalf("nothing traced: %d requests, e2e %v", rows.n, e2e)
	}
	if gap := (rows.sum() - e2e) / e2e; gap > rowsTolerance || gap < -rowsTolerance {
		t.Errorf("rows sum to %.2f µs, end-to-end mean %.2f µs: gap %.2f%% over ±%.0f%%", rows.sum(), e2e, 100*gap, 100*rowsTolerance)
	}
	for _, row := range []string{"loadgen.lag", "client", "cloud", "host", "respcache"} {
		if _, ok := rows.total[row]; !ok {
			t.Errorf("no %s row", row)
		}
	}
}

// TestNominalPhaseRetriesLateGenerator checks that a nominal phase whose
// generator falls behind is tried lagTries times, that every try's ops
// are counted, and that a phase the generator keeps up with passes on its
// first try.
func TestNominalPhaseRetriesLateGenerator(t *testing.T) {
	slow := func(_ context.Context, _ int, _ int64) (int64, uint8, error) {
		time.Sleep(2 * time.Millisecond)
		return nowNs(), classRead, nil
	}
	w := &workload{name: "late", nominal: 2000, workers: 1}
	r := &report{Metrics: map[string]metric{}}
	ph, tries, err := nominalPhase(context.Background(), w, slow, 100*time.Millisecond, 0, "nominal", r)
	if ph != nil || err == nil || len(tries) != lagTries {
		t.Fatalf("late generator: phase %v, %d tries, err %v; want no phase, %d tries and an error", ph, len(tries), err, lagTries)
	}
	r.tally(tries...)
	issued := 0
	for _, p := range tries {
		issued += p.issued
	}
	if r.Attempted != issued || issued == 0 {
		t.Errorf("attempted %d, want the %d ops of all tries", r.Attempted, issued)
	}

	w.nominal = 100
	ph, tries, err = nominalPhase(context.Background(), w, slow, 200*time.Millisecond, 0, "nominal", r)
	if ph == nil || err != nil || len(tries) != 1 {
		t.Fatalf("punctual generator: phase %v, %d tries, err %v; want one valid try", ph, len(tries), err)
	}
}

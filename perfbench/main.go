// Command perfbench is the repository's end-to-end benchmark. It builds
// the real service stack in-process from public constructors, drives one
// workload open-loop through loadgen.Run with at most one issuing
// goroutine per CPU and no sockets, checks every answer, and prints every metric with
// its unit. The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones of BENCHMARK.json;
// with -trace 1 a separate, traced run gives the per-layer ones. See
// README.md for the workloads, the layer predictions and the limits.
//
//	go run . -workload gateway-hot -seed 1 -seconds 20 -trace 0
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// workload is one traffic mix with its fixed rates and limits.
type workload struct {
	name string
	// nominal is the offered rate of the phase that reports p50 and
	// p99.
	nominal float64
	// limit is the p99 latency max_rate_rps must stay within.
	limit time.Duration
	// workers is the number of issuing goroutines, each waiting for its
	// op: one for the gateways, whose saturation with two would measure
	// whether the host runs both CPUs at once (see README.md), one per
	// CPU for durable-mixed, whose writers queue on the log's lock.
	workers int
	// warm is the number of ops each set-up runs before timing.
	warm int
	// prepare generates the seeded inputs for up to ops ops and returns
	// a builder of stacks over them.
	prepare func(seed int64, ops int) (builder, error)
}

type builder func(tr *tracer, dir string) (stack, error)

// stack is one built system under test.
type stack interface {
	warm(n int) error
	op(ctx context.Context, k int, due int64) (int64, uint8, error)
	verify() []string
	close() error
}

var workloads = []workload{
	{
		name: "gateway-hot", nominal: 20000, limit: 20 * time.Millisecond, workers: 1, warm: 12 * hotKeys,
		prepare: func(seed int64, _ int) (builder, error) {
			in, err := hotInputs(seed)
			return func(tr *tracer, _ string) (stack, error) { return newGateway(in, tr, seed) }, err
		},
	},
	{
		name: "gateway-cold", nominal: 2000, limit: 20 * time.Millisecond, workers: 1, warm: 2 * replicas * cacheEntries,
		prepare: func(seed int64, _ int) (builder, error) {
			in, err := coldInputs(seed)
			return func(tr *tracer, _ string) (stack, error) { return newGateway(in, tr, seed) }, err
		},
	},
	{
		name: "durable-mixed", nominal: 200, limit: 150 * time.Millisecond, workers: runtime.NumCPU(), warm: 200,
		prepare: func(seed int64, ops int) (builder, error) {
			in, err := durableInputs(seed, ops)
			return func(tr *tracer, dir string) (stack, error) { return newDurable(in, tr, dir) }, err
		},
	},
}

const (
	// setupReps is how many times a timed run builds the stack; setup_s
	// is the median.
	setupReps = 5
	// lagShare bounds generator lateness: a phase whose median lag
	// exceeds this share of its p50 latency measured the generator, not
	// the system, and is discarded.
	lagShare = 0.25
	// lagTries is how many nominal phases a run tries before it gives up
	// as invalid. A host stall that holds every worker for seconds, as a
	// shared disk can at 10 ms an fsync, fails one phase's lag check;
	// the next phase meets the host again.
	lagTries = 3
	// maxTraced bounds the requests a traced phase records spans for.
	maxTraced = 30000
	// rowsTolerance bounds |Σ per-layer means − end-to-end mean| as a
	// share of the end-to-end mean in a traced run.
	rowsTolerance = 0.02
)

func main() {
	var (
		name    = flag.String("workload", "", "workload: gateway-hot, gateway-cold or durable-mixed")
		seed    = flag.Int64("seed", 1, "input seed")
		seconds = flag.Int("seconds", 20, "measured seconds per run")
		trace   = flag.Int("trace", 0, "1 runs the traced per-layer run instead of the timed one")
		workdir = flag.String("workdir", filepath.Join(".bench_build", "perfbench"), "directory for logs and traces")
	)
	flag.Parse()
	code, err := run(*name, *seed, *seconds, *trace == 1, *workdir)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
	}
	os.Exit(code)
}

// errInvalid marks a run whose measurement cannot be trusted.
var errInvalid = errors.New("invalid run")

func run(name string, seed int64, seconds int, traced bool, workdir string) (int, error) {
	var w *workload
	for i := range workloads {
		if workloads[i].name == name {
			w = &workloads[i]
		}
	}
	if w == nil || seconds < 1 {
		return 2, fmt.Errorf("unknown workload %q or bad -seconds %d", name, seconds)
	}
	out, err := measure(w, seed, time.Duration(seconds)*time.Second, traced, workdir)
	if err != nil {
		if errors.Is(err, errInvalid) {
			return 3, err
		}
		return 1, err
	}
	out.print(os.Stdout)
	return 0, nil
}

// measure generates the seeded inputs and makes one timed or traced run
// in a directory of its own under workdir, which it removes.
func measure(w *workload, seed int64, secs time.Duration, traced bool, workdir string) (*report, error) {
	dir := filepath.Join(workdir, fmt.Sprintf("%s-seed%d-pid%d", w.name, seed, os.Getpid()))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	// The most ops a run can issue: warm-ups, every try of the nominal
	// phase and every step of the max-rate search, each tried twice, and a
	// second try of the nominal rate.
	steps := bisections * ladder[len(ladder)-1]
	for _, m := range ladder {
		steps += m
	}
	ops := (setupReps+1)*w.warm + int(w.nominal*secs.Seconds()*(lagTries*nominalShare+stepShare*(2*steps+1))) + 1000
	build, err := w.prepare(seed, ops)
	if err != nil {
		return nil, fmt.Errorf("generating inputs: %w", err)
	}
	if traced {
		return tracedRun(w, build, secs, dir, workdir, seed)
	}
	return timedRun(w, build, secs, dir)
}

// Shares of -seconds spent in each phase.
const (
	nominalShare = 0.35 // timed run: the nominal-rate phase
	stepShare    = 0.06 // timed run: each step of the max-rate search
	untracedPart = 0.5  // traced run: the untraced phase
	tracedPart   = 0.25 // traced run: the traced phase
)

// metric is one printed figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	lines     []string
	problems  []string
}

func (r *report) set(name string, v float64, unit string) { r.Metrics[name] = metric{v, unit} }

func (r *report) say(format string, args ...any) {
	r.lines = append(r.lines, fmt.Sprintf(format, args...))
}

func (r *report) print(f *os.File) {
	for _, l := range r.lines {
		fmt.Fprintln(f, l)
	}
	for _, p := range r.problems {
		fmt.Fprintln(f, "FAIL:", p)
	}
	for _, k := range sortedKeys(r.Metrics) {
		fmt.Fprintf(f, "  %-32s %14.4f %s\n", k, r.Metrics[k].Value, r.Metrics[k].Unit)
	}
	b, err := json.Marshal(r)
	if err != nil {
		panic(err) // a map of plain numbers always marshals
	}
	fmt.Fprintln(f, string(b))
}

// setUp builds the stack and runs its warm-up.
func setUp(w *workload, build builder, tr *tracer, dir string) (stack, error) {
	st, err := build(tr, dir)
	if err != nil {
		return nil, fmt.Errorf("building the stack: %w", err)
	}
	if err := st.warm(w.warm); err != nil {
		st.close()
		return nil, err
	}
	return st, nil
}

// checkLag rejects a phase whose generator ran late.
func checkLag(ph *phase, label string) error {
	p50, _ := ph.quantileMs(0.5, nil)
	if lag := ph.lagUs(0.5) / 1e3; lag > lagShare*p50 {
		return fmt.Errorf("%w: %s phase: median generator lag %.3f ms exceeds %.0f%% of p50 %.3f ms",
			errInvalid, label, lag, 100*lagShare, p50)
	}
	return nil
}

// nominalPhase runs the nominal-rate phase from op base, again after a
// try whose generator ran late, up to lagTries tries. It returns the
// valid phase, nil if there is none, and every try, the valid one last.
// The ops of a discarded try still count as attempted, and their
// failures as failed.
func nominalPhase(ctx context.Context, w *workload, op opFunc, dur time.Duration, base int, label string, r *report) (*phase, []*phase, error) {
	var tries []*phase
	for {
		ph := runPhase(ctx, w.nominal, dur, base, w.workers, op, 0)
		tries = append(tries, ph)
		err := checkLag(ph, label)
		if err == nil {
			return ph, tries, nil
		}
		if len(tries) == lagTries {
			return nil, tries, err
		}
		r.say("  %s try %d discarded: %v", label, len(tries), err)
		base += ph.issued
	}
}

// tally adds the ops, failures and errors of phases to the report.
func (r *report) tally(phases ...*phase) {
	for _, ph := range phases {
		r.Attempted += ph.issued
		r.Failed += int(ph.failed.Load())
		r.problems = append(r.problems, ph.errs...)
	}
}

func timedRun(w *workload, build builder, secs time.Duration, dir string) (*report, error) {
	r := &report{Metrics: map[string]metric{}}
	var setups []float64
	var st stack
	for i := 0; i < setupReps; i++ {
		t0 := time.Now()
		s, err := setUp(w, build, nil, filepath.Join(dir, fmt.Sprintf("setup-%d", i)))
		if err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
		if i < setupReps-1 {
			if err := s.close(); err != nil {
				return nil, err
			}
			continue
		}
		st = s
	}
	defer st.close()
	ctx := context.Background()
	nomDur := time.Duration(float64(secs) * nominalShare)
	ph, tries, err := nominalPhase(ctx, w, st.op, nomDur, w.warm, "nominal", r)
	if err != nil {
		return nil, err
	}
	r.tally(tries...)
	maxR, steps, _ := maxRate(ctx, ph, w.limit, time.Duration(float64(secs)*stepShare), w.warm+r.Attempted, st.op)
	probs := st.verify()

	for _, s := range steps[1:] {
		r.Attempted += s.issued
		r.Failed += int(s.fails)
	}
	r.Failed += len(probs)
	r.Correct = r.Failed == 0
	r.problems = append(r.problems, probs...)
	p50, n := ph.quantileMs(0.5, nil)
	p99, _ := ph.quantileMs(0.99, nil)
	r.say("%s: nominal %.0f req/s for %v, p99 limit %v", w.name, w.nominal, nomDur, w.limit)
	r.say("  p50 %.4f ms, p99 %.4f ms over %d samples (the traced run reports both, ungated)", p50, p99, n)
	r.say("  generator lag p50 %.1f µs p99 %.1f µs, backlog max %d", ph.lagUs(0.5), ph.lagUs(0.99), ph.backlog.Load())
	for _, s := range steps {
		r.say("  step %8.0f req/s  p99 %8.3f ms  fails %d  pass %v", s.rate, s.p99, s.fails, s.pass)
	}
	if d, ok := st.(*durable); ok {
		r.say("  workflow instances: %d in %d journals of at most %d each", d.instances(), len(d.journals), d.perJournal)
	}
	r.set("setup_s", median(setups), "s")
	r.set("max_rate_rps", maxR, "1/s")
	r.set("success_ratio", 1-float64(r.Failed)/float64(r.Attempted), "ratio")
	if done := ph.issued - int(ph.failed.Load()); done > 0 {
		r.set("cpu_us_per_op", float64(ph.cpu.Microseconds())/float64(done), "us")
	}
	r.set("heap_peak_mb", float64(ph.heapPeak)/(1<<20), "MB")
	return r, nil
}

// perLayer lists every per-layer metric with its unit; a traced run
// prints all of them, 0 where the workload does not reach the layer.
var perLayer = []struct{ name, unit string }{
	{"loadgen.lag_p99_us", "us"}, {"loadgen.backlog_max", "count"},
	{"cloud.self_us_p50", "us"}, {"cloud.self_us_p99", "us"}, {"cloud.retry_ratio", "ratio"},
	{"cloud.pick_imbalance", "ratio"}, {"cloud.shed_count", "count"},
	{"host.self_us_p50", "us"},
	{"respcache.hit_ratio", "ratio"}, {"respcache.hit_us_p50", "us"}, {"respcache.miss_us_p50", "us"},
	{"soap.self_us_p50", "us"}, {"soap.self_us_p99", "us"}, {"rest.self_us_p50", "us"}, {"rest.self_us_p99", "us"},
	{"services.handler_us_p50", "us"},
	{"registry.api_self_us_p50", "us"}, {"registry.write_self_us_p50", "us"}, {"registry.write_self_us_p99", "us"},
	{"registry.search_us_p50", "us"}, {"registry.search_us_p99", "us"},
	{"wal.write_us_p50", "us"}, {"wal.fsync_us_p50", "us"}, {"wal.fsync_us_p99", "us"},
	{"wal.fsyncs_per_op", "count"}, {"wal.bytes_per_op", "B"}, {"wal.snapshot_bytes_per_op", "B"},
	{"wal.recover_ms", "ms"}, {"wal.spans", "count"},
	{"workflow.self_us_p50", "us"}, {"workflow.self_us_p99", "us"}, {"workflow.appends_per_instance", "count"},
	{"workflow.invoke_us_p50", "us"},
	{"proc.alloc_bytes_per_op", "B"}, {"proc.gc_cycles_per_kop", "count"}, {"proc.gc_pause_ms", "ms"},
	{"proc.goroutines_leaked", "count"},
	{"p50_ms", "ms"}, {"p99_ms", "ms"}, {"durable_p99_ms", "ms"}, {"read_p99_ms", "ms"}, {"fail_ratio", "ratio"},
	{"trace.overhead_us_p50", "us"},
}

// tracedRun measures the per-layer figures: an untraced phase on an
// untouched stack (counts, runtime and generator figures), then a traced
// phase at the same rate on a stack with span wrappers at the public
// seams. The spans are written to workdir when the run ends.
func tracedRun(w *workload, build builder, secs time.Duration, dir, workdir string, seed int64) (*report, error) {
	r := &report{Metrics: map[string]metric{}}
	m := map[string]float64{}
	ctx := context.Background()
	baseline := runtime.NumGoroutine()

	// Untraced phase.
	st, err := setUp(w, build, nil, filepath.Join(dir, "untraced"))
	if err != nil {
		return nil, err
	}
	var gw0 gwCounters
	g, isGateway := st.(*gateway)
	if isGateway {
		gw0 = g.counters()
	}
	// The gateway counters span every try of the phase.
	ph, tries, err := nominalPhase(ctx, w, st.op, time.Duration(float64(secs)*untracedPart), w.warm, "untraced", r)
	if err != nil {
		st.close()
		return nil, err
	}
	r.tally(tries...)
	if isGateway {
		counterMetrics(gw0, g.counters(), m)
	}
	probs := st.verify()
	if err := st.close(); err != nil {
		return nil, err
	}
	m["proc.goroutines_leaked"] = float64(settledGoroutines(baseline) - baseline)
	m["loadgen.lag_p99_us"] = ph.lagUs(0.99)
	m["loadgen.backlog_max"] = float64(ph.backlog.Load())
	done := float64(ph.issued - int(ph.failed.Load()))
	if done > 0 {
		m["proc.alloc_bytes_per_op"] = float64(ph.allocs) / done
		m["proc.gc_cycles_per_kop"] = float64(ph.gcCycles) / done * 1000
	}
	m["proc.gc_pause_ms"] = float64(ph.gcPauseNs) / 1e6
	untracedP50, _ := ph.quantileMs(0.5, nil)
	m["p50_ms"] = untracedP50
	var p99n int
	m["p99_ms"], p99n = ph.quantileMs(0.99, nil)
	if !isGateway {
		m["durable_p99_ms"], _ = ph.quantileMs(0.99, func(c uint8) bool { return c == classWrite })
		m["read_p99_ms"], _ = ph.quantileMs(0.99, func(c uint8) bool { return c == classRead })
	}

	// Traced phase. Tracing every request of a fast workload would hold
	// millions of spans and feed the collector more than the system does,
	// so at most about maxTraced requests are traced, evenly spaced.
	tracedDur := time.Duration(float64(secs) * tracedPart)
	tr := &tracer{byGoroutine: !isGateway, every: 1 + int(w.nominal*tracedDur.Seconds())/maxTraced}
	st2, err := setUp(w, build, tr, filepath.Join(dir, "traced"))
	if err != nil {
		return nil, err
	}
	defer st2.close()
	tr.reqs = nil // drop the warm-up's traces
	var c0 [2]walSnapshot
	d, isDurable := st2.(*durable)
	if isDurable {
		c0 = [2]walSnapshot{d.regFS.c.snapshot(), d.wfCounts.snapshot()}
	}
	phT := runPhase(ctx, w.nominal, tracedDur, w.warm, w.workers, st2.op, 0)
	var rowOf func(kind, name string) string
	if isDurable {
		durableLayers(d, phT, c0, m)
		rowOf = durableRow
	} else {
		gatewayLayers(tr, m)
		rowOf = gatewayRow
	}
	probs = append(probs, st2.verify()...)
	if isDurable {
		m["wal.recover_ms"] = d.recoverMs
		r.say("workflow instances in the traced phase's stack: %d in %d journals of at most %d each",
			d.instances(), len(d.journals), d.perJournal)
	}
	tracedP50, _ := phT.quantileMs(0.5, nil)
	m["trace.overhead_us_p50"] = (tracedP50 - untracedP50) * 1e3
	rows := tr.rows(rowOf)
	var spans, walSpans int
	for _, rt := range tr.reqs {
		spans += len(rt.spans)
		for _, s := range rt.spans {
			if len(s.name) > 4 && s.name[:4] == "wal." {
				walSpans++
			}
		}
	}
	m["wal.spans"] = float64(walSpans)
	e2e := phT.meanUs(tr.reqs)
	gap := 0.0
	if e2e > 0 {
		gap = (rows.sum() - e2e) / e2e
	}

	r.tally(phT)
	r.Failed += len(probs)
	r.Correct = r.Failed == 0
	r.problems = append(r.problems, probs...)
	m["fail_ratio"] = float64(r.Failed) / float64(r.Attempted)
	for _, pl := range perLayer {
		r.set(pl.name, m[pl.name], pl.unit)
	}

	r.say("%s traced run: %.0f req/s; untraced p50 %.4f ms, p99 %.4f ms over %d samples; traced p50 %.4f ms (overhead %.1f µs)",
		w.name, w.nominal, untracedP50, m["p99_ms"], p99n, tracedP50, m["trace.overhead_us_p50"])
	r.say("per-layer self time, mean over %d traced requests (one in %d):", rows.n, tr.every)
	for _, row := range rows.order {
		r.say("  %-20s %10.2f µs", row, rows.mean(row))
	}
	r.say("  %-20s %10.2f µs", "sum of rows", rows.sum())
	r.say("  %-20s %10.2f µs  (gap %+.2f%%, tolerance ±%.0f%%)", "end-to-end mean", e2e, 100*gap, 100*rowsTolerance)
	r.say("spans recorded: %d, of them in the WAL: %d", spans, walSpans)
	if gap > rowsTolerance || gap < -rowsTolerance {
		return nil, fmt.Errorf("%w: per-layer rows miss the end-to-end mean by %.2f%%", errInvalid, 100*gap)
	}
	if bad := tr.misnested(); bad != "" {
		return nil, fmt.Errorf("%w: %s", errInvalid, bad)
	}
	path := filepath.Join(workdir, fmt.Sprintf("spans-%s-seed%d.csv", w.name, seed))
	if err := tr.writeSpans(path); err != nil {
		return nil, fmt.Errorf("writing spans: %w", err)
	}
	r.say("spans written to %s", path)
	return r, nil
}

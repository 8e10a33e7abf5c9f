package main

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"soc/internal/loadgen"
)

// preciseClock is the vtime.Clock the benchmark hands to loadgen.Run. It
// remembers the instant of the first Now call, which is where loadgen
// anchors its schedule (request i is due at start + i/rate), so the op
// wrapper can recompute every due instant. Sleep wakes a little early
// with fineSleep and spins the rest, so requests leave within about a
// microsecond of their due instant; the spinning is counted so that CPU
// figures can leave it out.
type preciseClock struct {
	first atomic.Int64 // ns since epoch of the first Now call
	spun  atomic.Int64 // ns spent spinning
}

// spinWindow is how early Sleep wakes before spinning to the deadline;
// it covers the usual wake-up latency of fineSleep. A spin turn longer
// than yieldedTurn ran another goroutine.
const (
	spinWindow  = 15 * time.Microsecond
	yieldedTurn = 5 * time.Microsecond
)

func (c *preciseClock) Now() time.Time {
	t := time.Now()
	c.first.CompareAndSwap(0, int64(t.Sub(epoch)))
	return t
}

func (c *preciseClock) Sleep(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return ctx.Err()
	}
	until := time.Now().Add(d)
	if d > 2*time.Millisecond {
		t := time.NewTimer(d - time.Millisecond)
		select {
		case <-t.C:
		case <-ctx.Done():
			t.Stop()
			return ctx.Err()
		}
	}
	if rest := time.Until(until) - spinWindow; rest > 0 {
		fineSleep(rest)
	}
	// Spin to the deadline, yielding the processor to any runnable
	// goroutine — the collector's workers above all — at every turn. Only
	// turns nobody else ran in count as spinning.
	var spun time.Duration
	for t := time.Now(); t.Before(until); {
		runtime.Gosched()
		now := time.Now()
		if d := now.Sub(t); d < yieldedTurn {
			spun += d
		}
		t = now
	}
	c.spun.Add(int64(spun))
	return ctx.Err()
}

func (c *preciseClock) WithTimeout(ctx context.Context, d time.Duration) (context.Context, context.CancelFunc) {
	return context.WithTimeout(ctx, d)
}

// opFunc issues global op k, due at the given instant (ns since epoch).
// It returns the instant the system answered — verification of the answer
// happens after that and is not timed — the op's class (classRead or
// classWrite) and any failure: an error status, a shed or a wrong answer.
type opFunc func(ctx context.Context, k int, due int64) (done int64, class uint8, err error)

const (
	classRead  uint8 = 0
	classWrite uint8 = 1
)

// phase is one open-loop run at a fixed rate. Every arrival writes only
// its own slot of the sample slices.
type phase struct {
	rate    float64
	n       int // scheduled arrivals
	issued  int // arrivals issued before the schedule ended or was cut
	base    int // global index of the first arrival
	workers int // issuing goroutines
	lat     []int64
	lag     []int64
	class   []uint8
	done    []bool
	failed  atomic.Int64
	errMu   sync.Mutex
	errs    []string
	backlog atomic.Int64 // most arrivals ever due but not yet issued
	cut     bool         // the schedule was abandoned (deadline)

	cpu       time.Duration // process CPU time, the clock's spinning left out
	heapPeak  uint64
	allocs    uint64
	gcCycles  uint64
	gcPauseNs uint64
}

// runPhase drives op open-loop at rate for dur, through loadgen.Run with
// the given number of issuing goroutines, each of which waits for its
// op: at most that many requests are ever in flight. A positive cut
// abandons the arrivals not yet issued that long after the start; the ops
// in flight then still run to the end.
func runPhase(ctx context.Context, rate float64, dur time.Duration, base, workers int, op opFunc, cut time.Duration) *phase {
	n := int(rate * dur.Seconds())
	if n < 1 {
		n = 1
	}
	ph := &phase{rate: rate, n: n, base: base, workers: workers,
		lat: make([]int64, n), lag: make([]int64, n), class: make([]uint8, n), done: make([]bool, n)}
	clk := &preciseClock{}
	var seq atomic.Int64
	wrapped := func(context.Context) error {
		i := seq.Add(1) - 1
		first := clk.first.Load()
		due := first + int64(float64(i)*1e9/rate)
		issue := nowNs()
		if b := int64(float64(issue-first)*rate/1e9) + 1 - (i + 1); b > 0 {
			for {
				cur := ph.backlog.Load()
				if b <= cur || ph.backlog.CompareAndSwap(cur, b) {
					break
				}
			}
		}
		doneAt, class, err := op(ctx, base+int(i), due)
		ph.lat[i], ph.lag[i], ph.class[i], ph.done[i] = doneAt-due, issue-due, class, true
		if err != nil {
			ph.failed.Add(1)
			ph.errMu.Lock()
			if len(ph.errs) < 5 {
				ph.errs = append(ph.errs, fmt.Sprintf("op %d: %v", base+int(i), err))
			}
			ph.errMu.Unlock()
		}
		return err
	}
	runCtx := ctx
	if cut > 0 {
		var cancel context.CancelFunc
		runCtx, cancel = context.WithTimeout(ctx, cut)
		defer cancel()
	}
	proc0 := readProc()
	stop := make(chan struct{})
	var wg sync.WaitGroup
	var peak atomic.Uint64
	wg.Add(1)
	go func() {
		defer wg.Done()
		samplePeak(stop, &peak)
	}()
	cpu0 := cpuTime()
	res, err := loadgen.Run(runCtx, loadgen.Config{Rate: rate, Duration: dur, Workers: workers, Clock: clk}, wrapped)
	ph.cpu = cpuTime() - cpu0 - time.Duration(clk.spun.Load())
	close(stop)
	wg.Wait()
	proc1 := readProc()
	ph.heapPeak = peak.Load()
	ph.allocs = proc1.allocs - proc0.allocs
	ph.gcCycles = proc1.gcCycles - proc0.gcCycles
	ph.gcPauseNs = proc1.pauseNs - proc0.pauseNs
	ph.issued = int(seq.Load())
	if ph.issued > n {
		ph.issued = n
	}
	ph.cut = err != nil || res == nil || res.Issued < n
	return ph
}

// quantileMs is the q-quantile, in ms, of the latency from due of every
// answered arrival whose class passes keep (nil keeps all), with the
// number of samples it rests on.
func (ph *phase) quantileMs(q float64, keep func(uint8) bool) (value float64, samples int) {
	var xs []float64
	for i := 0; i < ph.n; i++ {
		if ph.done[i] && (keep == nil || keep(ph.class[i])) {
			xs = append(xs, float64(ph.lat[i])/1e6)
		}
	}
	return quantile(xs, q), len(xs)
}

// meanUs is the mean latency from due, in µs, of the traced requests.
func (ph *phase) meanUs(reqs []*reqTrace) float64 {
	var sum float64
	var n int
	for _, rt := range reqs {
		if i := int(rt.id) - ph.base; i >= 0 && i < ph.n && ph.done[i] {
			sum += float64(ph.lat[i])
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n) / 1e3
}

// lagUs returns the q-quantile of generator lag (issue minus due) in µs.
func (ph *phase) lagUs(q float64) float64 {
	var xs []float64
	for i := 0; i < ph.n; i++ {
		if ph.done[i] {
			xs = append(xs, float64(ph.lag[i])/1e3)
		}
	}
	return quantile(xs, q)
}

// tailGrowing reports whether the backlog was still growing at the end:
// the last tenth of the schedule waited longer on average than limit.
func (ph *phase) tailGrowing(limit time.Duration) bool {
	from := ph.n - ph.n/10 - 1
	var sum float64
	var n int
	for i := from; i < ph.n; i++ {
		if i >= 0 && ph.done[i] {
			sum += float64(ph.lat[i])
			n++
		}
	}
	return n == 0 || sum/float64(n) > float64(limit)
}

// step is one rate of the max-rate search.
type step struct {
	rate   float64
	p99    float64 // ms
	pass   bool
	fails  int64
	issued int
}

// ladder multiplies the nominal rate at each step of the max-rate search:
// half again at every step, up to about 11.4 times.
var ladder = []float64{1.5, 2.25, 3.375, 5.0625, 7.594, 11.39}

// bisections is how many times the search splits the interval between
// the highest passing and the lowest failing rate at its geometric mean.
const bisections = 3

func (ph *phase) judge(limit time.Duration) step {
	p99, _ := ph.quantileMs(0.99, nil)
	s := step{rate: ph.rate, p99: p99, fails: ph.failed.Load(), issued: ph.issued}
	s.pass = !ph.cut && s.fails == 0 && p99 <= float64(limit)/1e6 && !ph.tailGrowing(limit)
	return s
}

// maxRate raises the offered rate step by step from the nominal phase
// until a step misses the limit, fails an op or lets its backlog grow,
// splits the last interval bisections times, and interpolates p99
// log-linearly between the highest passing and the lowest failing rate,
// so the figure moves smoothly instead of jumping a whole step. A rate
// that misses without a failed op gets a second try, and the better try
// decides: a stall from outside the program, such as a slow fsync of a
// shared disk, can sink one short step. base is the next unused global
// op index; the updated value is returned with the steps run.
func maxRate(ctx context.Context, nominal *phase, limit time.Duration, stepDur time.Duration, base int, op opFunc) (float64, []step, int) {
	lim := float64(limit) / 1e6
	steps := []step{nominal.judge(limit)}
	run := func(rate float64) step {
		ph := runPhase(ctx, rate, stepDur, base, nominal.workers, op, stepDur+2*limit+time.Second)
		base += ph.issued
		s := ph.judge(limit)
		steps = append(steps, s)
		return s
	}
	again := func(s step) step {
		if s.pass || s.fails > 0 {
			return s
		}
		if t := run(s.rate); t.pass || t.p99 < s.p99 {
			return t
		}
		return s
	}
	lo := again(steps[0])
	if !lo.pass {
		// The nominal rate misses the limit twice: scale it down by how
		// far p99 overshoots.
		if lo.p99 > lim {
			return lo.rate * lim / lo.p99, steps, base
		}
		return lo.rate / 2, steps, base
	}
	try := func(rate float64) step { return again(run(rate)) }
	var hi step
	for _, m := range ladder {
		s := try(nominal.rate * m)
		if !s.pass {
			hi = s
			break
		}
		lo = s
	}
	if hi.rate == 0 {
		return lo.rate, steps, base
	}
	for i := 0; i < bisections; i++ {
		if s := try(math.Sqrt(lo.rate * hi.rate)); s.pass {
			lo = s
		} else {
			hi = s
		}
	}
	if hi.fails > 0 || hi.p99 <= lim {
		return lo.rate, steps, base
	}
	f := (math.Log(lim) - math.Log(lo.p99)) / (math.Log(hi.p99) - math.Log(lo.p99))
	return lo.rate + (hi.rate-lo.rate)*math.Max(0, math.Min(1, f)), steps, base
}

// procSample is a reading of the runtime counters a phase reports.
type procSample struct {
	allocs, gcCycles, pauseNs uint64
}

func readProc() procSample {
	ss := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}, {Name: "/gc/cycles/total:gc-cycles"}}
	metrics.Read(ss)
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return procSample{allocs: ss[0].Value.Uint64(), gcCycles: ss[1].Value.Uint64(), pauseNs: ms.PauseTotalNs}
}

// samplePeak records the peak heap-object bytes every millisecond until
// stop.
func samplePeak(stop <-chan struct{}, peak *atomic.Uint64) {
	s := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
	tick := time.NewTicker(time.Millisecond)
	defer tick.Stop()
	for {
		metrics.Read(s)
		if v := s[0].Value.Uint64(); v > peak.Load() {
			peak.Store(v)
		}
		select {
		case <-stop:
			return
		case <-tick.C:
		}
	}
}

// settledGoroutines waits up to a second for goroutines started by a torn
// down stack to exit and returns the count that remains.
func settledGoroutines(baseline int) int {
	deadline := time.Now().Add(time.Second)
	n := runtime.NumGoroutine()
	for n > baseline && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
		n = runtime.NumGoroutine()
	}
	return n
}

func sortedKeys[V any](m map[string]V) []string {
	ks := make([]string, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}

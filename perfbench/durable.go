package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"soc/internal/core"
	"soc/internal/registry"
	"soc/internal/security"
	"soc/internal/services"
	"soc/internal/wal"
	"soc/internal/workflow"
)

const (
	// dirEntries is the preloaded directory size. Writes re-publish or
	// renew existing names only, so it stays fixed through a run.
	dirEntries = 2000
	// leaseTerm outlives any run, so no entry lapses mid-run.
	leaseTerm = time.Hour
	// verWidth is the width of the version suffix of an entry's endpoint;
	// a fixed width keeps every entry, and so every snapshot, one size.
	verWidth = 9
	// journalInstances is how many workflow instances one orchestrator
	// journal takes before the stack opens a fresh one beside it. An
	// orchestrator retains every instance and each of its snapshots
	// re-serializes all of them, so without a cap the cost of a start
	// would grow through a run and each rate step would meet a heavier
	// stack than the one before.
	journalInstances = 512
)

// Op kinds of durable-mixed, with their shares of the mix.
var dmMix = []struct {
	kind  string
	share float64
}{
	{"publish", 0.25}, {"heartbeat", 0.20}, {"get", 0.20}, {"search", 0.15}, {"start", 0.20},
}

// dmSpec is one pre-generated durable-mixed op.
type dmSpec struct {
	kind     string
	name     int    // directory entry the op targets
	body     []byte // publish: the entry, versioned by op index
	ssn      string // start: workflow inputs
	password string
	approved bool // start: the decision the workflow must reach
}

type dmInputs struct {
	entries []registry.Entry
	specs   []dmSpec // op k runs specs[k]
}

func entryName(i int) string { return fmt.Sprintf("svc-%04d", i) }

// entryTag is a search term only entry i carries.
func entryTag(i int) string {
	b := []byte("zq")
	for j := 0; j < 3; j++ {
		b = append(b, byte('a'+i%26))
		i /= 26
	}
	return string(b)
}

func endpoint(i, version int) string {
	return fmt.Sprintf("http://%s.bench.invalid/v%0*d", entryName(i), verWidth, version)
}

func versionOf(ep string) (int, error) {
	j := strings.LastIndex(ep, "/v")
	if j < 0 {
		return 0, fmt.Errorf("endpoint %q carries no version", ep)
	}
	return strconv.Atoi(ep[j+2:])
}

var words = []string{"maps", "billing", "weather", "stock", "quote", "geocode", "translate", "inventory",
	"payment", "shipping", "catalog", "identity", "audit", "report", "calendar", "notify"}

func newEntry(r *rand.Rand, i, version int) registry.Entry {
	return registry.Entry{
		Name:       entryName(i),
		Namespace:  "urn:perfbench:" + entryName(i),
		Doc:        fmt.Sprintf("%s %s %s service %s", words[r.Intn(len(words))], words[r.Intn(len(words))], words[r.Intn(len(words))], entryTag(i)),
		Category:   "bench/" + words[i%len(words)],
		Endpoint:   endpoint(i, version),
		Bindings:   []string{"rest", "soap"},
		Operations: []string{"Lookup", "Update"},
		Provider:   "perfbench",
	}
}

var passwords = []string{"Str0ngpass", "weakpass", "Another9Good", "NoDigitsHere", "Ab1", "Valid8Entry", "ALLUPPER1", "mixedCase42"}

// durableInputs draws the directory and n ops. Writes walk a seeded
// permutation of the names, so two writes of one name are dirEntries
// writes apart; reads pick names uniformly.
func durableInputs(seed int64, n int) (*dmInputs, error) {
	r := rand.New(rand.NewSource(seed))
	in := &dmInputs{}
	for i := 0; i < dirEntries; i++ {
		in.entries = append(in.entries, newEntry(r, i, 0))
	}
	perm := r.Perm(dirEntries)
	writes := 0
	for k := 0; k < n; k++ {
		x := r.Float64()
		kind := dmMix[len(dmMix)-1].kind
		for _, m := range dmMix {
			if x < m.share {
				kind = m.kind
				break
			}
			x -= m.share
		}
		s := dmSpec{kind: kind, name: r.Intn(dirEntries)}
		switch kind {
		case "publish", "heartbeat":
			s.name = perm[writes%dirEntries]
			writes++
		case "start":
			s.ssn = fmt.Sprintf("%03d-%02d-%04d", r.Intn(1000), r.Intn(100), r.Intn(10000))
			s.password = passwords[r.Intn(len(passwords))]
			score, err := services.CreditScoreOf(s.ssn)
			if err != nil {
				return nil, err
			}
			s.approved = score >= services.ApprovalThreshold && security.DefaultPolicy.Check(s.password) == nil
		}
		if kind == "publish" {
			body, err := json.Marshal(newEntry(r, s.name, k))
			if err != nil {
				return nil, err
			}
			s.body = body
		}
		in.specs = append(in.specs, s)
	}
	return in, nil
}

// acked is one acknowledged write, kept to check acked ⇒ durable after
// the logs are reopened.
type acked struct {
	name       int
	version    int // publish: the version written; heartbeat: -1
	issue, ack int64
	wall       time.Time // wall clock at issue: the lease starts no earlier
}

// durable is the durable-mixed stack: a registry on the WAL, served by its
// REST API, and workflow orchestrators, each on a WAL of its own, taking
// starts in turn.
type durable struct {
	in     *dmInputs
	tr     *tracer
	regDir string
	wfDir  string
	reg    *registry.DurableRegistry
	api    *registry.API
	regFS  *tracedFS
	// wfCounts counts the writes of every workflow journal when tracing.
	wfCounts walCounts
	inv      workflow.Invoker
	def      *workflow.Workflow
	// perJournal is the instance cap of one journal, journalInstances
	// outside tests.
	perJournal int
	// startMu runs workflow starts one at a time: concurrent Starts lose
	// acknowledged instances on reopen (see README.md, Known defect). It
	// also guards journals.
	startMu   sync.Mutex
	journals  []*journal
	mu        sync.Mutex
	acks      []acked
	recoverMs float64
	closed    bool
}

// journal is one orchestrator with the instances it started.
type journal struct {
	dir       string
	orch      *workflow.Orchestrator
	started   int
	completed []string // guarded by durable.mu
}

// preload writes the directory into dir as a registry snapshot with an
// empty log after it, so opening dir recovers dirEntries entries the way
// a restarted registry would. Every entry gets a fresh lease.
func preload(entries []registry.Entry, dir string) error {
	now := time.Now()
	resolved := make([]registry.Entry, len(entries))
	for i, e := range entries {
		e.Published, e.LeaseExpires = now, now.Add(leaseTerm)
		resolved[i] = e
	}
	data, err := json.Marshal(resolved)
	if err != nil {
		return err
	}
	fs, err := wal.NewOSFS(dir)
	if err != nil {
		return err
	}
	log, _, err := wal.Open(fs, wal.Options{})
	if err != nil {
		return err
	}
	if err := log.Snapshot(data); err != nil {
		log.Close()
		return err
	}
	return log.Close()
}

// newDurable builds the stack in two fresh directories under dir.
func newDurable(in *dmInputs, tr *tracer, dir string) (*durable, error) {
	d := &durable{in: in, tr: tr, regDir: filepath.Join(dir, "registry"), wfDir: filepath.Join(dir, "workflow"),
		perJournal: journalInstances}
	if err := preload(in.entries, d.regDir); err != nil {
		return nil, fmt.Errorf("preloading the directory: %w", err)
	}
	if err := d.open(); err != nil {
		return nil, err
	}
	return d, nil
}

// open opens the registry's log and the first workflow journal, wrapping
// the seams when tracing.
func (d *durable) open() error {
	regOS, err := wal.NewOSFS(d.regDir)
	if err != nil {
		return err
	}
	var regFS wal.FS = regOS
	if d.tr != nil {
		d.regFS = &tracedFS{FS: regOS, tr: d.tr, c: &walCounts{}}
		regFS = d.regFS
	}
	d.reg, err = registry.OpenDurable(regFS, registry.DurableOptions{}, registry.WithLease(leaseTerm))
	if err != nil {
		return err
	}
	var dir registry.Directory = d.reg
	if d.tr != nil {
		dir = tracedDir{Directory: d.reg, tr: d.tr}
	}
	d.api = registry.NewAPI(dir)
	if d.inv, err = newInvoker(d.tr); err != nil {
		return err
	}
	if d.def, err = scoreCheck(d.inv); err != nil {
		return err
	}
	_, err = d.journal()
	return err
}

// journal returns the journal the next start goes to, opening a fresh
// one in the next directory under wfDir when the current one is full.
// The caller holds startMu.
func (d *durable) journal() (*journal, error) {
	if n := len(d.journals); n > 0 && d.journals[n-1].started < d.perJournal {
		return d.journals[n-1], nil
	}
	j := &journal{dir: filepath.Join(d.wfDir, fmt.Sprintf("j%03d", len(d.journals)))}
	orch, err := d.openJournal(j.dir)
	if err != nil {
		return nil, fmt.Errorf("opening workflow journal %s: %w", j.dir, err)
	}
	j.orch = orch
	d.journals = append(d.journals, j)
	return j, nil
}

// openJournal opens an orchestrator on dir the way cmd/socflow does.
func (d *durable) openJournal(dir string) (*workflow.Orchestrator, error) {
	osfs, err := wal.NewOSFS(dir)
	if err != nil {
		return nil, err
	}
	var fs wal.FS = osfs
	if d.tr != nil {
		fs = &tracedFS{FS: osfs, tr: d.tr, c: &d.wfCounts}
	}
	orch, err := workflow.OpenOrchestrator(fs, workflow.Options{Deterministic: true})
	if err != nil {
		return nil, err
	}
	orch.Define(d.def)
	orch.DefineCompensator("log-reject", func(context.Context, map[string]any) error { return nil })
	return orch, nil
}

// newInvoker routes workflow invokes to in-process CreditScore and
// RandomString services, the way cmd/socflow does.
func newInvoker(tr *tracer) (workflow.Invoker, error) {
	svcs := map[string]*core.Service{}
	for _, mk := range []func() (*core.Service, error){services.NewCreditScore, services.NewRandomString} {
		svc, err := mk()
		if err != nil {
			return nil, err
		}
		svcs[svc.Name] = svc
	}
	call := func(ctx context.Context, service, op string, args map[string]any) (map[string]any, error) {
		svc, ok := svcs[service]
		if !ok {
			return nil, fmt.Errorf("no such service %q", service)
		}
		return svc.Invoke(ctx, op, core.Values(args))
	}
	if tr == nil {
		return workflow.InvokerFunc(call), nil
	}
	return workflow.InvokerFunc(func(ctx context.Context, service, op string, args map[string]any) (map[string]any, error) {
		rt := tr.current()
		if rt == nil {
			return call(ctx, service, op, args)
		}
		i := rt.begin("workflow.invoke")
		out, err := call(ctx, service, op, args)
		rt.end(i)
		return out, err
	}), nil
}

// scoreCheck is cmd/socflow's score-check definition: score the applicant,
// check the password beside the credit threshold, then decide.
func scoreCheck(inv workflow.Invoker) (*workflow.Workflow, error) {
	root := &workflow.Sequence{Label: "score-check", Steps: []workflow.Activity{
		&workflow.Invoke{Label: "score", Service: "CreditScore", Operation: "Score", Invoker: inv,
			Idempotent:   true,
			Inputs:       map[string]string{"ssn": "ssn"},
			Outputs:      map[string]string{"score": "score"},
			Compensation: &workflow.Undo{Name: "log-reject", ArgsFrom: map[string]string{"ssn": "ssn"}}},
		&workflow.Parallel{Label: "checks", Branches: []workflow.Activity{
			&workflow.Invoke{Label: "password", Service: "RandomString", Operation: "CheckStrength", Invoker: inv,
				Idempotent: true,
				Inputs:     map[string]string{"password": "password"},
				Outputs:    map[string]string{"strong": "strong", "reason": "reason"}},
			&workflow.Assign{Label: "threshold", Var: "creditOK", Expr: func(v *workflow.Vars) any {
				return v.GetInt("score") >= services.ApprovalThreshold
			}},
		}},
		&workflow.If{Label: "decide",
			Cond: func(v *workflow.Vars) bool {
				ok, _ := v.Get("strong")
				credit, _ := v.Get("creditOK")
				return ok == true && credit == true
			},
			Then: &workflow.Assign{Label: "approve", Var: "approved", Expr: func(*workflow.Vars) any { return true }},
			Else: &workflow.Assign{Label: "reject", Var: "approved", Expr: func(*workflow.Vars) any { return false }},
		},
	}}
	return workflow.New("score-check", root)
}

func instanceID(k int) string { return "wf-" + strconv.Itoa(k) }

// op runs durable-mixed op k: a registry call through API.ServeHTTP or a
// workflow Start.
func (d *durable) op(ctx context.Context, k int, due int64) (int64, uint8, error) {
	if k >= len(d.in.specs) {
		return nowNs(), classRead, fmt.Errorf("op %d beyond the %d generated ops", k, len(d.in.specs))
	}
	s := &d.in.specs[k]
	var rt *reqTrace
	var root int32
	if d.tr.sampled(k) {
		ctx, rt = d.tr.start(ctx, int64(k), s.kind, s.kind, due)
		root = rt.begin("client")
	}
	wall := time.Now()
	issue := nowNs()
	var done int64
	var err error
	class := classRead
	if s.kind == "start" {
		class = classWrite
		// The wait for the other starter and the opening of a fresh
		// journal stay outside the workflow span.
		d.startMu.Lock()
		j, jerr := d.journal()
		if jerr != nil {
			d.startMu.Unlock()
			return nowNs(), class, jerr
		}
		j.started++
		var sp int32
		if rt != nil {
			sp = rt.begin("workflow.start")
		}
		res, serr := j.orch.Start(ctx, instanceID(k), "score-check", map[string]any{"ssn": s.ssn, "password": s.password})
		d.startMu.Unlock()
		if rt != nil {
			rt.end(sp)
			rt.end(root)
			d.tr.finish()
		}
		done = nowNs()
		err = d.checkStart(j, k, s, res, serr)
	} else {
		req, rerr := d.request(ctx, s)
		if rerr != nil {
			return nowNs(), classRead, rerr
		}
		rec := httptest.NewRecorder()
		if rt != nil {
			sp := rt.begin("registry.api")
			d.api.ServeHTTP(rec, req)
			rt.end(sp)
			rt.end(root)
			d.tr.finish()
		} else {
			d.api.ServeHTTP(rec, req)
		}
		done = nowNs()
		if s.kind == "publish" || s.kind == "heartbeat" {
			class = classWrite
		}
		err = d.checkRegistry(k, s, rec, issue, done, wall)
	}
	return done, class, err
}

// request builds the REST call of a registry op.
func (d *durable) request(ctx context.Context, s *dmSpec) (*http.Request, error) {
	name := entryName(s.name)
	method, target, ct := http.MethodGet, "/registry/services/"+name, ""
	switch s.kind {
	case "publish":
		method, target, ct = http.MethodPost, "/registry/services", "application/json"
	case "heartbeat":
		method, target = http.MethodPost, "/registry/services/"+name+"/heartbeat"
	case "search":
		target = "/registry/search?" + url.Values{"q": {entryTag(s.name) + " service"}, "limit": {"5"}}.Encode()
	}
	u, err := url.ParseRequestURI(target)
	if err != nil {
		return nil, err
	}
	return newRequest(ctx, method, u, target, s.body, ct), nil
}

func (d *durable) checkStart(j *journal, k int, s *dmSpec, res workflow.Result, err error) error {
	if err != nil {
		return fmt.Errorf("start %s: %w", instanceID(k), err)
	}
	if res.Status != workflow.StatusCompleted {
		return fmt.Errorf("start %s: status %s (%s), want completed", instanceID(k), res.Status, res.Err)
	}
	d.mu.Lock()
	j.completed = append(j.completed, res.ID)
	d.mu.Unlock()
	if got, _ := res.Vars["approved"].(bool); got != s.approved {
		return fmt.Errorf("start %s: approved = %v, want %v", instanceID(k), got, s.approved)
	}
	return nil
}

func (d *durable) checkRegistry(k int, s *dmSpec, rec *httptest.ResponseRecorder, issue, done int64, wall time.Time) error {
	name := entryName(s.name)
	want := map[string]int{"publish": http.StatusCreated, "heartbeat": http.StatusNoContent}[s.kind]
	if want == 0 {
		want = http.StatusOK
	}
	if rec.Code != want {
		return fmt.Errorf("%s %s: status %d, want %d", s.kind, name, rec.Code, want)
	}
	switch s.kind {
	case "publish", "get":
		var e registry.Entry
		if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil || e.Name != name {
			return fmt.Errorf("%s %s: reply names %q (%v)", s.kind, name, e.Name, err)
		}
		if s.kind == "publish" {
			if v, err := versionOf(e.Endpoint); err != nil || v != k {
				return fmt.Errorf("publish %s: stored version %d, want %d (%v)", name, v, k, err)
			}
			d.ack(acked{name: s.name, version: k, issue: issue, ack: done, wall: wall})
		}
	case "heartbeat":
		d.ack(acked{name: s.name, version: -1, issue: issue, ack: done, wall: wall})
	case "search":
		var ms []registry.Match
		if err := json.Unmarshal(rec.Body.Bytes(), &ms); err != nil || len(ms) == 0 || ms[0].Entry.Name != name {
			return fmt.Errorf("search %s: top match is not %s (%d matches, %v)", entryTag(s.name), name, len(ms), err)
		}
	}
	return nil
}

func (d *durable) ack(a acked) {
	d.mu.Lock()
	d.acks = append(d.acks, a)
	d.mu.Unlock()
}

// warm runs ops [0, n) one at a time.
func (d *durable) warm(n int) error {
	for k := 0; k < n; k++ {
		if _, _, err := d.op(context.Background(), k, nowNs()); err != nil {
			return fmt.Errorf("warm-up: %w", err)
		}
	}
	return nil
}

// verify audits every completed instance, closes the logs, reopens them
// from disk and checks that every acknowledged write and every completed
// instance came back. Each problem is one failure.
func (d *durable) verify() []string {
	var probs []string
	for _, j := range d.journals {
		for _, id := range j.completed {
			if a, ok := j.orch.Audit(id); !ok || len(a.Problems()) > 0 {
				probs = append(probs, fmt.Sprintf("instance %s: audit %v (found %v)", id, a.Problems(), ok))
			}
		}
	}
	if err := d.closeLogs(); err != nil {
		return append(probs, err.Error())
	}
	regFS, err := wal.NewOSFS(d.regDir)
	if err != nil {
		return append(probs, err.Error())
	}
	t0 := time.Now()
	reg, err := registry.OpenDurable(regFS, registry.DurableOptions{}, registry.WithLease(leaseTerm))
	if err != nil {
		return append(probs, "reopening the registry: "+err.Error())
	}
	recovery := time.Since(t0)
	probs = append(probs, checkDurable(reg, d.acks)...)
	if err := reg.Close(); err != nil {
		probs = append(probs, err.Error())
	}
	for _, j := range d.journals {
		fs, err := wal.NewOSFS(j.dir)
		if err != nil {
			probs = append(probs, err.Error())
			continue
		}
		t0 := time.Now()
		orch, err := workflow.OpenOrchestrator(fs, workflow.Options{Deterministic: true})
		recovery += time.Since(t0)
		if err != nil {
			probs = append(probs, "reopening workflow journal "+j.dir+": "+err.Error())
			continue
		}
		for _, id := range j.completed {
			a, ok := orch.Audit(id)
			if !ok || a.Status != workflow.StatusCompleted || len(a.Problems()) > 0 {
				probs = append(probs, fmt.Sprintf("instance %s lost on reopen: found %v, status %q, problems %v", id, ok, a.Status, a.Problems()))
			}
		}
		if err := orch.Close(); err != nil {
			probs = append(probs, err.Error())
		}
	}
	d.recoverMs = float64(recovery) / 1e6
	return probs
}

// instances is the number of completed workflow instances.
func (d *durable) instances() int {
	n := 0
	for _, j := range d.journals {
		n += len(j.completed)
	}
	return n
}

// checkDurable checks a reopened registry against the acknowledged
// writes: the directory kept its size, each entry holds a version that
// was acknowledged last (one no other acknowledged publish of the name
// started after), and its lease runs at least a term past the issue of
// its latest acknowledged write.
func checkDurable(reg registry.Directory, acks []acked) []string {
	var probs []string
	if n := len(reg.List(false)); n != dirEntries {
		probs = append(probs, fmt.Sprintf("reopened directory holds %d entries, want %d", n, dirEntries))
	}
	byName := map[int][]acked{}
	for _, a := range acks {
		byName[a.name] = append(byName[a.name], a)
	}
	for name, as := range byName {
		e, err := reg.Get(entryName(name))
		if err != nil {
			probs = append(probs, fmt.Sprintf("%s lost on reopen: %v", entryName(name), err))
			continue
		}
		got, err := versionOf(e.Endpoint)
		if err != nil {
			probs = append(probs, err.Error())
			continue
		}
		var latest time.Time
		ok, published := false, false
		for _, p := range as {
			if p.wall.After(latest) {
				latest = p.wall
			}
			if p.version < 0 {
				continue
			}
			published = true
			last := true
			for _, q := range as {
				if q.version >= 0 && q.issue > p.ack {
					last = false
				}
			}
			if last && p.version == got {
				ok = true
			}
		}
		if published && !ok {
			probs = append(probs, fmt.Sprintf("%s reopened at version %d, not its last acknowledged publish", entryName(name), got))
		}
		if e.LeaseExpires.Before(latest.Add(leaseTerm)) {
			probs = append(probs, fmt.Sprintf("%s reopened with lease to %v, before the acknowledged renewal to %v",
				entryName(name), e.LeaseExpires, latest.Add(leaseTerm)))
		}
	}
	return probs
}

func (d *durable) closeLogs() error {
	if d.closed {
		return nil
	}
	d.closed = true
	if err := d.reg.Close(); err != nil {
		return fmt.Errorf("closing the registry: %w", err)
	}
	for _, j := range d.journals {
		if err := j.orch.Close(); err != nil {
			return fmt.Errorf("closing workflow journal %s: %w", j.dir, err)
		}
	}
	return nil
}

// close releases the stack and removes its directories.
func (d *durable) close() error {
	err := d.closeLogs()
	if rerr := os.RemoveAll(filepath.Dir(d.regDir)); err == nil {
		err = rerr
	}
	return err
}

// tracedDir times the Directory calls the REST API makes.
type tracedDir struct {
	registry.Directory
	tr *tracer
}

func (t tracedDir) span(name string, f func() error) error {
	rt := t.tr.current()
	if rt == nil {
		return f()
	}
	i := rt.begin(name)
	err := f()
	rt.end(i)
	return err
}

func (t tracedDir) Publish(e registry.Entry) error {
	return t.span("registry.publish", func() error { return t.Directory.Publish(e) })
}

func (t tracedDir) Heartbeat(name string) error {
	return t.span("registry.heartbeat", func() error { return t.Directory.Heartbeat(name) })
}

func (t tracedDir) Get(name string) (e registry.Entry, err error) {
	err = t.span("registry.get", func() error { e, err = t.Directory.Get(name); return err })
	return e, err
}

func (t tracedDir) Search(q string, limit int) (ms []registry.Match, err error) {
	err = t.span("registry.search", func() error { ms, err = t.Directory.Search(q, limit); return err })
	return ms, err
}

// walCounts counts what a log writes.
type walCounts struct {
	appends   atomic.Int64 // record writes into segments
	bytes     atomic.Int64 // bytes written into segments
	snapBytes atomic.Int64 // bytes written into snapshots
	fsyncs    atomic.Int64 // file and directory fsyncs
}

// tracedFS times and counts a log's file operations.
type tracedFS struct {
	wal.FS
	tr *tracer
	c  *walCounts
}

func (f *tracedFS) span(name string, fn func() error) error {
	rt := f.tr.current()
	if rt == nil {
		return fn()
	}
	i := rt.begin(name)
	err := fn()
	rt.end(i)
	return err
}

func (f *tracedFS) Create(name string) (file wal.File, err error) {
	err = f.span("wal.meta", func() error { file, err = f.FS.Create(name); return err })
	if err != nil {
		return nil, err
	}
	return &tracedFile{File: file, fs: f, snap: strings.HasPrefix(name, "snap-"), fresh: true}, nil
}

func (f *tracedFS) Rename(a, b string) error {
	return f.span("wal.meta", func() error { return f.FS.Rename(a, b) })
}

func (f *tracedFS) Remove(name string) error {
	return f.span("wal.meta", func() error { return f.FS.Remove(name) })
}

func (f *tracedFS) SyncDir() error {
	f.c.fsyncs.Add(1)
	return f.span("wal.fsync_dir", f.FS.SyncDir)
}

// tracedFile times Write and Sync. The first write to a new segment is
// its header, not a record.
type tracedFile struct {
	wal.File
	fs    *tracedFS
	snap  bool
	fresh bool
}

func (f *tracedFile) Write(p []byte) (n int, err error) {
	name := "wal.write"
	if f.snap {
		name = "wal.snap_write"
		f.fs.c.snapBytes.Add(int64(len(p)))
	} else {
		f.fs.c.bytes.Add(int64(len(p)))
		if !f.fresh {
			f.fs.c.appends.Add(1)
		}
	}
	f.fresh = false
	err = f.fs.span(name, func() error { n, err = f.File.Write(p); return err })
	return n, err
}

func (f *tracedFile) Sync() error {
	f.fs.c.fsyncs.Add(1)
	name := "wal.fsync"
	if f.snap {
		name = "wal.snap_fsync"
	}
	return f.fs.span(name, f.File.Sync)
}

// durableRow maps a durable-mixed span to its layer row.
func durableRow(_, name string) string {
	switch name {
	case "registry.publish", "registry.heartbeat":
		return "registry.write"
	case "registry.get", "registry.search":
		return "registry.read"
	case "workflow.start":
		return "workflow"
	case "wal.fsync", "wal.fsync_dir":
		return "wal.fsync"
	case "wal.snap_write", "wal.snap_fsync":
		return "wal.snapshot"
	}
	return name
}

// durableLayers computes the per-layer metrics of a traced durable phase:
// span-derived times, plus WAL counts per acknowledged durable op
// (publish, heartbeat, start). c0 holds the counts before the phase.
func durableLayers(d *durable, ph *phase, c0 [2]walSnapshot, m map[string]float64) {
	tr := d.tr
	api := tr.spanStats(named("registry.api"), true)
	m["registry.api_self_us_p50"] = median(api)
	w := tr.spanStats(named("registry.publish", "registry.heartbeat"), true)
	m["registry.write_self_us_p50"], m["registry.write_self_us_p99"] = median(w), quantile(w, 0.99)
	rd := tr.eachSpan(named("registry.search", "registry.get"))
	m["registry.search_us_p50"], m["registry.search_us_p99"] = median(rd), quantile(rd, 0.99)
	m["wal.write_us_p50"] = median(tr.eachSpan(named("wal.write")))
	fs := tr.eachSpan(named("wal.fsync"))
	m["wal.fsync_us_p50"], m["wal.fsync_us_p99"] = median(fs), quantile(fs, 0.99)
	wf := tr.spanStats(named("workflow.start"), true)
	m["workflow.self_us_p50"], m["workflow.self_us_p99"] = median(wf), quantile(wf, 0.99)
	m["workflow.invoke_us_p50"] = median(tr.eachSpan(named("workflow.invoke")))

	var ops, starts float64
	for i := 0; i < ph.issued; i++ {
		switch d.in.specs[ph.base+i].kind {
		case "start":
			starts++
			ops++
		case "publish", "heartbeat":
			ops++
		}
	}
	r, f := d.regFS.c.snapshot().minus(c0[0]), d.wfCounts.snapshot().minus(c0[1])
	if ops > 0 {
		m["wal.fsyncs_per_op"] = float64(r.fsyncs+f.fsyncs) / ops
		m["wal.bytes_per_op"] = float64(r.bytes+f.bytes) / ops
		m["wal.snapshot_bytes_per_op"] = float64(r.snapBytes+f.snapBytes) / ops
	}
	if starts > 0 {
		m["workflow.appends_per_instance"] = float64(f.appends) / starts
	}
}

// walSnapshot is a point-in-time copy of walCounts.
type walSnapshot struct{ appends, bytes, snapBytes, fsyncs int64 }

func (c *walCounts) snapshot() walSnapshot {
	return walSnapshot{c.appends.Load(), c.bytes.Load(), c.snapBytes.Load(), c.fsyncs.Load()}
}

func (a walSnapshot) minus(b walSnapshot) walSnapshot {
	return walSnapshot{a.appends - b.appends, a.bytes - b.bytes, a.snapBytes - b.snapBytes, a.fsyncs - b.fsyncs}
}

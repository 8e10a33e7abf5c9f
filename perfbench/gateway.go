package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strconv"
	"time"

	"soc/internal/cloud"
	"soc/internal/collatz"
	"soc/internal/core"
	"soc/internal/host"
	"soc/internal/maze"
	"soc/internal/respcache"
	"soc/internal/rest"
	"soc/internal/services"
	"soc/internal/soap"
)

// Gateway stack shape: a front door over three in-process replicas, each a
// host with the Compute and RandomString services behind a response cache
// of cacheEntries entries.
const (
	replicas     = 3
	cacheEntries = 1024
	// hotKeys is the gateway-hot key set: smaller than one replica's
	// cache, so after warm-up nearly every request hits.
	hotKeys = 512
	// coldKeys is the gateway-cold key cycle: four times the three caches
	// together, so an idempotent key comes back only after it was evicted.
	coldKeys = 4 * replicas * cacheEntries
)

// gwSpec is one pre-built gateway request and the answer it must get.
type gwSpec struct {
	binding string // "rest" or "soap": the request's kind in traces
	op      string // CollatzSteps, MazeGenerate, MazeScore or Generate
	method  string
	target  string
	url     *url.URL // target, parsed once; requests share it read-only
	body    []byte
	want    int64 // steps, pathLength or string length
}

// gwInputs are a gateway workload's requests: op k sends
// specs[order[k%len(order)]].
type gwInputs struct {
	specs []gwSpec
	order []int32
}

const (
	computeNS = services.NamespacePrefix + "compute"
	randomNS  = services.NamespacePrefix + "randomstring"
)

var algorithms = []string{"dfs", "prim", "division"}

func algorithmOf(name string) maze.Algorithm {
	switch name {
	case "prim":
		return maze.Prim
	case "division":
		return maze.Division
	}
	return maze.DFS
}

// hotInputs builds hotKeys small requests and a Zipf(1.1) order over
// them. The op and binding of a key follow from its popularity rank — of
// every ten ranks, seven are CollatzSteps and three small MazeGenerate,
// six are REST GET and four SOAP POST — so every seed offers the same mix
// at every popularity; the seed draws only the parameters and the order.
func hotInputs(seed int64) (*gwInputs, error) {
	r := rand.New(rand.NewSource(seed))
	in := &gwInputs{}
	for i := 0; i < hotKeys; i++ {
		soapBinding := i%5 >= 3
		var s gwSpec
		var err error
		if i%10 < 7 {
			s, err = collatzSpec(1+r.Int63n(1_000_000), soapBinding)
		} else {
			s, err = mazeGenerateSpec(6, 6, algorithms[i%3], r.Int63n(1<<40), soapBinding)
		}
		if err != nil {
			return nil, err
		}
		in.specs = append(in.specs, s)
	}
	z := rand.NewZipf(r, 1.1, 1, hotKeys-1)
	in.order = make([]int32, 1<<16)
	for i := range in.order {
		in.order[i] = int32(z.Uint64())
	}
	return in, nil
}

// coldInputs draws coldKeys requests uniformly from key spaces far larger
// than the caches: 45% MazeScore on a seeded 10..14-cell maze (a
// kilobyte-scale body), 40% MazeGenerate of 16..24-cell mazes (kilobyte
// replies) and 15% non-idempotent RandomString.Generate, which the cache
// bypasses. Op k sends spec k mod coldKeys, so every key recurs only after
// the whole cycle.
func coldInputs(seed int64) (*gwInputs, error) {
	r := rand.New(rand.NewSource(seed))
	in := &gwInputs{order: make([]int32, coldKeys)}
	for i := 0; i < coldKeys; i++ {
		soapBinding := r.Float64() < 0.4
		var s gwSpec
		var err error
		switch x := r.Float64(); {
		case x < 0.45:
			s, err = mazeScoreSpec(10+r.Intn(5), 10+r.Intn(5), algorithms[r.Intn(3)], r.Int63n(1<<40), soapBinding)
		case x < 0.85:
			s, err = mazeGenerateSpec(16+r.Intn(9), 16+r.Intn(9), algorithms[r.Intn(3)], r.Int63n(1<<40), soapBinding)
		default:
			s, err = randomSpec(16+r.Int63n(49), soapBinding)
		}
		if err != nil {
			return nil, err
		}
		in.specs = append(in.specs, s)
		in.order[i] = int32(i)
	}
	return in, nil
}

// newSpec encodes one invocation in the chosen binding: a SOAP envelope
// POSTed to the service's SOAP endpoint, or REST — a GET with query
// parameters, or a POST with a JSON body when jsonBody is set.
func newSpec(service, ns, op string, params map[string]string, order []string, soapBinding, jsonBody bool) (gwSpec, error) {
	s := gwSpec{op: op}
	switch {
	case soapBinding:
		env, err := soap.Encode(soap.Message{Operation: op, Namespace: ns, Params: params, ParamOrder: order})
		if err != nil {
			return s, err
		}
		s.binding, s.method, s.target, s.body = "soap", http.MethodPost, "/services/"+service+"/soap", env
	case jsonBody:
		body, err := json.Marshal(params)
		if err != nil {
			return s, err
		}
		s.binding, s.method, s.target, s.body = "rest", http.MethodPost, "/services/"+service+"/invoke/"+op, body
	default:
		q := url.Values{}
		for k, v := range params {
			q.Set(k, v)
		}
		s.binding, s.method, s.target = "rest", http.MethodGet, "/services/"+service+"/invoke/"+op+"?"+q.Encode()
	}
	u, err := url.ParseRequestURI(s.target)
	s.url = u
	return s, err
}

// newRequest builds a server-side request the way net/http would hand it
// to a handler, without httptest.NewRequest's parsing of a request line.
func newRequest(ctx context.Context, method string, u *url.URL, target string, body []byte, contentType string) *http.Request {
	r := &http.Request{Method: method, URL: u, Proto: "HTTP/1.1", ProtoMajor: 1, ProtoMinor: 1,
		Header: make(http.Header, 1), Body: http.NoBody, Host: "perfbench", RequestURI: target, RemoteAddr: "192.0.2.1:1234"}
	if body != nil {
		r.Body, r.ContentLength = io.NopCloser(bytes.NewReader(body)), int64(len(body))
	}
	if contentType != "" {
		r.Header["Content-Type"] = []string{contentType}
	}
	return r.WithContext(ctx)
}

func collatzSpec(n int64, soapBinding bool) (gwSpec, error) {
	steps, err := collatz.Steps(uint64(n))
	if err != nil {
		return gwSpec{}, err
	}
	s, err := newSpec("Compute", computeNS, "CollatzSteps",
		map[string]string{"n": strconv.FormatInt(n, 10)}, []string{"n"}, soapBinding, false)
	s.want = int64(steps)
	return s, err
}

// mazePath is the reference shortest-path length, from internal/maze.
func mazePath(m *maze.Maze) (int64, error) {
	p, err := m.ShortestPath()
	if err != nil {
		return 0, err
	}
	return int64(len(p) - 1), nil
}

func mazeGenerateSpec(w, h int, alg string, seed int64, soapBinding bool) (gwSpec, error) {
	m, err := maze.Generate(w, h, algorithmOf(alg), seed)
	if err != nil {
		return gwSpec{}, err
	}
	want, err := mazePath(m)
	if err != nil {
		return gwSpec{}, err
	}
	s, err := newSpec("Compute", computeNS, "MazeGenerate", map[string]string{
		"width": strconv.Itoa(w), "height": strconv.Itoa(h), "algorithm": alg, "seed": strconv.FormatInt(seed, 10),
	}, []string{"width", "height", "algorithm", "seed"}, soapBinding, false)
	s.want = want
	return s, err
}

func mazeScoreSpec(w, h int, alg string, seed int64, soapBinding bool) (gwSpec, error) {
	m, err := maze.Generate(w, h, algorithmOf(alg), seed)
	if err != nil {
		return gwSpec{}, err
	}
	want, err := mazePath(m)
	if err != nil {
		return gwSpec{}, err
	}
	s, err := newSpec("Compute", computeNS, "MazeScore",
		map[string]string{"maze": m.String()}, []string{"maze"}, soapBinding, true)
	s.want = want
	return s, err
}

func randomSpec(length int64, soapBinding bool) (gwSpec, error) {
	s, err := newSpec("RandomString", randomNS, "Generate",
		map[string]string{"length": strconv.FormatInt(length, 10)}, []string{"length"}, soapBinding, false)
	s.want = length
	return s, err
}

// outputField names the reply field check compares with want.
func (s *gwSpec) outputField() string {
	switch s.op {
	case "CollatzSteps":
		return "steps"
	case "Generate":
		return "value"
	}
	return "pathLength"
}

// check verifies one reply against the reference answer.
func (s *gwSpec) check(code int, body []byte) error {
	if code != http.StatusOK {
		return fmt.Errorf("%s %s: status %d", s.binding, s.op, code)
	}
	field := s.outputField()
	var got string
	if s.binding == "soap" {
		m, err := soap.DecodeBytes(body)
		if err != nil {
			return fmt.Errorf("soap %s: decoding reply: %w", s.op, err)
		}
		got = m.Params[field]
	} else {
		var out map[string]json.RawMessage
		if err := json.Unmarshal(body, &out); err != nil {
			return fmt.Errorf("rest %s: decoding reply: %w", s.op, err)
		}
		got = string(out[field])
	}
	if s.op == "Generate" {
		if s.binding == "rest" {
			var err error
			if got, err = strconv.Unquote(got); err != nil {
				return fmt.Errorf("rest Generate: value is not a JSON string: %w", err)
			}
		}
		if int64(len(got)) != s.want {
			return fmt.Errorf("%s Generate: got %d characters, want %d", s.binding, len(got), s.want)
		}
		return nil
	}
	n, err := strconv.ParseInt(got, 10, 64)
	if err != nil || n != s.want {
		return fmt.Errorf("%s %s: %s = %q, want %d", s.binding, s.op, field, got, s.want)
	}
	return nil
}

// gateway is the stack under test for both gateway workloads.
type gateway struct {
	in     *gwInputs
	tr     *tracer // nil: the untouched stack
	fd     *cloud.FrontDoor
	caches []*respcache.Cache
}

// newGateway builds the front door and its replicas. With a tracer, spans
// are recorded at the public seams: the handler given to NewLocalReplica,
// host middleware before and after UseResponseCache, and every operation
// handler.
func newGateway(in *gwInputs, tr *tracer, seed int64) (*gateway, error) {
	g := &gateway{in: in, tr: tr, fd: cloud.NewFrontDoor(cloud.FrontDoorConfig{Seed: seed})}
	for i := 0; i < replicas; i++ {
		h := host.New()
		for _, mk := range []func() (*core.Service, error){services.NewCompute, services.NewRandomString} {
			svc, err := mk()
			if err != nil {
				return nil, err
			}
			if tr != nil {
				for _, op := range svc.Operations() {
					op.Handler = spanHandler(op.Handler)
				}
			}
			if err := h.Mount(svc); err != nil {
				return nil, err
			}
		}
		if tr != nil {
			h.Use(spanMiddleware("host.outer"))
		}
		g.caches = append(g.caches, h.UseResponseCache(cacheEntries, time.Hour))
		var handler http.Handler = h
		if tr != nil {
			h.Use(spanMiddleware("host.inner"))
			handler = spanHTTP("replica", h)
		}
		g.fd.Add(cloud.NewLocalReplica(fmt.Sprintf("replica-%d", i), handler, 0))
	}
	return g, nil
}

func spanMiddleware(name string) rest.Middleware {
	return func(next rest.HandlerFunc) rest.HandlerFunc {
		return func(w http.ResponseWriter, r *http.Request, p rest.Params) {
			rt := traceFrom(r.Context())
			if rt == nil {
				next(w, r, p)
				return
			}
			i := rt.begin(name)
			next(w, r, p)
			rt.end(i)
		}
	}
}

func spanHTTP(name string, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		rt := traceFrom(r.Context())
		if rt == nil {
			h.ServeHTTP(w, r)
			return
		}
		i := rt.begin(name)
		h.ServeHTTP(w, r)
		rt.end(i)
	})
}

func spanHandler(h core.Handler) core.Handler {
	return func(ctx context.Context, in core.Values) (core.Values, error) {
		rt := traceFrom(ctx)
		if rt == nil {
			return h(ctx, in)
		}
		i := rt.begin("service")
		out, err := h(ctx, in)
		rt.end(i)
		return out, err
	}
}

func (g *gateway) spec(k int) *gwSpec { return &g.in.specs[g.in.order[k%len(g.in.order)]] }

// op sends request k through FrontDoor.ServeHTTP and checks the reply.
func (g *gateway) op(ctx context.Context, k int, due int64) (int64, uint8, error) {
	s := g.spec(k)
	var rt *reqTrace
	var root int32
	if g.tr.sampled(k) {
		ctx, rt = g.tr.start(ctx, int64(k), s.binding, s.op, due)
		root = rt.begin("client")
	}
	ct := ""
	if s.binding == "soap" {
		ct = "text/xml"
	} else if s.body != nil {
		ct = "application/json"
	}
	req := newRequest(ctx, s.method, s.url, s.target, s.body, ct)
	rec := httptest.NewRecorder()
	if rt != nil {
		i := rt.begin("frontdoor")
		g.fd.ServeHTTP(rec, req)
		rt.end(i)
		rt.end(root)
	} else {
		g.fd.ServeHTTP(rec, req)
	}
	done := nowNs()
	return done, classRead, s.check(rec.Code, rec.Body.Bytes())
}

// warm sends ops [0, n) one at a time and returns the first failure.
func (g *gateway) warm(n int) error {
	for k := 0; k < n; k++ {
		if _, _, err := g.op(context.Background(), k, nowNs()); err != nil {
			return fmt.Errorf("warm-up: %w", err)
		}
	}
	return nil
}

// verify checks the front door's ledger: every admitted request completed,
// errored or was shed for want of a replica.
func (g *gateway) verify() []string {
	st := g.fd.Stats()
	if st.Admitted != st.Completed+st.Errored+st.ShedBusy {
		return []string{fmt.Sprintf("front-door ledger open: admitted %d != completed %d + errored %d + shed %d",
			st.Admitted, st.Completed, st.Errored, st.ShedBusy)}
	}
	return nil
}

// gwCounters are the gateway's cumulative counters at one instant.
type gwCounters struct {
	hits, misses uint64
	picks        []uint64
	stats        cloud.FrontDoorStats
}

func (g *gateway) counters() gwCounters {
	var c gwCounters
	for _, ch := range g.caches {
		h, m := ch.Stats()
		c.hits += h
		c.misses += m
	}
	for _, rep := range g.fd.Replicas() {
		c.picks = append(c.picks, rep.Picks())
	}
	c.stats = g.fd.Stats()
	return c
}

// counterMetrics turns the counter deltas of a phase into per-layer
// metrics.
func counterMetrics(a, b gwCounters, m map[string]float64) {
	hits, misses := float64(b.hits-a.hits), float64(b.misses-a.misses)
	if hits+misses > 0 {
		m["respcache.hit_ratio"] = hits / (hits + misses)
	}
	admitted := float64(b.stats.Admitted - a.stats.Admitted)
	var picks, lo, hi float64
	for i := range b.picks {
		p := float64(b.picks[i] - a.picks[i])
		picks += p
		if i == 0 || p < lo {
			lo = p
		}
		if p > hi {
			hi = p
		}
	}
	if admitted > 0 {
		m["cloud.retry_ratio"] = (picks - admitted) / admitted
	}
	if lo > 0 {
		m["cloud.pick_imbalance"] = hi / lo
	}
	m["cloud.shed_count"] = float64(b.stats.Shed() - a.stats.Shed())
}

// gatewayRow maps a gateway span to its layer row.
func gatewayRow(kind, name string) string {
	switch name {
	case "frontdoor":
		return "cloud"
	case "replica":
		return "host"
	case "host.outer":
		return "respcache"
	case "host.inner":
		return kind // soap or rest: the codec and dispatch
	case "service":
		return "services"
	}
	return name
}

// gatewayLayers computes the span-derived per-layer metrics of a traced
// gateway phase.
func gatewayLayers(tr *tracer, m map[string]float64) {
	self := func(names ...string) []float64 { return tr.spanStats(named(names...), true) }
	cl := self("frontdoor")
	m["cloud.self_us_p50"], m["cloud.self_us_p99"] = median(cl), quantile(cl, 0.99)
	m["host.self_us_p50"] = median(self("replica"))
	var hit, miss []float64
	for _, rt := range tr.reqs {
		st := rt.selfTimes()
		for i, s := range rt.spans {
			if s.name != "host.outer" {
				continue
			}
			switch {
			case !rt.hasChild(i, "host.inner"):
				hit = append(hit, float64(s.end-s.start)/1e3)
			case rt.op != "Generate": // RandomString.Generate bypasses the cache
				miss = append(miss, float64(st[i])/1e3)
			}
		}
	}
	m["respcache.hit_us_p50"], m["respcache.miss_us_p50"] = median(hit), median(miss)
	for _, b := range []string{"soap", "rest"} {
		b := b
		xs := tr.spanStats(func(rt *reqTrace, i int) bool { return rt.kind == b && rt.spans[i].name == "host.inner" }, true)
		m[b+".self_us_p50"], m[b+".self_us_p99"] = median(xs), quantile(xs, 0.99)
	}
	m["services.handler_us_p50"] = median(tr.eachSpan(named("service")))
}

// close releases nothing: the in-process stack starts no goroutines.
func (g *gateway) close() error { return nil }

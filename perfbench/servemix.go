package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/obs/reqtrace"
	olog "repro/internal/obs/slog"
	"repro/internal/serve"
	"repro/internal/sweep"
	"repro/internal/tenant"
)

// The serve-mix workload: back-to-back runs of the repository's load
// client, ringload (cmd/ringload), at its default flags but with 2
// concurrent clients, each run against a freshly started ringserved in
// its default standalone configuration (request tracing on, anonymous
// tenant, info-level logging), in this process behind a loopback
// listener. That is the serving mix scripts/bench8.sh measures: a fresh
// server per trial and a pool of jobs none of which is cached yet, so
// jobs/requests of the submissions compute and the rest are cache hits.
// Each run sends what ringload sends: one /metrics scrape, then the
// requests round-robin over the pool, then one /metrics scrape.
//
// Two departures from ringload: every POST asks for ?full=1, so the
// response carries the artifact the checks compare, and the pool's
// Seed fields start at the benchmark's seed (seed 1 is ringload's own
// pool).

const serveClients = 2

// poolJob is the i-th job of ringload's pool: a point on the paper's
// processor cycle axis.
func poolJob(o opts, i int) sweep.Job {
	return sweep.Job{
		Benchmark:      "MP3D",
		CPUs:           8,
		DataRefsPerCPU: o.ServeRefs,
		ProcCyclePS:    int64(2+2*(i%10)) * 1000,
		Seed:           o.Seed + uint64(i/10),
	}
}

// expected is a job's artifact as a direct sweep run produces it, and
// the references the run measured.
type expected struct {
	hash string
	art  []byte
	refs float64
}

// directRuns computes the pool's artifacts on a sweep engine of its own.
func directRuns(pool []sweep.Job) ([]expected, error) {
	eng := sweep.New(sweep.Options{Workers: 1})
	var want []expected
	for _, j := range pool {
		res, err := eng.RunOne(j)
		if err != nil {
			return nil, err
		}
		m := res.Metrics()
		want = append(want, expected{res.Hash, res.CanonicalMetrics(), float64(m.InstrRefs + m.DataRefs)})
	}
	return want, nil
}

// server is one ringserved-equivalent instance on a loopback port.
type server struct {
	srv  *serve.Server
	eng  *sweep.Engine
	rt   *reqtrace.Tracer
	hs   *http.Server
	url  string
	done chan struct{}
}

// newServerHandler assembles the engine and serving layer exactly as
// ringserved's standalone mode does with default flags; tracing off
// drops the request tracer.
func newServerHandler(eng *sweep.Engine, tracing bool) (*serve.Server, *reqtrace.Tracer) {
	var rt *reqtrace.Tracer
	if tracing {
		rt = reqtrace.NewTracer("standalone", reqtrace.DefaultCapacity)
	}
	disc, _ := serve.ParseDiscipline("fcfs")
	srv := serve.New(serve.Options{
		Engine:      eng,
		QueueDepth:  64,
		Discipline:  disc,
		MaxDeadline: 2 * time.Minute,
		Tenants:     tenant.NewAnonymous(),
		ReqTracer:   rt,
		Logger:      olog.New(io.Discard, slog.LevelInfo, "ringserved"),
	})
	return srv, rt
}

func startServer() (*server, error) {
	eng := sweep.New(sweep.Options{Parallel: 1})
	srv, rt := newServerHandler(eng, true)
	mux := http.NewServeMux()
	mux.Handle("/", srv.Handler())
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &server{srv: srv, eng: eng, rt: rt, hs: &http.Server{Handler: mux}, url: "http://" + ln.Addr().String(), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		_ = s.hs.Serve(ln) // returns http.ErrServerClosed on close
	}()
	return s, nil
}

// close stops the server and waits for it.
func (s *server) close() {
	s.hs.Close()
	<-s.done
}

// client is one closed-loop caller with its own connection.
type client struct {
	hc  *http.Client
	url string
}

func newClient(url string) *client {
	return &client{hc: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1}}, url: url}
}

func (c *client) close() { c.hc.Transport.(*http.Transport).CloseIdleConnections() }

// do sends one request and returns the status, the request ID the
// server assigned, and the body.
func (c *client) do(method, path string, body []byte) (int, string, []byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, c.url+path, rd)
	if err != nil {
		return 0, "", nil, err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, "", nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, resp.Header.Get(reqtrace.HeaderRequest), b, err
}

// jobResponse is the part of a job response the checks read.
type jobResponse struct {
	Hash    string                `json:"hash"`
	Source  string                `json:"source"`
	Metrics *core.MetricsSnapshot `json:"metrics"`
}

// checkJobResponse verifies a job response carries the hash and the
// artifact a direct sweep run produces, and reports whether the server
// computed it.
func checkJobResponse(status int, body []byte, want expected) (computed bool, err error) {
	if status != http.StatusOK {
		return false, fmt.Errorf("status %d: %s", status, strings.TrimSpace(string(body)))
	}
	var jr jobResponse
	if err := json.Unmarshal(body, &jr); err != nil {
		return false, fmt.Errorf("decoding response: %v", err)
	}
	if jr.Hash != want.hash {
		return false, fmt.Errorf("hash %s, want %s", jr.Hash, want.hash)
	}
	if jr.Metrics == nil {
		return false, errors.New("response carries no metrics")
	}
	art, err := json.Marshal(jr.Metrics)
	if err != nil {
		return false, err
	}
	if !bytes.Equal(art, want.art) {
		return false, fmt.Errorf("artifact of %s differs from the direct sweep run", want.hash)
	}
	return jr.Source == sweep.SourceComputed.String(), nil
}

// mixSample is one completed request.
type mixSample struct {
	job      int // index into the pool, or -1 for a /metrics scrape
	secs     float64
	status   int
	reqID    string
	computed bool
	err      error
}

// sessionRun is one ringload run against one server.
type sessionRun struct {
	samples []mixSample
	// wall is from the first scrape's start to the last scrape's end.
	wall float64
	// admitUS is each job request's admission wait, from the server's
	// request traces.
	admitUS []float64
	stats   sweep.Stats
}

// serveFixture is the mix's pool and each pool job's expected artifact.
type serveFixture struct {
	o      opts
	pool   []sweep.Job
	bodies [][]byte
	want   []expected
}

// checkPool counts the direct runs of the pool as one operation, whose
// artifact is the pool's artifacts in order.
func (f *serveFixture) checkPool(oc *outcome) {
	var all []byte
	for _, w := range f.want {
		all = append(append(all, w.hash...), w.art...)
	}
	oc.Attempted++
	newArtifactChecker(f.o, wlServe).check(oc, "pool artifacts", all)
}

// newServeFixture builds the pool; setup is the median set-up (see
// medianSetup) of computing the pool's expected artifacts with a
// direct sweep engine and starting and stopping one server.
func newServeFixture(o opts) (*serveFixture, float64, error) {
	f := &serveFixture{o: o}
	for i := 0; i < o.ServeJobs; i++ {
		j := poolJob(o, i)
		body, err := json.Marshal(j)
		if err != nil {
			return nil, 0, err
		}
		f.pool, f.bodies = append(f.pool, j), append(f.bodies, body)
	}
	setup, err := medianSetup(o, func() error {
		want, err := directRuns(f.pool)
		if err != nil {
			return err
		}
		f.want = want
		s, err := startServer()
		if err != nil {
			return err
		}
		s.close()
		return nil
	})
	return f, setup, err
}

// sessions runs ringload runs, each on a fresh server, until seconds
// have passed and at least minRuns have run.
func (f *serveFixture) sessions(seconds float64, minRuns int) ([]sessionRun, error) {
	var runs []sessionRun
	start := time.Now()
	for len(runs) < minRuns || time.Since(start).Seconds() < seconds {
		s, err := startServer()
		if err != nil {
			return nil, err
		}
		runs = append(runs, f.session(s))
		s.close()
	}
	return runs, nil
}

// session runs one ringload run against s: a scrape, o.ServeRequests
// submissions round-robin over the pool from serveClients closed-loop
// clients, and a scrape.
func (f *serveFixture) session(s *server) sessionRun {
	clients := make([]*client, serveClients)
	for c := range clients {
		clients[c] = newClient(s.url)
	}
	var run sessionRun
	t0 := time.Now()
	run.samples = append(run.samples, scrape(clients[0]))
	var next atomic.Int64
	per := make([][]mixSample, serveClients)
	var wg sync.WaitGroup
	for c := range clients {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for {
				n := int(next.Add(1) - 1)
				if n >= f.o.ServeRequests {
					return
				}
				per[c] = append(per[c], f.submit(clients[c], n%len(f.pool)))
			}
		}(c)
	}
	wg.Wait()
	for _, p := range per {
		run.samples = append(run.samples, p...)
	}
	run.samples = append(run.samples, scrape(clients[0]))
	run.wall = time.Since(t0).Seconds()
	for _, c := range clients {
		c.close()
	}

	for _, smp := range run.samples {
		if smp.job < 0 {
			continue
		}
		if doc, ok := s.rt.Get(smp.reqID); ok {
			for _, sp := range doc.Spans {
				if sp.Name == "admit" {
					run.admitUS = append(run.admitUS, float64(sp.DurUS))
				}
			}
		}
	}
	run.stats = s.eng.Stats()
	return run
}

// submit posts pool job i and checks the response.
func (f *serveFixture) submit(c *client, i int) mixSample {
	s := mixSample{job: i}
	t0 := time.Now()
	var body []byte
	var err error
	s.status, s.reqID, body, err = c.do("POST", "/v1/jobs?full=1", f.bodies[i])
	s.secs = time.Since(t0).Seconds()
	if err == nil {
		s.computed, err = checkJobResponse(s.status, body, f.want[i])
	}
	s.err = err
	return s
}

// scrape reads /metrics, as ringload does before and after a run.
func scrape(c *client) mixSample {
	s := mixSample{job: -1}
	t0 := time.Now()
	var body []byte
	var err error
	s.status, s.reqID, body, err = c.do("GET", "/metrics", nil)
	s.secs = time.Since(t0).Seconds()
	if err == nil && (s.status != http.StatusOK || !bytes.Contains(body, []byte("ringsim_serve_requests_total"))) {
		err = fmt.Errorf("metrics scrape: status %d", s.status)
	}
	s.err = err
	return s
}

// verify counts every request as an operation and each failed one as
// a failure.
func verify(oc *outcome, runs []sessionRun) {
	for _, r := range runs {
		for _, s := range r.samples {
			oc.Attempted++
			if s.err != nil {
				oc.fail("%v", s.err)
			}
		}
	}
}

func runServeMix(o opts) (*outcome, error) {
	oc := &outcome{Metrics: map[string]float64{}}
	f, setup, err := newServeFixture(o)
	if err != nil {
		return nil, err
	}
	runs, err := f.sessions(o.Seconds, o.MinOps)
	if err != nil {
		return nil, err
	}
	f.checkPool(oc)
	verify(oc, runs)

	var all, computed, refRates, rates []float64
	for _, r := range runs {
		rates = append(rates, float64(len(r.samples))/r.wall)
		for _, s := range r.samples {
			all = append(all, s.secs)
			if s.computed {
				computed = append(computed, s.secs)
				refRates = append(refRates, f.want[s.job].refs/s.secs)
			}
		}
	}
	m := oc.Metrics
	m["setup_s"] = setup
	m["wall_s"] = median(computed)
	m["sim_refs_per_s"] = median(refRates)
	m["req_per_s"] = median(rates)
	latencyMetrics(o, m, all)
	m["max_rss_mb"] = maxRSSMB()

	// Say which requests the tail is made of.
	cut := m["p99_ms"] / 1e3
	var beyond, beyondComputed int
	for _, r := range runs {
		for _, s := range r.samples {
			if s.secs >= cut {
				beyond++
				if s.computed {
					beyondComputed++
				}
			}
		}
	}
	fmt.Fprintf(o.Log, "%d ringload runs, %d requests, %d computed; %d of the %d requests at or beyond p99_ms were computed\n",
		len(runs), len(all), len(computed), beyondComputed, beyond)
	return oc, nil
}

package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"plurality"
	"plurality/internal/service"
)

// pollInterval is the fixed wait between status polls of a submitted job.
const pollInterval = 2 * time.Millisecond

// serveKind is one job shape of the serve-mixed mix, as a wire spec and
// as the equivalent library options (for the direct-run probe).
type serveKind struct {
	name     string
	protocol string
	counts   []int64
	model    string
	engine   string
	opts     []plurality.Option
}

var serveKinds = []serveKind{
	{name: "2c", protocol: "two-choices", counts: must(plurality.Biased(100_000, 4, 1)), model: "poisson",
		opts: []plurality.Option{plurality.WithModel(plurality.Poisson)}},
	{name: "usd", protocol: "usd", counts: must(plurality.Biased(100_000, 4, 1)), model: "poisson",
		opts: []plurality.Option{plurality.WithModel(plurality.Poisson)}},
	{name: "3maj", protocol: "3-majority", counts: must(plurality.Biased(20_000, 4, 1)), model: "poisson", engine: "per-node",
		opts: []plurality.Option{plurality.WithModel(plurality.Poisson), plurality.WithEngine(plurality.EnginePerNode)}},
	{name: "core", protocol: "core", counts: must(plurality.Biased(2_000, 4, 1)), model: "poisson",
		opts: []plurality.Option{plurality.WithModel(plurality.Poisson)}},
	// pluralityd passes every spec's model to the library, which rejects a
	// model on OneExtraBit jobs, so the daemon cannot serve "onebit"; the
	// synchronous sampling dynamics stand in for it.
	{name: "2c-sync", protocol: "two-choices", counts: must(plurality.Biased(20_000, 4, 1)), model: "synchronous",
		opts: []plurality.Option{plurality.WithModel(plurality.Synchronous)}},
}

// serveCycle is one 16-op cycle: entries are serveKinds indices; hit
// positions (-1) resubmit the spec of the op 15 places earlier, which is
// a miss of the previous cycle, so 1 op in 4 is a cache hit. The op at
// serveStreamPos is submitted with observeInterval and read over SSE.
var serveCycle = []int{0, 2, 4, -1, 1, 0, 4, -1, 2, 0, 3, -1, 1, 2, 4, -1}

const (
	serveHitLag       = 15
	serveStreamPos    = 5
	serveObserveEvery = 2.0 // parallel-time units between SSE snapshots
)

type serveMixed struct {
	srv    *service.Server
	hs     *http.Server
	served chan struct{}
	base   string
	client *http.Client
	seed   uint64

	mu     sync.Mutex
	bodies map[int][]byte        // terminal GET body per completed miss op
	done   map[int]chan struct{} // closed when op i has completed

	polls, hits, misses, rejected atomic.Int64
}

func setupServeMixed(seed uint64) (instance, error) {
	srv := service.New(service.Config{
		Workers: 2,
		// Request logs are formatted as in pluralityd but not written out.
		Logger: slog.New(slog.NewTextHandler(io.Discard, nil)),
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return nil, err
	}
	s := &serveMixed{
		srv:    srv,
		hs:     &http.Server{Handler: srv.Handler()},
		served: make(chan struct{}),
		base:   "http://" + ln.Addr().String(),
		client: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 8}},
		seed:   seed,
		bodies: map[int][]byte{},
		done:   map[int]chan struct{}{},
	}
	go func() {
		defer close(s.served)
		_ = s.hs.Serve(ln)
	}()
	if _, err := s.get("/v1/healthz"); err != nil {
		s.close()
		return nil, err
	}
	// Warm-up: one job of every kind with a fixed seed, the same work in
	// every set-up.
	for k := range serveKinds {
		if _, err := s.execute(context.Background(), jobSpec(k, false, warmupSeed), false, nil, nil, -1, -1); err != nil {
			s.close()
			return nil, fmt.Errorf("warm-up %s: %w", serveKinds[k].name, err)
		}
	}
	return s, nil
}

func (s *serveMixed) close() {
	_ = s.hs.Close()
	<-s.served
	s.srv.Close()
	s.client.CloseIdleConnections()
}

func (s *serveMixed) fingerprintOps() int { return 4 * len(serveCycle) }

// target resolves op i to the miss op whose spec it submits (i itself for
// misses; hits in the first cycle have no earlier op and run as misses of
// the kind they would have repeated).
func (s *serveMixed) target(i int) (kind, origin int) {
	pos := i % len(serveCycle)
	if k := serveCycle[pos]; k >= 0 {
		return k, i
	}
	origin = i - serveHitLag
	if origin < 0 {
		return serveCycle[(pos+1)%len(serveCycle)], i
	}
	return serveCycle[origin%len(serveCycle)], origin
}

func (s *serveMixed) kind(i int) string {
	k, origin := s.target(i)
	switch {
	case origin != i:
		return "hit"
	case i%len(serveCycle) == serveStreamPos:
		return serveKinds[k].name + "-sse"
	}
	return serveKinds[k].name
}

// jobSpec builds the wire spec of kind k.
func jobSpec(k int, stream bool, seed uint64) service.JobSpec {
	sk := serveKinds[k]
	sp := service.JobSpec{Protocol: sk.protocol, Counts: sk.counts, Seed: seed, Model: sk.model, Engine: sk.engine}
	if stream {
		sp.ObserveInterval = serveObserveEvery
	}
	return sp
}

func (s *serveMixed) op(ctx context.Context, i int, tr *tracer, parent int) (work, error) {
	k, origin := s.target(i)
	stream := i%len(serveCycle) == serveStreamPos
	sp := jobSpec(k, stream, opSeed(s.seed, origin))
	if origin != i {
		// Hits are never the origin of another op, so none waits on them.
		return s.replayHit(sp, origin, tr, parent, i)
	}
	var body []byte
	w, err := s.execute(ctx, sp, stream, &body, tr, parent, i)
	if err != nil {
		body = nil
	}
	s.complete(i, body)
	return w, err
}

// execute submits a spec that must miss the cache, waits for its terminal
// status (polling, or over SSE for streamed specs) and checks it.
func (s *serveMixed) execute(ctx context.Context, sp service.JobSpec, stream bool, body *[]byte, tr *tracer, parent, i int) (work, error) {
	code, hdr, resp, err := s.post(sp, tr, parent, i)
	if err != nil {
		return work{}, err
	}
	if code != http.StatusAccepted || hdr.Get("X-Cache") != "" {
		return work{}, fmt.Errorf("submit: status %d, X-Cache %q, want 202 and a fresh job", code, hdr.Get("X-Cache"))
	}
	s.misses.Add(1)
	var st service.JobStatus
	if err := json.Unmarshal(resp, &st); err != nil {
		return work{}, err
	}
	var final []byte
	if stream {
		id := tr.begin("http.GET /v1/jobs/{id}/stream", parent, i)
		final, err = s.stream(ctx, st.ID)
		tr.end(id)
	} else {
		for {
			time.Sleep(pollInterval)
			s.polls.Add(1)
			id := tr.begin("http.GET /v1/jobs/{id}", parent, i)
			final, err = s.get("/v1/jobs/" + st.ID)
			tr.end(id)
			if err != nil {
				break
			}
			if err = json.Unmarshal(final, &st); err != nil || (st.State != service.StateQueued && st.State != service.StateRunning) {
				break
			}
		}
	}
	if err != nil {
		return work{}, err
	}
	if body != nil {
		*body = final
	}
	return checkStatus(final)
}

// replayHit resubmits op origin's spec once that op has completed; the
// daemon must answer from the cache with exactly the bytes the original
// job's terminal GET returned.
func (s *serveMixed) replayHit(sp service.JobSpec, origin int, tr *tracer, parent, i int) (work, error) {
	want := s.result(origin)
	if want == nil {
		return work{}, fmt.Errorf("repeat of op %d, which failed", origin)
	}
	code, hdr, resp, err := s.post(sp, tr, parent, i)
	if err != nil {
		return work{}, err
	}
	if code != http.StatusOK || hdr.Get("X-Cache") != "hit" {
		return work{}, fmt.Errorf("repeat of op %d: status %d, X-Cache %q, want 200 hit", origin, code, hdr.Get("X-Cache"))
	}
	if !bytes.Equal(resp, want) {
		return work{}, fmt.Errorf("repeat of op %d: cached body differs from the terminal GET body", origin)
	}
	s.hits.Add(1)
	return checkStatus(resp)
}

// checkStatus accepts a terminal "done" status whose report converged to
// the initial plurality.
func checkStatus(body []byte) (work, error) {
	var st service.JobStatus
	if err := json.Unmarshal(body, &st); err != nil {
		return work{}, err
	}
	if st.State != service.StateDone || len(st.Reports) != 1 {
		return work{}, fmt.Errorf("job %s ended %s with %d reports (%s)", st.ID, st.State, len(st.Reports), st.Error)
	}
	r := st.Reports[0]
	return checkReport(plurality.Report{Converged: r.Converged, Winner: plurality.Color(r.Winner), Ticks: r.Ticks, Rounds: r.Rounds}, nil)
}

const (
	postMissSpan = "http.POST /v1/jobs miss"
	postHitSpan  = "http.POST /v1/jobs hit"
)

// post submits sp; the span is named after the cache outcome.
func (s *serveMixed) post(sp service.JobSpec, tr *tracer, parent, i int) (int, http.Header, []byte, error) {
	b, err := json.Marshal(sp)
	if err != nil {
		return 0, nil, nil, err
	}
	id := tr.begin("http.POST /v1/jobs", parent, i)
	resp, err := s.client.Post(s.base+"/v1/jobs", "application/json", bytes.NewReader(b))
	if err != nil {
		tr.end(id)
		return 0, nil, nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	tr.end(id)
	if resp.Header.Get("X-Cache") == "hit" {
		tr.rename(id, postHitSpan)
	} else {
		tr.rename(id, postMissSpan)
	}
	if resp.StatusCode == http.StatusTooManyRequests {
		s.rejected.Add(1)
	}
	return resp.StatusCode, resp.Header, body, err
}

func (s *serveMixed) get(path string) ([]byte, error) {
	resp, err := s.client.Get(s.base + path)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err == nil && resp.StatusCode != http.StatusOK {
		err = fmt.Errorf("GET %s: status %d", path, resp.StatusCode)
	}
	return body, err
}

// stream reads a job's SSE stream up to its terminal report event and
// returns that event's data, failing if no snapshot came first.
func (s *serveMixed) stream(ctx context.Context, id string) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, s.base+"/v1/jobs/"+id+"/stream", nil)
	if err != nil {
		return nil, err
	}
	resp, err := s.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("stream %s: status %d", id, resp.StatusCode)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	event, snapshots := "", 0
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "event: "):
			event = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			if event == "snapshot" {
				snapshots++
			}
			if event == "report" {
				if snapshots == 0 {
					return nil, fmt.Errorf("stream %s: report without snapshots", id)
				}
				return []byte(strings.TrimPrefix(line, "data: ")), nil
			}
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return nil, errors.New("stream " + id + " ended without a report event")
}

func (s *serveMixed) doneChan(i int) chan struct{} {
	s.mu.Lock()
	defer s.mu.Unlock()
	ch, ok := s.done[i]
	if !ok {
		ch = make(chan struct{})
		s.done[i] = ch
	}
	return ch
}

func (s *serveMixed) complete(i int, body []byte) {
	ch := s.doneChan(i)
	s.mu.Lock()
	if body != nil {
		s.bodies[i] = body
	}
	s.mu.Unlock()
	close(ch)
}

// result waits for op i to complete and returns its terminal GET body
// (nil if it failed).
func (s *serveMixed) result(i int) []byte {
	<-s.doneChan(i)
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.bodies[i]
}

// engineShareOps is how many executed ops the engine-share probe reruns.
const engineShareOps = 24

func (s *serveMixed) layers(ctx context.Context, tr *tracer, seed uint64, lr loopResult, m map[string]float64) error {
	m["service.submit_ms.miss"] = meanMs(tr.durations(postMissSpan))
	m["service.submit_ms.hit"] = meanMs(tr.durations(postHitSpan))
	m["service.polls_per_op"] = float64(s.polls.Load()) / float64(len(lr.recs))
	m["service.cache_hit_rate"] = float64(s.hits.Load()) / float64(s.hits.Load()+s.misses.Load())
	body, err := s.get("/v1/metrics")
	if err != nil {
		return err
	}
	var ms service.MetricsSnapshot
	if err := json.Unmarshal(body, &ms); err != nil {
		return err
	}
	m["service.daemon_p50_ms"] = ms.Latency.P50Seconds * 1e3
	m["service.rejected"] = float64(ms.Jobs.Rejected + s.rejected.Load())

	// Engine share: rerun executed ops' specs as direct Job.Run calls and
	// compare with the ops' wall time; the reruns must do the same work.
	root := tr.begin("probe/engine_share", -1, -1)
	defer tr.end(root)
	var engine, wall time.Duration
	probed := 0
	for _, rec := range lr.recs {
		if probed == engineShareOps {
			break
		}
		k, origin := s.target(rec.idx)
		if origin != rec.idx || rec.idx%len(serveCycle) == serveStreamPos || rec.err != nil {
			continue
		}
		sk := serveKinds[k]
		job, err := plurality.NewJob(sk.protocol, sk.counts, append(slices.Clip(sk.opts), plurality.WithSeed(opSeed(seed, origin)))...)
		if err != nil {
			return err
		}
		var rep plurality.Report
		engine += tr.timed("plurality.Job.Run", root, rec.idx, func() { rep, err = job.Run(ctx) })
		w, err := checkReport(rep, err)
		if err != nil {
			return err
		}
		if w != rec.w {
			return fmt.Errorf("op %d: direct Job.Run did %+v, the daemon %+v", rec.idx, w, rec.w)
		}
		wall += rec.lat
		probed++
	}
	if probed == 0 {
		return errors.New("no executed op to probe")
	}
	m["service.engine_share"] = engine.Seconds() / wall.Seconds()
	return nil
}

func meanMs(ds []time.Duration) float64 {
	if len(ds) == 0 {
		return 0
	}
	var t time.Duration
	for _, d := range ds {
		t += d
	}
	return ms(t) / float64(len(ds))
}

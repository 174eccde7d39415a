package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptrace"
	"slices"
	"sync"
	"time"

	"repro/internal/daemon"
	"repro/internal/mealy"
	"repro/internal/polca"
	"repro/internal/policy"
)

// The polcad-serve traffic: closed-loop clients, each sending its next
// request when the previous reply arrived, roundRequests requests per
// client and round.
const (
	serveClients  = 2
	roundRequests = 2000
	// tracedRounds is fixed so that the traced run's counters cover the
	// same work however fast the machine is.
	tracedRounds = 10
	wordsPerReq  = 16
	maxWordLen   = 12
)

// serveEngines are the (policy, assoc) engines requests are spread over.
var serveEngines = []struct {
	name  string
	assoc int
}{{"LRU", 4}, {"New1", 4}, {"SRRIP-HP", 4}, {"PLRU", 8}}

// serveRig is an in-process polcad daemon on a loopback listener.
type serveRig struct {
	srv    *daemon.Server
	hs     *http.Server
	url    string
	client *http.Client
	served chan struct{}
}

// bootDaemon starts a daemon, waits for /healthz and sends one warm-up
// query per engine (engine construction and policy compilation), returning
// the time all of that took.
func bootDaemon(ctx context.Context) (*serveRig, time.Duration, error) {
	t0 := time.Now()
	srv := daemon.New(daemon.Config{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, 0, err
	}
	r := &serveRig{
		srv:    srv,
		hs:     &http.Server{Handler: srv.Handler()},
		url:    "http://" + ln.Addr().String(),
		client: &http.Client{Transport: &http.Transport{Proxy: nil, MaxIdleConnsPerHost: serveClients}},
		served: make(chan struct{}),
	}
	go func() {
		defer close(r.served)
		r.hs.Serve(ln)
	}()
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(time.Millisecond) {
		resp, err := r.client.Get(r.url + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				break
			}
		}
		if time.Now().After(deadline) {
			r.close()
			return nil, 0, fmt.Errorf("daemon never became healthy: %v", err)
		}
	}
	for _, e := range serveEngines {
		if _, status, err := r.query(ctx, nil, e.name, e.assoc, [][]int{{0}}); err != nil || status != http.StatusOK {
			r.close()
			return nil, 0, fmt.Errorf("warm-up query on %s-%d: status %d, %v", e.name, e.assoc, status, err)
		}
	}
	return r, time.Since(t0), nil
}

// close drains the daemon, then stops the HTTP server and waits for it.
func (r *serveRig) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	r.srv.Close(ctx)
	r.hs.Shutdown(ctx)
	<-r.served
	r.client.CloseIdleConnections()
}

type queryReply struct {
	Outputs   [][]int `json:"outputs"`
	Coalesced bool    `json:"coalesced"`
}

// query sends one POST /v1/query. With a client trace it reports when the
// request was written and the first response byte arrived.
func (r *serveRig) query(ctx context.Context, ct *httptrace.ClientTrace, pol string, assoc int, words [][]int) (*queryReply, int, error) {
	body, err := json.Marshal(map[string]any{"policy": pol, "assoc": assoc, "words": words})
	if err != nil {
		return nil, 0, err
	}
	if ct != nil {
		ctx = httptrace.WithClientTrace(ctx, ct)
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, r.url+"/v1/query", bytes.NewReader(body))
	if err != nil {
		return nil, 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := r.client.Do(req)
	if err != nil {
		return nil, 0, err
	}
	defer resp.Body.Close()
	buf, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, resp.StatusCode, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, resp.StatusCode, nil
	}
	var rep queryReply
	if err := json.Unmarshal(buf, &rep); err != nil {
		return nil, resp.StatusCode, err
	}
	return &rep, resp.StatusCode, nil
}

// engineTotals sums the oracle counters and store sizes of every engine in
// the daemon's status document.
func (r *serveRig) engineTotals(ctx context.Context) (polca.Stats, int, int, error) {
	var doc struct {
		Engines []struct {
			Stats      polca.Stats `json:"stats"`
			OutNodes   int         `json:"store_out_nodes"`
			ProbeNodes int         `json:"store_probe_nodes"`
		} `json:"engines"`
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, r.url+"/v1/status", nil)
	if err != nil {
		return polca.Stats{}, 0, 0, err
	}
	resp, err := r.client.Do(req)
	if err != nil {
		return polca.Stats{}, 0, 0, err
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		return polca.Stats{}, 0, 0, err
	}
	var st polca.Stats
	out, prb := 0, 0
	for _, e := range doc.Engines {
		addOracleStats(&st, e.Stats)
		out += e.OutNodes
		prb += e.ProbeNodes
	}
	return st, out, prb, nil
}

// serveClient generates one client's requests from its seed: each request
// goes to a uniformly chosen engine and carries wordsPerReq words, each
// either a re-ask of a word this client sent that engine before (a memo
// read) or a fresh word of length 1..maxWordLen (memo inserts and kernel
// probes), with equal probability.
type serveClient struct {
	rng  *rand.Rand
	hist [][][]int // per engine: words sent so far
}

func newServeClient(seed int64, client int) *serveClient {
	return &serveClient{
		rng:  rand.New(rand.NewSource(seed*1000003 + int64(client))),
		hist: make([][][]int, len(serveEngines)),
	}
}

func (c *serveClient) next() (eng int, words [][]int) {
	eng = c.rng.Intn(len(serveEngines))
	numIn := policy.NumInputs(serveEngines[eng].assoc)
	words = make([][]int, wordsPerReq)
	for i := range words {
		if h := c.hist[eng]; len(h) > 0 && c.rng.Intn(2) == 0 {
			words[i] = h[c.rng.Intn(len(h))]
			continue
		}
		w := make([]int, 1+c.rng.Intn(maxWordLen))
		for j := range w {
			w[j] = c.rng.Intn(numIn)
		}
		c.hist[eng] = append(c.hist[eng], w)
		words[i] = w
	}
	return eng, words
}

// checkReply returns an error unless the reply answers every word with the
// reference machine's output.
func checkReply(ref *mealy.Machine, words [][]int, rep *queryReply) error {
	if len(rep.Outputs) != len(words) {
		return fmt.Errorf("%d outputs for %d words", len(rep.Outputs), len(words))
	}
	for i, w := range words {
		if want := ref.Run(w); !slices.Equal(rep.Outputs[i], want) {
			return fmt.Errorf("word %v: got %v, want %v", w, rep.Outputs[i], want)
		}
	}
	return nil
}

// serveRound is the outcome of closed-loop rounds against fresh daemons.
type serveRound struct {
	walls     []float64 // wall time of each round, s
	boots     []float64 // daemon set-up time of each round, s
	latencies []float64 // per request, s
	words     int
	elapsed   time.Duration // summed round walls
	requests  int
	failed    int
	coalesced int
	non200    int
	firstErr  error
	oracle    polca.Stats // summed engine counters, warm-up excluded
	outNodes  int         // query-store nodes after the last round
	prbNodes  int
}

// runRound boots a fresh daemon and drives it with serveClients
// closed-loop clients, each sending the seed's roundRequests requests, then
// stops the daemon. Every round replays the same requests, so rounds are
// repeated measurements of one input. With a tracer every request is a
// span (http.request) whose child daemon.server covers request written →
// first response byte.
func runRound(ctx context.Context, out *serveRound, refs []*mealy.Machine, seed int64, tr *tracer) error {
	r, boot, err := bootDaemon(ctx)
	if err != nil {
		return err
	}
	defer r.close()
	before, _, _, err := r.engineTotals(ctx)
	if err != nil {
		return err
	}
	var mu sync.Mutex
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < serveClients; c++ {
		wg.Add(1)
		go func(c *serveClient) {
			defer wg.Done()
			for i := 0; i < roundRequests; i++ {
				eng, words := c.next()
				var ct *httptrace.ClientTrace
				var id, t0, wrote, first int64
				if tr != nil {
					id, t0 = tr.open()
					ct = &httptrace.ClientTrace{
						WroteRequest:         func(httptrace.WroteRequestInfo) { wrote = tr.now() },
						GotFirstResponseByte: func() { first = tr.now() },
					}
				}
				q0 := time.Now()
				rep, status, err := r.query(ctx, ct, serveEngines[eng].name, serveEngines[eng].assoc, words)
				lat := time.Since(q0).Seconds()
				if tr != nil {
					tr.add(span{id: id, op: id, name: "http.request", start: t0, end: tr.now()})
					if wrote > 0 && first > wrote {
						sid, _ := tr.open()
						tr.add(span{id: sid, parent: id, op: id, name: "daemon.server", start: wrote, end: first})
					}
				}
				if err == nil && status == http.StatusOK {
					err = checkReply(refs[eng], words, rep)
				} else if err == nil {
					err = fmt.Errorf("status %d", status)
				}
				mu.Lock()
				out.requests++
				out.words += len(words)
				out.latencies = append(out.latencies, lat)
				if status != http.StatusOK {
					out.non200++
				}
				if rep != nil && rep.Coalesced {
					out.coalesced++
				}
				if err != nil {
					out.failed++
					if out.firstErr == nil {
						out.firstErr = fmt.Errorf("%s-%d request: %w", serveEngines[eng].name, serveEngines[eng].assoc, err)
					}
				}
				mu.Unlock()
			}
		}(newServeClient(seed, c))
	}
	wg.Wait()
	wall := time.Since(start)
	out.walls = append(out.walls, wall.Seconds())
	out.boots = append(out.boots, boot.Seconds())
	out.elapsed += wall
	after, outN, prbN, err := r.engineTotals(ctx)
	if err != nil {
		return err
	}
	out.oracle.Symbols += after.Symbols - before.Symbols
	out.oracle.Probes += after.Probes - before.Probes
	out.oracle.MemoHits += after.MemoHits - before.MemoHits
	out.oracle.Accesses += after.Accesses - before.Accesses
	out.oracle.Retries += after.Retries - before.Retries
	out.oracle.Reprobes += after.Reprobes - before.Reprobes
	out.outNodes, out.prbNodes = outN, prbN
	return nil
}

// runRounds runs at least n rounds and goes on until d has elapsed.
func runRounds(ctx context.Context, refs []*mealy.Machine, seed int64, n int, d time.Duration, tr *tracer) (*serveRound, error) {
	out := &serveRound{}
	start := time.Now()
	for len(out.walls) < n || time.Since(start) < d {
		settle()
		if err := runRound(ctx, out, refs, seed, tr); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// serveRefs extracts the reference machine of every engine.
func serveRefs() ([]*mealy.Machine, error) {
	refs := make([]*mealy.Machine, len(serveEngines))
	for i, e := range serveEngines {
		pol, err := policy.New(e.name, e.assoc)
		if err != nil {
			return nil, err
		}
		if refs[i], err = mealy.FromPolicy(pol, 0); err != nil {
			return nil, err
		}
	}
	return refs, nil
}

// runServe is the polcad-serve workload: rounds of closed-loop traffic,
// each against a freshly booted in-process daemon, for the run's duration.
// Set-up is daemon boot to /healthz plus one warm-up query per engine.
func runServe(ctx context.Context, cfg config) (*report, error) {
	rep := newReport()
	refs, err := serveRefs()
	if err != nil {
		return nil, err
	}
	account := func(l *serveRound) {
		rep.attempted += l.requests
		rep.failed += l.failed
		if l.firstErr != nil {
			rep.note("FAILED: %d of %d requests, first: %v", l.failed, l.requests, l.firstErr)
		}
		rep.note("polcad-serve: %d rounds of %d clients x %d requests; %d requests (%d words) in %.3fs; %d latency samples",
			len(l.walls), serveClients, roundRequests, l.requests, l.words, l.elapsed.Seconds(), len(l.latencies))
	}
	base, err := runRounds(ctx, refs, cfg.seed, 1, cfg.seconds, nil)
	if err != nil {
		return nil, err
	}
	account(base)
	setups := base.boots
	for len(setups) < setupReps {
		r, d, err := bootDaemon(ctx)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		r.close()
		setups = append(setups, d.Seconds())
	}
	rep.values["setup_s"] = median(setups)
	if !cfg.traced {
		setOpValues(rep, base.walls, base.latencies)
		rep.values["serve_qps"] = float64(base.words) / base.elapsed.Seconds()
		return rep, nil
	}

	tr := newTracer()
	g := readGoStats()
	l, err := runRounds(ctx, refs, cfg.seed, tracedRounds, 0, tr)
	if err != nil {
		return nil, err
	}
	gs := g.since()
	account(l)
	rep.tr = tr
	// Compare time per word: the two sets of rounds may differ in count.
	untraced := time.Duration(float64(base.elapsed) * float64(l.words) / float64(base.words))
	layers := summarizeTrace(rep, tr, l.elapsed, untraced, serveClients)
	rep.values["daemon.server_s"] = layers.busy("daemon.server")
	rep.values["http.client_s"] = layers.self("http.request")
	rep.values["daemon.requests"] = float64(l.requests)
	rep.values["daemon.coalesced"] = float64(l.coalesced)
	rep.values["daemon.non200"] = float64(l.non200)
	setOracleValues(rep, l.oracle)
	rep.values["qstore.out_nodes"] = float64(l.outNodes)
	rep.values["qstore.probe_nodes"] = float64(l.prbNodes)
	setGoValues(rep, gs)
	zero(rep)
	return rep, nil
}

package main

import (
	"errors"
	"fmt"
	"math/rand"
	"net"
	"runtime"
	"slices"
	"sync"
	"time"

	"repro/internal/churn"
	"repro/internal/fpss"
	"repro/internal/graph"
	"repro/internal/live"
	"repro/internal/scenario"
)

const (
	serveN = 24
	// baseRate is the offered read load of the base phase, in
	// requests per second, with an advance every advanceEvery.
	baseRate     = 2000
	advanceEvery = 500 * time.Millisecond
	// readLimit is the p99 read latency a ladder rate must meet to
	// count towards max_rps.
	readLimit = 2 * time.Millisecond
	// checkEvery samples one read in checkEvery for the table check.
	checkEvery = 16
)

// ladderRates are the offered loads of the rate ladder.
var ladderRates = []float64{2000, 5000, 10000, 20000, 40000}

// serveSpec is the served scenario: a preferential-attachment network
// of serveN nodes whose churn timeline has one epoch per advance the
// run makes, plus the first.
func serveSpec(seed int64, epochs int) scenario.Spec {
	sp := scenario.Spec{
		Family:    scenario.PrefAttach,
		N:         serveN,
		Workload:  scenario.WorkloadAllPairs,
		CostModel: scenario.CostUniform,
		Churn:     scenario.Churn{Epochs: epochs, Joins: 1, Leaves: 1, RedrawFraction: 0.25},
	}
	sp.Seed = int64(scenario.Mix64(uint64(seed)^0x5e7e)>>2) + 1
	return sp
}

// readSchedule is the open-loop request sequence: a pure function of
// the seed. Half the reads are routes, half are payments for 1–8
// packets, over distinct node pairs in [0, n).
func readSchedule(seed int64, n, count int) []live.Request {
	rng := rand.New(rand.NewSource(seed))
	reqs := make([]live.Request, count)
	for i := range reqs {
		src := rng.Intn(n)
		dst := rng.Intn(n - 1)
		if dst >= src {
			dst++
		}
		if rng.Intn(2) == 0 {
			reqs[i] = live.Request{Op: live.OpRoute, Src: src, Dst: dst}
		} else {
			reqs[i] = live.Request{Op: live.OpPay, Src: src, Dst: dst, Packets: int64(1 + rng.Intn(8))}
		}
	}
	return reqs
}

// sample is one read's record: the request, its answer, and its three
// timings — schedule lag (hand-off minus due), service (Dispatch call
// to return) and latency (return minus due).
type sample struct {
	req           live.Request
	resp          live.Response
	lag, svc, lat time.Duration
	due, done     time.Time
	traced        bool
}

// phase is the outcome of one open-loop phase.
type phase struct {
	samples    []sample
	backlogMax int
	end        time.Time // scheduled end of the phase
}

// openLoop offers reqs to the clients at rate, request i due at
// start + i/rate regardless of completions. The calling goroutine is
// the scheduler: it sleeps on its own OS thread until the next
// request is due (see nanosleep), and on each wake hands every due
// request to a connection worker, round-robin, without waiting.
// With a tracer, the reads traceAt accepts by due time are recorded as
// spans as they complete.
func openLoop(clients []*live.Client, reqs []live.Request, rate float64, tr *tracer, traceAt func(time.Time) bool) phase {
	start := time.Now().Add(time.Millisecond)
	interval := time.Duration(float64(time.Second) / rate)
	samples := make([]sample, len(reqs))
	queues := make([]chan int, len(clients))
	var wg sync.WaitGroup
	var mu sync.Mutex
	inFlight, backlogMax := 0, 0
	for c := range clients {
		// Sized for every request the worker can receive, so the
		// scheduler never blocks on a slow worker.
		queues[c] = make(chan int, len(reqs)/len(clients)+1)
		wg.Add(1)
		go func(cl *live.Client, q chan int) {
			defer wg.Done()
			for i := range q {
				s := &samples[i]
				call := time.Now()
				s.resp = cl.Dispatch(s.req)
				if s.traced {
					// Recorded before the read counts as done, so a
					// traced read's latency carries its span's cost.
					tr.add(tr.id(), 0, "live.read", string(s.req.Op), s.due, time.Now())
				}
				s.done = time.Now()
				s.svc = s.done.Sub(call)
				s.lat = s.done.Sub(s.due)
				mu.Lock()
				inFlight--
				mu.Unlock()
			}
		}(clients[c], queues[c])
	}
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	preciseSleeps()
	for i := 0; i < len(reqs); {
		due := start.Add(time.Duration(i) * interval)
		if gap := time.Until(due); gap > 0 {
			nanosleep(gap)
			continue
		}
		now := time.Now()
		for ; i < len(reqs); i++ {
			due := start.Add(time.Duration(i) * interval)
			if due.After(now) {
				break
			}
			samples[i] = sample{req: reqs[i], due: due, lag: now.Sub(due)}
			samples[i].traced = tr != nil && traceAt(due)
			mu.Lock()
			inFlight++
			backlogMax = max(backlogMax, inFlight)
			mu.Unlock()
			queues[i%len(clients)] <- i
		}
	}
	for _, q := range queues {
		close(q)
	}
	wg.Wait()
	return phase{samples: samples, backlogMax: backlogMax, end: start.Add(time.Duration(len(reqs)) * interval)}
}

// closedLoop has every client send reads back to back until d has
// passed, each client cycling through its own stride of reqs.
func closedLoop(clients []*live.Client, reqs []live.Request, d time.Duration) []sample {
	deadline := time.Now().Add(d)
	out := make([][]sample, len(clients))
	var wg sync.WaitGroup
	for c, cl := range clients {
		wg.Add(1)
		go func(c int, cl *live.Client) {
			defer wg.Done()
			for i := c; time.Now().Before(deadline); i += len(clients) {
				req := reqs[i%len(reqs)]
				start := time.Now()
				resp := cl.Dispatch(req)
				svc := time.Since(start)
				out[c] = append(out[c], sample{req: req, resp: resp, svc: svc, lat: svc, due: start, done: start.Add(svc)})
			}
		}(c, cl)
	}
	wg.Wait()
	return slices.Concat(out...)
}

// latencies returns the chosen durations of the samples that pass keep.
func latencies(ss []sample, pick func(sample) time.Duration, keep func(sample) bool) []float64 {
	var out []float64
	for _, s := range ss {
		if keep == nil || keep(s) {
			out = append(out, us(pick(s)))
		}
	}
	return out
}

// expectedTables memoizes each epoch's central solution, which the
// served tables must equal.
type expectedTables struct {
	tl   *churn.Timeline
	sols map[int]*fpss.Solution
}

func (e *expectedTables) solution(epoch int) (*fpss.Solution, error) {
	if sol, ok := e.sols[epoch]; ok {
		return sol, nil
	}
	if epoch < 0 || epoch >= len(e.tl.Epochs) {
		return nil, fmt.Errorf("answer names epoch %d of %d", epoch, len(e.tl.Epochs))
	}
	c, ok, err := e.tl.Epochs[epoch].CentralState()
	if err != nil {
		return nil, err
	}
	if !ok {
		return nil, fmt.Errorf("epoch %d has no central solution", epoch)
	}
	e.sols[epoch] = c.Sol
	return c.Sol, nil
}

// verifyRead checks one answer against the central tables of the
// epoch that served it: a route must be the central path and cost, a
// payment the central VCG prices times the packet count.
func verifyRead(exp *expectedTables, s sample) error {
	if !s.resp.OK {
		return fmt.Errorf("%s %d→%d refused: %s", s.req.Op, s.req.Src, s.req.Dst, s.resp.Err)
	}
	sol, err := exp.solution(s.resp.Epoch)
	if err != nil {
		return err
	}
	src, dst := graph.NodeID(s.req.Src), graph.NodeID(s.req.Dst)
	if s.req.Op == live.OpRoute {
		want := sol.Routing[src][dst]
		got := make(graph.Path, len(s.resp.Path))
		for i, h := range s.resp.Path {
			got[i] = graph.NodeID(h)
		}
		if int64(want.Cost) != s.resp.Cost || !want.Path.Equal(got) {
			return fmt.Errorf("route %d→%d epoch %d: got %v cost %d, central %v cost %d",
				src, dst, s.resp.Epoch, got, s.resp.Cost, want.Path, want.Cost)
		}
		return nil
	}
	var want []live.Payment
	var total int64
	for k, pe := range sol.Pricing[src][dst] {
		want = append(want, live.Payment{To: int(k), Amount: int64(pe.Price) * s.req.Packets})
		total += int64(pe.Price) * s.req.Packets
	}
	slices.SortFunc(want, func(a, b live.Payment) int { return a.To - b.To })
	if total != s.resp.Total || !slices.Equal(want, s.resp.Payments) {
		return fmt.Errorf("pay %d→%d×%d epoch %d: got %v total %d, central %v total %d",
			src, dst, s.req.Packets, s.resp.Epoch, s.resp.Payments, s.resp.Total, want, total)
	}
	return nil
}

// server is the resident server behind its loopback listener, with
// the read clients and one admin client for advances.
type server struct {
	srv     *live.Server
	ln      net.Listener
	served  chan error
	clients []*live.Client
	admin   *live.Client
}

func startServer(sp scenario.Spec, conns int) (*server, error) {
	srv, err := live.NewServer(sp)
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return nil, err
	}
	s := &server{srv: srv, ln: ln, served: make(chan error, 1)}
	go func() { s.served <- live.Serve(ln, srv) }()
	for i := 0; i <= conns; i++ {
		c, err := live.Dial(ln.Addr().String())
		if err != nil {
			s.close()
			return nil, err
		}
		if i == conns {
			s.admin = c
		} else {
			s.clients = append(s.clients, c)
		}
	}
	return s, nil
}

// close disconnects the clients, stops the listener, waits for Serve
// to return and shuts the resident network down.
func (s *server) close() error {
	for _, c := range append(slices.Clone(s.clients), s.admin) {
		if c != nil {
			c.Close()
		}
	}
	s.ln.Close()
	err := <-s.served
	s.srv.Close()
	return err
}

// runServe runs the serve workload. Set-up builds the timeline and
// converges the resident network; the base phase then offers reads at
// baseRate with an Inject{Advance} every advanceEvery on a separate
// connection, a closed loop follows, and the ladder phase offers reads
// at each ladder rate with no advances. The unit is one read.
func runServe(o opts) (*result, error) {
	res := newResult()
	base := time.Duration(float64(o.seconds) * 0.5)
	closed := time.Duration(float64(o.seconds) * 0.15)
	step := time.Duration(float64(o.seconds) * 0.35 / float64(len(ladderRates)))
	advances := int(base / advanceEvery)
	sp := serveSpec(o.seed, advances+1)
	conns := min(runtime.NumCPU(), 4)

	// Each earlier server is closed before the next one starts, so
	// every start is timed in the same process state.
	setup, s, err := timeSetup(func() (*server, error) { return startServer(sp, conns) }, (*server).close)
	if err != nil {
		return nil, err
	}
	tl, err := churn.Build(sp)
	if err != nil {
		s.close()
		return nil, err
	}
	n := s.srv.N()
	for _, e := range tl.Epochs {
		n = min(n, e.N())
	}
	exp := &expectedTables{tl: tl, sols: map[int]*fpss.Solution{}}
	tr := o.tracer

	// Base phase: reads at baseRate, advances beside them. The traced
	// run traces every other advance interval.
	t0 := time.Now()
	traceAt := func(t time.Time) bool { return int(t.Sub(t0)/advanceEvery)%2 == 1 }
	var advMs, advMsgs []float64
	advDone := make(chan error, 1)
	go func() {
		advDone <- advanceLoop(s, t0, advances, tr, &advMs, &advMsgs)
	}()
	r0 := sampleRuntime()
	bp := openLoop(s.clients, readSchedule(o.seed, n, int(baseRate*base.Seconds())), baseRate, tr, traceAt)
	r1 := sampleRuntime()
	if err := <-advDone; err != nil {
		res.fail("advance: %v", err)
	}
	res.attempted += advances
	all := slices.Clone(bp.samples)

	// Closed loop: every connection sends its next read as soon as the
	// last one answers. The unit metric is the median round trip here:
	// with the path kept hot it measures what a read costs the server
	// and the wire, where an open-loop read at a low rate mostly waits
	// for the sleeping threads on both ends to wake, which on a shared
	// host swung the open-loop median by a third between runs.
	cl := closedLoop(s.clients, readSchedule(o.seed-1, n, 1<<16), closed)
	all = append(all, cl...)
	rtt := latencies(cl, func(x sample) time.Duration { return x.svc }, nil)

	// Ladder phase: no advances; the first step also measures the
	// allocation per read.
	type rung struct {
		rate    float64
		p99     float64
		drain   time.Duration
		backlog int
	}
	var rungs []rung
	maxRPS := 0.0
	var allocPerRead float64
	for i, rate := range ladderRates {
		reqs := readSchedule(o.seed+int64(i)+1, n, int(rate*step.Seconds()))
		a := sampleRuntime()
		ph := openLoop(s.clients, reqs, rate, nil, nil)
		if i == 0 {
			allocPerRead = allocMB(a, sampleRuntime()) / float64(len(reqs))
		}
		last := slices.MaxFunc(ph.samples, func(a, b sample) int { return a.done.Compare(b.done) }).done
		r := rung{rate: rate, p99: quantile(latencies(ph.samples, func(x sample) time.Duration { return x.lat }, nil), 0.99),
			drain: last.Sub(ph.end), backlog: ph.backlogMax}
		rungs = append(rungs, r)
		if r.p99 <= us(readLimit) && r.drain <= readLimit {
			maxRPS = rate
		}
		all = append(all, ph.samples...)
	}

	// In-process dispatch on the same mix, for the wire/dispatch split.
	var dispatchNs []float64
	if tr != nil {
		for _, req := range readSchedule(o.seed, n, 20000) {
			t := time.Now()
			s.srv.Dispatch(req)
			dispatchNs = append(dispatchNs, float64(time.Since(t).Nanoseconds()))
		}
	}
	if err := s.close(); err != nil {
		res.fail("serve: %v", err)
	}

	// Output checks: every read must be answered; a fixed sample must
	// equal the serving epoch's central tables.
	for i, x := range all {
		res.attempted++
		switch {
		case !x.resp.OK:
			res.fail("%s %d→%d refused: %s", x.req.Op, x.req.Src, x.req.Dst, x.resp.Err)
		case i%checkEvery == 0:
			if err := verifyRead(exp, x); err != nil {
				res.fail("%v", err)
			}
		}
	}

	lat := func(x sample) time.Duration { return x.lat }
	readP50, readP99 := quantile(latencies(bp.samples, lat, nil), 0.5), quantile(latencies(bp.samples, lat, nil), 0.99)
	res.report = append(res.report,
		fmt.Sprintf("n=%d epochs=%d connections=%d base: %d reads at %d/s, %d advances", n, len(tl.Epochs), conns, len(bp.samples), baseRate, advances),
		fmt.Sprintf("setup_s=%.4f s  read_p50_us=%.1f read_p99_us=%.1f (n=%d)  advance_ms=%.2f (n=%d)  max_rps=%.0f  alloc per read %.0f B",
			setup, readP50, readP99, len(bp.samples), median(advMs), len(advMs), maxRPS, allocPerRead*1e6),
		fmt.Sprintf("closed loop: %d reads, round trip p50=%.1fus p99=%.1fus", len(cl), median(rtt), quantile(rtt, 0.99)))
	for _, r := range rungs {
		res.report = append(res.report, fmt.Sprintf("ladder %6.0f/s: p99=%.1fus drain=%v backlog_max=%d", r.rate, r.p99, r.drain, r.backlog))
	}
	if tr == nil {
		res.set("setup_s", setup, "s")
		res.set("unit_ms", median(rtt)/1e3, "ms")
		return res, nil
	}

	setLayerDefaults(res)
	res.set("runtime.gc_cpu_frac", gcFrac(r0, r1), "ratio")
	res.set("runtime.unit_alloc_mb", allocPerRead, "MB")
	isTraced := func(x sample) bool { return x.traced }
	notTraced := func(x sample) bool { return !x.traced }
	res.set("trace.overhead_ms", (median(latencies(bp.samples, lat, isTraced))-median(latencies(bp.samples, lat, notTraced)))/1e3, "ms")
	res.set("live.read_p50_us", readP50, "us")
	res.set("live.read_p99_us", readP99, "us")
	res.set("live.max_rps", maxRPS, "1/s")
	res.set("live.advance_ms", median(advMs), "ms")
	res.set("livenet.advance_msgs", median(advMsgs), "count")
	res.set("live.dispatch_ns_p50", quantile(dispatchNs, 0.5), "ns")
	res.set("live.dispatch_ns_p99", quantile(dispatchNs, 0.99), "ns")
	res.set("live.wire_us_p50", median(rtt)-quantile(dispatchNs, 0.5)/1e3, "us")
	res.set("live.backlog_max", float64(bp.backlogMax), "count")
	res.set("live.lag_us_p99", quantile(latencies(bp.samples, func(x sample) time.Duration { return x.lag }, nil), 0.99), "us")

	// Build-side layers on the served timeline.
	start := time.Now()
	if _, err := sp.Compile(); err != nil {
		return nil, err
	}
	tr.add(tr.id(), 0, "scenario.compile", sp.Describe(), start, time.Now())
	res.set("scenario.compile_ms", ms(time.Since(start)), "ms")
	start = time.Now()
	if _, err := churn.Build(sp); err != nil {
		return nil, err
	}
	tr.add(tr.id(), 0, "churn.build", sp.Describe(), start, time.Now())
	res.set("churn.build_ms", ms(time.Since(start)), "ms")
	sys := churn.NewSystem(tl, churn.Plain)
	sys.EnableBuildStats()
	stats, err := sys.BuildStats()
	if err != nil {
		return nil, err
	}
	var bounds []float64
	delta := 0
	for _, b := range stats {
		if b.Epoch > 0 {
			bounds = append(bounds, ms(b.Rebuild))
			if b.Mode == "delta" {
				delta++
			}
		}
	}
	res.set("churn.boundary_ms", median(bounds), "ms")
	if len(bounds) > 0 {
		res.set("churn.delta_share", float64(delta)/float64(len(bounds)), "ratio")
	}
	var comps []*scenario.Compiled
	for _, e := range tl.Epochs {
		comps = append(comps, e.Compiled)
	}
	if err := graphLayers(res, tr, comps); err != nil {
		return nil, err
	}
	return res, nil
}

// advanceLoop sends Inject{Advance} on the admin connection at
// t0 + k·advanceEvery, recording each round trip and the messages the
// re-convergence sent.
func advanceLoop(s *server, t0 time.Time, advances int, tr *tracer, advMs, advMsgs *[]float64) error {
	for k := 1; k <= advances; k++ {
		time.Sleep(time.Until(t0.Add(time.Duration(k) * advanceEvery)))
		start := time.Now()
		resp := s.admin.Dispatch(live.Request{Op: live.OpInject, Advance: true})
		d := time.Since(start)
		if !resp.OK || resp.Epoch != k {
			return fmt.Errorf("advance %d: ok=%v epoch=%d err=%s", k, resp.OK, resp.Epoch, resp.Err)
		}
		tr.add(tr.id(), 0, "live.advance", "", start, start.Add(d))
		*advMs = append(*advMs, ms(d))
		st := s.admin.Dispatch(live.Request{Op: live.OpStats})
		if !st.OK || st.Stats == nil {
			return errors.New("stats after advance failed: " + st.Err)
		}
		*advMsgs = append(*advMsgs, float64(st.Stats.Net.Sent))
	}
	return nil
}

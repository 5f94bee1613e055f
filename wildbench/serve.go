package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"goingwild/internal/churn"
	"goingwild/internal/core"
	"goingwild/internal/debughttp"
	"goingwild/internal/lfsr"
	"goingwild/internal/metrics"
	"goingwild/internal/resolvesvc"
	"goingwild/internal/scanner"
	"goingwild/internal/wildnet"
)

// The serve workload runs a resolvesvc.Service whose APIRoutes are
// served over loopback HTTP while Run keeps sweeping and committing
// epochs. One service lifetime — a "cycle" — sweeps study weeks 0-19:
// a few warm-up epochs, then a window in which two keep-alive
// connections run a closed loop until the last epoch commits. A run
// repeats cycles until its time is up, so every cycle does the same
// work and the figures do not drift with the simulated week.

const (
	// serveWarm is how many epochs commit before the window opens.
	serveWarm = 3
	// serveConns is the number of client connections, each a closed
	// loop that waits for its reply before sending the next request.
	serveConns = 2
	// batchWindow is wildsvc's default coalescing window.
	batchWindow = 2 * time.Millisecond
	// listLimit is the page size of the listing requests.
	listLimit = 100
	// kindHeader tags traced requests with their kind for the handler
	// wrappers; untraced requests carry no tag.
	kindHeader = "X-Wildbench-Kind"
)

// serveScale is the serve workload's size: order 18 and 20 study weeks
// per cycle. The cycle stops well short of the paper's 55 weeks because
// the world's lease draw costs O(week) per address, so later weeks would
// sweep ever slower and the figures would drift within a run.
func serveScale(toy bool) (order uint, epochs int) {
	if toy {
		return 15, 10
	}
	return 18, 20
}

// Request kinds of the serve mix.
const (
	kindHit = iota
	kindMiss
	kindList
	nKinds
)

var kindNames = [nKinds]string{"hit", "miss", "list"}

// servePools are the address pools the mix draws from. Both are pure
// functions of the world, found by one unloaded priming cycle.
type servePools struct {
	// hit holds sweep-born records present once the warm-up epochs
	// commit that never flap during the cycle: the service must answer
	// every lookup of them from the store.
	hit []uint32
	// miss holds in-space, non-blacklisted addresses no sweep of the
	// cycle ever sees: each lookup of one is a demand probe. A connection
	// uses each miss address once per cycle, since a probed address has
	// a store record afterwards.
	miss []uint32
}

// request is one entry of the serve mix.
type request struct {
	kind int
	addr uint32
}

// mixBlock is the mix's period: every block of this many requests holds
// exactly 97 warm-store lookups, 2 lookups of addresses the store lacks
// and 1 listing, at positions the seed shuffles. Exact shares keep a
// seed from drawing a luckier mix than another.
const mixBlock = 100

// mixer generates one connection's request sequence. It is a pure
// function of (seed, conn, pools), and it runs on across cycles so no
// cycle replays another's requests.
type mixer struct {
	state    uint64
	conn     int
	pools    *servePools
	block    [mixBlock]uint8
	slot     int
	missNext int
}

func newMixer(seed uint64, conn int, pools *servePools) *mixer {
	return &mixer{state: mix64(seed ^ uint64(conn+1)<<56), conn: conn, pools: pools, slot: mixBlock}
}

func (m *mixer) rand() uint64 {
	m.state += 0x9E3779B97F4A7C15
	return mix64(m.state)
}

func (m *mixer) next() request {
	if m.slot == mixBlock {
		for i := range m.block {
			m.block[i] = kindHit
		}
		m.block[0], m.block[1], m.block[2] = kindMiss, kindMiss, kindList
		for i := mixBlock - 1; i > 0; i-- {
			j := int(m.rand() % uint64(i+1))
			m.block[i], m.block[j] = m.block[j], m.block[i]
		}
		m.slot = 0
	}
	kind := int(m.block[m.slot])
	m.slot++
	switch kind {
	case kindHit:
		return request{kind: kindHit, addr: m.pools.hit[m.rand()%uint64(len(m.pools.hit))]}
	case kindMiss:
		// Connections take alternate entries, so no address is looked up
		// twice in a run.
		i := (m.conn + serveConns*m.missNext) % len(m.pools.miss)
		m.missNext++
		return request{kind: kindMiss, addr: m.pools.miss[i]}
	default:
		return request{kind: kindList}
	}
}

// serveStudy builds the study behind the service; its scanner runs the
// sweeps.
func serveStudy(p params) (*core.Study, core.Config, int, error) {
	order, epochs := serveScale(p.toy)
	cfg := studyConfig(order, p.seed)
	cfg.Weeks = epochs
	st, err := core.NewStudy(cfg)
	return st, cfg, epochs, err
}

// cycleTrace collects one traced cycle's layer observations.
type cycleTrace struct {
	reg     *metrics.Registry
	sweep   *tracedTransport
	prober  *tracedTransport
	mu      sync.Mutex
	setAt   map[int]int64 // week -> SetTime on the sweep clock
	sweepAt map[int]int64 // week -> last SendBatch return of its sweep
	handler [nKinds][]float64
	commit  []float64 // ms from SetTime to OnEpoch, window epochs
	sweeps  []float64 // ms from SetTime to the sweep's last SendBatch
	lag     []float64
	lookup  float64 // ns per in-process hit lookup
	counts  metrics.Snapshot
}

// cycleStats is one cycle's client-side outcome.
type cycleStats struct {
	setup    time.Duration
	window   time.Duration
	done     int
	attempts int
	failed   int
	lat      [nKinds][]float64 // µs
	epochs   []float64         // s between commits in the window
	heapMB   float64           // live heap once the last epoch commits, store at its fullest
	failures []string
	// unstamped counts replies timed without a kernel receive stamp.
	unstamped int
}

// serveCycle runs one service lifetime under load. tr, when non-nil,
// wraps the sweep and probe transports, the sweep clock, the route
// handlers and the service registry.
func serveCycle(ctx context.Context, st *core.Study, cfg core.Config, epochs int, mixers []*mixer, tr *cycleTrace) (*cycleStats, error) {
	cs := &cycleStats{}
	t0 := time.Now()
	cctx, cancel := context.WithCancel(ctx)
	defer cancel()

	proberTr := wildnet.NewMemTransport(st.World, wildnet.VantagePrimary)
	defer proberTr.Close()
	var ptr wildnet.Transport = proberTr
	sweeper := st.Scanner
	var clock churn.Clock = st.Transport
	var reg *metrics.Registry
	if tr != nil {
		reg = tr.reg
		tr.prober = newTracedTransport(proberTr)
		ptr = tr.prober
		tr.sweep = newTracedTransport(st.Transport)
		sweeper = scanner.New(tr.sweep, scanOpts(cfg))
		clock = &tracedClock{inner: st.Transport, onSet: func(week int, at int64) {
			tr.mu.Lock()
			if week > 0 {
				tr.sweepAt[week-1] = tr.sweep.lastEnd.Load()
			}
			tr.setAt[week] = at
			tr.mu.Unlock()
		}}
	}
	prober := scanner.New(ptr, scanner.Options{SettleDelay: scanner.NoSettle})

	var commits []time.Time
	warm := make(chan struct{})
	svc := resolvesvc.New(resolvesvc.Config{
		Order:       cfg.Order,
		ScanSeed:    cfg.ScanSeed,
		Epochs:      epochs,
		BatchWindow: batchWindow,
		Blacklist:   st.World.ScanBlacklist(),
		OnEpoch: func(e resolvesvc.EpochStatus) {
			now := time.Now()
			if e.Epoch >= serveWarm-1 {
				commits = append(commits, now)
			}
			if e.Epoch == serveWarm-1 {
				close(warm)
			}
			if tr != nil && e.Epoch >= serveWarm {
				at := nowNs()
				tr.mu.Lock()
				tr.commit = append(tr.commit, float64(at-tr.setAt[e.Epoch])/1e6)
				tr.mu.Unlock()
				tr.lag = append(tr.lag, float64(e.Lag))
			}
		},
	}, resolvesvc.Deps{
		Scanner:    sweeper,
		SweepClock: clock,
		Prober:     prober,
		ProbeClock: proberTr,
		Locator:    locator(st.World),
		Metrics:    reg,
	})

	var routes []debughttp.Route
	for _, rt := range svc.APIRoutes() {
		h := rt.Handler
		if tr != nil {
			h = tr.timed(h)
		}
		routes = append(routes, debughttp.Route{Pattern: rt.Pattern, Handler: h})
	}
	addr, stopHTTP, err := debughttp.Serve("127.0.0.1:0", reg, routes...)
	if err != nil {
		return nil, err
	}
	defer func() {
		if err := stopHTTP(); err != nil {
			cs.failures = append(cs.failures, "http shutdown: "+err.Error())
		}
	}()

	runErr := make(chan error, 1)
	go func() { runErr <- svc.Run(cctx) }()
	select {
	case <-warm:
	case err := <-runErr:
		return nil, fmt.Errorf("service ended during warm-up: %v", err)
	}
	clients := make([]*client, serveConns)
	for i := range clients {
		c, err := dial(cctx, addr, tr != nil)
		if err != nil {
			return nil, err
		}
		defer c.close()
		clients[i] = c
	}
	cs.setup = time.Since(t0)

	var stop atomic.Bool
	var wg sync.WaitGroup
	start := time.Now()
	for i, c := range clients {
		wg.Add(1)
		go func(c *client, m *mixer) {
			defer wg.Done()
			c.loop(&stop, m, start)
		}(c, mixers[i])
	}
	err = <-runErr
	end := time.Now()
	stop.Store(true)
	wg.Wait()
	if err != nil {
		return nil, fmt.Errorf("service run: %w", err)
	}
	cs.heapMB = liveHeapMB()
	cs.window = end.Sub(start)
	for i := 1; i < len(commits); i++ {
		cs.epochs = append(cs.epochs, commits[i].Sub(commits[i-1]).Seconds())
	}
	endNs := end.Sub(start).Nanoseconds()
	for _, c := range clients {
		for _, s := range c.samples {
			cs.attempts++
			if !s.ok {
				cs.failed++
				continue
			}
			cs.lat[s.kind] = append(cs.lat[s.kind], s.us)
			if s.endNs <= endNs {
				cs.done++
			}
		}
		cs.failures = append(cs.failures, c.failures...)
		cs.unstamped += c.unstamped
	}
	if tr != nil {
		tr.mu.Lock()
		last := epochs - 1
		tr.sweepAt[last] = tr.sweep.lastEnd.Load()
		for w := serveWarm; w <= last; w++ {
			tr.sweeps = append(tr.sweeps, float64(tr.sweepAt[w]-tr.setAt[w])/1e6)
		}
		tr.mu.Unlock()
		tr.counts = reg.Snapshot()
		tr.lookup = lookupNs(cctx, svc, mixers[0].pools.hit)
	}
	return cs, nil
}

// timed wraps a route handler, recording its time by request kind.
func (tr *cycleTrace) timed(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		t0 := nowNs()
		h.ServeHTTP(w, req)
		us := float64(nowNs()-t0) / 1e3
		for k, name := range kindNames {
			if req.Header.Get(kindHeader) == name {
				tr.mu.Lock()
				tr.handler[k] = append(tr.handler[k], us)
				tr.mu.Unlock()
			}
		}
	})
}

// lookupNs times in-process Service.Lookup on hit addresses from
// serveConns goroutines and returns the mean per lookup.
func lookupNs(ctx context.Context, svc *resolvesvc.Service, hit []uint32) float64 {
	const perG = 200_000
	var total atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < serveConns; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			t0 := time.Now()
			for i := 0; i < perG; i++ {
				svc.Lookup(ctx, hit[(i*7919+g)%len(hit)])
			}
			total.Add(time.Since(t0).Nanoseconds())
		}(g)
	}
	wg.Wait()
	return float64(total.Load()) / (serveConns * perG)
}

// sample is one request's outcome.
type sample struct {
	kind  int
	ok    bool
	us    float64
	endNs int64 // completion, ns since the window opened
}

// client is one keep-alive HTTP/1.1 connection running a closed loop.
// It writes each request and parses each reply on its own goroutine, and
// times each round trip from the request's write to the kernel's receipt
// of the reply, so the time measured is the service's: loopback, the
// net/http server and the handler.
type client struct {
	addr     string
	tagged   bool
	conn     net.Conn
	sr       *stampReader
	br       *bufio.Reader
	bw       *bufio.Writer
	samples  []sample
	failures []string
	epoch    int
	// unstamped counts replies timed without a kernel receive stamp.
	unstamped int
}

// dial opens the connection and sends one untimed request on it. The
// connection closes when ctx ends, so a stalled reply cannot hang the
// run.
func dial(ctx context.Context, addr string, tagged bool) (*client, error) {
	var d net.Dialer
	conn, err := d.DialContext(ctx, "tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("connect: %w", err)
	}
	context.AfterFunc(ctx, func() { conn.Close() })
	sr, err := newStampReader(conn)
	if err != nil {
		conn.Close()
		return nil, fmt.Errorf("connect: %w", err)
	}
	c := &client{addr: addr, tagged: tagged, conn: conn, sr: sr, br: bufio.NewReader(sr), bw: bufio.NewWriter(conn), epoch: -1}
	status, _, err := c.get("/svc/status", "")
	if err == nil && status != http.StatusOK {
		err = fmt.Errorf("status %d", status)
	}
	if err != nil {
		conn.Close()
		return nil, fmt.Errorf("connect: %w", err)
	}
	return c, nil
}

func (c *client) close() { c.conn.Close() }

// get sends one GET and reads the whole reply.
func (c *client) get(path, kind string) (int, []byte, error) {
	c.bw.WriteString("GET " + path + " HTTP/1.1\r\nHost: " + c.addr + "\r\n")
	if c.tagged && kind != "" {
		c.bw.WriteString(kindHeader + ": " + kind + "\r\n")
	}
	c.bw.WriteString("\r\n")
	if err := c.bw.Flush(); err != nil {
		return 0, nil, err
	}
	resp, err := http.ReadResponse(c.br, nil)
	if err != nil {
		return 0, nil, err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	return resp.StatusCode, body, err
}

// loop sends the mix's requests one at a time until stop is set, timing
// each round trip (request written, whole reply received by the kernel)
// and checking each reply.
func (c *client) loop(stop *atomic.Bool, m *mixer, start time.Time) {
	for !stop.Load() {
		rq := m.next()
		path := "/resolvers?open=1&limit=" + fmt.Sprint(listLimit)
		if rq.kind != kindList {
			path = "/resolver?ip=" + lfsr.U32ToAddr(rq.addr).String()
		}
		c.sr.at = time.Time{}
		t0 := time.Now()
		status, body, err := c.get(path, kindNames[rq.kind])
		t1 := time.Now()
		// A few replies a run arrive without a kernel stamp; those end
		// when the client has read them.
		end := c.sr.at
		if end.IsZero() {
			end = t1
			c.unstamped++
		}
		s := sample{kind: rq.kind, us: float64(end.Sub(t0).Nanoseconds()) / 1e3, endNs: t1.Sub(start).Nanoseconds()}
		if err == nil {
			err = c.verify(rq, status, body)
		}
		s.ok = err == nil
		if err != nil && len(c.failures) < 5 {
			c.failures = append(c.failures, fmt.Sprintf("%s %s: %v", kindNames[rq.kind], path, err))
		}
		c.samples = append(c.samples, s)
	}
}

// verify checks one reply: a 200 with a parseable body, hits answered
// from the store, misses by a demand probe, and an epoch that never goes
// backwards on this connection.
func (c *client) verify(rq request, status int, body []byte) error {
	if status != http.StatusOK {
		return fmt.Errorf("status %d", status)
	}
	var epoch int
	if rq.kind == kindList {
		var page []resolvesvc.LookupResponse
		if err := json.Unmarshal(body, &page); err != nil {
			return err
		}
		if len(page) != listLimit {
			return fmt.Errorf("listing has %d records, want %d", len(page), listLimit)
		}
		for _, lr := range page {
			if lr.Source != "store" || !lr.Open || lr.Epoch != page[0].Epoch {
				return fmt.Errorf("listing record %s open=%v from %q at epoch %d", lr.IP, lr.Open, lr.Source, lr.Epoch)
			}
		}
		epoch = page[0].Epoch
	} else {
		var lr resolvesvc.LookupResponse
		if err := json.Unmarshal(body, &lr); err != nil {
			return err
		}
		if want := lfsr.U32ToAddr(rq.addr).String(); lr.IP != want || !lr.Known {
			return fmt.Errorf("answered ip=%s known=%v, want %s known", lr.IP, lr.Known, want)
		}
		switch {
		case rq.kind == kindHit && lr.Source != "store":
			return fmt.Errorf("hit answered from %q", lr.Source)
		case rq.kind == kindMiss && (lr.Source != "probe" || lr.FirstSeenEpoch != resolvesvc.NeverSeen):
			return fmt.Errorf("miss answered from %q (first seen %d)", lr.Source, lr.FirstSeenEpoch)
		}
		epoch = lr.Epoch
	}
	if epoch < c.epoch {
		return fmt.Errorf("epoch went back from %d to %d", c.epoch, epoch)
	}
	c.epoch = epoch
	return nil
}

// primePools runs one unloaded cycle and derives the address pools from
// the store: the records present after warm-up that never flap, and the
// in-space addresses the cycle's sweeps never see. The mix seed then
// shuffles the miss pool.
func primePools(ctx context.Context, st *core.Study, cfg core.Config, epochs int, seed uint64) (*servePools, error) {
	cctx, cancel := context.WithCancel(ctx)
	defer cancel()
	proberTr := wildnet.NewMemTransport(st.World, wildnet.VantagePrimary)
	defer proberTr.Close()
	var svc *resolvesvc.Service
	var warm []resolvesvc.Record
	svc = resolvesvc.New(resolvesvc.Config{
		Order:       cfg.Order,
		ScanSeed:    cfg.ScanSeed,
		Epochs:      epochs,
		BatchWindow: batchWindow,
		Blacklist:   st.World.ScanBlacklist(),
		OnEpoch: func(e resolvesvc.EpochStatus) {
			if e.Epoch == serveWarm-1 {
				warm = svc.Store().List(false, 0)
			}
		},
	}, resolvesvc.Deps{
		Scanner:    st.Scanner,
		SweepClock: st.Transport,
		Prober:     scanner.New(proberTr, scanner.Options{SettleDelay: scanner.NoSettle}),
		ProbeClock: proberTr,
		Locator:    locator(st.World),
	})
	if err := svc.Run(cctx); err != nil {
		return nil, fmt.Errorf("priming cycle: %w", err)
	}
	seen := map[uint32]resolvesvc.Record{}
	for _, r := range svc.Store().List(false, 0) {
		seen[r.Addr] = r
	}
	p := &servePools{}
	for _, r := range warm {
		if seen[r.Addr].Flaps == 0 {
			p.hit = append(p.hit, r.Addr)
		}
	}
	bl := st.World.ScanBlacklist()
	for u := uint32(1); u < uint32(1)<<cfg.Order; u++ {
		if _, ok := seen[u]; !ok && !bl.ContainsU32(u) {
			p.miss = append(p.miss, u)
		}
	}
	if len(p.hit) == 0 || len(p.miss) == 0 {
		return nil, errors.New("priming cycle left an empty address pool")
	}
	z := mix64(seed ^ 0x3155)
	for i := len(p.miss) - 1; i > 0; i-- {
		z = mix64(z)
		j := int(z % uint64(i+1))
		p.miss[i], p.miss[j] = p.miss[j], p.miss[i]
	}
	return p, nil
}

// newMixers builds one mixer per connection.
func newMixers(seed uint64, pools *servePools) []*mixer {
	ms := make([]*mixer, serveConns)
	for i := range ms {
		ms[i] = newMixer(seed, i, pools)
	}
	return ms
}

// disjoint reports whether the hit and miss pools share no address.
func (p *servePools) disjoint() bool {
	hit := make(map[uint32]bool, len(p.hit))
	for _, a := range p.hit {
		hit[a] = true
	}
	for _, a := range p.miss {
		if hit[a] {
			return false
		}
	}
	return true
}

// runServe measures the lookup service end to end over loopback HTTP.
func runServe(ctx context.Context, p params) *result {
	r := newResult("serve", host(shards, serveConns))
	st, cfg, epochs, err := serveStudy(p)
	if err != nil {
		r.attempted, r.failed = 1, 1
		r.check("study", false, "%v", err)
		return r
	}
	defer st.Close()
	pools, err := primePools(ctx, st, cfg, epochs, p.seed)
	if err != nil {
		r.attempted, r.failed = 1, 1
		r.check("pools", false, "%v", err)
		return r
	}
	r.check("pools disjoint", pools.disjoint(), "%d hit and %d miss addresses", len(pools.hit), len(pools.miss))

	mixers := newMixers(p.seed, pools)
	var setups, rates, epochIv []float64
	var lat [nKinds][]float64
	var failures []string
	var heap float64
	unstamped := 0
	deadline := time.Now().Add(p.seconds)
	for len(rates) == 0 || time.Now().Before(deadline) {
		cs, err := serveCycle(ctx, st, cfg, epochs, mixers, nil)
		if err != nil {
			r.attempted++
			r.failed++
			r.check("cycle", false, "%v", err)
			break
		}
		if len(rates) == 0 {
			// Later cycles' readings would also hold the samples this
			// loop keeps, which grow with the run's request rate.
			heap = cs.heapMB
		}
		setups = append(setups, cs.setup.Seconds())
		rates = append(rates, float64(cs.done)/cs.window.Seconds())
		epochIv = append(epochIv, cs.epochs...)
		for k := range lat {
			lat[k] = append(lat[k], cs.lat[k]...)
		}
		r.attempted += cs.attempts
		r.failed += cs.failed
		failures = append(failures, cs.failures...)
		unstamped += cs.unstamped
	}
	r.set("heap_peak_mb", heap, 1)
	all := append(append(append([]float64(nil), lat[kindHit]...), lat[kindMiss]...), lat[kindList]...)
	r.check("replies", r.failed == 0 && len(failures) == 0, "%d of %d requests failed %v; %d timed without a kernel receive stamp",
		r.failed, r.attempted, failures, unstamped)
	r.check("mix", len(lat[kindHit]) > 0 && len(lat[kindMiss]) > 0 && len(lat[kindList]) > 0,
		"hit %d, miss %d, list %d replies", len(lat[kindHit]), len(lat[kindMiss]), len(lat[kindList]))
	r.set("setup_s", median(setups), len(setups))
	r.set("rate_per_s", median(rates), len(rates))
	r.set("latency_p50_us", median(all), len(all))
	r.set("latency_tail_us", tail(all), len(all))
	r.set("epoch_s", median(epochIv), len(epochIv))
	return r
}

// traceServe runs traced cycles and derives the serving layers.
func traceServe(ctx context.Context, p params, r *result) {
	st, cfg, epochs, err := serveStudy(p)
	if err != nil {
		r.check("serve study", false, "%v", err)
		return
	}
	defer st.Close()
	pools, err := primePools(ctx, st, cfg, epochs, p.seed)
	if err != nil {
		r.check("serve pools", false, "%v", err)
		return
	}
	mixers := newMixers(p.seed, pools)
	var rtt, handler [nKinds][]float64
	var commit, sweeps, lag, lookups, probeUs []float64
	var hit, miss, refresh, coalesced, probes uint64
	var failures []string
	cycles, failed := 0, 0
	deadline := time.Now().Add(p.seconds)
	for cycles == 0 || time.Now().Before(deadline) {
		tr := &cycleTrace{reg: metrics.New(), setAt: map[int]int64{}, sweepAt: map[int]int64{}}
		cs, err := serveCycle(ctx, st, cfg, epochs, mixers, tr)
		if err != nil {
			r.check("serve traced cycle", false, "%v", err)
			return
		}
		failed += cs.failed
		failures = append(failures, cs.failures...)
		r.attempted += cs.attempts
		r.failed += cs.failed
		for k := range rtt {
			rtt[k] = append(rtt[k], cs.lat[k]...)
			handler[k] = append(handler[k], tr.handler[k]...)
		}
		commit = append(commit, tr.commit...)
		sweeps = append(sweeps, tr.sweeps...)
		lag = append(lag, tr.lag...)
		lookups = append(lookups, tr.lookup)
		pt := tr.prober.totals()
		probeUs = append(probeUs, ratio(float64(pt.sendNs), float64(pt.calls))/1e3)
		hit += tr.counts.Counter("svc.lookup.hit")
		miss += tr.counts.Counter("svc.lookup.miss")
		refresh += tr.counts.Counter("svc.lookup.refresh")
		coalesced += tr.counts.Counter("svc.lookup.coalesced")
		probes += tr.counts.Counter("svc.probe.done")
		cycles++
	}
	r.check("serve traced replies", failed == 0 && len(failures) == 0, "%d traced requests failed %v", failed, failures)
	for k, name := range kindNames {
		r.set("serve.http.rtt_us."+name, median(rtt[k]), len(rtt[k]))
		r.set("serve.http.rtt_tail_us."+name, tail(rtt[k]), len(rtt[k]))
		r.set("serve.resolvesvc.handler_us."+name, median(handler[k]), len(handler[k]))
		r.set("serve.resolvesvc.handler_tail_us."+name, tail(handler[k]), len(handler[k]))
	}
	r.set("serve.http.overhead_us", median(rtt[kindHit])-median(handler[kindHit]), len(rtt[kindHit]))
	r.set("serve.resolvesvc.lookup_ns", median(lookups), cycles)
	r.set("serve.resolvesvc.probe_us", median(probeUs), cycles)
	lookupsN := float64(hit + miss + refresh)
	r.set("serve.resolvesvc.hit_ratio", ratio(float64(hit), lookupsN), int(lookupsN))
	r.set("serve.resolvesvc.refresh_ratio", ratio(float64(refresh), lookupsN), int(lookupsN))
	r.set("serve.resolvesvc.miss_ratio", ratio(float64(miss), lookupsN), int(lookupsN))
	r.set("serve.resolvesvc.coalesced_ratio", ratio(float64(coalesced), float64(miss+refresh)), int(miss+refresh))
	r.set("serve.resolvesvc.probes_per_miss", ratio(float64(probes), float64(miss+refresh)), int(miss+refresh))
	r.set("serve.resolvesvc.commit_ms", mean(commit), len(commit))
	r.set("serve.scanner.sweep_ms", mean(sweeps), len(sweeps))
	r.set("serve.pipeline.lag", mean(lag), len(lag))
}

// mean is the arithmetic mean (0 for no samples).
func mean(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return ratio(s, float64(len(xs)))
}

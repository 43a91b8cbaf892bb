package main

import (
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/introspect"
	"repro/internal/obs"
	"repro/internal/runtime"
	rnet "repro/internal/runtime/net"
)

// kvMaxClients bounds the closed-loop client goroutines of a workload, and
// so the requests in flight: each caller of /kv waits for its reply, and two
// cores cannot host more independent generators honestly.
const kvMaxClients = 2

// tail_ms on the kv workloads is the mean latency of the requests between
// the 90th and the 99th percentile of a repetition. A single percentile is
// one order statistic, and latency here comes in steps: Await polls with a
// 200 us sleep, and on kv_mixed the hello-tick replica push holds the executor
// for ~10 ms, which catches 5-10 % of the requests, so p95 sits on the edge of
// that step (ten runs of the same code spread it by 20-27 %, p99 by 5-16 %).
// The mean over a tenth of the samples moves with the tail and spreads by
// 2-4 %. The slowest 1 % stays out: that is where a stall of the host lands.
const (
	kvTailFrom = 0.90
	kvTailTo   = 0.99
)

// kvProcs is the cluster shape: a bootstrap plus two workers, each a
// runtime/net runtime with its own core.System and introspect.Server, all in
// this process and talking over loopback TCP.
const (
	kvProcs        = 3
	kvPeersPerProc = 8
)

// structureSeed seeds the systems' own random sources: ring ids, protocol
// randomness, the topology, the fault schedule. -seed drives the generated
// load only (keys, values, op order, origins). A different ring is a different
// system rather than a different input, and its effect on run time (10-18 %
// between seeds) is larger than any bound the benchmark could then state.
const structureSeed = 42

// kvConfig is the wall-clock timer scale of cmd/hybridnode, except for the
// failure detector's timeout: 400 ms there, 2 s here. A stall of this process
// longer than the timeout (stopping it for 600 ms reproduces it, and a shared
// host does that to its guests now and then) expires every watchdog before
// the HELLOs that were due are read: live neighbours are declared crashed,
// and while the repair runs a few requests get a 404 or a 502. No peer
// crashes in the kv workloads, so the timeout changes no traffic; it keeps a
// stall of the host from becoming a failure of the system under test.
func kvConfig(k int) core.Config {
	cfg := core.DefaultConfig()
	cfg.Ps = 0.6
	cfg.Delta = 3
	cfg.HelloEvery = 100 * runtime.Millisecond
	cfg.HelloTimeout = 2 * runtime.Second
	cfg.SuppressTimeout = 50 * runtime.Millisecond
	cfg.LookupTimeout = 3 * runtime.Second
	cfg.JoinTimeout = 3 * runtime.Second
	cfg.FingerRefreshEvery = 250 * runtime.Millisecond
	cfg.ReplicationK = k
	return cfg
}

// kvCluster is one three-runtime cluster.
type kvCluster struct {
	nets   []*rnet.Runtime
	traced []*tracingRuntime // nil in an untraced repetition
	syss   []*core.System
	srvs   []*introspect.Server
	urls   []string
}

// startCluster boots the cluster: the bootstrap joins 8 forced t-peers, each
// worker 8 server-assigned peers. With rec non-nil every System runs on a
// tracingRuntime around its socket runtime.
func startCluster(k int, rec *traceRec) (c *kvCluster, err error) {
	c = &kvCluster{}
	defer func() {
		if err != nil {
			c.close()
		}
	}()
	cfg := kvConfig(k)
	for i := 0; i < kvProcs; i++ {
		ncfg := rnet.Config{
			Listen:       "127.0.0.1:0",
			Messages:     core.WireMessages(),
			Seed:         structureSeed + int64(i),
			AwaitTimeout: 20 * time.Second,
			Logf:         func(string, ...any) {},
		}
		if i > 0 {
			ncfg.Bootstrap = c.nets[0].Endpoint()
		}
		nrt, err := rnet.New(ncfg)
		if err != nil {
			return c, err
		}
		c.nets = append(c.nets, nrt)
		var rt runtime.Runtime = nrt
		if rec != nil {
			t := newTracingRuntime(nrt, rec, i)
			c.traced = append(c.traced, t)
			rt = t
		}
		var sys *core.System
		opts := core.PopulationOpts{N: kvPeersPerProc}
		if i == 0 {
			sys, err = core.NewSystem(rt, cfg, 0)
			role := core.TPeer
			opts.ForceRole = &role
		} else {
			sys, err = core.NewPeerSystem(rt, cfg)
		}
		if err != nil {
			return c, err
		}
		sys.MarkPartial()
		c.syss = append(c.syss, sys)
		if _, _, err := sys.BuildPopulation(opts); err != nil {
			return c, fmt.Errorf("process %d: %w", i, err)
		}
		srv, err := introspect.Start(introspect.Config{Addr: "127.0.0.1:0", Sys: sys, Reg: obs.NewRegistry()})
		if err != nil {
			return c, err
		}
		c.srvs = append(c.srvs, srv)
		c.urls = append(c.urls, "http://"+srv.Addr()+"/kv/")
	}
	return c, nil
}

// close stops the HTTP servers and runtimes; rnet's Close waits for every
// goroutine it started, so nothing survives the repetition.
func (c *kvCluster) close() {
	for _, s := range c.srvs {
		s.Close()
	}
	for _, n := range c.nets {
		n.Close()
	}
}

// awaitHealthy polls every process's HealthScore until all are healthy: the
// audit can catch a repair mid-flight that the next heartbeat resolves.
func (c *kvCluster) awaitHealthy(timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		var bad error
		for i, sys := range c.syss {
			var h core.HealthScore
			sys.Runtime().Do(func() { h = sys.HealthScore() })
			if !h.Healthy() {
				bad = fmt.Errorf("process %d unhealthy: %+v", i, h)
				break
			}
		}
		if bad == nil || time.Now().After(deadline) {
			return bad
		}
		time.Sleep(50 * time.Millisecond)
	}
}

// kvClient is one closed-loop client: its own keep-alive connections, its
// own generator, servers taken round-robin.
type kvClient struct {
	id    int
	seed  int64
	size  int
	urls  []string
	hc    *http.Client
	gen   *kvGen
	getMs []float64
	putMs []float64
	spans []span // request spans, kept only in a traced repetition
	fails []string
}

func newKVClient(id int, seed int64, urls []string, gen *kvGen, size int) *kvClient {
	return &kvClient{
		id: id, seed: seed, size: size, urls: urls, gen: gen,
		hc: &http.Client{
			Transport: &http.Transport{MaxIdleConnsPerHost: 2},
			Timeout:   10 * time.Second,
		},
	}
}

// do issues one request and verifies the reply: status 200 and, for a GET,
// exactly the value the generator derives for the key.
func (c *kvClient) do(op kvOp, server int) error {
	url := c.urls[server] + op.key
	var (
		req *http.Request
		err error
	)
	if op.put {
		req, err = http.NewRequest(http.MethodPut, url, strings.NewReader(valueFor(c.seed, op.key, c.size)))
	} else {
		req, err = http.NewRequest(http.MethodGet, url, nil)
	}
	if err != nil {
		return err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%s %s: status %d: %s", req.Method, op.key, resp.StatusCode, strings.TrimSpace(string(body)))
	}
	if !op.put && string(body) != valueFor(c.seed, op.key, c.size) {
		return fmt.Errorf("GET %s: wrong body (%d bytes)", op.key, len(body))
	}
	return nil
}

// run issues n generated requests back to back. A failed request records no
// latency: it counts as missing any latency limit.
func (c *kvClient) run(n int, keepSpans bool) {
	for i := 0; i < n; i++ {
		op := c.gen.next()
		server := (c.id + i) % len(c.urls)
		start := time.Now()
		err := c.do(op, server)
		end := time.Now()
		if err != nil {
			c.fails = append(c.fails, err.Error())
			continue
		}
		ms := float64(end.Sub(start)) / float64(time.Millisecond)
		name := "GET"
		if op.put {
			c.gen.ack(op.key)
			c.putMs = append(c.putMs, ms)
			name = "PUT"
		} else {
			c.getMs = append(c.getMs, ms)
		}
		if keepSpans {
			c.spans = append(c.spans, span{id: 1 + c.id + kvMaxClients*i, name: name, rt: server, start: start, end: end})
		}
	}
	c.hc.CloseIdleConnections()
}

// kvParams sizes one kv workload.
type kvParams struct {
	clients   int           // closed-loop clients, at most kvMaxClients
	k         int           // ReplicationK
	preload   int           // keys PUT during set-up
	valueSize int           // bytes per value
	putShare  float64       // share of measured ops that are PUTs of fresh keys
	ops       int           // measured ops per repetition, over all clients
	idle      time.Duration // idle window of the traced repetition
}

// kvRep runs one repetition on a fresh cluster. With rec non-nil the cluster
// is traced and the probes that need a live cluster (idle window, direct
// lookups) run after the measured window.
func kvRep(seed int64, p kvParams, rec *traceRec) (*repResult, error) {
	repStart := time.Now()
	c, err := startCluster(p.k, rec)
	if err != nil {
		return nil, err
	}
	defer c.close()
	time.Sleep(time.Second) // settle: a few heartbeat and finger-refresh rounds
	if err := c.awaitHealthy(10 * time.Second); err != nil {
		return nil, fmt.Errorf("before load: %w", err)
	}
	loader := newKVClient(0, seed, c.urls, nil, p.valueSize)
	for i := 0; i < p.preload; i++ {
		if err := loader.do(kvOp{put: true, key: preKey(seed, i)}, i%len(c.urls)); err != nil {
			return nil, fmt.Errorf("preload: %w", err)
		}
	}
	loader.hc.CloseIdleConnections()

	clients := make([]*kvClient, p.clients)
	for i := range clients {
		clients[i] = newKVClient(i, seed, c.urls, newKVGen(seed, i, p.preload, p.putShare), p.valueSize)
	}
	res := &repResult{setupS: time.Since(repStart).Seconds(), layer: map[string]float64{}}
	rec.record(true)
	w := startWindow()
	var wg sync.WaitGroup
	for i, cl := range clients {
		n := p.ops / p.clients
		if i < p.ops%p.clients {
			n++
		}
		wg.Add(1)
		go func(cl *kvClient, n int) {
			defer wg.Done()
			cl.run(n, rec != nil && rec.keepSpans)
		}(cl, n)
	}
	wg.Wait()
	w.stop(res)
	rec.record(false)

	var lat []float64
	for _, cl := range clients {
		res.getMs = append(res.getMs, cl.getMs...)
		res.putMs = append(res.putMs, cl.putMs...)
		res.failures = append(res.failures, cl.fails...)
		res.spans = append(res.spans, cl.spans...)
	}
	lat = append(append(lat, res.getMs...), res.putMs...)
	res.attempted = p.ops
	res.failed = len(res.failures)
	res.tailMs = tailMean(lat, kvTailFrom, kvTailTo)

	if rec != nil {
		if err := kvTracedProbes(c, rec, seed, p, res); err != nil {
			return nil, err
		}
	}
	if err := c.awaitHealthy(10 * time.Second); err != nil {
		return nil, fmt.Errorf("after load: %w", err)
	}
	return res, nil
}

// count sizes a fixed amount of work: perSecond operations for every
// measured second one repetition is sized for, at least atLeast.
func (s scale) count(perSecond float64, atLeast int) int {
	return max(atLeast, int(perSecond*s.perRep()+0.5))
}

// kvReadRep: GETs only, k=1, small values. No replication traffic, so
// per-message and per-request fixed costs dominate.
//
// One client. Await polls with a 200 us sleep, which lasts ~0.3 ms if some
// thread of the process is awake when it expires and ~1.06 ms if none is
// (netpoll rounds a sub-millisecond wait up to 1 ms). With two clients and
// nothing else going on, whether one is awake depends on how the two requests
// happen to overlap; the share of short sleeps holds within a process (its
// repetitions agree to 1-3 %) and differs between processes, so ten runs of
// the same code read 1940-2480 ops/s and spread by 6-21 %. With one client
// the process is idle whenever Await sleeps, every GET costs one long sleep,
// and twelve runs read 794-801 ops/s.
func kvReadRep(seed int64, sc scale, rec *traceRec) (*repResult, error) {
	return kvRep(seed, kvParams{
		clients: 1, k: 1, valueSize: 64, idle: sc.idle(),
		preload: min(2000, sc.count(500, 40)),
		ops:     sc.count(800, 100),
	}, rec)
}

// kvMixedRep: half PUTs of fresh 1 KiB keys, half GETs, k=3. The hello-tick
// replica push re-sends the owner's whole owned set, so lock hold time, codec
// bytes and mailbox depth grow with what the run has stored.
func kvMixedRep(seed int64, sc scale, rec *traceRec) (*repResult, error) {
	return kvRep(seed, kvParams{
		clients: kvMaxClients, k: 3, valueSize: 1024, putShare: 0.5, idle: sc.idle(),
		preload: min(1000, sc.count(250, 40)),
		ops:     sc.count(1800, 100),
	}, rec)
}

// idle is the length of the traced repetition's idle window.
func (s scale) idle() time.Duration {
	return min(2*time.Second, time.Duration(s.perRep()*float64(time.Second)/2))
}

// kvTracedProbes finishes a traced kv repetition while the cluster is up.
func kvTracedProbes(c *kvCluster, rec *traceRec, seed int64, p kvParams, res *repResult) error {
	collect(c.traced, rec, res)
	idle := func() float64 { time.Sleep(p.idle); return p.idle.Seconds() }
	if err := liveProbes(c.traced, rec, c.syss[0], preKeys(seed, p.preload), seed, idle, res); err != nil {
		return err
	}
	var pushed, hellos uint64
	for _, sys := range c.syss {
		sys.Runtime().Do(func() {
			st := sys.Stats()
			pushed += st.ReplicasPushed
			hellos += st.HellosSent
		})
	}
	res.layer["core.replicas_pushed_per_put"] = float64(pushed) / float64(p.preload+len(res.putMs))
	res.layer["core.hellos_per_s"] = float64(hellos) / c.nets[0].Now().Seconds()
	return nil
}
